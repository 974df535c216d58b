"""Stage orchestration and artifact serialization.

Every command enters through :func:`run_command`, which creates the output
directory, echoes the effective config to config.json and runs the
command's stage, or every stage for ``report``. Each stage is a function of
(config, table) that writes fixed-name artifacts into the output directory
and returns a :class:`StageResult`. Every stage body runs inside
:func:`_stage`, which times it, records its warnings, loads the configured
input when no table is passed and hands it the one artifact writer. Numeric
artifacts are byte-deterministic for a given config and seed: floats are
written in their shortest round-trip form and JSON keys are sorted.

dataset.csv is written by :func:`run_command`, not by the synth and ingest
stages, so their seconds do not include the write. ``synth`` and ``ingest``
write it inline. ``report`` forks one child that writes it while segment,
glasso and causality run, as none of them reads the file; the parent waits
for the child before report.json, on every exit path, and writes the file
itself when the child failed or ``os.fork`` is missing or fails.

An input that is a regular file is parsed by two processes: inside the
ingest stage, :func:`~energyseg.records.ingest_csv` forks a child that parses
the second half of the file and reaps it before returning. Both children
come from :func:`~energyseg.records.fork_child`, and the parse child has
ended before the writer is forked, so a report uses at most two processes
at a time.
"""

from __future__ import annotations

import csv
import json
import os
import time
import warnings
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from . import causality as causality_mod
from . import clustering as clustering_mod
from . import glasso as glasso_mod
from . import segmentation as segmentation_mod
from .config import OUTPUT_ROOT_ENV, PipelineConfig
from .errors import InvalidConfig, TooFewRows
from .features import (
    FeatureMatrix,
    _standardize_in_place,
    player_day_segments,
    pool_features,
)
from .records import (
    DatasetTable,
    emit_csv,
    fork_child,
    ingest_csv,
    reap_child,
    require_nonempty,
)
from .segmentation import ClassLabel
from .synthetic import generate_synthetic

DATASET_FILE = "dataset.csv"
CONFIG_FILE = "config.json"
REPORT_FILE = "report.json"
# write(file name, payload): one artifact into the stage's output directory
Writer = Callable[[str, object], None]


def resolve_output_dir(config: PipelineConfig, command: str) -> str:
    if config.output_dir:
        return config.output_dir
    root = os.environ.get(OUTPUT_ROOT_ENV, "energyseg_out")
    return os.path.join(root, command)


def _write(path: str, payload) -> None:
    """Write ``payload`` to ``path``: CSV rows, header first, for a ``.csv`` name, else JSON.

    JSON keys are sorted and numpy values go through ``tolist()``.
    """
    with open(path, "w", encoding="utf-8", newline="") as handle:
        if path.endswith(".csv"):
            csv.writer(handle, lineterminator="\n").writerows(payload)
        else:
            json.dump(payload, handle, indent=2, sort_keys=True, default=lambda v: v.tolist())
            handle.write("\n")


def _writer(out_dir: str, files: list[str]) -> Writer:
    """A writer of artifacts into ``out_dir`` that lists each file name in ``files``."""

    def write(file_name: str, payload) -> None:
        _write(os.path.join(out_dir, file_name), payload)
        files.append(file_name)

    return write


@dataclass
class StageResult:
    name: str
    seconds: float
    summary: dict
    warnings: list[str] = field(default_factory=list)
    files: list[str] = field(default_factory=list)


def load_input(config: PipelineConfig) -> DatasetTable:
    if not config.input:
        raise InvalidConfig("no input dataset configured; set input or run synth first")
    table = ingest_csv(config.input)
    require_nonempty(table)
    return table


@contextmanager
def _stage(
    name: str,
    out_dir: str,
    config: PipelineConfig | None = None,
    table: DatasetTable | None = None,
) -> Iterator[tuple[StageResult, DatasetTable | None, Writer]]:
    """Time a stage body and record its warnings; yields ``(result, table, write)``.

    With a ``config``, a missing ``table`` is loaded from the configured
    input inside the timed block (synth reads no input and passes none).
    ``write(name, payload)`` writes an artifact into ``out_dir`` (see
    :func:`_write`) and lists it in the result's files. The body fills the
    summary and may seed warnings; on exit the result gets the wall time,
    and its warnings are the distinct ones raised in the block, then seeded.
    """
    start = time.perf_counter()
    stage = StageResult(name=name, seconds=0.0, summary={})
    write = _writer(out_dir, stage.files)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if config is not None and table is None:
            table = load_input(config)
        yield stage, table, write
    stage.warnings = list(dict.fromkeys([str(w.message) for w in caught] + stage.warnings))
    stage.seconds = time.perf_counter() - start


def run_synth(config: PipelineConfig, out_dir: str) -> tuple[DatasetTable, StageResult]:
    """Generate the synthetic dataset; the caller writes it as dataset.csv."""
    with _stage("synth", out_dir) as (stage, _, _):
        table = generate_synthetic(config.synth, config.seed)
        stage.files.append(DATASET_FILE)
        stage.summary = {
            "players": len(table.player_ids),
            "days": config.synth.n_days,
            "records": len(table),
        }
    return table, stage


def run_ingest(config: PipelineConfig, out_dir: str) -> tuple[DatasetTable, StageResult]:
    """Validate an input CSV and write a summary; the caller writes its normalized copy.

    ``gaps`` counts the places where a (player, day) run skips a minute, and
    ``missing_minutes`` the minutes skipped, between each run's first and
    last row; either one nonzero is a stage warning.
    """
    with _stage("ingest", out_dir, config) as (stage, table, write):
        stage.files.append(DATASET_FILE)
        starts, lengths, days = table.day_runs()
        minutes = table.timestamps.view(np.int64)
        spans = minutes[starts + lengths - 1] - minutes[starts] + 1
        gaps = len(table.minute_runs()[0]) - len(starts)
        missing = int((spans - lengths).sum())
        stage.summary = {
            "records": len(table),
            "players": len(table.player_ids),
            "days": len(set(days)),
            "dropped_rows": table.dropped_rows,
            "dropped_by_reason": table.dropped_by_reason,
            "gaps": gaps,
            "missing_minutes": missing,
        }
        if gaps or missing:
            stage.warnings.append(
                f"{missing} missing minute(s) in {gaps} gap(s) inside (player, day) runs: "
                "Granger segments and switch counts stop at each gap"
            )
        write("ingest.json", stage.summary)
    return table, stage


def _group_correlations(
    write: Writer,
    pool: Callable[[np.ndarray], FeatureMatrix],
    names: tuple[str, ...],
    row_keys: np.ndarray,
    files: dict,
) -> dict:
    """Correlation matrix of each row group that has at least two rows.

    ``files`` maps a key to a CSV file name; its group is the matrix of the
    ``names`` columns that ``pool`` returns for the mask of the rows whose
    ``row_keys`` entry equals the key. Each matrix is written to its CSV
    with ``write``, one row per feature; the result maps the same keys to
    the matrices. Memory: one group's matrix at a time, correlated in place.
    """
    corrs = {}
    for key, file_name in files.items():
        mask = row_keys == key
        if np.count_nonzero(mask) < 2:
            continue
        # the group's matrix lives only through this call
        corr = segmentation_mod._correlation_in_place(pool(mask))
        rows = [(name, *row) for name, row in zip(names, corr.tolist())]
        write(file_name, [("feature", *names)] + rows)
        corrs[key] = corr
    return corrs


def run_segment(
    config: PipelineConfig, out_dir: str, table: DatasetTable | None = None
) -> StageResult:
    """Supervised classes, clustering, labelling and proportion artifacts.

    Memory: one copy of the clustering matrix, standardized in place, and
    of each class and cluster group's graph rows, never the whole graph
    matrix at minute granularity.
    """
    with _stage("segment", out_dir, config, table) as (stage, table, write):
        cl_cfg = config.clustering

        # -- features for clustering ----------------------------------------
        spec = config.features.clustering_spec
        matrix = _standardize_in_place(pool_features(table, spec))

        pca = clustering_mod.pca_fit(matrix)
        scores = clustering_mod.pca_transform(pca, matrix.values)
        write(
            "pca.json",
            {
                "components": pca.components,
                "explained_variance_ratio": pca.explained_variance_ratio,
                "mean": pca.mean,
                "feature_names": list(matrix.column_names),
            },
        )

        # -- elbow curve + silhouettes over the configured k range -----------
        n_rows = scores.shape[0]
        k_lo, k_hi = cl_cfg.k_range
        ks = list(range(k_lo, min(k_hi, n_rows) + 1))
        distinct = clustering_mod._distinct_rows(scores)  # for every k-means fit and silhouette
        models = {
            k: clustering_mod.minibatch_kmeans(scores, k, cl_cfg, config.seed, distinct) for k in ks
        }
        suggested_k = None
        if len(ks) >= 3:
            suggested_k = clustering_mod.elbow_k(ks, np.array([models[k].inertia for k in ks]))

        k = suggested_k if cl_cfg.k == "auto" else cl_cfg.k
        if k is None:
            raise TooFewRows(
                f"k='auto' needs 3 candidate k values, but k_range {list(cl_cfg.k_range)} "
                f"over {n_rows} clustering rows gives {len(ks)}"
            )
        if k not in models:
            models[k] = clustering_mod.minibatch_kmeans(scores, k, cl_cfg, config.seed, distinct)
        model = models[k]
        for fit in models.values():
            if not fit.converged:
                stage.warnings.append(
                    f"k-means with k={fit.k} stopped at max_iters={cl_cfg.max_iters} "
                    "before its assignments settled"
                )

        silhouettes = {
            sk: clustering_mod.silhouette(scores, fit.assignments, distinct)[0]
            for sk, fit in sorted(models.items())
            if n_rows >= 3 and np.ptp(fit.assignments) > 0
        }
        write(
            "elbow.csv",
            [("k", "inertia", "silhouette")]
            + [(ek, models[ek].inertia, silhouettes.get(ek, "")) for ek in ks],
        )
        write(
            "clusters.json",
            {
                "k": model.k,
                "centroids": model.centroids,
                "assignments": model.assignments,
                "inertia": model.inertia,
                "seed": model.seed,
                "iterations": model.iterations,
                "converged": model.converged,
            },
        )

        # -- supervised classes -----------------------------------------------
        class_map, bands = segmentation_mod.assign_classes(table)
        class_counts = {
            label.label: sum(1 for c in class_map.values() if c is label) for label in ClassLabel
        }
        write(
            "classes.json",
            {
                "classes": {player: label.label for player, label in class_map.items()},
                "rank_bands": {
                    "rank_min": bands.rank_min,
                    "rank_max": bands.rank_max,
                    "boundaries": list(bands.boundaries),
                },
                "counts": class_counts,
            },
        )

        # -- correlation matrices per class and per cluster -------------------
        graph_spec = config.features.graph_spec
        runs = table.day_runs()
        row_codes = table.player_codes
        if graph_spec.granularity == "daily":
            row_codes = row_codes[runs[0]]
            # a row per (player, day) is small: pool the whole matrix once and mask it
            whole = pool_features(table, graph_spec, runs=runs).values

            def pool_group(rows):
                return FeatureMatrix(whole[rows], graph_spec.features)
        else:
            # a row per minute is not: pool each group's rows alone
            def pool_group(rows):
                return pool_features(table, graph_spec, rows=rows, runs=runs)
        row_class = np.array([int(class_map[p]) for p in table.player_ids])[row_codes]
        row_cluster = model.assignments
        if graph_spec.granularity == "minute" and spec.granularity == "daily":
            # each minute row takes the cluster of its (player, day) run
            row_cluster = np.repeat(model.assignments, runs[1])
        names = graph_spec.features
        class_corrs = _group_correlations(
            write,
            pool_group,
            names,
            row_class,
            {label: f"corr_class_{label.label}.csv" for label in ClassLabel},
        )
        cluster_corrs = _group_correlations(
            write,
            pool_group,
            names,
            row_cluster,
            {c: f"corr_cluster_{c}.csv" for c in range(model.k)},
        )

        # -- cluster labelling (defined for k = 3 with all groups present) ----
        labelling_summary = None
        if model.k == 3 and len(class_corrs) == 3 and len(cluster_corrs) == 3:
            labelling = segmentation_mod.label_clusters(
                [cluster_corrs[c] for c in range(3)], class_corrs
            )
            labelling_summary = {str(c): label.label for c, label in labelling.mapping.items()}
            write(
                "labelling.json",
                {
                    "mapping": labelling_summary,
                    "similarity_matrix": labelling.similarity_matrix,
                    "similarity_columns": [label.label for label in ClassLabel],
                    "method": labelling.method,
                },
            )

        # -- per-player proportions in each cluster ---------------------------
        report = segmentation_mod.proportion_buckets(
            class_map,
            matrix.row_players,
            model.assignments,
            model.k,
        )
        write(
            "proportions.json",
            {
                "bucket_edges": list(segmentation_mod.BUCKET_EDGES),
                "per_player": report.per_player,
                "histograms": {label.label: report.counts[label] for label in ClassLabel},
            },
        )
        write(
            "proportions.csv",
            [("player", "class", "cluster", "proportion")]
            + [
                (player, class_map[player].label, c, float(props[c]))
                for player, props in report.per_player.items()
                for c in range(model.k)
            ],
        )

        stage.summary = {
            "k": model.k,
            "suggested_k": suggested_k,
            "inertia": model.inertia,
            "silhouette": silhouettes.get(k),
            "class_counts": class_counts,
            "labelling": labelling_summary,
            "pca_dim": int(pca.components.shape[0]),
        }
    return stage


def run_glasso(
    config: PipelineConfig, out_dir: str, table: DatasetTable | None = None
) -> StageResult:
    """Dependency-graph estimation artifacts (graph.json, edges.csv).

    Memory: the pooled graph matrix, standardized in place, and one fold's rows.
    """
    with _stage("glasso", out_dir, config, table) as (stage, table, write):
        matrix = _standardize_in_place(pool_features(table, config.features.graph_spec))
        graph = glasso_mod.graphical_lasso(matrix, config.glasso, seed=config.seed)
        write("graph.json", glasso_mod.graph_to_dict(graph))
        write("edges.csv", [("a", "b", "weight", "sign"), *glasso_mod.edges_to_csv_rows(graph)])
        stage.summary = {
            "vertices": len(graph.vertex_names),
            "edges": len(graph.edges),
            "symmetrization": graph.symmetrization,
            "sweeps": graph.sweeps,
            "solves": graph.solves,
        }
        stage.warnings = list(graph.warnings)
    return stage


def run_causality(
    config: PipelineConfig, out_dir: str, table: DatasetTable | None = None
) -> StageResult:
    """Per-class Granger grid over the configured (cause, effect) pairs."""
    with _stage("causality", out_dir, config, table) as (stage, table, write):
        cz = config.causality
        class_map, _ = segmentation_mod.assign_classes(table)

        names = sorted({name for pair in cz.pairs for name in pair})
        segments = player_day_segments(table, names)

        tests = []
        for label in ClassLabel:
            players = {p for p, c in class_map.items() if c is label}
            if not players:
                continue
            class_segments = [series for p, _, series in segments if p in players]
            for cause, effect in cz.pairs:
                pair_segments = [(series[cause], series[effect]) for series in class_segments]
                result = causality_mod.granger_test_segments(
                    pair_segments,
                    lag=cz.lag,
                    alpha=cz.alpha,
                    cause=cause,
                    effect=effect,
                    first_difference=cz.first_difference,
                )
                tests.append(
                    {
                        "player_type": label.label,
                        "cause": cause,
                        "effect": effect,
                        "lag": result.lag,
                        "p_value": result.p_value,
                        "p_display": result.display_p,
                        "f_statistic": result.f_statistic,
                        "reject": result.reject_h0,
                        "alpha": result.alpha,
                        "n_effective": result.n_effective,
                        "inconclusive": result.inconclusive,
                    }
                )
        header = ("player_type", "cause", "effect", "lag", "p_value", "f_statistic", "reject")
        write(
            "causality.csv",
            [header]
            + [
                (*(test[name] for name in header[:-1]), "true" if test["reject"] else "false")
                for test in tests
            ],
        )
        write("causality.json", {"tests": tests})
        stage.summary = {
            "tests": len(tests),
            "rejections": sum(1 for test in tests if test["reject"]),
        }
    return stage


def run_command(command: str, config: PipelineConfig, out_dir: str) -> list[StageResult]:
    """Run one CLI command: its own stage, or every stage for ``report``.

    Creates ``out_dir`` and writes config.json, the effective config, before
    any stage runs. ``report`` takes its table from ingest when an input is
    configured, else from synth, passes it to segment, glasso and causality
    while a child writes dataset.csv, and ends with report.json: the stage
    summaries, the seconds spent waiting for dataset.csv and every file
    written.
    Stages are called through their module-level names, so a wrapper bound
    over one (as the profiler in perfbench does) sees the call.
    """
    os.makedirs(out_dir, exist_ok=True)
    files: list[str] = []
    write = _writer(out_dir, files)
    write(CONFIG_FILE, config.to_dict())
    dataset = os.path.join(out_dir, DATASET_FILE)
    if command in ("synth", "ingest"):
        table, stage = globals()[f"run_{command}"](config, out_dir)
        emit_csv(table, dataset)
        return [stage]
    if command != "report":
        return [globals()[f"run_{command}"](config, out_dir)]

    table, stage = run_ingest(config, out_dir) if config.input else run_synth(config, out_dir)
    writer = fork_child(lambda: emit_csv(table, dataset))
    try:
        stages = [
            stage,
            run_segment(config, out_dir, table),
            run_glasso(config, out_dir, table),
            run_causality(config, out_dir, table),
        ]
    finally:  # reap the writer, or write inline when there is none or it failed
        start = time.perf_counter()
        if writer is None or not reap_child(writer):
            emit_csv(table, dataset)
        dataset_wait_s = time.perf_counter() - start
    files += [f for stage in stages for f in stage.files]
    report = {
        "seed": config.seed,
        "dataset_wait_s": dataset_wait_s,
        "stages": [
            {
                "name": s.name,
                "seconds": s.seconds,
                "summary": s.summary,
                "warnings": s.warnings,
            }
            for s in stages
        ],
        "files": sorted(files + [REPORT_FILE]),
    }
    write(REPORT_FILE, report)
    missing = [f for f in files if not os.path.exists(os.path.join(out_dir, f))]
    if missing:
        raise InvalidConfig(f"report inventory lists missing files: {missing}")
    return stages
