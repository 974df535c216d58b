"""Stage orchestration and artifact serialization.

Each stage is a pure function of (config, table) that writes fixed-name
artifacts into the output directory and returns a summary dict. Numeric
artifacts are byte-deterministic for a given config and seed: floats are
serialized with ``repr`` (shortest round-trip form) and JSON keys are
sorted.
"""

from __future__ import annotations

import csv
import json
import os
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import causality as causality_mod
from . import clustering as clustering_mod
from . import glasso as glasso_mod
from . import segmentation as segmentation_mod
from .config import OUTPUT_ROOT_ENV, PipelineConfig, dump_config
from .errors import InvalidConfig
from .features import (
    FeatureMatrix,
    FeatureSpec,
    player_day_segments,
    pool_features,
    standardize,
)
from .records import DatasetTable, emit_csv, ingest_csv, require_nonempty
from .segmentation import ClassLabel
from .synthetic import GeneratorConfig, generate_synthetic

DATASET_FILE = "dataset.csv"


def resolve_output_dir(explicit: str | None, config: PipelineConfig, command: str) -> str:
    if explicit:
        return explicit
    if config.output_dir:
        return config.output_dir
    root = os.environ.get(OUTPUT_ROOT_ENV, "energyseg_out")
    return os.path.join(root, command)


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_format_cell(v) for v in row])


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, ClassLabel):
        return obj.label
    return obj


def _write_json(path: str, payload) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(_jsonify(payload), handle, indent=2, sort_keys=True)
        handle.write("\n")


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


def run_synth(config: PipelineConfig, out_dir: str) -> tuple[DatasetTable, StageResult]:
    """Generate the synthetic dataset and write it as dataset.csv."""
    start = time.perf_counter()
    generator = GeneratorConfig(
        players_per_class=config.synth.players_per_class,
        n_days=config.synth.n_days,
        booster=config.synth.booster,
        clamp_points_at_zero=config.synth.clamp_points_at_zero,
        weather_noise=config.synth.weather_noise,
        behavior_jitter=config.synth.behavior_jitter,
    )
    table = generate_synthetic(generator, config.seed)
    path = os.path.join(out_dir, DATASET_FILE)
    emit_csv(table, path)
    summary = {
        "players": len(table.players()),
        "days": config.synth.n_days,
        "records": len(table),
    }
    return table, StageResult(
        name="synth",
        seconds=time.perf_counter() - start,
        summary=summary,
        files=[DATASET_FILE],
    )


def run_ingest(config: PipelineConfig, out_dir: str) -> tuple[DatasetTable, StageResult]:
    """Validate an input CSV and write its normalized copy plus a summary."""
    start = time.perf_counter()
    table = load_input(config)
    emit_csv(table, os.path.join(out_dir, DATASET_FILE))
    days = sorted({rec.day_key() for rec in table.records})
    summary = {
        "records": len(table),
        "players": len(table.players()),
        "days": len(days),
        "dropped_rows": table.dropped_rows,
    }
    _write_json(os.path.join(out_dir, "ingest.json"), summary)
    return table, StageResult(
        name="ingest",
        seconds=time.perf_counter() - start,
        summary=summary,
        files=[DATASET_FILE, "ingest.json"],
    )


def _cluster_of_minute_rows(matrix_rows, clustering_rows, assignments) -> np.ndarray:
    """Cluster id per minute row via its (player, day) daily assignment."""
    daily = {key: int(c) for key, c in zip(clustering_rows, assignments)}
    return np.array([daily[key] for key in matrix_rows], dtype=np.int64)


def run_segment(
    config: PipelineConfig, out_dir: str, table: DatasetTable | None = None
) -> StageResult:
    """Supervised classes, clustering, labelling and proportion artifacts."""
    start = time.perf_counter()
    captured: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = table if table is not None else load_input(config)
        result = _segment_impl(config, out_dir, table)
    captured.extend(str(w.message) for w in caught)
    result.warnings = captured
    result.seconds = time.perf_counter() - start
    return result


def _segment_impl(config: PipelineConfig, out_dir: str, table: DatasetTable) -> StageResult:
    files: list[str] = []
    cl_cfg = config.clustering

    # -- features for clustering --------------------------------------------
    spec = FeatureSpec(
        features=config.features.clustering_features,
        granularity=config.features.clustering_granularity,
    )
    pooled = pool_features(table, spec)
    matrix = standardize(pooled) if config.standardize else pooled

    if cl_cfg.pca_dim is not None:
        pca = clustering_mod.pca_fit(matrix, dim=cl_cfg.pca_dim)
    else:
        pca = clustering_mod.pca_fit(matrix, variance=cl_cfg.pca_variance)
    scores = clustering_mod.pca_transform(pca, matrix.values)
    _write_json(
        os.path.join(out_dir, "pca.json"),
        {
            "components": pca.components,
            "explained_variance_ratio": pca.explained_variance_ratio,
            "mean": pca.mean,
            "feature_names": list(matrix.column_names),
        },
    )
    files.append("pca.json")

    # -- elbow curve + silhouettes over the configured k range ---------------
    params = clustering_mod.KMeansParams(
        batch_size=cl_cfg.batch_size, max_iters=cl_cfg.max_iters, n_init=cl_cfg.n_init
    )
    k_lo, k_hi = cl_cfg.k_range
    k_hi = min(k_hi, scores.shape[0])
    ks = list(range(k_lo, k_hi + 1))
    models = {k: clustering_mod.minibatch_kmeans(scores, k, params, config.seed) for k in ks}
    silhouettes: dict[int, float | None] = {}
    for k, model in models.items():
        if len(np.unique(model.assignments)) >= 2 and scores.shape[0] >= 3:
            silhouettes[k], _ = clustering_mod.silhouette(scores, model.assignments)
        else:
            silhouettes[k] = None
    _write_csv(
        os.path.join(out_dir, "elbow.csv"),
        ("k", "inertia", "silhouette"),
        [
            (k, models[k].inertia, "" if silhouettes[k] is None else silhouettes[k])
            for k in ks
        ],
    )
    files.append("elbow.csv")
    suggested_k = None
    if len(ks) >= 3:
        inertias = np.array([models[k].inertia for k in ks])
        second_diff = inertias[:-2] - 2.0 * inertias[1:-1] + inertias[2:]
        suggested_k = ks[1 + int(np.argmax(second_diff))]

    k = suggested_k if cl_cfg.k == "auto" else int(cl_cfg.k)
    if k is None:
        raise InvalidConfig("k='auto' needs a k_range spanning at least 3 values")
    model = models.get(k) or clustering_mod.minibatch_kmeans(scores, k, params, config.seed)
    mean_sil = silhouettes.get(k)
    _write_json(
        os.path.join(out_dir, "clusters.json"),
        {
            "k": model.k,
            "centroids": model.centroids,
            "assignments": model.assignments,
            "inertia": model.inertia,
            "seed": model.seed,
        },
    )
    files.append("clusters.json")

    # -- supervised classes ---------------------------------------------------
    class_map, bands = segmentation_mod.assign_classes(
        table, invert_rank=config.segmentation.invert_rank
    )
    class_counts = {
        label.label: sum(1 for c in class_map.values() if c is label) for label in ClassLabel
    }
    _write_json(
        os.path.join(out_dir, "classes.json"),
        {
            "classes": {player: label for player, label in class_map.items()},
            "rank_bands": {
                "rank_min": bands.rank_min,
                "rank_max": bands.rank_max,
                "boundaries": list(bands.boundaries),
                "invert_rank": bands.invert_rank,
            },
            "counts": class_counts,
        },
    )
    files.append("classes.json")

    # -- correlation matrices per class and per cluster -----------------------
    graph_spec = FeatureSpec(
        features=config.features.graph_features,
        granularity=config.features.graph_granularity,
    )
    graph_matrix = pool_features(table, graph_spec)
    row_class = np.array([int(class_map[p]) for p in graph_matrix.row_players])
    if config.features.clustering_granularity == "daily":
        minute_clusters = _cluster_of_minute_rows(
            [key for key in zip(graph_matrix.row_players, graph_matrix.row_days)],
            [key for key in zip(matrix.row_players, matrix.row_days)],
            model.assignments,
        )
    else:
        minute_clusters = model.assignments

    def _group_corr(mask: np.ndarray) -> np.ndarray | None:
        if mask.sum() < 2:
            return None
        sub = FeatureMatrix(
            values=graph_matrix.values[mask],
            column_names=graph_matrix.column_names,
        )
        return segmentation_mod.correlation_matrix(sub)

    feature_header = ("feature",) + graph_matrix.column_names

    class_corrs: dict[ClassLabel, np.ndarray] = {}
    for label in ClassLabel:
        corr = _group_corr(row_class == int(label))
        if corr is not None:
            class_corrs[label] = corr
            name = f"corr_class_{label.label}.csv"
            _write_csv(
                os.path.join(out_dir, name),
                feature_header,
                [(graph_matrix.column_names[i],) + tuple(corr[i]) for i in range(corr.shape[0])],
            )
            files.append(name)

    cluster_corrs: dict[int, np.ndarray] = {}
    for c in range(model.k):
        corr = _group_corr(minute_clusters == c)
        if corr is not None:
            cluster_corrs[c] = corr
            name = f"corr_cluster_{c}.csv"
            _write_csv(
                os.path.join(out_dir, name),
                feature_header,
                [(graph_matrix.column_names[i],) + tuple(corr[i]) for i in range(corr.shape[0])],
            )
            files.append(name)

    # -- cluster labelling (defined for k = 3 with all groups present) --------
    labelling_summary = None
    if model.k == 3 and len(class_corrs) == 3 and len(cluster_corrs) == 3:
        labelling = segmentation_mod.label_clusters(
            [cluster_corrs[c] for c in range(3)], class_corrs
        )
        _write_json(
            os.path.join(out_dir, "labelling.json"),
            {
                "mapping": {str(c): label for c, label in labelling.mapping.items()},
                "similarity_matrix": labelling.similarity_matrix,
                "similarity_columns": [label.label for label in ClassLabel],
                "method": labelling.method,
            },
        )
        files.append("labelling.json")
        labelling_summary = {str(c): label.label for c, label in labelling.mapping.items()}

    # -- per-player proportions in each cluster -------------------------------
    report = segmentation_mod.proportion_buckets(
        class_map,
        list(matrix.row_players),
        model.assignments,
        model.k,
        config.segmentation.bucket_edges,
    )
    _write_json(
        os.path.join(out_dir, "proportions.json"),
        {
            "bucket_edges": list(report.bucket_edges),
            "per_player": report.per_player,
            "histograms": {label.label: report.counts[label] for label in ClassLabel},
        },
    )
    files.append("proportions.json")
    _write_csv(
        os.path.join(out_dir, "proportions.csv"),
        ("player", "class", "cluster", "proportion"),
        [
            (player, class_map[player].label, c, float(props[c]))
            for player, props in report.per_player.items()
            for c in range(model.k)
        ],
    )
    files.append("proportions.csv")

    summary = {
        "k": model.k,
        "suggested_k": suggested_k,
        "inertia": model.inertia,
        "silhouette": mean_sil,
        "class_counts": class_counts,
        "labelling": labelling_summary,
        "pca_dim": int(pca.components.shape[0]),
    }
    return StageResult(name="segment", seconds=0.0, summary=summary, files=files)


def run_glasso(
    config: PipelineConfig, out_dir: str, table: DatasetTable | None = None
) -> StageResult:
    """Dependency-graph estimation artifacts (graph.json, edges.csv)."""
    start = time.perf_counter()
    captured: list[str] = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        table = table if table is not None else load_input(config)
        spec = FeatureSpec(
            features=config.features.graph_features,
            granularity=config.features.graph_granularity,
        )
        matrix = standardize(pool_features(table, spec))
        options = glasso_mod.GlassoOptions(
            symmetrization=config.glasso.symmetrization,
            tol=config.glasso.tol,
            max_sweeps=config.glasso.max_sweeps,
            folds=config.glasso.folds,
            selection=config.glasso.selection,
            seed=config.seed,
        )
        graph = glasso_mod.graphical_lasso(matrix, options)
    captured.extend(str(w.message) for w in caught)
    captured.extend(graph.warnings)

    _write_json(os.path.join(out_dir, "graph.json"), glasso_mod.graph_to_dict(graph))
    _write_csv(
        os.path.join(out_dir, "edges.csv"),
        ("a", "b", "weight", "sign"),
        glasso_mod.edges_to_csv_rows(graph),
    )
    summary = {
        "vertices": len(graph.vertex_names),
        "edges": len(graph.edges),
        "symmetrization": graph.symmetrization,
    }
    return StageResult(
        name="glasso",
        seconds=time.perf_counter() - start,
        summary=summary,
        warnings=captured,
        files=["graph.json", "edges.csv"],
    )


def run_causality(
    config: PipelineConfig, out_dir: str, table: DatasetTable | None = None
) -> StageResult:
    """Per-class Granger grid over the configured (cause, effect) pairs."""
    start = time.perf_counter()
    table = table if table is not None else load_input(config)
    cz = config.causality
    class_map, _ = segmentation_mod.assign_classes(
        table, invert_rank=config.segmentation.invert_rank
    )

    names = sorted({name for pair in cz.pairs for name in pair})
    segments = player_day_segments(table, names)

    rows = []
    detailed = []
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
            rows.append(
                (
                    label.label,
                    cause,
                    effect,
                    result.lag,
                    result.p_value,
                    result.f_statistic,
                    result.reject_h0,
                )
            )
            detailed.append(
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
    _write_csv(
        os.path.join(out_dir, "causality.csv"),
        ("player_type", "cause", "effect", "lag", "p_value", "f_statistic", "reject"),
        rows,
    )
    _write_json(os.path.join(out_dir, "causality.json"), {"tests": detailed})
    summary = {
        "tests": len(rows),
        "rejections": sum(1 for row in rows if row[6]),
    }
    return StageResult(
        name="causality",
        seconds=time.perf_counter() - start,
        summary=summary,
        files=["causality.csv", "causality.json"],
    )


def run_report(config: PipelineConfig, out_dir: str) -> list[StageResult]:
    """Full pipeline: dataset, segmentation, graph, causality, report.json."""
    os.makedirs(out_dir, exist_ok=True)
    dump_config(config, os.path.join(out_dir, "config.json"))
    stages: list[StageResult] = []

    if config.input:
        table, stage = run_ingest(config, out_dir)
    else:
        table, stage = run_synth(config, out_dir)
    stages.append(stage)

    stages.append(run_segment(config, out_dir, table))
    stages.append(run_glasso(config, out_dir, table))
    stages.append(run_causality(config, out_dir, table))

    files = ["config.json"]
    for stage in stages:
        files.extend(stage.files)
    files.append("report.json")
    report = {
        "seed": config.seed,
        "stages": [
            {
                "name": s.name,
                "seconds": s.seconds,
                "summary": s.summary,
                "warnings": s.warnings,
            }
            for s in stages
        ],
        "files": sorted(files),
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    missing = [f for f in files if not os.path.exists(os.path.join(out_dir, f))]
    if missing:
        raise InvalidConfig(f"report inventory lists missing files: {missing}")
    return stages
