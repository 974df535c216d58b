"""Run the energyseg CLI with a span around each layer's public functions.

    PYTHONPATH=src python3 perfbench/tracer.py LAYERS.json report --input data.csv --out DIR

The functions named in ``SPANS`` are wrapped wherever the package binds them,
so a module that imported a function by name (``pipeline`` and
``segmentation`` do) calls the wrapper too. The CLI then runs as usual, and
LAYERS.json receives the per-layer metrics: each span's self time (its
duration minus the time of the spans it called), call counts, and work counts
read only from the wrapped calls' arguments and return values.
Spans are kept in memory and written once, when the CLI returns.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import resource
import sys
import time
from collections import Counter

SPANS = {
    "pipeline": ("run_synth", "run_ingest", "run_segment", "run_glasso", "run_causality"),
    "records": ("ingest_csv", "emit_csv"),
    "synthetic": ("generate_synthetic",),
    "features": ("raw_columns", "pool_features", "standardize", "player_day_segments"),
    "clustering": ("pca_fit", "minibatch_kmeans", "silhouette"),
    "segmentation": (
        "assign_classes",
        "correlation_matrix",
        "label_clusters",
        "proportion_buckets",
    ),
    "glasso": ("graphical_lasso", "cross_validate", "lambda_grid"),
    "causality": ("granger_test_segments",),
}
# layers whose span call counts are metrics of their own
CALLS_REPORTED = ("features", "clustering")

COUNTS = (
    ("records.rows", "count"),  # rows parsed by ingest_csv plus rows written by emit_csv
    ("records.csv_mb", "MB"),  # CSV megabytes read plus written
    ("records.ingest_rss_delta_mb", "MB"),  # rise of the process's peak RSS during ingest_csv
    ("clustering.rows", "count"),
    ("clustering.silhouette_pairs", "count"),  # sum of N^2 over silhouette calls
    ("segmentation.labelling_recovered", "count"),
    ("glasso.rows", "count"),
    ("glasso.vertices", "count"),
    ("glasso.edges", "count"),
    ("glasso.final_sweeps", "count"),
    ("glasso.converged_frac", "fraction"),
    ("glasso.cv_min_at_floor", "count"),
    ("causality.tests", "count"),
    ("causality.rows", "count"),
    ("causality.inconclusive", "count"),
)

MB = 1e6


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB


class Tracer:
    """Span stack, per-span self time and call count, and the work counts."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self._open: list[float] = []  # time spent in child spans, per open span
        self._cluster_players = None
        self._kmeans_k3 = None
        self._labelling = None

    def install(self) -> None:
        """Replace each function in SPANS by its wrapper in every package module."""
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "energyseg"]
        for layer, functions in SPANS.items():
            module = importlib.import_module(f"energyseg.{layer}")
            for function in functions:
                original = getattr(module, function)
                wrapper = self._wrap(f"{layer}.{function}", original)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name: str, func):
        before = getattr(self, "_before_" + name.replace(".", "_"), None)
        after = getattr(self, "_after_" + name.replace(".", "_"), None)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                self.self_s[name] += duration - self._open.pop()
                if self._open:
                    self._open[-1] += duration
                self.calls[name] += 1
            if after:
                after(result, state, *args, **kwargs)
            return result

        return wrapper

    # -- counts from arguments and return values ------------------------------

    def _before_records_ingest_csv(self, source, *args, **kwargs):
        return _peak_rss_mb()

    # ingest_csv and emit_csv open a path and call themselves on the handle;
    # the call with the path counts the rows and the file once
    def _after_records_ingest_csv(self, table, rss_before, source, *args, **kwargs):
        if not isinstance(source, (str, bytes, os.PathLike)):
            return
        self.counts["records.rows"] += len(table)
        self.counts["records.csv_mb"] += os.path.getsize(source) / MB
        self.counts["records.ingest_rss_delta_mb"] += _peak_rss_mb() - rss_before

    def _after_records_emit_csv(self, _result, _state, table, sink, *args, **kwargs):
        if not isinstance(sink, (str, bytes, os.PathLike)):
            return
        self.counts["records.rows"] += len(table)
        self.counts["records.csv_mb"] += os.path.getsize(sink) / MB

    def _after_clustering_pca_fit(self, _model, _state, matrix, *args, **kwargs):
        self.counts["clustering.rows"] += matrix.values.shape[0]
        self._cluster_players = matrix.row_players

    def _after_clustering_minibatch_kmeans(self, model, _state, *args, **kwargs):
        if model.k == 3:
            self._kmeans_k3 = model

    def _after_clustering_silhouette(self, _result, _state, values, *args, **kwargs):
        self.counts["clustering.silhouette_pairs"] += len(values) ** 2

    def _after_segmentation_label_clusters(self, labelling, _state, *args, **kwargs):
        self._labelling = labelling

    def _after_glasso_graphical_lasso(self, graph, _state, matrix, *args, **kwargs):
        fits = graph.per_vertex_fits
        self.counts["glasso.rows"] += matrix.values.shape[0]
        self.counts["glasso.vertices"] += len(graph.vertex_names)
        self.counts["glasso.edges"] += len(graph.edges)
        self.counts["glasso.final_sweeps"] += sum(fit.iterations for fit in fits)
        self.counts["glasso.converged_frac"] = sum(fit.converged for fit in fits) / len(fits)

    def _after_glasso_cross_validate(self, cv, *args, **kwargs):
        errors = list(cv.cv_errors)
        self.counts["glasso.cv_min_at_floor"] += errors.index(min(errors)) == len(errors) - 1

    def _after_causality_granger_test_segments(self, result, *args, **kwargs):
        self.counts["causality.tests"] += 1
        self.counts["causality.rows"] += result.n_effective
        self.counts["causality.inconclusive"] += bool(result.inconclusive)

    def _labelling_recovered(self) -> int:
        """Clusters whose RV label is the latent class most of their rows' players have."""
        if self._labelling is None or self._kmeans_k3 is None or self._cluster_players is None:
            return 0
        from energyseg.synthetic import latent_class_name

        assignments = self._kmeans_k3.assignments
        recovered = 0
        for cluster, label in self._labelling.mapping.items():
            members = Counter(
                latent_class_name(player)
                for player, assigned in zip(self._cluster_players, assignments)
                if assigned == cluster
            )
            if members and members.most_common(1)[0][0] == label.label:
                recovered += 1
        return recovered

    def metrics(self, import_s: float) -> dict:
        self.counts["segmentation.labelling_recovered"] = self._labelling_recovered()
        out = {"cli.import_s": {"value": import_s, "unit": "s"}}
        for layer, functions in SPANS.items():
            for function in functions:
                span = f"{layer}.{function}"
                out[span + ".self_s"] = {"value": self.self_s[span], "unit": "s"}
                if layer in CALLS_REPORTED:
                    out[span + ".calls"] = {"value": self.calls[span], "unit": "count"}
        for name, unit in COUNTS:
            out[name] = {"value": self.counts[name], "unit": unit}
        return out


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    start = time.perf_counter()
    import energyseg.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    try:
        return energyseg.cli.main(cli_argv)
    finally:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(tracer.metrics(import_s), handle, indent=2)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
