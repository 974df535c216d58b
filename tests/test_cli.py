"""Command-line interface: subcommands, exit codes, artifacts, determinism."""

import csv
import dataclasses
import io
import json
import os
import signal
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import make_record, make_table, table_to_csv, traced_peak

from energyseg.cli import main
from energyseg.config import PipelineConfig, load_config
from energyseg import clustering
from energyseg.clustering import ClusteringConfig
from energyseg.features import FeatureMatrix, pool_features, standardize
from energyseg import glasso
from energyseg.glasso import GlassoConfig, graphical_lasso
from energyseg.pipeline import run_causality, run_glasso, run_segment
from energyseg.records import CSV_COLUMNS, ingest_csv
from energyseg.segmentation import correlation_matrix
from energyseg.synthetic import GeneratorConfig, generate_synthetic


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["synth", "--out", str(out), "--seed", "5"]) == 0
    return out


@pytest.fixture(scope="module")
def dataset_csv(synth_dir):
    return synth_dir / "dataset.csv"


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSynth:
    def test_same_seed_byte_identical(self, tmp_path, dataset_csv):
        again = tmp_path / "again"
        assert main(["synth", "--out", str(again), "--seed", "5"]) == 0
        assert (again / "dataset.csv").read_bytes() == dataset_csv.read_bytes()

    def test_different_seed_differs(self, tmp_path, dataset_csv):
        other = tmp_path / "other"
        assert main(["synth", "--out", str(other), "--seed", "6"]) == 0
        assert (other / "dataset.csv").read_bytes() != dataset_csv.read_bytes()

    def test_zero_days_exit_code(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path), "--days", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert "[synth]" in captured.err
        assert "InvalidConfig" in captured.err

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        rc = main(["synth", "--out", str(tmp_path), "--seed", "-1", "--days", "1"])
        assert rc == 2
        assert "InvalidConfig" in capsys.readouterr().err

    def test_row_count_six_players_thirty_days(self, tmp_path):
        assert (
            main(
                [
                    "synth",
                    "--out",
                    str(tmp_path),
                    "--days",
                    "30",
                    "--players-per-class",
                    "2,2,2",
                ]
            )
            == 0
        )
        with open(tmp_path / "dataset.csv") as fh:
            n_lines = sum(1 for _ in fh)
        assert n_lines == 6 * 30 * 1440 + 1  # header


class TestIngest:
    def test_round_trip_byte_identical(self, tmp_path, dataset_csv):
        out = tmp_path / "ingest"
        rc = main(["ingest", "--input", str(dataset_csv), "--out", str(out)])
        assert rc == 0
        assert (out / "dataset.csv").read_bytes() == dataset_csv.read_bytes()
        stats = json.loads((out / "ingest.json").read_text())
        assert stats["records"] == 6 * 7 * 1440
        assert stats["players"] == 6
        assert stats["dropped_rows"] == 0

    def test_drop_reasons_in_ingest_json(self, tmp_path, dataset_csv):
        lines = dataset_csv.read_text().split("\n")[:11]
        cells = lines[1].split(",")
        cells[CSV_COLUMNS.index("humidity")] = "nan"
        lines += [lines[1], ",".join(cells)]
        source = tmp_path / "bad.csv"
        source.write_text("\n".join(lines) + "\n")
        out = tmp_path / "ingest"
        assert main(["ingest", "--input", str(source), "--out", str(out)]) == 0
        stats = json.loads((out / "ingest.json").read_text())
        assert stats["records"] == 10
        assert stats["dropped_rows"] == 2
        assert stats["dropped_by_reason"]["duplicate_key"] == 1
        assert stats["dropped_by_reason"]["non_finite"] == 1
        assert sum(stats["dropped_by_reason"].values()) == 2

    def test_gaps_and_missing_minutes_counted(self, tmp_path, dataset_csv, capsys):
        # a: minutes 0-9 but 3, 6 and 7; b: minutes 0 and 1 of day 0, 5 and 8 of day 1
        keys = [("a", 0, m) for m in range(10) if m not in (3, 6, 7)]
        keys += [("b", 0, 0), ("b", 0, 1), ("b", 1, 5), ("b", 1, 8)]
        source = tmp_path / "gapped.csv"
        source.write_text(table_to_csv(make_table([make_record(p, m, d) for p, d, m in keys])))
        for path, counts in ((source, (3, 5)), (dataset_csv, (0, 0))):
            out = tmp_path / "ingest"
            assert main(["ingest", "--input", str(path), "--out", str(out)]) == 0
            stats = json.loads((out / "ingest.json").read_text())
            assert (stats["gaps"], stats["missing_minutes"]) == counts
            warned = "5 missing minute(s) in 3 gap(s)" in capsys.readouterr().err
            assert warned == (path == source)

    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["ingest", "--input", str(tmp_path / "nope.csv"), "--out", str(tmp_path)])
        assert rc == 1
        assert "energyseg: [ingest]" in capsys.readouterr().err


class TestSegment:
    def test_empty_table_exit_code(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text(",".join(CSV_COLUMNS) + "\r\n")
        rc = main(["segment", "--input", str(empty), "--out", str(tmp_path / "out")])
        assert rc == 4
        err = capsys.readouterr().err
        assert "[segment]" in err and "EmptyTable" in err

    def test_artifacts(self, tmp_path, dataset_csv):
        out = tmp_path / "seg"
        assert main(["segment", "--input", str(dataset_csv), "--out", str(out)]) == 0

        pca = json.loads((out / "pca.json").read_text())
        assert set(pca) >= {"components", "explained_variance_ratio", "mean", "feature_names"}

        elbow = read_rows(out / "elbow.csv")
        assert list(elbow[0]) == ["k", "inertia", "silhouette"]
        assert [int(r["k"]) for r in elbow] == [1, 2, 3, 4, 5, 6]
        inertias = [float(r["inertia"]) for r in elbow]
        assert all(b <= a + 1e-6 * inertias[0] for a, b in zip(inertias, inertias[1:]))

        clusters = json.loads((out / "clusters.json").read_text())
        assert clusters["k"] == 3
        assert len(clusters["assignments"]) == 6 * 7  # one row per (player, day)
        assert len(clusters["centroids"]) == 3

        classes = json.loads((out / "classes.json").read_text())
        assert set(classes["classes"]) == {
            "high_01", "high_02", "low_01", "low_02", "medium_01", "medium_02",
        }
        assert sum(classes["counts"].values()) == 6
        assert set(classes["rank_bands"]) == {
            "rank_min", "rank_max", "boundaries",
        }

        labelling = json.loads((out / "labelling.json").read_text())
        mapping = labelling["mapping"]
        assert sorted(mapping) == ["0", "1", "2"]
        assert sorted(mapping.values()) == ["high", "low", "medium"]
        sim = np.asarray(labelling["similarity_matrix"])
        assert sim.shape == (3, 3)
        assert np.all((sim >= -1e-9) & (sim <= 1.0 + 1e-9))

        proportions = json.loads((out / "proportions.json").read_text())
        for player, props in proportions["per_player"].items():
            assert len(props) == 3
            assert abs(sum(props) - 1.0) <= 1e-12
        assert set(proportions["histograms"]) == {"high", "low", "medium"}

        for label in ("low", "medium", "high"):
            assert (out / f"corr_class_{label}.csv").exists()
        for cid in range(3):
            assert (out / f"corr_cluster_{cid}.csv").exists()

    @pytest.mark.parametrize("granularity", ["daily", "minute"])
    def test_group_correlations_are_those_of_the_masked_whole_matrix(
        self, tmp_path, synth_table, granularity
    ):
        # a minute graph is pooled one group at a time, a daily one once and
        # masked: both must write the whole matrix's masked correlations
        config = PipelineConfig.from_dict({"features": {"graph_granularity": granularity}})
        run_segment(config, str(tmp_path), synth_table)
        whole = pool_features(synth_table, config.features.graph_spec)
        classes = json.loads((tmp_path / "classes.json").read_text())["classes"]
        row_class = np.array([classes[p] for p in whole.row_players])
        row_cluster = np.asarray(json.loads((tmp_path / "clusters.json").read_text())["assignments"])
        if granularity == "minute":
            row_cluster = np.repeat(row_cluster, synth_table.day_runs()[1])
        groups = [(f"corr_class_{c}.csv", row_class == c) for c in ("low", "medium", "high")]
        groups += [(f"corr_cluster_{c}.csv", row_cluster == c) for c in range(3)]
        names = whole.column_names
        for file_name, mask in groups:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)  # constant columns
                expected = correlation_matrix(FeatureMatrix(whole.values[mask], names))
            written = [[float(r[n]) for n in names] for r in read_rows(tmp_path / file_name)]
            assert written == expected.tolist(), file_name

    def test_auto_k_uses_elbow_suggestion(self, tmp_path, dataset_csv):
        out = tmp_path / "auto"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"clustering": {"k": "auto"}}))
        rc = main(
            ["segment", "--input", str(dataset_csv), "--config", str(cfg), "--out", str(out)]
        )
        assert rc == 0
        elbow = read_rows(out / "elbow.csv")
        inertias = np.array([float(r["inertia"]) for r in elbow])
        ks = [int(r["k"]) for r in elbow]
        second_diff = inertias[:-2] - 2.0 * inertias[1:-1] + inertias[2:]
        suggested = ks[1 + int(np.argmax(second_diff))]
        clusters = json.loads((out / "clusters.json").read_text())
        assert clusters["k"] == suggested

    def test_auto_k_capped_by_rows_exit_code(self, tmp_path, capsys):
        # 1 player x 2 days gives 2 daily clustering rows, so k_range [1, 3] holds 2 k values
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "synth": {"players_per_class": [1, 0, 0], "n_days": 2},
            "clustering": {"k": "auto", "k_range": [1, 3]},
        }))
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 4
        err = capsys.readouterr().err
        assert "[report] TooFewRows: k='auto' needs 3 candidate k values" in err
        assert "k_range [1, 3] over 2 clustering rows gives 2" in err

    def test_chosen_k_outside_range_gets_silhouette(self, tmp_path, dataset_csv):
        clustering_config = ClusteringConfig(k=4, k_range=(1, 3))
        config = PipelineConfig(input=str(dataset_csv), clustering=clustering_config)
        stage = run_segment(config, str(tmp_path))
        assert [int(r["k"]) for r in read_rows(tmp_path / "elbow.csv")] == [1, 2, 3]
        assert stage.summary["k"] == 4
        assert -1.0 <= stage.summary["silhouette"] <= 1.0

    def test_one_silhouette_call_per_scored_k(self, tmp_path, dataset_csv, monkeypatch):
        calls = []

        def spy(matrix, assignments, distinct=None):
            mean, per_sample = original(matrix, assignments, distinct)
            calls.append((np.shape(assignments), mean))
            return mean, per_sample

        original = clustering.silhouette
        monkeypatch.setattr(clustering, "silhouette", spy)
        stage = run_segment(PipelineConfig(input=str(dataset_csv)), str(tmp_path))
        assert [shape for shape, _ in calls] == [(42,)] * 5
        cells = {int(r["k"]): r["silhouette"] for r in read_rows(tmp_path / "elbow.csv")}
        assert [k for k, cell in cells.items() if cell] == [2, 3, 4, 5, 6]
        assert [float(cells[k]) for k in range(2, 7)] == [mean for _, mean in calls]
        assert float(cells[3]) == stage.summary["silhouette"]

    def test_one_sort_of_the_scores_per_stage(self, tmp_path, monkeypatch):
        # every k-means fit and the silhouette share one distinct-row index
        calls = {"_distinct_rows": 0, "lexsort": 0}

        def count(module, name):
            original = getattr(module, name)

            def spy(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, spy)

        count(clustering, "_distinct_rows")
        count(np, "lexsort")
        config = PipelineConfig.from_dict({
            "synth": {"players_per_class": [1, 1, 1], "n_days": 2},
            "features": {"clustering_granularity": "minute"},
        })
        stage = run_segment(config, str(tmp_path), generate_synthetic(config.synth, seed=3))
        assert calls == {"_distinct_rows": 1, "lexsort": 1}
        elbow = read_rows(tmp_path / "elbow.csv")
        assert [int(r["k"]) for r in elbow] == [1, 2, 3, 4, 5, 6]
        assert stage.summary["silhouette"] is not None

    def test_kmeans_cap_is_reported(self, tmp_path, dataset_csv):
        config = PipelineConfig(input=str(dataset_csv), clustering=ClusteringConfig(max_iters=1))
        stage = run_segment(config, str(tmp_path))
        clusters = json.loads((tmp_path / "clusters.json").read_text())
        assert clusters["iterations"] == 1
        capped = [w for w in stage.warnings if "stopped at max_iters=1" in w]
        assert len(capped) >= 1
        assert ("k-means with k=3 stopped" in " ".join(capped)) == (not clusters["converged"])

    def test_unknown_feature_exit_code(self, tmp_path, dataset_csv, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"features": {"clustering_features": ["bogus_feature"]}}))
        rc = main(
            ["segment", "--input", str(dataset_csv), "--config", str(cfg),
             "--out", str(tmp_path / "out")]
        )
        assert rc == 2  # rejected while loading config, before the stage runs
        err = capsys.readouterr().err
        assert "UnknownFeatureName" in err or "InvalidConfig" in err

    def test_malformed_config_value_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"clustering": {"k_range": ["a", 2]}}))
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "energyseg.cli", "segment", "--config", str(cfg),
             "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True,
        )
        assert proc.returncode == 2
        assert "InvalidConfig" in proc.stderr
        assert "Traceback" not in proc.stderr


class TestGlasso:
    def test_artifacts_and_determinism(self, tmp_path, dataset_csv):
        out1, out2 = tmp_path / "g1", tmp_path / "g2"
        for out in (out1, out2):
            assert main(
                ["glasso", "--input", str(dataset_csv), "--out", str(out), "--seed", "5"]
            ) == 0
        assert (out1 / "graph.json").read_bytes() == (out2 / "graph.json").read_bytes()
        assert (out1 / "edges.csv").read_bytes() == (out2 / "edges.csv").read_bytes()

        graph = json.loads((out1 / "graph.json").read_text())
        assert set(graph) == {"vertices", "edges", "lambda_per_vertex", "symmetrization", "seed"}
        assert len(graph["lambda_per_vertex"]) == len(graph["vertices"])
        edge_rows = read_rows(out1 / "edges.csv")
        if edge_rows:
            assert list(edge_rows[0]) == ["a", "b", "weight", "sign"]
        assert len(edge_rows) == len(graph["edges"])
        for edge in graph["edges"]:
            assert edge["a"] in graph["vertices"] and edge["b"] in graph["vertices"]
            assert edge["sign"] in (-1, 1)

    def test_summary_counts_the_solver_work(self, tmp_path, dataset_csv):
        config = PipelineConfig(input=str(dataset_csv), seed=5)
        stage = run_glasso(config, str(tmp_path))
        table = ingest_csv(str(dataset_csv))
        matrix = standardize(pool_features(table, config.features.graph_spec))
        graph = graphical_lasso(matrix, config.glasso, seed=5)
        assert stage.summary["sweeps"] == graph.sweeps > 0
        assert stage.summary["solves"] == graph.solves > 0
        assert not any("max_sweeps" in w for w in stage.warnings)

    def test_sweep_cap_is_reported(self, tmp_path, dataset_csv, monkeypatch):
        ends = []
        path = glasso._gram_path

        def spy(*args):
            states = path(*args)
            ends.append(states.converged)
            return states

        monkeypatch.setattr(glasso, "_gram_path", spy)
        config = PipelineConfig(input=str(dataset_csv), glasso=GlassoConfig(max_sweeps=2))
        stage = run_glasso(config, str(tmp_path))
        (converged,) = ends
        unconverged = np.count_nonzero(~converged)
        assert unconverged > 0
        capped = [w for w in stage.warnings if "glasso.max_sweeps=2" in w]
        assert capped == [
            f"{unconverged} of {converged.size} lasso fits (fold or full-data system, λ) "
            "stopped at glasso.max_sweeps=2"
        ]


class TestStageMemory:
    # one N×p float64 copy at most: segment pools one class or cluster group
    # at a time, glasso scales the matrix it pooled in place
    @pytest.mark.parametrize("stage, bound", [(run_segment, 0.8), (run_glasso, 1.4)])
    def test_peak_follows_the_graph_matrix(self, tmp_path, synth_table, stage, bound):
        config = PipelineConfig()
        graph_bytes = len(synth_table) * len(config.features.graph_features) * 8
        _, peak = traced_peak(stage, config, str(tmp_path), synth_table)
        assert peak <= bound * graph_bytes, (peak / graph_bytes, bound)


class TestCausality:
    def test_artifacts(self, tmp_path, dataset_csv):
        out = tmp_path / "caus"
        assert main(["causality", "--input", str(dataset_csv), "--out", str(out)]) == 0
        with open(out / "causality.csv", newline="") as fh:
            header = fh.readline().strip()
        assert header == "player_type,cause,effect,lag,p_value,f_statistic,reject"
        rows = read_rows(out / "causality.csv")
        assert {r["player_type"] for r in rows} == {"low", "medium", "high"}

        target = [
            r for r in rows
            if r["player_type"] == "low" and r["cause"] == "humidity"
            and r["effect"] == "status_fan"
        ]
        assert len(target) == 1
        assert target[0]["reject"] == "true"  # booleans serialize JSON-style
        assert float(target[0]["p_value"]) < 0.05

        detailed = json.loads((out / "causality.json").read_text())
        assert len(detailed["tests"]) == len(rows)
        for entry in detailed["tests"]:
            assert 0.0 <= entry["p_value"] <= 1.0
            expected = "0" if entry["p_value"] < 5e-4 else f"{entry['p_value']:.4g}"
            assert entry["p_display"] == expected

    def test_low_class_link_across_seeds(self, tmp_path):
        config = PipelineConfig()
        rejects = 0
        for seed in range(20):
            config.seed = seed
            table = generate_synthetic(GeneratorConfig((2, 2, 2), n_days=7), seed=seed)
            out = tmp_path / f"s{seed}"
            out.mkdir()
            run_causality(config, str(out), table=table)
            rows = json.loads((out / "causality.json").read_text())["tests"]
            hit = [
                r for r in rows
                if r["player_type"] == "low" and r["cause"] == "humidity"
                and r["effect"] == "status_fan"
            ]
            rejects += bool(hit and hit[0]["reject"])
        assert rejects >= 18


class TestReport:
    def test_inventory_and_config_echo(self, tmp_path):
        out = tmp_path / "report"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"players_per_class": [1, 1, 1], "n_days": 4}}))
        rc = main(["report", "--config", str(cfg), "--out", str(out), "--seed", "9"])
        assert rc == 0

        report = json.loads((out / "report.json").read_text())
        assert report["seed"] == 9
        for name in report["files"]:
            assert (out / name).exists(), name
        assert {s["name"] for s in report["stages"]} == {
            "synth", "segment", "glasso", "causality",
        }
        echoed = load_config(str(out / "config.json"))
        assert echoed.seed == 9
        assert echoed.synth.players_per_class == (1, 1, 1)
        assert echoed.synth.n_days == 4

    def test_stage_warnings_reach_report(self, tmp_path, capsys):
        # one day of one player per class: flag columns are constant within
        # groups (segment) and some graph vertices correlate with nothing (glasso)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "synth": {"players_per_class": [1, 1, 1], "n_days": 1},
            "features": {"clustering_granularity": "minute"},
            "clustering": {"k_range": [2, 3]},
        }))
        out = tmp_path / "report"
        assert main(["report", "--config", str(cfg), "--out", str(out), "--seed", "42"]) == 0
        err = capsys.readouterr().err
        report = json.loads((out / "report.json").read_text())
        stage_warnings = {s["name"]: s["warnings"] for s in report["stages"]}
        expected = {
            "segment": "constant columns have undefined correlations",
            "glasso": "has no correlated columns",
        }
        for stage, text in expected.items():
            hits = [(name, w) for name, ws in stage_warnings.items() for w in ws if text in w]
            assert hits and {name for name, _ in hits} == {stage}, stage_warnings
            for _, warning in hits:
                assert f"[{stage}] warning: {warning}" in err
        for name, ws in stage_warnings.items():
            assert len(ws) == len(set(ws)), (name, ws)
        # the empty neighbourhood is named by its column, is_weekend on a weekday
        assert (
            "column is_weekend has no correlated columns; kept an empty neighborhood"
            in stage_warnings["glasso"]
        )

    def test_csv_artifacts_parse(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"players_per_class": [1, 1, 1], "n_days": 2}}))
        out = tmp_path / "report"
        assert main(["report", "--config", str(cfg), "--out", str(out), "--seed", "42"]) == 0
        report = json.loads((out / "report.json").read_text())
        csv_files = [name for name in report["files"] if name.endswith(".csv")]
        assert {"corr_class_high.csv", "corr_cluster_0.csv", "causality.csv"} <= set(csv_files)
        for name in csv_files:
            with open(out / name, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert rows and all(len(row) == len(header) for row in rows), name
            if name.startswith("corr_"):
                for row in rows:
                    for cell in row[1:]:
                        float(cell)  # raises on text such as "np.float64(0.5)"
            if name == "causality.csv":
                assert {row[header.index("reject")] for row in rows} <= {"true", "false"}

    def test_player_ids_needing_quotes_round_trip(self, tmp_path):
        # a carriage return, a comma or a quote in a player id is quoted in
        # every CSV artifact, as in dataset.csv
        table = generate_synthetic(GeneratorConfig(players_per_class=(1, 1, 1), n_days=2), 7)
        ids = ('hi\rgh_01', 'lo,w_"01', "medium_01")
        source = tmp_path / "odd_ids.csv"
        source.write_text(
            table_to_csv(dataclasses.replace(table, player_ids=ids)), encoding="utf-8", newline=""
        )
        out = tmp_path / "report"
        assert main(["report", "--input", str(source), "--out", str(out), "--seed", "7"]) == 0
        with open(out / "proportions.csv", newline="", encoding="utf-8") as fh:
            header, *rows = csv.reader(fh)
        k = json.loads((out / "clusters.json").read_text())["k"]
        assert len(rows) == len(ids) * k
        assert all(len(row) == len(header) for row in rows)
        assert [row[0] for row in rows] == [player for player in ids for _ in range(k)]

    def test_output_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ENERGYSEG_OUTPUT_ROOT", str(tmp_path / "root"))
        assert main(["synth", "--seed", "1", "--days", "2"]) == 0
        assert (tmp_path / "root" / "synth" / "dataset.csv").exists()

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3, "synth": {"n_days": 3}}))
        with_flag = tmp_path / "flag"
        direct = tmp_path / "direct"
        assert main(["synth", "--config", str(cfg), "--seed", "4", "--out", str(with_flag)]) == 0
        assert main(["synth", "--days", "3", "--seed", "4", "--out", str(direct)]) == 0
        assert (with_flag / "dataset.csv").read_bytes() == (direct / "dataset.csv").read_bytes()

    @pytest.mark.parametrize(
        "section,key,value",
        [
            ("synth", "weather_noise", 1.0),
            ("synth", "behavior_jitter", 0.07),
            ("clustering", "pca_variance", 0.9),
            ("clustering", "pca_dim", None),
            ("clustering", "n_init", 10),
        ],
    )
    def test_removed_option_exit_code(self, tmp_path, capsys, section, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))
        assert main(["report", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"InvalidConfig: unknown {section} option(s): ['{key}']" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()  # rejected before any stage runs


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fork_fails():
    raise BlockingIOError(11, "Resource temporarily unavailable")


def _artifacts(out):
    """Every artifact's bytes but report.json's and config.json's, which names ``out``."""
    skip = ("report.json", "config.json")
    return {p.name: p.read_bytes() for p in out.iterdir() if p.name not in skip}


class TestDatasetWriter:
    """report writes dataset.csv from a forked child; synth and ingest write it inline."""

    CONFIG = {"synth": {"players_per_class": [1, 1, 1], "n_days": 1}}

    def _report(self, tmp_path, name, config=None, code=0):
        cfg = tmp_path / f"{name}.json"
        cfg.write_text(json.dumps(config or self.CONFIG))
        out = tmp_path / name
        argv = ["report", "--config", str(cfg), "--out", str(out), "--seed", "42"]
        assert main(argv) == code
        return out

    def test_report_forks_once_and_reaps_the_child(self, tmp_path, monkeypatch):
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        out = self._report(tmp_path, "report")
        assert len(forks) == 1
        _no_child_left()
        report = json.loads((out / "report.json").read_text())
        assert report["dataset_wait_s"] >= 0
        assert "dataset.csv" in report["files"]

    def _report_input(self, tmp_path):
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(self.CONFIG))
        synth = tmp_path / "synth"
        assert main(["synth", "--config", str(cfg), "--out", str(synth), "--seed", "42"]) == 0
        dataset = synth / "dataset.csv"  # 4,320 rows: a regular file of nine blocks
        out = tmp_path / "report"
        assert main(["report", "--input", str(dataset), "--out", str(out), "--seed", "42"]) == 0
        assert (out / "dataset.csv").read_bytes() == dataset.read_bytes()
        return out

    def test_report_input_forks_to_parse_and_to_emit(self, tmp_path, monkeypatch):
        forks = []
        fork = os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        self._report_input(tmp_path)
        assert len(forks) == 2  # synth writes dataset.csv inline
        _no_child_left()

    def test_fork_warning_is_no_stage_warning(self, tmp_path, monkeypatch):
        # Python 3.12+ warns like this on os.fork() in a process with threads
        fork = os.fork

        def warning_fork():
            warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks "
                          "in the child.", DeprecationWarning, stacklevel=2)
            return fork()

        monkeypatch.setattr(os, "fork", warning_fork)
        report = json.loads((self._report_input(tmp_path) / "report.json").read_text())
        ingest = report["stages"][0]
        assert ingest["name"] == "ingest" and ingest["warnings"] == []
        assert not any("fork" in w for stage in report["stages"] for w in stage["warnings"])

    def test_failed_segment_leaves_no_child(self, tmp_path, capsys):
        # k='auto' over 2 clustering rows exits 4 in segment, while the child writes
        config = {
            "synth": {"players_per_class": [1, 0, 0], "n_days": 2},
            "clustering": {"k": "auto", "k_range": [1, 3]},
        }
        out = self._report(tmp_path, "report", config, code=4)
        assert "TooFewRows" in capsys.readouterr().err
        _no_child_left()
        cfg = tmp_path / "synth.json"
        cfg.write_text(json.dumps(config))
        synth = tmp_path / "synth"
        assert main(["synth", "--config", str(cfg), "--out", str(synth), "--seed", "42"]) == 0
        assert (out / "dataset.csv").read_bytes() == (synth / "dataset.csv").read_bytes()

    def test_unwritable_dataset_exit_code(self, tmp_path, capsys):
        (tmp_path / "report" / "dataset.csv").mkdir(parents=True)
        self._report(tmp_path, "report", code=1)
        assert "[report] IsADirectoryError" in capsys.readouterr().err
        _no_child_left()

    def test_killed_child_is_rewritten_inline(self, tmp_path, monkeypatch):
        from energyseg import pipeline

        forked = self._report(tmp_path, "forked")
        parent, emit = os.getpid(), pipeline.emit_csv

        def emit_or_die(table, path):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            emit(table, path)

        monkeypatch.setattr(pipeline, "emit_csv", emit_or_die)
        killed = self._report(tmp_path, "killed")
        _no_child_left()
        assert _artifacts(killed) == _artifacts(forked)

    @pytest.mark.parametrize("fork", ["missing", "failing"])
    def test_without_fork_writes_the_same_bytes(self, tmp_path, monkeypatch, fork):
        forked = self._report(tmp_path, "forked")
        if fork == "missing":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", _fork_fails)
        inline = self._report(tmp_path, "inline")
        assert _artifacts(inline) == _artifacts(forked)
        assert "dataset_wait_s" in json.loads((inline / "report.json").read_text())

    def test_synth_and_ingest_write_the_dataset_inline(self, tmp_path, monkeypatch):
        from energyseg import pipeline

        def no_fork(work):
            raise AssertionError("dataset.csv writer forked")

        monkeypatch.setattr(pipeline, "fork_child", no_fork)
        synth = tmp_path / "synth"
        assert main(["synth", "--out", str(synth), "--seed", "3", "--days", "1"]) == 0
        ingest = tmp_path / "ingest"
        dataset = synth / "dataset.csv"
        assert main(["ingest", "--input", str(dataset), "--out", str(ingest)]) == 0
        assert (ingest / "dataset.csv").read_bytes() == dataset.read_bytes()


def test_cli_import_skips_scipy_signal():
    # scipy.signal takes about a second and ~47 MB to import and nothing uses
    # it: neither the CLI import nor synthesis may load it
    src = Path(__file__).resolve().parent.parent / "src"
    probes = (
        "import sys, energyseg.cli",
        "import sys\n"
        "from energyseg.synthetic import GeneratorConfig, generate_synthetic\n"
        "generate_synthetic(GeneratorConfig(players_per_class=(1, 0, 0), n_days=1), seed=0)",
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    for probe in probes:
        out = subprocess.run(
            [sys.executable, "-c", probe + "\nprint('scipy.signal' in sys.modules)"],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        assert out.stdout.strip() == "False", probe


_SRC = Path(__file__).resolve().parent.parent / "src"

_BLOCK_SCIPY = """
import sys


class _NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, _NoScipy())
"""

_SMALL_RUN = (
    ["synth", "--players-per-class", "1,1,1", "--days", "1", "--seed", "5", "--out", "synth"],
    ["report", "--input", "synth/dataset.csv", "--seed", "5", "--out", "report"],
)


def test_run_loads_no_numpy_ma(tmp_path):
    # numpy imports numpy.ma on the first bare np.unique call, about 15 ms
    # and 1.6 MB in a fresh interpreter; no command needs it
    script = (
        "import sys\n"
        "from energyseg.cli import main\n"
        f"for argv in {list(_SMALL_RUN)!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "print('numpy.ma' in sys.modules)"
    )
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.splitlines()[-1] == "False"


def test_analysis_loads_no_numpy_random():
    # numpy.random and the secrets -> hashlib -> OpenSSL chain it imports
    # cost about 5.6 MB resident; k-means seeds and CV folds come from
    # Python's random, so only synthesis may load it
    env = dict(os.environ, PYTHONPATH=str(_SRC))
    probe = "import sys, numpy\nprint('numpy.random' in sys.modules)"
    eager = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    if eager.stdout.strip() == "True":
        pytest.skip("this numpy imports numpy.random with numpy itself")
    script = (
        "import sys\n"
        "import numpy as np\n"
        "from energyseg.clustering import elbow_curve, minibatch_kmeans\n"
        "from energyseg.features import FeatureMatrix, standardize\n"
        "from energyseg.glasso import graphical_lasso\n"
        "values = np.sin(np.arange(240.0).reshape(60, 4) * [1.0, 1.7, 2.3, 3.1])\n"
        "minibatch_kmeans(values, 3, seed=1)\n"
        "elbow_curve(values, (1, 4), seed=1)\n"
        "graphical_lasso(standardize(FeatureMatrix(values, ('a', 'b', 'c', 'd'))), seed=1)\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_cli_import_loads_no_scipy():
    probe = (
        "import sys, energyseg.cli\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_runs_with_scipy_blocked(tmp_path, monkeypatch):
    # every command runs on numpy alone: a scipy import anywhere fails the run
    blocked, unblocked = tmp_path / "blocked", tmp_path / "open"
    blocked.mkdir()
    script = _BLOCK_SCIPY + (
        "from energyseg.cli import main\n"
        f"for argv in {list(_SMALL_RUN)!r}:\n"
        "    code = main(argv)\n"
        "    if code:\n"
        "        sys.exit(code)\n"
    )
    run = subprocess.run(
        [sys.executable, "-c", script],
        cwd=blocked,
        env=dict(os.environ, PYTHONPATH=str(_SRC)),
        capture_output=True,
        text=True,
    )
    assert run.returncode == 0, run.stderr

    unblocked.mkdir()
    monkeypatch.chdir(unblocked)
    for argv in _SMALL_RUN:
        assert main(argv) == 0, argv
    names = sorted(p.relative_to(unblocked) for p in unblocked.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(blocked) for p in blocked.rglob("*") if p.is_file())
    for name in names:
        if name.name != "report.json":
            assert (blocked / name).read_bytes() == (unblocked / name).read_bytes(), name


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # standardize, the correlations, the Gram, PCA, the silhouette matmul, k-means
    # on count-weighted distinct rows (minute clustering) and the Granger tests
    # must give the same bytes with one BLAS thread as with two
    argvs = (
        ["synth", "--players-per-class", "2,2,2", "--days", "2", "--seed", "5", "--out", "synth"],
        ["report", "--input", "synth/dataset.csv", "--seed", "5", "--out", "report"],
        ["report", "--input", "synth/dataset.csv", "--seed", "5", "--out", "minute",
         "--config", "minute.json"],
    )
    script = (
        "from energyseg.cli import main\n"
        f"for argv in {list(argvs)!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )
    for threads in ("1", "2"):
        (tmp_path / threads).mkdir()
        (tmp_path / threads / "minute.json").write_text(
            json.dumps({"features": {"clustering_granularity": "minute"}})
        )
        subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path / threads,
            env=dict(os.environ, PYTHONPATH=str(_SRC), OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            check=True,
        )
    one, two = tmp_path / "1", tmp_path / "2"
    names = sorted(p.relative_to(one) for p in one.rglob("*") if p.is_file())
    assert names == sorted(p.relative_to(two) for p in two.rglob("*") if p.is_file())
    # report.json holds wall times
    compared = [n for n in names if n.name != "report.json"]
    assert len(compared) > 10
    assert {Path("minute/clusters.json"), Path("minute/elbow.csv")} <= set(compared)
    for name in compared:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    # so are the solver's work counts, which report.json holds beside them
    for out in ("report", "minute"):
        work = [
            [(s["summary"]["sweeps"], s["summary"]["solves"])
             for s in json.loads((root / out / "report.json").read_text())["stages"]
             if s["name"] == "glasso"]
            for root in (one, two)
        ]
        assert work[0] == work[1] and len(work[0]) == 1
