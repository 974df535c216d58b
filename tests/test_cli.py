"""Command-line interface: subcommands, exit codes, artifacts, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from energyseg.cli import main
from energyseg.config import PipelineConfig, load_config
from energyseg.pipeline import run_causality
from energyseg.records import CSV_COLUMNS
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
            "rank_min", "rank_max", "boundaries", "invert_rank",
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


def test_cli_import_skips_scipy_signal():
    # scipy.signal costs about a second to import and only synthesis needs it
    src = Path(__file__).resolve().parent.parent / "src"
    probe = "import sys, energyseg.cli; print('scipy.signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"
