"""Acceptance gate.

Each test prints one ``[criterion NN] PASS|FAIL — description`` line on the
real stdout so the gate's verdict survives pytest's capture. Criterion 11 is
dataset-dependent and prints SKIP when ``ENERGYSEG_DATASET`` is unset.
"""

import json
import os
import sys
import time

import numpy as np
import pytest

from helpers import (
    brute_silhouette,
    chain_sample,
    f_tail_quad,
    gaussian_blobs,
    kkt_violation,
    random_psd,
    std_fm,
    t_tail_quad,
    table_records,
)

from energyseg.causality import f_survival, granger_test, t_survival, two_sample_ttest
from energyseg.clustering import elbow_curve, minibatch_kmeans, silhouette
from energyseg.config import PipelineConfig
from energyseg.glasso import fit_neighborhood, graphical_lasso, lambda_grid
from energyseg.pipeline import run_causality, run_segment
from energyseg.records import compute_points, ingest_csv
from energyseg.segmentation import rv_coefficient
from energyseg.synthetic import GeneratorConfig, generate_synthetic


def run_criterion(num, desc, fn):
    status = "FAIL"
    try:
        fn()
        status = "PASS"
    except pytest.skip.Exception:
        status = "SKIP"
        raise
    finally:
        print(f"[criterion {num:02d}] {status} — {desc}", file=sys.__stdout__, flush=True)


def chain_matrix(seed, n=2000, p=5, rho=0.6):
    rng = np.random.default_rng(seed)
    return std_fm(chain_sample(rng, n, p, rho), [f"v{j}" for j in range(p)])


def test_criterion_01_solver_kkt():
    def check():
        tol = 1e-6
        rng = np.random.default_rng(101)
        converged_count = 0
        start = time.perf_counter()
        for _ in range(200):
            n = int(rng.integers(20, 201))
            p = int(rng.integers(2, 11))
            raw = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
            matrix = std_fm(raw, [f"v{j}" for j in range(p)])
            s = int(rng.integers(0, p))
            grid = lambda_grid(matrix, s)
            lam = float(rng.choice(grid.values))
            fit = fit_neighborhood(matrix, s, lam, tol=tol)
            path = np.asarray(fit.objective_path)
            if len(path) > 1:
                rel_increase = np.diff(path) / np.abs(path[:-1])
                assert rel_increase.max() <= 1e-12
            if fit.converged:
                converged_count += 1
                others = [j for j in range(p) if j != s]
                viol = kkt_violation(matrix.values, s, others, np.asarray(fit.beta), lam)
                assert viol <= 10 * tol
        elapsed = time.perf_counter() - start
        assert converged_count >= 190
        assert elapsed < 10.0

    run_criterion(1, "KKT subgradient oracle on 200 random instances", check)


def test_criterion_02_zero_at_lambda_max():
    def check():
        rng = np.random.default_rng(102)
        for _ in range(100):
            n = int(rng.integers(20, 300))
            p = int(rng.integers(2, 9))
            raw = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
            matrix = std_fm(raw, [f"v{j}" for j in range(p)])
            s = int(rng.integers(0, p))
            grid = lambda_grid(matrix, s)
            fit = fit_neighborhood(matrix, s, grid.values[0])
            assert np.all(np.asarray(fit.beta) == 0.0)

    run_criterion(2, "fit at lambda_max returns the exact zero vector", check)


def test_criterion_03_graph_recovery():
    def check():
        start = time.perf_counter()
        f1s = []
        for seed in range(50):
            graph = graphical_lasso(chain_matrix(seed))
            edges = {
                tuple(sorted((graph.vertex_names[a], graph.vertex_names[b])))
                for a, b in graph.edges
            }
            truth = {(f"v{j}", f"v{j+1}") for j in range(4)}
            tp = len(edges & truth)
            precision = tp / len(edges) if edges else 0.0
            recall = tp / len(truth)
            f1s.append(0.0 if tp == 0 else 2 * precision * recall / (precision + recall))
        assert float(np.median(f1s)) >= 0.9

        empty = 0
        for seed in range(50):
            rng = np.random.default_rng([103, seed])
            matrix = std_fm(rng.standard_normal((2000, 3)), ["a", "b", "c"])
            empty += not graphical_lasso(matrix).edges
        assert empty >= 45
        assert time.perf_counter() - start < 60.0

    run_criterion(3, "chain-graph F1 and empty-graph rate on noise", check)


def test_criterion_04_linear_scaling():
    def timed_batch(n, p, seed, calls, batches=3):
        rng = np.random.default_rng([seed, n, p])
        matrix = std_fm(rng.standard_normal((n, p)), [f"v{j}" for j in range(p)])
        best = np.inf
        for _ in range(batches):
            t0 = time.perf_counter()
            for _ in range(calls):
                fit_neighborhood(matrix, 0, 0.05, tol=0.0, max_sweeps=3)
            best = min(best, time.perf_counter() - t0)
        return best

    def check():
        ns = np.unique(np.geomspace(20_000, 200_000, 5).astype(int))
        times_n = [timed_batch(int(n), 16, 104, calls=3) for n in ns]
        slope_n = np.polyfit(np.log(ns), np.log(times_n), 1)[0]
        assert 0.7 <= slope_n <= 1.3

        ps = [16, 28, 50, 90, 160]
        times_p = [timed_batch(2000, p, 105, calls=12) for p in ps]
        slope_p = np.polyfit(np.log(ps), np.log(times_p), 1)[0]
        assert 0.7 <= slope_p <= 1.3

    run_criterion(4, "wall-time slopes vs N and vs p are 1.0 +/- 0.3", check)


def test_criterion_05_silhouette_oracle():
    def check():
        rng = np.random.default_rng(106)
        for _ in range(20):
            n = int(rng.integers(10, 301))
            p = int(rng.integers(2, 6))
            k = int(rng.integers(2, 6))
            data = rng.standard_normal((n, p))
            labels = rng.integers(0, k, size=n)
            labels[:k] = np.arange(k)
            mean_s, per = silhouette(data, labels)
            oracle = brute_silhouette(data, labels)
            assert np.abs(per - oracle).max() <= 1e-10
            assert abs(mean_s - oracle.mean()) <= 1e-10

    run_criterion(5, "silhouettes match O(N^2) brute force within 1e-10", check)


def test_criterion_06_elbow():
    def check():
        hits = 0
        for seed in range(20):
            rng = np.random.default_rng([107, seed])
            data, _ = gaussian_blobs(rng, [(0, 0), (12, 0), (0, 12)], 60)
            inertias, suggested = elbow_curve(data, (1, 6), seed=seed)
            hits += suggested == 3
            assert np.all(np.diff(inertias) <= 1e-6 * inertias[0])
        assert hits >= 18

    run_criterion(6, "elbow suggests k=3 on 3-blob data in >=90% of seeds", check)


def test_criterion_07_granger_size_power():
    def check():
        rejects = 0
        for trial in range(200):
            rng = np.random.default_rng([108, trial])
            res = granger_test(rng.standard_normal(2000), rng.standard_normal(2000), lag=1)
            rejects += res.reject_h0
        assert 0.02 <= rejects / 200 <= 0.08

        for trial in range(200):
            rng = np.random.default_rng([109, trial])
            x = rng.standard_normal(2000)
            eps = rng.standard_normal(2000)
            y = np.zeros(2000)
            y[1:] = 0.8 * x[:-1] + eps[1:]
            assert granger_test(x, y, lag=1).p_value < 0.001

        for d1, d2 in ((1, 1), (1, 10), (2, 5), (5, 2), (10, 10), (3, 100)):
            for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
                assert abs(f_survival(x, d1, d2) - f_tail_quad(x, d1, d2)) <= 1e-10
        for df in (1, 2, 5, 30, 200):
            for x in (-3.0, -1.0, 0.0, 0.5, 2.0, 8.0):
                assert abs(t_survival(x, df) - t_tail_quad(x, df)) <= 1e-10

    run_criterion(7, "Granger size 0.05 +/- 0.03, power 1.0, tails vs quadrature", check)


def test_criterion_08_end_to_end_labelling(tmp_path):
    def check():
        n_days = 7
        recovered = 0
        for seed in range(20):
            config = PipelineConfig()
            config.seed = seed
            table = generate_synthetic(
                GeneratorConfig(players_per_class=(2, 2, 2), n_days=n_days), seed=seed
            )
            out = tmp_path / f"seed{seed}"
            out.mkdir()
            run_segment(config, str(out), table=table)

            props = json.loads((out / "proportions.json").read_text())["per_player"]
            for vec in props.values():
                assert abs(sum(vec) - 1.0) <= 1e-12

            mapping = json.loads((out / "labelling.json").read_text())["mapping"]
            # majority latent class per cluster, reconstructed from row counts
            k = len(mapping)
            counts = {c: {} for c in range(k)}
            for player, vec in props.items():
                latent = player.rsplit("_", 1)[0]
                for c, proportion in enumerate(vec):
                    rows = proportion * n_days
                    counts[c][latent] = counts[c].get(latent, 0.0) + rows
            ok = all(
                counts[c] and mapping[str(c)] == max(counts[c], key=counts[c].get)
                for c in range(k)
            )
            recovered += ok
        assert recovered >= 16

    run_criterion(8, "segment stage recovers class-cluster bijection in >=16/20 seeds", check)


def test_criterion_09_points_and_rv():
    def check():
        assert compute_points(100.0, 80.0, 1.0) == 0.2
        assert compute_points(100.0, 100.0, 1.0) == 0.0
        assert compute_points(100.0, 150.0, 1.0) == -0.5
        for baseline in (50.0, 100.0, 120.5):
            for frac in (0.0, 0.25, 1.0 / 3.0, 0.5, 1.0, 1.5, 2.0):
                usage = baseline * frac
                for booster in (0.5, 1.0, 2.0):
                    expected = booster * (baseline - usage) / baseline
                    assert compute_points(baseline, usage, booster) == expected

        rng = np.random.default_rng(110)
        for _ in range(100):
            p = int(rng.integers(2, 8))
            a = random_psd(rng, p)
            b = random_psd(rng, p)
            assert abs(rv_coefficient(a, a) - 1.0) <= 1e-12
            assert abs(rv_coefficient(a, b) - rv_coefficient(b, a)) <= 1e-12

    run_criterion(9, "points formula exact; RV identity and symmetry", check)


def test_criterion_10_determinism(tmp_path):
    def check():
        from energyseg.cli import main

        out = tmp_path / "run"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"synth": {"players_per_class": [1, 1, 1], "n_days": 2}}))
        args = ["report", "--config", str(cfg), "--out", str(out), "--seed", "9"]

        assert main(args) == 0
        inventory = json.loads((out / "report.json").read_text())["files"]
        numeric = [name for name in inventory if name != "report.json"]
        assert len(numeric) >= 15
        first = {name: (out / name).read_bytes() for name in numeric}

        assert main(args) == 0
        for name in numeric:
            assert (out / name).read_bytes() == first[name], name

    run_criterion(10, "two seeded pipeline runs produce byte-identical artifacts", check)


def test_criterion_11_released_dataset():
    def check():
        path = os.environ.get("ENERGYSEG_DATASET")
        if not path:
            pytest.skip("ENERGYSEG_DATASET not set; released-dataset checks skipped")

        from energyseg.features import (
            DEFAULT_CLUSTERING_FEATURES,
            FeatureSpec,
            pool_features,
            standardize,
        )

        table = ingest_csv(path)
        matrix = standardize(
            pool_features(
                table, FeatureSpec(features=DEFAULT_CLUSTERING_FEATURES, granularity="daily")
            )
        )
        model = minibatch_kmeans(matrix, k=3, seed=0)
        mean_s, _ = silhouette(matrix, model.assignments)
        assert abs(mean_s - 0.749) <= 0.05

        config = PipelineConfig()
        out = os.path.join(os.path.dirname(path), "energyseg_dataset_checks")
        os.makedirs(out, exist_ok=True)
        run_causality(config, out, table=table)
        rows = json.loads(open(os.path.join(out, "causality.json")).read())["tests"]
        highlighted = {
            ("low", "humidity", "status_fan"),
            ("low", "is_afternoon", "status_fan"),
            ("low", "is_evening", "status_ceiling_light"),
            ("medium", "status_fan", "status_ceiling_light"),
            ("medium", "humidity", "status_fan"),
            ("medium", "status_desk_light", "status_fan"),
            ("medium", "status_ceiling_light", "status_desk_light"),
            ("medium", "is_evening", "status_ceiling_light"),
            ("high", "status_fan", "status_ceiling_light"),
            ("high", "is_afternoon", "status_fan"),
        }
        for row in rows:
            key = (row["player_type"], row["cause"], row["effect"])
            if key in highlighted:
                assert row["reject"], key

        pregame = os.environ.get("ENERGYSEG_DATASET_PREGAME")
        if pregame:
            before = ingest_csv(pregame)
            expected_drop = {  # weekday usage drops, percent
                "status_ceiling_light": 5.6,
                "status_desk_light": 60.8,
                "status_fan": 19.0,
            }
            for column, drop in expected_drop.items():
                result = two_sample_ttest(
                    _daily_minutes(before, column), _daily_minutes(table, column)
                )
                assert abs(result.percent_drop - drop) <= 2.0

    run_criterion(11, "released-dataset reproduction (optional)", check)


def _daily_minutes(table, column):
    """Average minutes/day of a status column, per (player, day), weekdays only."""
    minutes = {}
    for record in table_records(table):
        if record.is_weekend:
            continue
        key = (record.player_id, record.timestamp.date())
        minutes[key] = minutes.get(key, 0) + getattr(record, column)
    return list(minutes.values())
