"""Neighborhood lasso solver, lambda grids, cross-validation, and graph assembly."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import chain_sample, fm, kkt_violation, std_fm

import energyseg.glasso as glasso_mod
from energyseg.errors import (
    DegenerateColumn,
    NonFiniteValue,
    NotStandardized,
    TooFewRows,
)
from energyseg.glasso import (
    GlassoOptions,
    cross_validate,
    edges_to_csv_rows,
    fit_neighborhood,
    graph_to_dict,
    graphical_lasso,
    lambda_grid,
    soft_threshold,
)


def chain_matrix(seed, n=2000, p=5, rho=0.6):
    rng = np.random.default_rng(seed)
    return std_fm(chain_sample(rng, n, p, rho), [f"v{j}" for j in range(p)])


def noise_matrix(seed, n=400, p=3):
    rng = np.random.default_rng(seed)
    return std_fm(rng.standard_normal((n, p)), [f"v{j}" for j in range(p)])


class TestSoftThreshold:
    def test_examples(self):
        assert soft_threshold(1.2, 0.5) == pytest.approx(0.7, abs=1e-15)
        assert soft_threshold(-0.3, 0.5) == 0.0

    def test_odd_function(self):
        for theta in (-2.0, -0.4, 0.0, 0.4, 2.0):
            assert soft_threshold(-theta, 0.5) == -soft_threshold(theta, 0.5)

    def test_nonexpansive_and_shrinks(self):
        rng = np.random.default_rng(71)
        for theta in rng.uniform(-5, 5, size=50):
            out = soft_threshold(float(theta), 1.0)
            assert abs(out) <= abs(theta)
            assert abs(out - theta) <= 1.0 + 1e-15


class TestLambdaGrid:
    def test_worked_example(self):
        matrix = fm(np.array([[2.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), ["s", "a", "b"],
                    standardized=True)
        grid = lambda_grid(matrix, s=0)
        assert grid.lambda_max == pytest.approx(1.0, abs=1e-15)
        assert grid.lambda_min == pytest.approx(0.01, abs=1e-15)
        assert len(grid.values) == 10

    def test_log_spacing_ratio(self):
        grid = lambda_grid(chain_matrix(72), s=2)
        values = np.asarray(grid.values)
        ratios = values[:-1] / values[1:]
        assert np.allclose(ratios, 100.0 ** (1.0 / 9.0), rtol=1e-12)
        assert np.all(np.diff(values) < 0)
        assert values[0] == grid.lambda_max
        assert values[-1] == pytest.approx(grid.lambda_min, rel=1e-12)

    def test_lambda_max_formula(self):
        matrix = chain_matrix(73, n=500)
        Y = matrix.values
        for s in range(Y.shape[1]):
            grid = lambda_grid(matrix, s)
            inner = [abs(Y[:, j] @ Y[:, s]) / len(Y) for j in range(Y.shape[1]) if j != s]
            assert grid.lambda_max == pytest.approx(max(inner), rel=1e-12)

    def test_degenerate_orthogonal_target(self):
        # target orthogonal to every other column -> lambda_max would be 0
        values = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        matrix = fm(values, ["s", "a"], standardized=True)
        with pytest.raises(DegenerateColumn):
            lambda_grid(matrix, s=0)

    def test_too_few(self):
        with pytest.raises(TooFewRows):
            lambda_grid(fm(np.zeros((1, 3)), ["a", "b", "c"], standardized=True), 0)
        with pytest.raises(TooFewRows):
            lambda_grid(fm(np.zeros((5, 1)), ["a"], standardized=True), 0)


class TestFitNeighborhood:
    def test_zero_solution_at_lambda_max(self):
        for seed in range(20):
            matrix = chain_matrix(seed, n=300)
            grid = lambda_grid(matrix, s=0)
            fit = fit_neighborhood(matrix, 0, grid.lambda_max)
            assert np.all(np.asarray(fit.beta) == 0.0)

    def test_requires_standardized(self):
        rng = np.random.default_rng(74)
        raw = fm(rng.standard_normal((50, 3)) * 3 + 1, ["a", "b", "c"], standardized=False)
        with pytest.raises(NotStandardized):
            fit_neighborhood(raw, 0, 0.1)

    def test_rejects_non_finite(self):
        matrix = chain_matrix(75, n=100)
        matrix.values[3, 1] = np.nan
        with pytest.raises(NonFiniteValue):
            fit_neighborhood(matrix, 0, 0.1)

    def test_loss_matches_recompute(self):
        matrix = chain_matrix(76, n=400)
        grid = lambda_grid(matrix, s=2)
        for lam in grid.values[::3]:
            fit = fit_neighborhood(matrix, 2, lam)
            Y = matrix.values
            others = [j for j in range(Y.shape[1]) if j != 2]
            resid = Y[:, 2] - Y[:, others] @ np.asarray(fit.beta)
            expected = 0.5 * resid @ resid / len(Y) + lam * np.abs(fit.beta).sum()
            assert fit.loss == pytest.approx(expected, rel=1e-8)

    def test_objective_path_nonincreasing(self):
        matrix = chain_matrix(77, n=500)
        grid = lambda_grid(matrix, s=1)
        fit = fit_neighborhood(matrix, 1, grid.values[5])
        path = np.asarray(fit.objective_path)
        assert len(path) == fit.iterations
        increases = np.diff(path) / np.abs(path[:-1])
        assert increases.max(initial=-np.inf) <= 1e-12

    def test_kkt_conditions(self):
        rng = np.random.default_rng(78)
        tol = 1e-8
        for _ in range(50):
            n = int(rng.integers(40, 200))
            p = int(rng.integers(2, 8))
            raw = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
            matrix = std_fm(raw, [f"v{j}" for j in range(p)])
            s = int(rng.integers(0, p))
            grid = lambda_grid(matrix, s)
            lam = float(rng.choice(grid.values[1:]))
            fit = fit_neighborhood(matrix, s, lam, tol=tol)
            assert fit.converged
            others = [j for j in range(p) if j != s]
            viol = kkt_violation(matrix.values, s, others, np.asarray(fit.beta), lam)
            assert viol <= 10 * tol

    def test_warm_start_agrees(self):
        matrix = chain_matrix(79, n=600)
        grid = lambda_grid(matrix, s=0)
        lam = grid.values[4]
        cold = fit_neighborhood(matrix, 0, lam, tol=1e-10)
        prev = fit_neighborhood(matrix, 0, grid.values[3], tol=1e-10)
        warm = fit_neighborhood(matrix, 0, lam, tol=1e-10, beta0=np.asarray(prev.beta))
        assert np.abs(np.asarray(warm.beta) - np.asarray(cold.beta)).max() <= 1e-6
        assert warm.iterations <= cold.iterations

    def test_chain_support_recovery(self):
        hits = 0
        for seed in range(40):
            matrix = chain_matrix(seed, n=2000, p=3)
            grid = lambda_grid(matrix, s=0)
            fit = fit_neighborhood(matrix, 0, grid.values[3])
            support = tuple(np.nonzero(np.asarray(fit.beta))[0])
            hits += support == (0,)  # only the true neighbor v1 (index 0 among others)
        assert hits >= 38

    def test_sign_flip_invariance(self):
        matrix = chain_matrix(80, n=800)
        flipped = fm(-matrix.values, list(matrix.column_names), standardized=True)
        grid = lambda_grid(matrix, s=1)
        a = fit_neighborhood(matrix, 1, grid.values[4])
        b = fit_neighborhood(flipped, 1, grid.values[4])
        assert np.array_equal(np.asarray(a.beta), np.asarray(b.beta))


class TestCrossValidate:
    def test_exact_copy_example(self):
        rng = np.random.default_rng(81)
        base = rng.standard_normal(1000)
        extra = rng.standard_normal((1000, 2))
        matrix = std_fm(np.column_stack([base, base, extra]), ["s", "dup", "x", "y"])
        grid = lambda_grid(matrix, s=0)
        result = cross_validate(matrix, 0, grid, rule="min")
        assert result.best_lambda == grid.values[9]
        assert result.best_index == 9
        assert result.cv_errors[9] < 0.01

    def test_noise_prefers_lambda_max(self):
        best_counts = {}
        for seed in range(50):
            matrix = noise_matrix(seed)
            grid = lambda_grid(matrix, s=0)
            result = cross_validate(matrix, 0, grid, rule="min", seed=seed)
            best_counts[result.best_index] = best_counts.get(result.best_index, 0) + 1
        # heaviest shrinkage should dominate on independent noise
        assert max(best_counts, key=best_counts.get) == 0
        assert best_counts.get(0, 0) >= 25

    def test_one_se_rule_at_least_as_sparse(self):
        for seed in range(10):
            matrix = chain_matrix(seed, n=500)
            grid = lambda_grid(matrix, s=2)
            res_min = cross_validate(matrix, 2, grid, rule="min", seed=seed)
            res_1se = cross_validate(matrix, 2, grid, rule="one_se", seed=seed)
            assert res_1se.best_lambda >= res_min.best_lambda
            threshold = res_min.cv_errors[res_min.best_index] + res_min.cv_se[res_min.best_index]
            assert res_1se.cv_errors[res_1se.best_index] <= threshold + 1e-12

    def test_folds_exceed_rows(self):
        matrix = noise_matrix(82, n=4)
        grid_matrix = noise_matrix(82, n=400)
        grid = lambda_grid(grid_matrix, s=0)
        with pytest.raises(TooFewRows):
            cross_validate(matrix, 0, grid, folds=5)

    def test_deterministic(self):
        matrix = chain_matrix(83, n=300)
        grid = lambda_grid(matrix, s=0)
        r1 = cross_validate(matrix, 0, grid, seed=17)
        r2 = cross_validate(matrix, 0, grid, seed=17)
        assert np.array_equal(r1.cv_errors, r2.cv_errors)
        assert r1.best_lambda == r2.best_lambda

    def test_error_curve_shape(self):
        matrix = chain_matrix(84, n=600)
        grid = lambda_grid(matrix, s=1)
        result = cross_validate(matrix, 1, grid, seed=0)
        assert len(result.cv_errors) == len(grid.values) == len(result.cv_se)
        assert np.all(np.asarray(result.cv_errors) >= 0.0)
        assert np.all(np.asarray(result.cv_se) >= 0.0)


class TestGraphicalLasso:
    def test_chain_recovery(self):
        f1s = []
        for seed in range(10):
            graph = graphical_lasso(chain_matrix(seed))
            edges = {tuple(sorted((a, b))) for a, b, _w, _s in _edge_tuples(graph)}
            truth = {(f"v{j}", f"v{j+1}") for j in range(4)}
            tp = len(edges & truth)
            precision = tp / len(edges) if edges else 0.0
            recall = tp / len(truth)
            f1s.append(0.0 if tp == 0 else 2 * precision * recall / (precision + recall))
        assert float(np.median(f1s)) >= 0.9

    def test_noise_gives_empty_graph(self):
        empty = sum(not graphical_lasso(noise_matrix(seed)).edges for seed in range(10))
        assert empty >= 8

    def test_and_subset_of_or(self):
        matrix = chain_matrix(86, n=300)
        g_or = graphical_lasso(matrix, GlassoOptions(symmetrization="OR"))
        g_and = graphical_lasso(matrix, GlassoOptions(symmetrization="AND"))
        or_edges = {tuple(sorted((a, b))) for a, b, _w, _s in _edge_tuples(g_or)}
        and_edges = {tuple(sorted((a, b))) for a, b, _w, _s in _edge_tuples(g_and)}
        assert and_edges <= or_edges

    def test_partial_correlation_symmetry_bounds(self):
        graph = graphical_lasso(chain_matrix(87, n=500))
        pc = np.asarray(graph.partial_correlations)
        assert np.abs(pc - pc.T).max() <= 1e-12
        assert np.abs(np.diag(pc)).max() == 0.0

    def test_sign_flip_keeps_structure(self):
        matrix = chain_matrix(88, n=400)
        flipped = fm(-matrix.values, list(matrix.column_names), standardized=True)
        g1 = graphical_lasso(matrix)
        g2 = graphical_lasso(flipped)
        assert _edge_tuples(g1) == _edge_tuples(g2)
        for f1, f2 in zip(g1.per_vertex_fits, g2.per_vertex_fits):
            assert np.array_equal(np.asarray(f1.beta), np.asarray(f2.beta))

    def test_constant_column_warns_and_isolates(self):
        rng = np.random.default_rng(89)
        raw = rng.standard_normal((200, 3))
        matrix = std_fm(raw, ["a", "b", "c"])
        matrix.values[:, 1] = 0.0  # standardized constant column
        matrix.constant_columns = frozenset({"b"})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            graph = graphical_lasso(matrix)
        assert any("b" in str(w.message) for w in caught) or graph.warnings
        assert all("b" not in (a, b) for a, b, _w, _s in _edge_tuples(graph))

    def test_serialization_schema(self):
        graph = graphical_lasso(chain_matrix(90, n=300))
        blob = graph_to_dict(graph)
        assert set(blob) == {
            "vertices",
            "edges",
            "lambda_per_vertex",
            "symmetrization",
            "seed",
        }
        assert blob["vertices"] == list(graph.vertex_names)
        for edge in blob["edges"]:
            assert set(edge) == {"a", "b", "weight", "sign"}
            assert edge["sign"] in (-1, 1)
        rows = edges_to_csv_rows(graph)
        assert all(len(row) == 4 for row in rows)
        assert [(r[0], r[1]) for r in rows] == [(e["a"], e["b"]) for e in blob["edges"]]

    def test_matches_residual_form_at_selected_lambda(self):
        matrix = chain_matrix(85, n=400)
        tol = 1e-10
        graph = graphical_lasso(matrix, GlassoOptions(tol=tol))
        for fit in graph.per_vertex_fits:
            direct = fit_neighborhood(matrix, fit.vertex, fit.lam, tol=tol)
            assert np.abs(fit.beta - direct.beta).max() <= 1e-6

    def test_options_validation(self):
        with pytest.raises(ValueError):
            GlassoOptions(symmetrization="XOR")
        with pytest.raises(ValueError):
            GlassoOptions(selection="best")



def _graph_and_cv(matrix, options):
    """graphical_lasso, plus each vertex's grid and CV result as seen by cross_validate."""
    seen = {}
    original = glasso_mod.cross_validate

    def spy(matrix, s, grid, **kwargs):
        cv = original(matrix, s, grid, **kwargs)
        seen[s] = (grid, cv)
        return cv

    glasso_mod.cross_validate = spy
    try:
        graph = graphical_lasso(matrix, options)
    finally:
        glasso_mod.cross_validate = original
    return graph, seen


class TestGramPathProperties:
    """Invariants of the Gram-form solver that graphical_lasso runs."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(20, 300),
        p=st.integers(2, 10),
        seed=st.integers(0, 2**32 - 1),
        mixed=st.booleans(),
    )
    def test_kkt_and_exact_zero_at_lambda_max(self, n, p, seed, mixed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, p))
        if mixed:
            raw = raw @ rng.standard_normal((p, p))
        matrix = std_fm(raw, [f"v{j}" for j in range(p)])
        options = GlassoOptions()
        graph, seen = _graph_and_cv(matrix, options)
        assert len(seen) == p  # one CV per non-degenerate vertex
        for fit in graph.per_vertex_fits:
            if fit.converged:
                viol = kkt_violation(matrix.values, fit.vertex, fit.others, fit.beta, fit.lam)
                assert viol <= 10 * options.tol
            grid, cv = seen[fit.vertex]
            if fit.lam == grid.lambda_max:
                assert cv.best_index == 0
                assert np.all(fit.beta == 0.0)


def _edge_tuples(graph):
    names = graph.vertex_names
    pc = np.asarray(graph.partial_correlations)
    return [
        (names[a], names[b], abs(float(pc[a, b])), 1 if pc[a, b] >= 0 else -1)
        for a, b in graph.edges
    ]
