"""Neighborhood lasso solver, lambda grids, cross-validation, and graph assembly."""

import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    _GramSystem,
    _gram_descent,
    chain_sample,
    fm,
    fold_rows,
    kkt_violation,
    random_psd,
    row_scored_errors,
    scalar_cross_validate,
    scalar_vertex_fits,
    std_fm,
)

import energyseg.glasso as glasso_mod
from energyseg.errors import (
    DegenerateColumn,
    DimensionMismatch,
    InvalidConfig,
    NonFiniteValue,
    NotStandardized,
    TooFewRows,
)
from energyseg.features import FeatureConfig, pool_features, standardize
from energyseg.glasso import (
    GlassoConfig,
    _grid_from_max,
    cross_validate,
    edges_to_csv_rows,
    fit_neighborhood,
    graph_to_dict,
    graphical_lasso,
    lambda_grid,
    soft_threshold,
)
from energyseg.synthetic import GeneratorConfig, generate_synthetic


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

    @settings(deadline=None)
    @given(
        st.lists(
            st.floats(np.finfo(float).tiny, np.finfo(float).max), min_size=1, max_size=40
        )
    )
    def test_batched_grids_match_scalar(self, lam_max):
        # graphical_lasso builds every vertex's grid in one call, _grid_from_max
        # one grid: a row must not depend on the rows beside it
        lam_max = np.array(lam_max)
        # near the largest float, geomspace's power overflows before it pins the end points
        with np.errstate(over="ignore"):
            grids = glasso_mod._grids(lam_max)
            rows = [glasso_mod._grids(lam_max[i : i + 1])[0] for i in range(len(lam_max))]
        for row, alone in zip(grids, rows):
            assert row.tobytes() == alone.tobytes()
        assert np.isfinite(grids).all()

    def test_degenerate_orthogonal_target(self):
        # target orthogonal to every other column -> lambda_max would be 0
        values = np.array([[1.0, 1.0], [1.0, -1.0], [-1.0, 1.0], [-1.0, -1.0]])
        matrix = fm(values, ["s", "a"], standardized=True)
        with pytest.raises(DegenerateColumn, match="column s is orthogonal"):
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


_GRID = _grid_from_max(0.5, "v0")

_ENTRY_POINTS = {
    "graphical_lasso": lambda matrix, s: graphical_lasso(matrix),
    "lambda_grid": lambda_grid,
    "fit_neighborhood": lambda matrix, s: fit_neighborhood(matrix, s, 0.05),
    "cross_validate": lambda matrix, s: cross_validate(matrix, s, _GRID),
}


def _with_nan(seed):
    matrix = noise_matrix(seed, n=200)
    matrix.values[3, 1] = np.nan
    return matrix


_BAD_INPUTS = {  # name: (matrix, vertex, expected error)
    "nan cell": (_with_nan, 0, NonFiniteValue),
    "raw matrix": (
        lambda seed: fm(np.random.default_rng(seed).standard_normal((200, 3)) * 3 + 1),
        0,
        NotStandardized,
    ),
    "vertex -1": (lambda seed: noise_matrix(seed, n=200), -1, DimensionMismatch),
    "vertex p": (lambda seed: noise_matrix(seed, n=200), 3, DimensionMismatch),
}


class TestGraphInput:
    """Every entry point of the graph layer takes its input through one check."""

    @pytest.mark.parametrize(
        "entry, case",
        [
            (entry, case)
            for entry in _ENTRY_POINTS
            for case in _BAD_INPUTS
            if entry != "graphical_lasso" or not case.startswith("vertex")
        ],
    )
    def test_bad_input_raises(self, entry, case):
        make, s, error = _BAD_INPUTS[case]
        with pytest.raises(error):
            _ENTRY_POINTS[entry](make(0), s)

    @pytest.mark.parametrize(
        "options",
        [{"rule": "bogus"}, {"max_sweeps": 0}, {"tol": -1.0}, {"folds": 1}],
    )
    def test_cross_validate_checks_its_settings(self, options):
        with pytest.raises(InvalidConfig):
            cross_validate(noise_matrix(0, n=200), 0, _GRID, **options)

    @pytest.mark.parametrize("lam", [0.0, np.nan])
    def test_fit_neighborhood_checks_lambda(self, lam):
        with pytest.raises(InvalidConfig):
            fit_neighborhood(noise_matrix(0, n=200), 0, lam)


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
        g_or = graphical_lasso(matrix, GlassoConfig(symmetrization="OR"))
        g_and = graphical_lasso(matrix, GlassoConfig(symmetrization="AND"))
        or_edges = {tuple(sorted((a, b))) for a, b, _w, _s in _edge_tuples(g_or)}
        and_edges = {tuple(sorted((a, b))) for a, b, _w, _s in _edge_tuples(g_and)}
        assert and_edges <= or_edges

    def test_symmetrization_matches_pairwise_rule(self):
        for symmetrization in ("OR", "AND"):
            for seed in (91, 92):
                graph = graphical_lasso(
                    chain_matrix(seed, n=300, p=6), GlassoConfig(symmetrization=symmetrization)
                )
                p = len(graph.vertex_names)
                coef = np.zeros((p, p))
                for fit in graph.per_vertex_fits:
                    coef[fit.vertex, list(fit.others)] = fit.beta
                edges, partial = [], np.zeros((p, p))
                for a in range(p):
                    for b in range(a + 1, p):
                        ab, ba = coef[a, b], coef[b, a]
                        if symmetrization == "OR":
                            present = ab != 0.0 or ba != 0.0
                            strength = ab if abs(ab) >= abs(ba) else ba
                        else:
                            present = ab != 0.0 and ba != 0.0
                            strength = ab if abs(ab) <= abs(ba) else ba
                        if present:
                            edges.append((a, b))
                            partial[a, b] = partial[b, a] = strength
                assert graph.edges == tuple(edges)
                assert graph.weights.tobytes() == partial.tobytes()

    def test_twin_columns_warn(self):
        rng = np.random.default_rng(93)
        raw = rng.standard_normal((300, 3)) @ rng.standard_normal((3, 3))
        raw = np.column_stack([raw, raw[:, 0], -raw[:, 1]])
        matrix = std_fm(raw, ["a", "b", "c", "a_copy", "b_negated"])
        twins = [w for w in graphical_lasso(matrix).warnings if "identical up to sign" in w]
        assert len(twins) == 2
        assert twins[0].startswith("columns a and a_copy ")
        assert twins[1].startswith("columns b and b_negated ")

    def test_later_twin_touches_only_its_pair(self):
        # x and −x: only the later twin's own regression may use its column
        raw = chain_sample(np.random.default_rng(94), 400, 4)
        raw = np.column_stack([raw[:, :2], -raw[:, 1], raw[:, 2:]])
        matrix = std_fm(raw, ["v0", "v1", "v1_negated", "v2", "v3"])
        graph = graphical_lasso(matrix)
        assert [e for e in graph.edges if 2 in e] == [(1, 2)]
        assert graph.weights[1, 2] < 0.0
        for fit in graph.per_vertex_fits:
            if fit.vertex != 2:
                assert fit.beta[fit.others.index(2)] == 0.0
        assert graph.warnings[0] == (
            "columns v1 and v1_negated are identical up to sign; "
            "v1_negated is the regressor of no other vertex"
        )

    def test_one_fold_split_per_graph(self, monkeypatch):
        matrix = chain_matrix(96, n=300, p=6)
        draws = []
        default_rng = np.random.default_rng

        def spy(seed):
            draws.append(seed)
            return default_rng(seed)

        monkeypatch.setattr(np.random, "default_rng", spy)
        graphical_lasso(matrix, seed=7)
        assert draws == [7]
        # no vertex has a penalty grid: no split is drawn, so 3 rows and 5 folds do not raise
        graph = graphical_lasso(fm(np.zeros((3, 3)), standardized=True))
        assert draws == [7] and graph.edges == ()

    def test_partial_correlation_symmetry_bounds(self):
        graph = graphical_lasso(chain_matrix(87, n=500))
        pc = np.asarray(graph.weights)
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
        graph = graphical_lasso(matrix, GlassoConfig(tol=tol))
        for fit in graph.per_vertex_fits:
            direct = fit_neighborhood(matrix, fit.vertex, fit.lam, tol=tol)
            assert np.abs(fit.beta - direct.beta).max() <= 1e-6

    @pytest.mark.parametrize(
        "players, days, granularity, bound",
        [((1, 1, 1), 3, "minute", 30), ((2, 2, 2), 4, "daily", 150)],
    )
    def test_stack_sweeps_on_generated_tables(self, players, days, granularity, bound):
        # a walk in which every system waits for the slowest at each λ
        # takes 68 and 280 sweeps here
        table = generate_synthetic(GeneratorConfig(players, n_days=days), seed=42)
        spec = FeatureConfig(graph_granularity=granularity).graph_spec
        graph = graphical_lasso(standardize(pool_features(table, spec)), seed=42)
        assert 0 < graph.sweeps <= bound
        assert graph.solves > 0
        assert all(fit.converged for fit in graph.per_vertex_fits)

    def test_options_validation(self):
        with pytest.raises(InvalidConfig):
            GlassoConfig(symmetrization="XOR")
        with pytest.raises(InvalidConfig):
            GlassoConfig(selection="best")



def _graph_and_cv(matrix, options):
    """graphical_lasso, plus each vertex's grid and CV result (vertices with a CV only)."""
    graph = graphical_lasso(matrix, options)
    values = matrix.values
    gram = values.T @ values
    seen = {}
    for s, cv in enumerate(graph.cv):
        if cv is not None:
            name = matrix.column_names[s]
            seen[s] = (_grid_from_max(_GramSystem(gram, s, len(values)).lambda_max(), name), cv)
    return graph, seen


@st.composite
def _awkward_matrices(draw):
    """Matrices flagged standardized, with CV settings.

    Drawn to hold an all-zero column, a duplicated or negated column, ties,
    or a column nonzero on a few rows only; ``max_sweeps`` as low as 1 leaves
    systems unconverged.
    """
    n = draw(st.integers(3, 40))
    p = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    raw = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
    if draw(st.booleans()):
        raw = np.round(raw)  # ties, and exact zeros after centring
    if p >= 3 and draw(st.booleans()):
        raw[:, draw(st.integers(0, p - 1))] = 1.0  # all zero once standardized
    if p >= 3 and draw(st.booleans()):
        a, b = draw(st.lists(st.integers(0, p - 1), min_size=2, max_size=2, unique=True))
        raw[:, b] = raw[:, a] if draw(st.booleans()) else -raw[:, a]
    matrix = std_fm(raw, [f"v{j}" for j in range(p)])
    if draw(st.booleans()):
        # nonzero on a few rows only: a fold that holds them all out gets a
        # training diagonal of 0, or ±roundoff, for that column
        column, keep = draw(st.integers(0, p - 1)), draw(st.integers(1, 5))
        matrix.values[rng.permutation(n)[keep:], column] = 0.0
    config = GlassoConfig(
        folds=draw(st.just(2) | st.integers(2, n)),
        selection=draw(st.sampled_from(["min", "one_se"])),
        max_sweeps=draw(st.sampled_from([1, 2, 3, 6, 1000])),
        tol=draw(st.sampled_from([1e-6, 1e-3, 1e-10])),
    )
    return matrix, config


class TestGramPathProperties:
    """Invariants of the Gram-form solver that graphical_lasso runs."""

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(20, 300),
        p=st.integers(2, 10),
        seed=st.integers(0, 2**32 - 1),
        mixed=st.booleans(),
    )
    # certified solves that end 1-3 ulps above their sweep's objective
    @example(n=147, p=2, seed=157, mixed=True)
    @example(n=147, p=2, seed=2, mixed=True)
    @example(n=20, p=2, seed=536240, mixed=True)
    def test_kkt_and_exact_zero_at_lambda_max(self, n, p, seed, mixed):
        rng = np.random.default_rng(seed)
        raw = rng.standard_normal((n, p))
        if mixed:
            raw = raw @ rng.standard_normal((p, p))
        matrix = std_fm(raw, [f"v{j}" for j in range(p)])
        options = GlassoConfig()
        certified = set()  # every β an active-set solve certified
        solve = glasso_mod._active_set_solve

        def spy(*args):
            x, grad, obj = solve(*args)
            certified.update(x[:, i].tobytes() for i in np.flatnonzero(np.isfinite(obj)))
            return x, grad, obj

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(glasso_mod, "_active_set_solve", spy)
            graph, seen = _graph_and_cv(matrix, options)
        assert len(seen) == p  # one CV per non-degenerate vertex
        for fit in graph.per_vertex_fits:
            viol = kkt_violation(matrix.values, fit.vertex, fit.others, fit.beta, fit.lam)
            if fit.beta.tobytes() in certified:
                # solve-finished: exact to roundoff, far inside descent's 10·tol
                assert fit.converged
                assert viol <= 1e-12 * (1.0 + np.abs(fit.beta).sum())
            elif fit.converged:
                assert viol <= 10 * options.tol
            grid, cv = seen[fit.vertex]
            if fit.lam == grid.lambda_max:
                assert cv.best_index == 0
                assert np.all(fit.beta == 0.0)
        nonzero = [fit for fit in graph.per_vertex_fits if fit.beta.any()]
        assert sum(fit.beta.tobytes() in certified for fit in nonzero) >= len(nonzero) // 2

    @settings(max_examples=60, deadline=None)
    @given(case=_awkward_matrices(), seed=st.integers(0, 2**16))
    def test_gram_scored_errors_match_row_scored(self, case, seed):
        matrix, config = case
        values = matrix.values
        fold_betas = {}
        score = glasso_mod._held_out_errors

        def spy(grams, counts, vertices, betas):
            fold_betas.update(zip(vertices, betas))
            return score(grams, counts, vertices, betas)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(glasso_mod, "_held_out_errors", spy)
            graph = graphical_lasso(matrix, config, seed=seed)
        folds = fold_rows(len(values), config.folds, seed)
        for s, betas in fold_betas.items():
            # relative to (‖y‖ + Σ|β_j|·‖x_j‖)²/n_f, the size of the terms the Gram form cancels
            others = [j for j in range(values.shape[1]) if j != s]
            norms = [
                (np.linalg.norm(values[t, s]), np.linalg.norm(values[t][:, others], axis=0), len(t))
                for t in folds
            ]
            scale = np.mean(
                [[(y + np.abs(b) @ x) ** 2 / n for b, (y, x, n) in zip(betas[:, k], norms)]
                 for k in range(betas.shape[1])],
                axis=1,
            )
            reference = row_scored_errors(values, s, folds, betas).mean(axis=1)
            assert np.all(np.abs(graph.cv[s].cv_errors - reference) <= 1e-12 * scale)

    def test_singular_block_neither_raises_nor_blocks(self):
        # system 0's two active columns are equal, so its block is exactly
        # singular and LAPACK raises for the whole stack; system 1 is regular
        R = np.array([random_psd(np.random.default_rng(95), 3) + np.eye(3)] * 2)
        R[0, :2, :2] = 1.0
        R[0, 2, :2] = R[0, :2, 2] = 0.25
        grad0 = np.array([[0.9, 0.9, 0.1], [0.5, -0.4, 0.3]])
        beta = np.array([[0.3, 0.2, 0.0], [0.1, -0.2, 0.05]])
        yy, lam = np.ones(2), np.array([0.05, 0.05])
        blocks = np.where((beta != 0.0)[0, :, None] & (beta != 0.0)[0, None], R[0], np.eye(3))
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(blocks, np.zeros(3))
        parts = R.transpose(1, 2, 0), grad0.T, yy, lam, beta.T
        x, grad, obj = glasso_mod._active_set_solve(*parts)
        assert np.isnan(obj[0]) and np.isfinite(obj[1])
        alone = glasso_mod._active_set_solve(*(part[..., 1:] for part in parts))
        for got, want in zip((x, grad, obj), alone):
            assert got[..., 1].tobytes() == want[..., 0].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(m=st.integers(1, 5), size=st.integers(1, 40), data=st.data())
    def test_singular_blocks_solve_as_alone(self, m, size, data):
        # LAPACK raises for a whole stack when one block is singular; each
        # block still gets its own solve's bytes, NaN when it is singular
        singular = data.draw(st.lists(st.booleans(), min_size=size, max_size=size))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        blocks = np.array([random_psd(rng, m) + np.eye(m) for _ in range(size)])
        for i in np.flatnonzero(singular):
            blocks[i, :, rng.integers(m)] = 0.0  # a zero column: an exactly zero pivot
        rhs = rng.standard_normal((size, m))
        x = glasso_mod._solve_blocks(blocks, rhs)
        for block, b, got, bad in zip(blocks, rhs, x, singular):
            try:
                alone = np.linalg.solve(block[None], b[None, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                alone = np.full(m, np.nan)
            assert np.isnan(alone).all() == bad
            assert got.tobytes() == alone.tobytes()

    @pytest.mark.parametrize(
        "R, grad0, beta, want",
        [
            # with all three active the solve turns coordinate 2 negative;
            # the optimum drops it (its |gradient| is 0.0625 ≤ λ)
            (
                [[1.0, 0.6, 0.5], [0.6, 1.0, 0.7], [0.5, 0.7, 1.0]],
                [0.7, 0.6, 0.45],
                [0.45, 0.2, 0.02],
                [0.46875, 0.21875, 0.0],
            ),
            # two steps: which coordinate drops second depends on where the
            # first step left β, not on the sweep's β
            (
                [[0.53, -0.44, 0.59], [-0.44, 0.65, -0.59], [0.59, -0.59, 0.87]],
                [0.14, -0.16, 0.23],
                [0.21, 0.56, 0.23],
                [0.0, 0.0, 0.13 / 0.87],
            ),
        ],
    )
    def test_flip_step_certifies_in_one_call(self, R, grad0, beta, want):
        # the sweep left active a coordinate that the optimum drops
        R, grad0, beta, lam = np.array(R), np.array(grad0), np.array(beta), 0.1
        parts = R[:, :, None], grad0[:, None], np.ones(1), np.array([lam]), beta[:, None]
        x, grad, obj = glasso_mod._active_set_solve(*parts)
        assert np.isfinite(obj[0])
        np.testing.assert_allclose(x[:, 0], want, rtol=1e-14)
        active = x[:, 0] != 0.0
        assert np.array_equal(active, np.array(want) != 0.0)
        assert np.abs(grad[active, 0] - np.copysign(lam, x[active, 0])).max() <= 1e-15
        assert np.all(np.abs(grad[~active, 0]) <= lam)
        # the scalar reference takes the same steps to the same bytes
        gram = np.block([[R, grad0[:, None]], [grad0[None], np.ones((1, 1))]])
        ref = _GramSystem(gram, 3, 1).finish(beta.tolist(), lam)
        assert _bits(*x[:, 0], *grad[:, 0], obj[0]) == _bits(*ref[0], *ref[1], ref[2])


def _bits(*values):
    return np.asarray(values, dtype=np.float64).tobytes()


def _assert_matches_scalar(matrix, config, seed):
    graph = graphical_lasso(matrix, config, seed=seed)
    expected = scalar_vertex_fits(matrix, config, seed)
    assert len(graph.cv) == len(expected) == len(graph.per_vertex_fits)
    for fit, cv, (ref, ref_cv) in zip(graph.per_vertex_fits, graph.cv, expected):
        assert fit.beta.tobytes() == ref.beta.tobytes()
        assert _bits(fit.loss, fit.lam) == _bits(ref.loss, ref.lam)
        assert (fit.iterations, fit.converged) == (ref.iterations, ref.converged)
        assert fit.objective_path == ()
        assert (cv is None) == (ref_cv is None)
        if cv is not None:
            assert cv.cv_errors.tobytes() == ref_cv.cv_errors.tobytes()
            assert cv.cv_se.tobytes() == ref_cv.cv_se.tobytes()
            assert cv.best_index == ref_cv.best_index


class TestBatchedMatchesScalar:
    """The batched Gram-form path gives the scalar one-system-at-a-time solver's bytes."""

    @settings(max_examples=80, deadline=None)
    @given(case=_awkward_matrices(), seed=st.integers(0, 2**16))
    def test_graphical_lasso(self, case, seed):
        _assert_matches_scalar(*case, seed)

    def test_negative_training_diagonal(self):
        # column 1 is nonzero on 4 of 12 rows; a fold holding all 4 out has a
        # training diagonal summed from the same squares in two orders, here < 0
        rng = np.random.default_rng(39)
        matrix = std_fm(rng.standard_normal((12, 4)))
        matrix.values[rng.permutation(12)[4:], 1] = 0.0
        config = GlassoConfig(folds=2)
        values = matrix.values
        gram = values.T @ values
        tests, n_test = glasso_mod._fold_grams(values, 2, 39)
        rows, grad0, yy = (a[0] for a in glasso_mod._systems(gram - tests, 12 - n_test))
        assert min(np.diag(block).min() for block in rows) < 0.0
        # every state on the path, fold systems included, is the scalar walk's
        grid = _grid_from_max(_GramSystem(gram, 0, 12).lambda_max(), matrix.column_names[0])
        states = glasso_mod._gram_path(rows, grad0, yy, np.tile(grid.values, (2, 1)), 1e-6, 1000)
        for i, test_rows in enumerate(fold_rows(12, 2, 39)):
            held_out = values[test_rows]
            system = _GramSystem(gram - held_out.T @ held_out, 0, 12 - len(test_rows))
            beta = None
            for k, lam in enumerate(grid.values):
                beta, loss, sweeps, converged = _gram_descent(system, lam, 1e-6, 1000, beta)
                assert states.beta[i, k].tobytes() == beta.tobytes()
                assert _bits(states.loss[i, k]) == _bits(loss)
                assert (states.sweeps[i, k], states.converged[i, k]) == (sweeps, converged)
        _assert_matches_scalar(matrix, config, 39)

    @settings(max_examples=60, deadline=None)
    @given(case=_awkward_matrices(), seed=st.integers(0, 2**16), data=st.data())
    def test_cross_validate(self, case, seed, data):
        matrix, config = case
        s = data.draw(st.integers(0, matrix.values.shape[1] - 1))
        try:
            grid = lambda_grid(matrix, s)
        except DegenerateColumn:
            assume(False)
        args = (matrix, s, grid, config.folds, config.tol, config.max_sweeps, seed, config.selection)
        cv, ref = cross_validate(*args), scalar_cross_validate(*args)
        assert cv.cv_errors.tobytes() == ref.cv_errors.tobytes()
        assert cv.cv_se.tobytes() == ref.cv_se.tobytes()
        assert (cv.best_index, cv.best_lambda) == (ref.best_index, ref.best_lambda)


def _edge_tuples(graph):
    names = graph.vertex_names
    pc = np.asarray(graph.weights)
    return [
        (names[a], names[b], abs(float(pc[a, b])), 1 if pc[a, b] >= 0 else -1)
        for a, b in graph.edges
    ]
