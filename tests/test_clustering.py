"""PCA, Lloyd k-means, elbow heuristic, and silhouette scores."""

import itertools
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import brute_silhouette, gaussian_blobs, row_kmeans, streamed_silhouette

from energyseg import clustering
from energyseg.clustering import (
    ClusteringConfig,
    elbow_curve,
    minibatch_kmeans,
    pca_fit,
    pca_transform,
    silhouette,
)
from energyseg.errors import (
    DimensionMismatch,
    KTooLarge,
    NonFiniteValue,
    RangeTooNarrow,
    SingleCluster,
    TooFewRows,
)
from energyseg.features import DEFAULT_CLUSTERING_FEATURES, FeatureSpec, pool_features, standardize
from energyseg.synthetic import GeneratorConfig, generate_synthetic


def exact_spectrum(rng, n: int, spectrum) -> np.ndarray:
    """n rows whose sample covariance has eigenvalues ``spectrum`` (up to roundoff).

    Zero-mean orthonormal score columns, scaled and rotated by a random orthogonal matrix.
    """
    p = len(spectrum)
    q, _ = np.linalg.qr(np.column_stack([np.ones(n), rng.standard_normal((n, p))]))
    u = q[:, 1:]  # orthonormal, each orthogonal to the ones vector => zero mean
    v, _ = np.linalg.qr(rng.standard_normal((p, p)))
    return (u * np.sqrt(np.asarray(spectrum, dtype=np.float64))) @ v.T


class TestPca:
    """PCA keeps the fewest components that reach 90% of the variance."""

    def test_axis_aligned_example(self):
        data = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        model = pca_fit(data)  # 80% on the first axis: both components
        assert model.components.shape == (2, 2)
        direction = model.components[0]
        assert abs(abs(direction[0]) - 1.0) <= 1e-12
        assert abs(direction[1]) <= 1e-12
        assert model.explained_variance_ratio[0] == pytest.approx(0.8, abs=1e-12)

    def test_full_rank_round_trip(self):
        data = exact_spectrum(np.random.default_rng(50), 40, [1.0] * 6) + 3.0
        model = pca_fit(data)  # an equal spectrum needs every component
        assert model.components.shape == (6, 6)
        recon = pca_transform(model, data) @ model.components + model.mean
        assert np.abs(recon - data).max() <= 1e-8

    def test_components_orthonormal(self):
        data = exact_spectrum(np.random.default_rng(51), 60, [1.0] * 8)
        model = pca_fit(data)
        gram = model.components @ model.components.T
        assert np.abs(gram - np.eye(8)).max() <= 1e-8

    def test_ratios_nonincreasing_and_bounded(self):
        spectrum = np.arange(7.0, 0.0, -1.0)  # cumsums 25%, 46%, 64%, 79%, 89%, 96%, 100%
        model = pca_fit(exact_spectrum(np.random.default_rng(52), 80, spectrum))
        ratios = np.asarray(model.explained_variance_ratio)
        assert np.all(np.diff(ratios) <= 1e-12)
        assert np.abs(ratios - spectrum[:6] / spectrum.sum()).max() <= 1e-12
        assert np.all(ratios >= -1e-12)

    def test_variance_target_residual(self):
        rng = np.random.default_rng(53)
        data = rng.standard_normal((100, 10)) * np.linspace(3.0, 0.2, 10)
        model = pca_fit(data)
        recon = pca_transform(model, data) @ model.components + model.mean
        centered = data - data.mean(axis=0)
        residual = ((recon - data) ** 2).sum() / (centered**2).sum()
        assert residual <= 0.1 + 1e-9

    def test_variance_picks_smallest_dim(self):
        spectrum = np.array([5.0, 4.0, 3.5, 0.5])  # cumsums 38%, 69%, 96%, 100%
        model = pca_fit(exact_spectrum(np.random.default_rng(54), 200, spectrum))
        ratios = np.asarray(model.explained_variance_ratio)
        assert len(ratios) == 3
        assert ratios.sum() >= 0.9
        assert ratios[:2].sum() < 0.9

    def test_full_rank_preserves_distances(self):
        data = exact_spectrum(np.random.default_rng(55), 30, [1.0] * 5)
        scores = pca_transform(pca_fit(data), data)
        assert scores.shape == (30, 5)
        for i, j in ((0, 1), (3, 17), (9, 28)):
            orig = np.linalg.norm(data[i] - data[j])
            proj = np.linalg.norm(scores[i] - scores[j])
            assert abs(orig - proj) <= 1e-8

    def test_errors(self):
        with pytest.raises(TooFewRows):
            pca_fit(np.random.default_rng(56).standard_normal((1, 3)))


class TestMinibatchKmeans:
    def test_two_group_example(self):
        offsets = np.array([[0.1, 0.0], [-0.1, 0.0], [0.0, 0.1], [0.0, -0.1], [0.0, 0.0]])
        data = np.concatenate([offsets, offsets + 10.0])
        model = minibatch_kmeans(data, k=2, seed=0)
        a = np.asarray(model.assignments)
        assert len(set(a[:5])) == 1 and len(set(a[5:])) == 1 and a[0] != a[5]
        # each group's within-SS is 4 * 0.1^2 = 0.04
        assert model.inertia == pytest.approx(0.08, abs=1e-12)

    def test_k_equals_n(self):
        rng = np.random.default_rng(57)
        data = rng.standard_normal((12, 3))
        model = minibatch_kmeans(data, k=12, seed=0)
        assert model.inertia <= 1e-12
        assert sorted(model.assignments) == list(range(12))

    def test_k_too_large(self):
        with pytest.raises(KTooLarge):
            minibatch_kmeans(np.zeros((5, 2)), k=6)

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(58)
        data = rng.standard_normal((50, 4))
        m1 = minibatch_kmeans(data, k=4, seed=7)
        m2 = minibatch_kmeans(data, k=4, seed=7)
        assert np.array_equal(m1.centroids, m2.centroids)
        assert np.array_equal(m1.assignments, m2.assignments)
        assert m1.inertia == m2.inertia

    def test_assignments_are_nearest_centroid(self):
        rng = np.random.default_rng(59)
        data, _ = gaussian_blobs(rng, [(0, 0), (8, 0), (0, 8)], 30)
        model = minibatch_kmeans(data, k=3, seed=1)
        centroids = np.asarray(model.centroids)
        dists = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        chosen = dists[np.arange(len(data)), model.assignments]
        assert np.all(chosen <= dists.min(axis=1) + 1e-9)

    def test_inertia_matches_recompute(self):
        rng = np.random.default_rng(60)
        data = rng.standard_normal((70, 5))
        model = minibatch_kmeans(data, k=5, seed=2)
        centroids = np.asarray(model.centroids)
        recomputed = float(((data - centroids[model.assignments]) ** 2).sum())
        assert model.inertia == pytest.approx(recomputed, rel=1e-6)

    def test_row_permutation_consistency(self):
        rng = np.random.default_rng(61)
        data, _ = gaussian_blobs(rng, [(0, 0), (12, 12)], 25, scale=0.4)
        base = minibatch_kmeans(data, k=2, seed=3)
        perm = rng.permutation(len(data))
        shuffled = minibatch_kmeans(data[perm], k=2, seed=3)
        assert np.array_equal(
            np.asarray(shuffled.assignments), np.asarray(base.assignments)[perm]
        )

    def test_diagnostics(self):
        rng = np.random.default_rng(62)
        data, _ = gaussian_blobs(rng, [(0, 0), (8, 0), (0, 8)], 30)
        model = minibatch_kmeans(data, k=3, seed=0)
        assert model.converged
        assert 1 <= model.iterations < ClusteringConfig().max_iters

    def test_cap_reached_is_reported(self):
        rng = np.random.default_rng(62)
        data = rng.standard_normal((200, 2))
        model = minibatch_kmeans(data, k=6, config=ClusteringConfig(max_iters=1), seed=0)
        assert model.iterations == 1
        assert not model.converged

    def test_repeated_rows_give_the_row_partition(self):
        # each row repeated 1-50 times: the points weigh as much as their rows
        rng = np.random.default_rng(66)
        blobs, _ = gaussian_blobs(rng, [(0, 0), (10, 0), (0, 10), (10, 10)], 15, scale=0.5)
        data = np.repeat(blobs, rng.integers(1, 51, len(blobs)), axis=0)
        data = data[rng.permutation(len(data))]
        for k in range(1, 5):
            for seed in range(3):
                model = minibatch_kmeans(data, k=k, seed=seed)
                oracle = row_kmeans(data, k=k, seed=seed)
                pairs = np.unique(np.stack([model.assignments, oracle.assignments]), axis=1)
                assert len(pairs.T) == len(np.unique(pairs[0])) == len(np.unique(pairs[1]))
                assert model.inertia == pytest.approx(oracle.inertia, rel=1e-9, abs=0.0)

    def test_k_above_the_distinct_count(self):
        # 6 rows at 2 points: k may exceed the points but not the rows
        data = np.repeat(np.array([[0.0, 1.0], [2.0, 3.0]]), 3, axis=0)
        for seed in range(4):
            model = minibatch_kmeans(data, k=4, seed=seed)
            oracle = row_kmeans(data, k=4, seed=seed)
            assert model.centroids.shape == (4, 2)
            assert np.array_equal(model.assignments, oracle.assignments)
            assert np.array_equal(model.centroids, oracle.centroids)
            assert (model.inertia, model.iterations) == (oracle.inertia, oracle.iterations)
        with pytest.raises(KTooLarge):
            minibatch_kmeans(data, k=7)


# small integer coordinates make duplicate rows and distance ties common
grids = st.integers(2, 40).flatmap(
    lambda n: st.integers(1, 3).flatmap(
        lambda d: st.lists(
            st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=n, max_size=n
        )
    )
).map(lambda rows: np.array(rows, dtype=np.float64) / 2.0)


class TestKmeansProperties:
    @settings(deadline=None, derandomize=True)
    @given(grids, st.integers(1, 6), st.integers(0, 3))
    def test_converged_fit_is_a_fixed_point(self, data, k, seed):
        assume(k <= len(data))
        model = minibatch_kmeans(data, k=k, seed=seed)
        assume(model.converged)
        centroids = np.asarray(model.centroids)
        for c in range(k):
            members = data[model.assignments == c]
            if len(members):
                assert np.allclose(centroids[c], members.mean(axis=0), rtol=0.0, atol=1e-12)
        dists = ((data[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        chosen = dists[np.arange(len(data)), model.assignments]
        assert np.all(chosen <= dists.min(axis=1) + 1e-12)

    @settings(deadline=None, derandomize=True)
    @given(grids, st.integers(1, 6), st.integers(0, 3))
    def test_without_repeats_matches_row_lloyd_bitwise(self, data, k, seed):
        # counts of 1 reduce the weighted arithmetic to the row oracle's exactly
        _, keep = np.unique(data, axis=0, return_index=True)
        data = data[np.sort(keep)]
        assume(k <= len(data))
        model = minibatch_kmeans(data, k=k, seed=seed)
        oracle = row_kmeans(data, k=k, seed=seed)
        assert np.array_equal(model.assignments, oracle.assignments)
        assert np.array_equal(model.centroids, oracle.centroids)
        assert np.array_equal(model.inertia, oracle.inertia)
        assert (model.iterations, model.converged) == (oracle.iterations, oracle.converged)

    @settings(deadline=None, derandomize=True)
    @given(grids, st.integers(1, 6), st.integers(0, 3), st.randoms(use_true_random=False))
    def test_row_permutation_permutes_assignments_only(self, data, k, seed, rnd):
        assume(k <= len(data))
        perm = np.array(rnd.sample(range(len(data)), len(data)))
        base = minibatch_kmeans(data, k=k, seed=seed)
        shuffled = minibatch_kmeans(data[perm], k=k, seed=seed)
        assert np.array_equal(shuffled.assignments, base.assignments[perm])
        assert np.array_equal(shuffled.centroids, base.centroids)
        assert shuffled.inertia == base.inertia
        assert (shuffled.iterations, shuffled.converged) == (base.iterations, base.converged)


class TestElbow:
    def test_three_blob_example(self):
        rng = np.random.default_rng(63)
        data, _ = gaussian_blobs(rng, [(0, 0), (12, 0), (0, 12)], 60)
        inertias, suggested = elbow_curve(data, (1, 6), seed=0)
        assert suggested == 3
        assert len(inertias) == 6
        tol = 1e-6 * inertias[0]
        assert np.all(np.diff(inertias) <= tol)

    def test_range_too_narrow(self):
        rng = np.random.default_rng(64)
        data = rng.standard_normal((30, 2))
        with pytest.raises(RangeTooNarrow):
            elbow_curve(data, (2, 3))
        with pytest.raises(RangeTooNarrow):
            elbow_curve(data, (5, 2))

    def test_seed_determinism(self):
        rng = np.random.default_rng(65)
        data = rng.standard_normal((40, 3))
        i1, s1 = elbow_curve(data, (1, 5), seed=11)
        i2, s2 = elbow_curve(data, (1, 5), seed=11)
        assert np.array_equal(i1, i2) and s1 == s2


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize(
    "call",
    [
        lambda data: pca_fit(data),
        lambda data: minibatch_kmeans(data, k=2, seed=0),
        lambda data: elbow_curve(data, (1, 4), seed=0),
        lambda data: silhouette(data, np.arange(len(data)) % 2),
    ],
    ids=["pca_fit", "minibatch_kmeans", "elbow_curve", "silhouette"],
)
def test_non_finite_input_raises(call, bad):
    data = np.random.default_rng(64).standard_normal((30, 3))
    data[4, 1] = bad
    with pytest.raises(NonFiniteValue):
        call(data)


class TestSilhouette:
    def test_well_separated(self):
        rng = np.random.default_rng(66)
        data, _ = gaussian_blobs(rng, [(0, 0), (20, 20)], 40, scale=0.5)
        truth = np.repeat([0, 1], 40)
        mean_s, per = silhouette(data, truth)
        assert mean_s > 0.9
        assert np.all(per > 0.9)

    def test_cross_blob_pairing_negative(self):
        rng = np.random.default_rng(67)
        data, _ = gaussian_blobs(rng, [(0, 0), (20, 20)], 40, scale=0.5)
        # cluster i = {A_i, B_i}: every point sits far from its own cluster mate
        pairing = np.tile(np.arange(40), 2)
        mean_s, per = silhouette(data, pairing)
        assert mean_s < 0.0
        assert np.all(per < 0.0)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(68)
        for trial in range(5):
            data = rng.standard_normal((60, 4))
            labels = rng.integers(0, 3, size=60)
            labels[:3] = [0, 1, 2]
            mean_s, per = silhouette(data, labels)
            oracle = brute_silhouette(data, labels)
            assert np.abs(per - oracle).max() <= 1e-10
            assert mean_s == pytest.approx(oracle.mean(), abs=1e-10)

    def test_singleton_cluster_scores_zero(self):
        data = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0]])
        _, per = silhouette(data, np.array([0, 0, 1]))
        assert per[2] == 0.0

    def test_bounds(self):
        rng = np.random.default_rng(69)
        data = rng.standard_normal((50, 3))
        labels = rng.integers(0, 4, size=50)
        labels[:4] = [0, 1, 2, 3]
        _, per = silhouette(data, labels)
        assert np.all(per >= -1.0 - 1e-12) and np.all(per <= 1.0 + 1e-12)

    def test_errors(self):
        rng = np.random.default_rng(70)
        with pytest.raises(SingleCluster):
            silhouette(rng.standard_normal((10, 2)), np.zeros(10, dtype=int))
        with pytest.raises(TooFewRows):
            silhouette(rng.standard_normal((2, 2)), np.array([0, 1]))

    @pytest.mark.parametrize(
        "shape", [(2, 10), (1, 10), (20,), (9,), (11,)], ids=["2-D", "1xN", "2N", "N-1", "N+1"]
    )
    def test_wrong_shape_labelling_raises(self, shape):
        # one label per row: a 2N labelling is not two stacked labellings
        rng = np.random.default_rng(72)
        labels = np.arange(np.prod(shape)).reshape(shape) % 2
        with pytest.raises(DimensionMismatch):
            silhouette(rng.standard_normal((10, 2)), labels)

    def test_repeated_rows_bound_memory(self):
        # 60,000 rows at 50 distinct points: a full N×N pass would hold two
        # 8 MiB distance buffers and evaluate 3.6e9 distances
        rng = np.random.default_rng(71)
        points = rng.standard_normal((50, 3))
        data = points[rng.integers(0, 50, size=60_000)]
        for k in (2, 3):
            labels = rng.integers(0, k, size=60_000)
            tracemalloc.start()
            try:
                mean_s, per = silhouette(data, labels)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert per.shape == (60_000,) and np.isfinite(mean_s)
            assert peak <= 8 * 2**20, peak


@st.composite
def labelled_grids(draw):
    """Grid points with a labelling of them, which may hold a singleton cluster."""
    data = draw(grids.filter(lambda values: len(values) >= 3))
    n = len(data)
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    if draw(st.booleans()):
        labels[draw(st.integers(0, n - 1))] = 9
    return data, labels


@st.composite
def shuffled_repeats(draw):
    """Grid points each repeated 1-4 times, shuffled, with a labelling of the rows."""
    points = draw(grids)
    copies = draw(st.lists(st.integers(1, 4), min_size=len(points), max_size=len(points)))
    data = np.repeat(points, copies, axis=0)
    data = data[draw(st.permutations(range(len(data))))]
    n = len(data)
    return data, np.array(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))


# rows over a few values, signed zeros among them, so most matrices repeat rows
repeating_rows = st.integers(1, 4).flatmap(lambda d: st.lists(
    st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.5, 2.0]), min_size=d, max_size=d),
    min_size=1,
    max_size=40,
))


class TestDistinctRows:
    @settings(deadline=None, derandomize=True)
    @given(repeating_rows)
    def test_groups_match_np_unique(self, rows):
        values = np.array(rows)
        first, inverse = clustering._distinct_rows(values)
        _, unique_first, unique_inverse = np.unique(
            values, axis=0, return_index=True, return_inverse=True
        )
        assert np.array_equal(first, unique_first)
        assert np.array_equal(inverse, unique_inverse.ravel())


class TestSilhouetteProperties:
    @settings(deadline=None, derandomize=True)
    @given(labelled_grids(), st.integers(1, 400))
    def test_streamed_matches_brute_force(self, case, block_doubles):
        data, labels = case
        assume(len(np.unique(labels)) >= 2)
        # a small block budget sends each case through several row blocks
        with mock.patch.object(clustering, "SILHOUETTE_BLOCK_DOUBLES", block_doubles):
            mean_s, per = silhouette(data, labels)
        oracle = brute_silhouette(data, labels)
        assert np.abs(per - oracle).max() <= 1e-10
        assert abs(mean_s - oracle.mean()) <= 1e-10

    @settings(deadline=None, derandomize=True)
    @given(labelled_grids(), st.integers(1, 400))
    def test_distinct_rows_match_full_pass_bitwise(self, case, block_doubles):
        data, labels = case
        _, keep = np.unique(data, axis=0, return_index=True)
        keep.sort()
        data, labels = data[keep], labels[keep]
        assume(len(data) >= 3 and len(np.unique(labels)) >= 2)
        with mock.patch.object(clustering, "SILHOUETTE_BLOCK_DOUBLES", block_doubles):
            mean_s, per = silhouette(data, labels)
            oracle_mean, oracle = streamed_silhouette(data, labels)
        assert np.array_equal(per, oracle)
        assert mean_s == oracle_mean

    @settings(deadline=None, derandomize=True)
    @given(shuffled_repeats())
    def test_shuffled_repeats_match_full_pass(self, case):
        data, labels = case
        assume(len(data) >= 3 and len(np.unique(labels)) >= 2)
        mean_s, per = silhouette(data, labels)
        oracle_mean, oracle = streamed_silhouette(data, labels)
        assert np.abs(per - oracle).max() <= 1e-12
        assert abs(mean_s - oracle_mean) <= 1e-12


class TestGeneratorAgreement:
    def test_latent_class_recovery(self):
        scores = []
        for seed in range(20):
            table = generate_synthetic(
                GeneratorConfig(players_per_class=(4, 4, 4), n_days=14), seed=seed
            )
            matrix = standardize(
                pool_features(
                    table,
                    FeatureSpec(features=DEFAULT_CLUSTERING_FEATURES, granularity="daily"),
                )
            )
            model = minibatch_kmeans(matrix, k=3, seed=seed)
            truth = np.array(
                [
                    {"low": 0, "medium": 1, "high": 2}[p.rsplit("_", 1)[0]]
                    for p in matrix.row_players
                ]
            )
            best = 0.0
            for perm in itertools.permutations(range(3)):
                mapped = np.array([perm[a] for a in model.assignments])
                best = max(best, float(np.mean(mapped == truth)))
            scores.append(best)
        assert float(np.median(scores)) >= 0.8
