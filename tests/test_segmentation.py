"""Rank bands, class assignment, correlations, RV matching, proportions."""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    awkward_matrices,
    correlation_formula,
    fm,
    make_record,
    make_table,
    random_psd,
    scanned_proportions,
    two_pass_pearson,
)

from energyseg.errors import (
    DimensionMismatch,
    EmptyTable,
    FeatureOrderMismatch,
    MissingRank,
    NonFiniteValue,
    TooFewRows,
    ZeroMatrix,
)
from energyseg.segmentation import (
    BUCKET_EDGES,
    ClassLabel,
    assign_classes,
    correlation_matrix,
    label_clusters,
    make_rank_bands,
    proportion_buckets,
    rv_coefficient,
)


class TestClassLabel:
    def test_total_order(self):
        assert ClassLabel.LOW < ClassLabel.MEDIUM < ClassLabel.HIGH
        assert len(list(ClassLabel)) == 3

    def test_label_round_trip(self):
        for cl in ClassLabel:
            assert ClassLabel[cl.label.upper()] is cl
        assert ClassLabel.HIGH.label == "high"


class TestRankBands:
    def test_even_split(self):
        bands = make_rank_bands(1, 30)
        assert bands.boundaries == (10, 20)
        classes = bands.classes_of(np.array([1, 10, 11, 20, 21, 30]))
        assert classes.tolist() == [ClassLabel.HIGH] * 2 + [ClassLabel.MEDIUM] * 2 + [
            ClassLabel.LOW
        ] * 2

    def test_uneven_split_widths_differ_by_at_most_one(self):
        for lo, hi in ((1, 10), (1, 11), (3, 9), (1, 4), (2, 2)):
            bands = make_rank_bands(lo, hi)
            classes = bands.classes_of(np.arange(lo, hi + 1))
            widths = [
                int((classes == cl).sum())
                for cl in (ClassLabel.HIGH, ClassLabel.MEDIUM, ClassLabel.LOW)
            ]
            assert sum(widths) == hi - lo + 1
            present = [w for w in widths if w > 0]
            assert max(widths) - min(present) <= 1 or min(widths) == 0
            assert max(widths) - min(widths) <= 1 or (hi - lo + 1) < 3

    def test_classes_match_the_nested_where(self):
        for lo, hi in itertools.product(range(1, 6), range(1, 12)):
            if hi < lo:
                continue
            bands = make_rank_bands(lo, hi)
            ranks = np.arange(lo, hi + 1)
            b1, b2 = bands.boundaries
            expected = np.where(ranks <= b1, 2, np.where(ranks <= b2, 1, 0))
            for out in (None, np.full(len(ranks), 30)):
                got = bands.classes_of(ranks, out=out)
                assert got.dtype == np.int64
                assert got.tolist() == (expected + (0 if out is None else 30)).tolist()


def ranked_records(player, ranks, start_minute=0):
    return [
        make_record(player, minute=start_minute + i, rank=r) for i, r in enumerate(ranks)
    ]


def anchor_records():
    """Two anchor players pinning the observed rank range to 1..30."""
    return ranked_records("zz_top", [1, 1]) + ranked_records("zz_bottom", [30, 30])


class TestAssignClasses:
    def test_unanimous_top_third_is_high(self):
        table = make_table(anchor_records() + ranked_records("hero", [2, 5, 9, 10]))
        classes, bands = assign_classes(table)
        assert classes["hero"] is ClassLabel.HIGH
        assert (bands.rank_min, bands.rank_max) == (1, 30)

    def test_argmax_counts_example(self):
        ranks = [25] * 10 + [15] * 10 + [5] * 12
        table = make_table(anchor_records() + ranked_records("mixed", ranks))
        classes, _ = assign_classes(table)
        assert classes["mixed"] is ClassLabel.HIGH

    def test_tie_breaks_toward_more_efficient(self):
        ranks = [25] * 5 + [15] * 5 + [5] * 5
        table = make_table(anchor_records() + ranked_records("tied", ranks))
        classes, _ = assign_classes(table)
        assert classes["tied"] is ClassLabel.HIGH
        ranks = [25] * 5 + [15] * 5 + [5] * 4
        table = make_table(anchor_records() + ranked_records("tied2", ranks))
        classes, _ = assign_classes(table)
        assert classes["tied2"] is ClassLabel.MEDIUM

    def test_record_order_invariance(self):
        records = anchor_records() + ranked_records("mixed", [25] * 3 + [5] * 4)
        forward = assign_classes(make_table(list(records)))[0]
        backward = assign_classes(make_table(list(reversed(records))))[0]
        assert forward == backward

    def test_duplication_invariance(self):
        records = anchor_records() + ranked_records("mixed", [25] * 3 + [5] * 4)
        once = assign_classes(make_table(list(records)))[0]
        twice = assign_classes(make_table(records + records))[0]
        assert once == twice

    def test_missing_rank(self):
        table = make_table([make_record("a", 0, rank=0)])
        with pytest.raises(MissingRank):
            assign_classes(table)

    def test_empty_table(self):
        with pytest.raises(EmptyTable):
            assign_classes(make_table([]))

    def test_one_n_length_key_array(self, synth_table):
        n = len(synth_table)
        tracemalloc.start()
        try:
            assign_classes(synth_table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the int64 keys and one bool mask; slack for the cast's ufunc buffer, 64 KiB
        assert peak <= 9 * n + 128 * 1024, peak


class TestCorrelationMatrix:
    def test_self_and_anti_correlation(self):
        y = np.arange(10.0)
        C = correlation_matrix(fm(np.column_stack([y, -y])))
        assert np.allclose(C, [[1.0, -1.0], [-1.0, 1.0]], atol=1e-15)
        assert C[0, 0] == 1.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(17)
        X = rng.standard_normal((100, 5)) * np.array([1, 5, 0.2, 3, 1]) + rng.standard_normal(5)
        C = correlation_matrix(fm(X))
        assert np.abs(C - two_pass_pearson(X)).max() <= 1e-12
        assert np.allclose(C, C.T)
        assert np.linalg.eigvalsh(C).min() >= -1e-8

    def test_constant_column_zeroed_with_warning(self):
        X = np.column_stack([np.arange(6.0), np.full(6, 2.0)])
        with pytest.warns(RuntimeWarning):
            C = correlation_matrix(fm(X))
        assert C[0, 1] == 0.0 and C[1, 0] == 0.0
        assert C[1, 1] == 1.0

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            correlation_matrix(fm([[1.0, 2.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_cell(self, bad):
        # one NaN cell would make every correlation of its column NaN
        X = np.random.default_rng(5).standard_normal((200, 3))
        X[17, 1] = bad
        with pytest.raises(NonFiniteValue):
            correlation_matrix(fm(X))

    @settings(deadline=None, derandomize=True)
    @given(awkward_matrices())
    def test_bytes_match_the_formula(self, values):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # constant columns
            corr = correlation_matrix(fm(values))
        expected = correlation_formula(values)
        assert np.array_equal(corr, expected)
        assert corr.tobytes() == expected.tobytes()

    def test_one_working_copy(self):
        matrix = fm(np.random.default_rng(3).standard_normal((20_000, 6)) * 4.0 + 1e6)
        tracemalloc.start()
        try:
            correlation_matrix(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # slack for the reductions' buffer of np.getbufsize() doubles, 64 KiB
        assert peak <= matrix.values.nbytes + 128 * 1024, peak


class TestRvCoefficient:
    def test_identity_is_one(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            A = random_psd(rng, 4)
            assert abs(rv_coefficient(A, A) - 1.0) <= 1e-12
        eye = np.eye(3)
        assert rv_coefficient(eye, eye) == 1.0

    def test_direct_trace_arithmetic(self):
        A = np.eye(3)
        B = np.diag([1.0, 0.0, 0.0]) + 0.01 * np.eye(3)
        expected = np.trace(A @ B) / np.sqrt(np.trace(A @ A) * np.trace(B @ B))
        assert abs(rv_coefficient(A, B) - expected) <= 1e-14

    def test_symmetry_on_100_pairs(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            A, B = random_psd(rng, 5), random_psd(rng, 5)
            assert abs(rv_coefficient(A, B) - rv_coefficient(B, A)) <= 1e-12
            assert -1e-12 <= rv_coefficient(A, B) <= 1.0 + 1e-12

    def test_scale_invariance(self):
        rng = np.random.default_rng(9)
        A, B = random_psd(rng, 4), random_psd(rng, 4)
        for c in (0.01, 3.0, 1e6):
            assert abs(rv_coefficient(c * A, B) - rv_coefficient(A, B)) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            rv_coefficient(np.eye(3), np.eye(4))

    def test_zero_matrix(self):
        with pytest.raises(ZeroMatrix):
            rv_coefficient(np.zeros((3, 3)), np.eye(3))


class TestLabelClusters:
    def class_corrs(self, rng):
        return {cl: random_psd(rng, 4) for cl in ClassLabel}

    def test_identity_match(self):
        rng = np.random.default_rng(21)
        class_corrs = self.class_corrs(rng)
        clusters = [class_corrs[ClassLabel.LOW], class_corrs[ClassLabel.MEDIUM], class_corrs[ClassLabel.HIGH]]
        lab = label_clusters(clusters, class_corrs)
        assert lab.mapping == {0: ClassLabel.LOW, 1: ClassLabel.MEDIUM, 2: ClassLabel.HIGH}
        for cid, cl in lab.mapping.items():
            idx = sorted(ClassLabel).index(cl)
            assert abs(lab.similarity_matrix[cid, idx] - 1.0) <= 1e-12

    def test_permutation_recovered(self):
        rng = np.random.default_rng(22)
        class_corrs = self.class_corrs(rng)
        clusters = [class_corrs[ClassLabel.HIGH], class_corrs[ClassLabel.LOW], class_corrs[ClassLabel.MEDIUM]]
        lab = label_clusters(clusters, class_corrs)
        assert lab.mapping == {0: ClassLabel.HIGH, 1: ClassLabel.LOW, 2: ClassLabel.MEDIUM}

    def test_returned_bijection_is_optimal(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            class_corrs = self.class_corrs(rng)
            clusters = [random_psd(rng, 4) for _ in range(3)]
            lab = label_clusters(clusters, class_corrs)
            order = sorted(ClassLabel)
            chosen = sum(
                lab.similarity_matrix[cid, order.index(cl)] for cid, cl in lab.mapping.items()
            )
            for perm in itertools.permutations(range(3)):
                total = sum(lab.similarity_matrix[cid, perm[cid]] for cid in range(3))
                assert chosen >= total - 1e-12
            assert sorted(lab.mapping.values()) == order

    def test_wrong_count(self):
        rng = np.random.default_rng(24)
        with pytest.raises(DimensionMismatch):
            label_clusters([np.eye(3)] * 2, self.class_corrs(rng))

    def test_feature_order_mismatch(self):
        rng = np.random.default_rng(25)
        clusters = [np.eye(3), np.eye(3), np.eye(4)]
        with pytest.raises(FeatureOrderMismatch):
            label_clusters(clusters, self.class_corrs(rng))


class TestProportionBuckets:
    def test_single_cluster_player(self):
        class_map = {"a": ClassLabel.LOW}
        report = proportion_buckets(class_map, ["a", "a", "a"], [1, 1, 1], k=3)
        assert report.per_player["a"].tolist() == [0.0, 1.0, 0.0]

    def test_half_half_players_land_in_half_bucket(self):
        class_map = {"a": ClassLabel.MEDIUM, "b": ClassLabel.MEDIUM}
        players = ["a", "a", "b", "b"]
        assignments = [0, 2, 0, 2]
        report = proportion_buckets(class_map, players, assignments, k=3)
        bucket = np.searchsorted(np.asarray(report.bucket_edges), 0.5, side="right") - 1
        counts = report.counts[ClassLabel.MEDIUM]
        assert counts[0, bucket] == 2
        assert counts[2, bucket] == 2

    def test_proportions_sum_to_one(self):
        rng = np.random.default_rng(31)
        players = [f"p{i}" for i in range(12) for _ in range(30)]
        assignments = rng.integers(0, 4, size=len(players))
        class_map = {f"p{i}": ClassLabel(int(i % 3)) for i in range(12)}
        report = proportion_buckets(class_map, players, assignments.tolist(), k=4)
        for props in report.per_player.values():
            assert abs(props.sum() - 1.0) <= 1e-12

    def test_histogram_counts_total(self):
        class_map = {"a": ClassLabel.LOW, "b": ClassLabel.HIGH}
        players = ["a", "a", "b", "b"]
        report = proportion_buckets(class_map, players, [0, 1, 0, 0], k=2)
        for cl in (ClassLabel.LOW, ClassLabel.HIGH):
            assert report.counts[cl].shape == (2, 10)
            assert report.counts[cl].sum() == 2  # one player x two clusters

    @settings(deadline=None, derandomize=True)
    @given(
        st.integers(1, 5).flatmap(lambda k: st.tuples(
            st.just(k),
            st.lists(st.tuples(st.sampled_from("abcde"), st.integers(0, k - 1)), max_size=60),
        )),
    )
    def test_matches_a_scan_per_player(self, case):
        k, rows = case
        players = [player for player, _ in rows]
        assignments = [cluster for _, cluster in rows]
        class_map = {p: ClassLabel("abcde".index(p) % 3) for p in "abcde"}
        report = proportion_buckets(class_map, players, assignments, k)
        per_player, counts = scanned_proportions(class_map, players, assignments, k, BUCKET_EDGES)
        assert list(report.per_player) == list(per_player)
        for player, props in per_player.items():
            assert np.array_equal(report.per_player[player], props)
        assert all(np.array_equal(report.counts[label], counts[label]) for label in ClassLabel)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            proportion_buckets({"a": ClassLabel.LOW}, ["a", "a"], [0], k=1)
        with pytest.raises(DimensionMismatch):
            proportion_buckets({"a": ClassLabel.LOW}, ["a"], [5], k=2)
