"""Distribution tails, Granger F-tests, and Welch two-sample t-tests."""

import datetime as dt
import io
import math
from functools import partial

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import NoConvergence
from scipy import special

from helpers import f_tail_quad, granger_oracle, t_tail_quad, table_to_csv, traced_peak

from energyseg import causality
from energyseg.causality import (
    CausalityResult,
    f_survival,
    granger_test,
    granger_test_segments,
    t_survival,
    two_sample_ttest,
)
from energyseg.errors import (
    InvalidDof,
    NoConvergence,
    NonFiniteValue,
    NumericError,
    SeriesTooShort,
    TooFewSamples,
)
from energyseg.features import player_day_segments
from energyseg.records import ingest_csv
from energyseg.synthetic import GeneratorConfig, generate_synthetic

# F statistics of the default report (seed 42), all at F(1, 20143)
REPORT_F_STATISTICS = (
    4.652750902056255, 338.5799771796991, 5.04979353183386, 926.6394384261519,
    32.51798115389646, 0.10054951872213488, 1803.122803797809, 30.74112739927801,
    29.77379966721551, 9.469456887895513, 27.958268048610407, 0.00042605005877368067,
    0.8667923595941688, 44.644457684117334, 39.846308231968514, 0.08087595762871802,
    74.94761724109115, 86.51904638513861, 2.1659506301884637, 6.136442900215252,
    110.7270174134153,
)


def assert_tail_close(value: float, reference: float) -> None:
    """Relative error 1e-12 above 1e-300; absolute error 1e-300 below."""
    if reference > 1e-300:
        assert abs(value - reference) <= 1e-12 * reference, (value, reference)
    else:
        assert abs(value - reference) <= 1e-300, (value, reference)


def tail_reference(value: float, scipy_tail: float, exact) -> float:
    """scipy's tail, or 50-digit mpmath's (``exact()``) where the package is over 5e-13 from it.

    scipy's own betainc is off by up to 6.5e-13 relative (b = 2, a ≈ 5·10⁴,
    x ≈ 0.9998), too close to the 1e-12 gate to judge the package by there.
    mpmath's series does not converge where the tail is below 1e-300 (near
    d1 = 3, d2 = 250000, f = 9000); scipy's value and the absolute rule stay.
    """
    if abs(value - scipy_tail) <= 5e-13 * scipy_tail:
        return scipy_tail
    try:
        with mpmath.workdps(50):
            return float(exact())
    except NoConvergence:
        return scipy_tail


def mp_betainc(a: float, b: float, x: float):
    return mpmath.betainc(mpmath.mpf(a), mpmath.mpf(b), 0, mpmath.mpf(x), regularized=True)


class TestSurvivalFunctions:
    def test_f11_median(self):
        assert abs(f_survival(1.0, 1, 1) - 0.5) <= 1e-12

    def test_t_at_zero_is_half(self):
        for df in (1, 2, 7, 30.5, 250):
            assert t_survival(0.0, df) == 0.5

    def test_f_matches_quadrature(self):
        for d1, d2 in ((1, 1), (1, 10), (2, 5), (5, 2), (10, 10), (3, 100)):
            for x in (0.1, 0.5, 1.0, 2.0, 5.0, 10.0):
                assert abs(f_survival(x, d1, d2) - f_tail_quad(x, d1, d2)) <= 1e-10

    def test_t_matches_quadrature(self):
        for df in (1, 2, 5, 30, 200):
            for x in (-3.0, -1.0, 0.0, 0.5, 2.0, 8.0):
                assert abs(t_survival(x, df) - t_tail_quad(x, df)) <= 1e-10

    def test_monotone_and_bounded(self):
        xs = np.linspace(0.0, 40.0, 81)
        fvals = [f_survival(x, 3, 11) for x in xs]
        tvals = [t_survival(x, 7) for x in xs]
        for vals in (fvals, tvals):
            assert all(0.0 <= v <= 1.0 for v in vals)
            assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_edges(self):
        assert f_survival(0.0, 4, 9) == 1.0
        assert f_survival(float("inf"), 4, 9) == 0.0
        assert t_survival(float("inf"), 5) == 0.0
        assert t_survival(float("-inf"), 5) == 1.0

    def test_invalid_dof(self):
        with pytest.raises(InvalidDof):
            f_survival(1.0, 0, 5)
        with pytest.raises(InvalidDof):
            f_survival(1.0, 5, 0)
        with pytest.raises(InvalidDof):
            t_survival(1.0, 0.5)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 5), st.integers(1, 300_000), st.floats(0.0, 1e4))
    def test_f_matches_scipy(self, d1, d2, f):
        value = f_survival(f, d1, d2)
        if f == 0.0:
            assert_tail_close(value, 1.0)
            return
        x = d2 / (d2 + d1 * f)
        scipy_tail = float(special.betainc(d2 / 2, d1 / 2, x))
        exact = partial(mp_betainc, d2 / 2, d1 / 2, x)
        assert_tail_close(value, tail_reference(value, scipy_tail, exact))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        st.floats(1.0, 1e5).filter(lambda df: not df.is_integer()),
        st.floats(-1e3, 1e3),
    )
    def test_t_matches_scipy(self, df, x):
        z = df / (df + x * x)
        upper = 0.5 * float(special.betainc(df / 2, 0.5, z))

        def exact():
            tail = mp_betainc(df / 2, 0.5, z) / 2
            return tail if x >= 0 else 1 - tail

        value = t_survival(x, df)
        assert_tail_close(value, tail_reference(value, upper if x >= 0 else 1.0 - upper, exact))
        assert t_survival(-abs(x), df) == 1.0 - t_survival(abs(x), df)

    def test_report_tails_match_mpmath(self):
        d1, d2 = 1, 20143
        with mpmath.workdps(50):
            for f in REPORT_F_STATISTICS:
                x = mpmath.mpf(d2 / (d2 + d1 * f))  # the double the package evaluates at
                a, b = mpmath.mpf(d2) / 2, mpmath.mpf(d1) / 2
                reference = mpmath.betainc(a, b, 0, x, regularized=True)
                assert_tail_close(f_survival(f, d1, d2), float(reference))

    def test_nan_in_nan_out(self):
        nan = float("nan")
        for value in (f_survival(nan, 2, 10), f_survival(1.0, 2, nan)):
            assert math.isnan(value)
        for value in (t_survival(nan, 5), t_survival(1.0, nan)):
            assert math.isnan(value)

    def test_t_at_zero_and_symmetry(self):
        for df in (1, 2.5, 1000.3, 99_999.7):
            assert t_survival(0.0, df) == 0.5
            for x in (1e-8, 0.3, 2.0, 40.0):
                assert t_survival(-x, df) == 1.0 - t_survival(x, df)

    def test_tails_below_double_range_are_zero(self):
        assert f_survival(1803.122803797809, 1, 20143) == 0.0  # true tail ~2e-377
        assert f_survival(1e6, 1, 20143) == 0.0
        assert f_survival(1e308, 5, 5) == 0.0  # d1·x overflows
        assert t_survival(1e3, 1e5) == 0.0
        assert t_survival(-1e3, 1e5) == 1.0
        assert t_survival(1e200, 3.5) == 0.0  # x² overflows
        assert t_survival(1e-160, 3.5) == 0.5

    def test_fraction_that_does_not_converge_raises(self, monkeypatch):
        monkeypatch.setattr(causality, "_CF_MAX_STEPS", 1)
        with pytest.raises(NoConvergence) as info:
            f_survival(4.652750902056255, 1, 20143)
        assert isinstance(info.value, NumericError)
        assert info.value.exit_code == 5


class TestGranger:
    def test_lagged_power_example(self):
        rng = np.random.default_rng(40)
        T = 2000
        x = rng.standard_normal(T)
        eps = rng.standard_normal(T)
        y = np.zeros(T)
        y[1:] = 0.8 * x[:-1] + eps[1:]
        res = granger_test(x, y, lag=1)
        assert res.p_value < 0.001
        assert res.reject_h0 is True
        assert res.f_statistic > 0.0
        assert res.n_effective == T - 1
        assert res.inconclusive is False

    def test_size_sanity(self):
        rejections = 0
        for seed in range(50):
            rng = np.random.default_rng([41, seed])
            res = granger_test(rng.standard_normal(500), rng.standard_normal(500), lag=1)
            rejections += int(res.reject_h0)
        assert rejections <= 8  # ~0.05 * 50 expected

    def test_reject_iff_p_below_alpha(self):
        rng = np.random.default_rng(42)
        for seed in range(20):
            rng2 = np.random.default_rng([42, seed])
            res = granger_test(rng2.standard_normal(300), rng2.standard_normal(300), lag=2)
            assert res.reject_h0 == (res.p_value < res.alpha)

    def test_constant_y_inconclusive(self):
        rng = np.random.default_rng(43)
        res = granger_test(rng.standard_normal(100), np.full(100, 3.0), lag=1)
        assert res.inconclusive is True
        assert res.reject_h0 is False
        assert res.p_value == 1.0

    def test_self_cause_inconclusive_not_spurious(self):
        rng = np.random.default_rng(44)
        y = rng.standard_normal(500)
        res = granger_test(y, y, lag=1)
        assert res.inconclusive is True
        assert res.reject_h0 is False

    def test_series_too_short(self):
        with pytest.raises(SeriesTooShort):
            granger_test(np.arange(4.0), np.arange(4.0), lag=1)
        with pytest.raises(SeriesTooShort):
            granger_test(np.arange(7.0), np.arange(7.0), lag=2)

    def test_length_mismatch(self):
        with pytest.raises(SeriesTooShort):
            granger_test(np.arange(10.0), np.arange(11.0), lag=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample(self, bad):
        # a numeric error (exit 5), not a data-size one: the series are long enough
        y = np.random.default_rng(46).standard_normal(100)
        x = y.copy()
        x[40] = bad
        with pytest.raises(NonFiniteValue):
            granger_test(x, np.roll(y, 1), lag=1)
        with pytest.raises(NonFiniteValue):
            granger_test(np.roll(y, 1), x, lag=1)
        with pytest.raises(NonFiniteValue):
            granger_test_segments([(y, np.roll(y, 1)), (x, y)], lag=1)

    def test_lag_validation(self):
        with pytest.raises(InvalidDof):
            granger_test(np.arange(10.0), np.arange(10.0), lag=0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(45)
        x = rng.standard_normal(400)
        y = np.zeros(400)
        y[1:] = 0.4 * x[:-1] + rng.standard_normal(399)
        base = granger_test(x, y, lag=1)
        scaled = granger_test(2.5 * x, 3.0 * y + 7.0, lag=1)
        assert abs(scaled.f_statistic - base.f_statistic) <= 1e-8 * max(1.0, base.f_statistic)
        assert abs(scaled.p_value - base.p_value) <= 1e-10

    def test_single_segment_equals_plain_test(self):
        rng = np.random.default_rng(46)
        x = rng.standard_normal(300)
        y = np.zeros(300)
        y[1:] = 0.5 * x[:-1] + rng.standard_normal(299)
        plain = granger_test(x, y, lag=1)
        seg = granger_test_segments([(x, y)], lag=1, cause="hum", effect="fan")
        assert seg.f_statistic == plain.f_statistic
        assert seg.p_value == plain.p_value
        assert plain.alpha == seg.alpha == 0.05
        assert seg.cause == "hum" and seg.effect == "fan"

    def test_segments_drop_boundary_samples(self):
        rng = np.random.default_rng(47)
        segments = []
        for _ in range(3):
            x = rng.standard_normal(200)
            y = np.zeros(200)
            y[1:] = 0.7 * x[:-1] + 0.5 * rng.standard_normal(199)
            segments.append((x, y))
        res = granger_test_segments(segments, lag=1)
        assert res.n_effective == 3 * (200 - 1)
        assert res.reject_h0 is True
        diffed = granger_test_segments(segments, lag=1, first_difference=True)
        assert diffed.n_effective == 3 * (199 - 1)

    def test_deleted_csv_lines_match_segments_cut_by_hand(self):
        table = generate_synthetic(GeneratorConfig(players_per_class=(1, 1, 0), n_days=2), seed=3)
        header, *lines = table_to_csv(table).splitlines(keepends=True)
        kept = [line for i, line in enumerate(lines) if i % 7 != 3]  # delete every 7th line
        gapped = ingest_csv(io.StringIO(header + "".join(kept)))
        # by hand: a new segment wherever the player or the day changes or a minute is missing
        stamps, players = gapped.timestamps.tolist(), gapped.row_players()
        hand = [[0]]
        for i in range(1, len(gapped)):
            same_day = players[i] == players[i - 1] and stamps[i].date() == stamps[i - 1].date()
            if same_day and stamps[i] - stamps[i - 1] == dt.timedelta(minutes=1):
                hand[-1].append(i)
            else:
                hand.append([i])
        assert len(hand) > len(gapped.day_runs()[0])
        pairs = [("humidity", "status_fan"), ("status_ceiling_light", "status_desk_light")]
        segments = player_day_segments(gapped, sorted({n for pair in pairs for n in pair}))
        assert [len(series["humidity"]) for _, _, series in segments] == list(map(len, hand))
        for cause, effect in pairs:
            cut = [(series[cause], series[effect]) for _, _, series in segments]
            by_hand = [(gapped.columns[cause][rows], gapped.columns[effect][rows]) for rows in hand]
            assert granger_test_segments(cut) == granger_test_segments(by_hand)

    def test_display_p_formatting(self):
        res = CausalityResult(
            cause="x", effect="y", lag=1, f_statistic=1.0, p_value=3e-4,
            reject_h0=True, alpha=0.05, n_effective=100,
        )
        assert res.display_p == "0"
        res2 = CausalityResult(
            cause="x", effect="y", lag=1, f_statistic=1.0, p_value=0.0321,
            reject_h0=True, alpha=0.05, n_effective=100,
        )
        assert res2.display_p == "0.0321"


# |package − oracle| of the numerator and of RSS_u, over RSS_r; the worst seen
# over 3,000 random cases was 4e-13
ORACLE_TOL = 1e-10


@st.composite
def granger_cases(draw):
    """1-30 segments of an (x, y) pair offset by up to 1e3, with lag and differencing."""
    lag = draw(st.integers(1, 3))
    lengths = draw(st.lists(st.integers(1, 60), min_size=1, max_size=30))
    first_difference = draw(st.booleans())
    x_offset, y_offset = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    coupling = draw(st.floats(-1.0, 1.0))
    binary_x = draw(st.booleans())  # a 0/1 status held as int8, as the table stores it
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    segments = []
    for T in lengths:
        x = (rng.random(T) < 0.5).astype(np.int8) if binary_x else x_offset + rng.standard_normal(T)
        y = y_offset + rng.standard_normal(T)
        y[1:] += coupling * x[:-1]
        segments.append((x, y))
    n = sum(max(0, T - first_difference - lag) for T in lengths)
    return segments, lag, first_difference, n


class TestMergedMoments:
    """The F from merged per-segment cross products against stacked ``lstsq`` fits."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(granger_cases())
    def test_matches_the_stacked_oracle(self, case):
        segments, lag, first_difference, n = case
        if n - 2 * lag - 1 < 1:
            with pytest.raises(SeriesTooShort):
                granger_test_segments(segments, lag=lag, first_difference=first_difference)
            return
        result = granger_test_segments(segments, lag=lag, first_difference=first_difference)
        numerator, rss_u, rss_r, rows = granger_oracle(segments, lag, first_difference)
        assert result.n_effective == rows == n
        if rss_r is None:  # collinear design, e.g. a 0/1 x that never changes
            assert result.inconclusive
            return
        count, mean, cross = causality._merge(
            causality._segment_moments(segments, lag, first_difference), 2 * lag + 1
        )
        squares = np.diagonal(cross) + count * mean * mean
        got_numerator, got_rss_u = causality._f_parts(cross, squares, lag)
        assert abs(got_numerator - numerator) <= ORACLE_TOL * rss_r
        assert abs(got_rss_u - rss_u) <= ORACLE_TOL * rss_r
        assert not result.inconclusive
        f_stat = (got_numerator / lag) / (got_rss_u / (n - 2 * lag - 1))
        assert result.f_statistic == f_stat

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(granger_cases(), st.floats(-1e3, 1e3))
    def test_degenerate_pairs_stay_inconclusive(self, case, level):
        segments, lag, first_difference, n = case
        if n - 2 * lag - 1 < 1:
            return
        same = [(y, y) for _, y in segments]
        constant_y = [(x, np.full(len(y), level)) for x, y in segments]
        constant_x = [(np.full(len(x), level), y) for x, y in segments]
        for pairs in (same, constant_y, constant_x):
            result = granger_test_segments(pairs, lag=lag, first_difference=first_difference)
            assert result.inconclusive and not result.reject_h0 and result.p_value == 1.0

    def test_memory_is_a_few_segments_whatever_their_count(self):
        # as in the pipeline: a 0/1 cause at its stored int8 width, a float64 effect
        rng = np.random.default_rng(50)
        segments = [
            ((rng.random(1440) < 0.5).astype(np.int8), rng.standard_normal(1440))
            for _ in range(30)
        ]
        segment_rows = 3 * 1439 * 8  # one segment's [own, cross, y] rows in float64
        for count in (1, 30):
            _, peak = traced_peak(
                granger_test_segments, segments[:count], lag=1, first_difference=True
            )
            assert peak <= 4 * segment_rows, (count, peak)


class TestTTest:
    def test_identical_samples(self):
        res = two_sample_ttest([4.0, 5.0, 6.0], [4.0, 5.0, 6.0])
        assert res.t_statistic == 0.0
        assert res.p_value == 1.0
        assert res.percent_drop == 0.0

    def test_separated_samples_example(self):
        rng = np.random.default_rng(48)
        before = 10.0 + rng.standard_normal(200)
        after = 5.0 + rng.standard_normal(200)
        res = two_sample_ttest(before, after)
        assert res.p_value < 1e-10
        assert abs(res.percent_drop - 50.0) <= 2.0
        assert res.mean_before == pytest.approx(before.mean())
        assert res.df >= 2

    def test_swap_negates_t_preserves_p(self):
        rng = np.random.default_rng(49)
        a = rng.standard_normal(30) + 1.0
        b = rng.standard_normal(40)
        fwd = two_sample_ttest(a, b)
        rev = two_sample_ttest(b, a)
        assert rev.t_statistic == -fwd.t_statistic
        assert rev.p_value == fwd.p_value

    def test_percent_drop_definition(self):
        res = two_sample_ttest([10.0, 10.0, 10.0, 10.1], [6.0, 6.2, 5.8, 6.0])
        mean_b = np.mean([10.0, 10.0, 10.0, 10.1])
        mean_a = np.mean([6.0, 6.2, 5.8, 6.0])
        assert res.percent_drop == pytest.approx(100.0 * (mean_b - mean_a) / mean_b)

    def test_too_few_samples(self):
        with pytest.raises(TooFewSamples):
            two_sample_ttest([1.0], [2.0, 3.0])
        with pytest.raises(NonFiniteValue):
            two_sample_ttest([1.0, float("nan")], [2.0, 3.0])
        with pytest.raises(NonFiniteValue):
            two_sample_ttest([1.0, 2.0], [2.0, float("inf")])

    def test_zero_variance_distinct_means(self):
        res = two_sample_ttest([3.0, 3.0, 3.0], [5.0, 5.0])
        assert res.p_value == 0.0
        assert res.t_statistic == float("-inf")
