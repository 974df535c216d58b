"""Feature catalog, pooling, standardization, and per-segment extraction."""

import dataclasses
import datetime as dt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    awkward_matrices,
    blocked_matrices,
    fm,
    make_record,
    make_table,
    scaled_deviations_formula,
    standardize_formula,
    table_records,
    traced_peak,
)

from energyseg.errors import (
    AlreadyStandardized,
    AnalysisError,
    EmptyTable,
    NonFiniteValue,
    TooFewRows,
    UnknownFeatureName,
)
from energyseg.features import (
    _BLOCK_ROWS,
    _scaled_deviations,
    _standardize_in_place,
    _stream,
    ALL_FEATURES,
    DAILY_POOLED_FEATURES,
    DEFAULT_CLUSTERING_FEATURES,
    DEFAULT_GRAPH_FEATURES,
    MINUTE_FEATURES,
    FeatureSpec,
    player_day_segments,
    pool_features,
    raw_columns,
    require_finite,
    standardize,
)
from energyseg.records import RESOURCES


class TestCatalog:
    def test_daily_pooled_features(self):
        assert set(DAILY_POOLED_FEATURES) == {
            "switch_freq_ceiling_light",
            "switch_freq_desk_light",
            "switch_freq_fan",
            "switch_freq_ac",
            "usage_pct_ceiling_light",
            "usage_pct_desk_light",
            "usage_pct_fan",
            "usage_pct_ac",
        }

    def test_minute_features_cover_schema(self):
        for name in (
            "status_fan",
            "humidity",
            "temperature",
            "solar_radiation",
            "is_weekend",
            "is_final",
            "portal_visits",
            "points_total",
            "rank",
        ):
            assert name in MINUTE_FEATURES
        assert set(ALL_FEATURES) == set(MINUTE_FEATURES) | set(DAILY_POOLED_FEATURES)

    def test_default_specs(self):
        assert set(DEFAULT_CLUSTERING_FEATURES) == set(DAILY_POOLED_FEATURES) | {"portal_visits"}
        # graph features track behavior/environment, not game-state columns
        for name in ("points_total", "rank", "portal_visits"):
            assert name not in DEFAULT_GRAPH_FEATURES
        for name in ("status_fan", "humidity", "is_evening"):
            assert name in DEFAULT_GRAPH_FEATURES


def toggle_day_records():
    """One player, one day: desk light pattern 0,1,0,1 over four minutes."""
    desk = [0, 1, 0, 1]
    usage = np.cumsum(desk)
    return [
        make_record(
            "p1",
            minute=m,
            statuses=(0, desk[m], 0, 0),
            usage_today=(0.0, float(usage[m]), 0.0, 0.0),
        )
        for m in range(4)
    ]


class TestPoolFeatures:
    def test_switch_frequency_counts_transitions(self):
        table = make_table(toggle_day_records())
        out = pool_features(table, FeatureSpec(("switch_freq_desk_light",)))
        assert out.values.shape == (1, 1)
        assert out.values[0, 0] == 3.0

    def test_switch_across_a_missing_minute_is_not_counted(self):
        # desk light 0,1 | gap | 0,1: the step over the gap is no switch, and
        # the count is not rescaled by the minutes observed
        table = make_table(
            [make_record("p1", minute=m, statuses=(0, m % 2, 0, 0)) for m in (0, 1, 4, 5)]
        )
        assert table.minute_runs()[0].tolist() == [0, 2]
        out = pool_features(table, FeatureSpec(("switch_freq_desk_light",)))
        assert out.values.tolist() == [[2.0]]

    def test_usage_pct_is_on_fraction_full_day(self):
        fan = [1 if m < 360 else 0 for m in range(1440)]
        usage = np.cumsum(fan)
        records = [
            make_record(
                "p1",
                minute=m,
                statuses=(0, 0, fan[m], 0),
                usage_today=(0.0, 0.0, float(usage[m]), 0.0),
            )
            for m in range(1440)
        ]
        out = pool_features(make_table(records), FeatureSpec(("usage_pct_fan",)))
        assert out.values[0, 0] == 0.25

    def test_int8_statuses_pool_without_wrapping(self):
        # a status on for all 1,440 minutes: an int8 sum would wrap past 127
        fan = [(d, m, int(d == 0 or m < 1000)) for d in range(2) for m in range(1440)]
        table = make_table(
            [make_record("p1", minute=m, day=d, statuses=(0, 0, on, 0)) for d, m, on in fan]
        )
        assert table.columns["status_fan"].dtype == np.int8
        names = ("usage_pct_fan", "switch_freq_fan", "status_fan", "usage_pct_desk_light")
        daily = pool_features(table, FeatureSpec(names))
        assert daily.values.tolist() == [[1.0, 0.0, 1.0, 0.0], [1000 / 1440, 1.0, 1000 / 1440, 0.0]]
        minute = pool_features(table, FeatureSpec(names[:2], granularity="minute"))
        assert minute.values[:1440].tolist() == [[1.0, 0.0]] * 1440
        assert minute.values[1440:].tolist() == [[1000 / 1440, 1.0]] * 1440

    def test_usage_pct_on_partial_day(self):
        records = toggle_day_records()
        out = pool_features(make_table(records), FeatureSpec(("usage_pct_desk_light",)))
        assert out.values[0, 0] == 0.5

    def test_daily_rows_one_per_player_day(self, tiny_table):
        spec = FeatureSpec(DEFAULT_CLUSTERING_FEATURES)
        out = pool_features(tiny_table, spec)
        assert out.values.shape == (6, len(DEFAULT_CLUSTERING_FEATURES))
        assert out.column_names == tuple(DEFAULT_CLUSTERING_FEATURES)
        pairs = list(zip(out.row_players, tiny_table.day_runs()[2]))
        assert len(set(pairs)) == 6
        assert pairs == sorted(pairs)

    def test_daily_mean_of_minute_feature(self, tiny_table):
        out = pool_features(tiny_table, FeatureSpec(("portal_visits",)))
        rows = table_records(tiny_table)
        first_player = rows[0].player_id
        first_day = rows[0].timestamp.date().isoformat()
        manual = np.mean(
            [
                r.portal_visits
                for r in rows
                if r.player_id == first_player and r.timestamp.date().isoformat() == first_day
            ]
        )
        assert out.row_players[0] == first_player
        assert out.values[0, 0] == manual

    def test_minute_granularity_one_row_per_record(self, tiny_table):
        spec = FeatureSpec(("humidity", "status_fan"), granularity="minute")
        out = pool_features(tiny_table, spec)
        assert out.values.shape == (len(tiny_table), 2)
        assert out.values[:25, 0].tolist() == [r.humidity for r in table_records(tiny_table)[:25]]

    def test_minute_rows_keep_a_view_of_the_player_codes(self, tiny_table):
        out = pool_features(tiny_table, FeatureSpec(("humidity",), granularity="minute"))
        assert np.shares_memory(out.row_codes, tiny_table.player_codes)
        assert out.row_players == tuple(tiny_table.row_players())

    @pytest.mark.parametrize("granularity", ["daily", "minute"])
    def test_kept_rows_are_those_of_the_whole_matrix(self, tiny_table, granularity):
        spec = FeatureSpec(ALL_FEATURES, granularity)
        whole = pool_features(tiny_table, spec)
        runs = tiny_table.day_runs()
        n = whole.n_rows
        for rows in (np.random.default_rng(8).random(n) < 0.4, np.zeros(n, bool), np.ones(n, bool)):
            kept = pool_features(tiny_table, spec, rows=rows, runs=runs)
            assert kept.values.tobytes() == whole.values[rows].tobytes()
            assert kept.row_players == tuple(np.asarray(whole.row_players, dtype=object)[rows])

    def test_unknown_feature_name(self):
        with pytest.raises(UnknownFeatureName):
            FeatureSpec(("foo",))

    def test_bad_granularity(self):
        with pytest.raises(AnalysisError):
            FeatureSpec(("humidity",), granularity="weekly")

    def test_spec_is_frozen(self):
        # a field set after the checks would escape them
        spec = FeatureSpec(["humidity"])
        assert spec.features == ("humidity",)
        for name, value in (("granularity", "hourly"), ("features", ("nope",))):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(spec, name, value)

    def test_empty_table(self):
        with pytest.raises(EmptyTable):
            pool_features(make_table([]), FeatureSpec(("usage_pct_fan",)))


class TestStandardize:
    def test_basic_example(self):
        out = standardize(fm([[1.0], [2.0], [3.0]]))
        assert out.values[:, 0].tolist() == [-1.0, 0.0, 1.0]
        assert out.standardized is True

    def test_constant_column_zeroed_and_flagged(self):
        out = standardize(fm([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
        assert out.values[:, 1].tolist() == [0.0, 0.0, 0.0]
        assert out.values[:, 0].tolist() == [-1.0, 0.0, 1.0]

    def test_already_standardized_rejected(self):
        out = standardize(fm([[1.0], [2.0], [3.0]]))
        with pytest.raises(AlreadyStandardized):
            standardize(out)

    def test_too_few_rows(self):
        with pytest.raises(TooFewRows):
            standardize(fm([[1.0, 2.0]]))

    def test_columns_zero_mean_unit_std(self):
        rng = np.random.default_rng(5)
        out = standardize(fm(rng.standard_normal((100, 5)) * 7.0 + 3.0))
        assert np.abs(out.values.mean(axis=0)).max() <= 1e-9
        assert np.abs(out.values.std(axis=0, ddof=1) - 1.0).max() <= 1e-9

    @settings(deadline=None, derandomize=True)
    @given(awkward_matrices())
    def test_bytes_match_the_formula(self, values):
        out = standardize(fm(values))
        expected = standardize_formula(values)
        assert np.array_equal(out.values, expected)
        assert out.values.tobytes() == expected.tobytes()  # the sign of each zero too

    @settings(deadline=None, derandomize=True)
    @given(blocked_matrices(), st.booleans())
    def test_in_place_scaling_matches_two_passes(self, values, sample):
        # the row-block sum of squares must add in numpy's own order, every bit
        divisor = len(values) - 1 if sample else 1
        scaled = values.copy(order="K")
        constant = _scaled_deviations(scaled, divisor)
        expected, expected_constant = scaled_deviations_formula(values, divisor)
        assert constant.tolist() == expected_constant.tolist()
        assert scaled.tobytes(order="A") == expected.tobytes(order="A")

    @settings(deadline=None, derandomize=True)
    @given(awkward_matrices(), st.booleans())
    def test_argument_left_unchanged(self, values, fortran):
        values = np.asfortranarray(values) if fortran else values
        before = values.copy(order="K")
        matrix = fm(values)
        out = standardize(matrix)
        assert matrix.values is values and not matrix.standardized
        assert values.tobytes(order="A") == before.tobytes(order="A")
        assert out.values.tobytes() == standardize_formula(before).tobytes()

    def test_in_place_form_scales_the_argument(self):
        values = np.random.default_rng(4).standard_normal((50, 3)) + 2.0
        expected = standardize_formula(values)
        out = _standardize_in_place(fm(values))
        assert out.values is values and out.standardized
        assert values.tobytes() == expected.tobytes()

    def test_one_working_copy(self):
        matrix = fm(np.random.default_rng(3).standard_normal((20_000, 6)) * 4.0 + 1e6)
        out, peak = traced_peak(standardize, matrix)
        assert out.values.nbytes == matrix.values.nbytes
        # the result is the one working copy: no second N×p array beside it
        # slack for a row block of squares (48 KiB) or the reductions' buffer (64 KiB)
        assert peak <= matrix.values.nbytes + 128 * 1024, peak


class TestRequireFinite:
    @pytest.mark.parametrize("row", [0, _BLOCK_ROWS - 1, _BLOCK_ROWS, 2 * _BLOCK_ROWS + 6])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_any_block_is_checked(self, row, bad):
        values = np.zeros((2 * _BLOCK_ROWS + 7, 3))
        require_finite(values)
        values[row, 2] = bad
        with pytest.raises(NonFiniteValue, match="matrix contains NaN or infinite entries"):
            require_finite(values)

    def test_no_mask_of_the_matrix_size(self):
        values = np.ones((20_000, 6))
        _, peak = traced_peak(require_finite, values)
        assert peak <= 64 * 1024, peak


class TestStreams:
    @settings(deadline=None, derandomize=True)
    @given(
        st.lists(
            st.tuples(st.integers(-(2**70), 2**70), st.text(max_size=6)),
            min_size=2,
            max_size=40,
            unique=True,
        )
    )
    def test_distinct_pairs_give_distinct_first_draws(self, pairs):
        assert len({_stream(seed, name).random() for seed, name in pairs}) == len(pairs)

    def test_pairs_that_share_a_spelling_or_an_abs_stay_apart(self):
        # "1:2:x" against "12:x", and seeds that an int seed would fold by abs
        pairs = [(1, "2:x"), (12, "x"), (1, "2"), (12, ""), (-1, "x"), (1, "x"), (0, "x")]
        assert len({_stream(seed, name).random() for seed, name in pairs}) == len(pairs)

    def test_the_package_streams_are_distinct(self):
        names = [f"k-means {r}" for r in range(10)] + ["folds"]
        draws = {_stream(seed, name).random() for seed in range(100) for name in names}
        assert len(draws) == 100 * len(names)


class TestSegmentsAndColumns:
    def test_player_day_segments_shapes(self, tiny_table):
        segs = player_day_segments(tiny_table, ("humidity", "status_fan"))
        assert len(segs) == 6
        for player, day, series in segs:
            assert set(series) == {"humidity", "status_fan"}
            assert len(series["humidity"]) == 1440
        player, day, series = segs[0]
        first = [r for r in table_records(tiny_table) if r.player_id == player][:1440]
        assert series["humidity"].tolist() == [r.humidity for r in first]

    def test_player_day_segments_rejects_pooled_names(self, tiny_table):
        with pytest.raises(UnknownFeatureName):
            player_day_segments(tiny_table, ("switch_freq_fan",))

    def test_player_day_segments_empty_table(self):
        with pytest.raises(EmptyTable):
            player_day_segments(make_table([]), ("humidity",))

    def test_raw_columns_match_records(self):
        records = toggle_day_records() + [
            make_record("p2", minute=0, humidity=80.0, rank=2, portal_visits=1)
        ]
        table = make_table(records)
        rows = table_records(table)
        cols = raw_columns(table)
        assert tuple(cols) == MINUTE_FEATURES
        assert table.row_players() == [r.player_id for r in rows]
        assert cols["status_desk_light"].tolist() == [float(r.statuses[1]) for r in rows]
        assert cols["humidity"].tolist() == [r.humidity for r in rows]
        assert cols["rank"].tolist() == [float(r.rank) for r in rows]
        _, lengths, days = table.day_runs()
        row_days = np.repeat(days, lengths).tolist()
        assert row_days == [r.timestamp.date().isoformat() for r in rows]


@st.composite
def day_tables(draw):
    """A few players over a few days, with any minutes of each day missing."""
    keys = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("p2", "p10", "a", "b b")),
                st.integers(0, 3),
                st.integers(0, 1439),
            ),
            min_size=1,
            max_size=40,
            unique=True,
        )
    )
    return make_table(
        [
            make_record(
                player,
                minute=minute,
                day=day,
                humidity=draw(st.floats(-50.0, 150.0)),
                statuses=(0, 0, draw(st.integers(0, 1)), 0),
            )
            for player, day, minute in keys
        ]
    )


# a few players' minutes near midnight, so runs span several rows and gaps
# and day ends cut them; each row's four statuses are drawn
gappy_tables = st.lists(
    st.tuples(
        st.sampled_from(("a", "b")),
        st.integers(0, 2),
        st.sampled_from([*range(8), *range(1434, 1440)]),
        st.tuples(*[st.integers(0, 1)] * 4),
    ),
    min_size=1,
    max_size=40,
    unique_by=lambda key: key[:3],
).map(
    lambda keys: make_table(
        [make_record(p, minute=m, day=d, statuses=s) for p, d, m, s in keys]
    )
)


def brute_runs(table) -> dict:
    """Row indices of each (player, ISO day), grouping ``table_records(table)`` one by one."""
    groups: dict = {}
    for i, r in enumerate(table_records(table)):
        groups.setdefault((r.player_id, r.timestamp.date().isoformat()), []).append(i)
    return groups


def brute_minute_runs(table) -> list:
    """((player, ISO day), row indices) of each run of consecutive minutes, row by row."""
    records = table_records(table)
    runs: list = []
    for key, rows in brute_runs(table).items():
        for i in rows:
            step = records[i].timestamp - records[i - 1].timestamp if runs else None
            if runs and runs[-1][0] == key and step == dt.timedelta(minutes=1):
                runs[-1][1].append(i)
            else:
                runs.append((key, [i]))
    return runs


class TestDayRunProperties:
    @settings(deadline=None, derandomize=True)
    @given(day_tables())
    def test_runs_match_brute_force_grouping(self, table):
        starts, lengths, days = table.day_runs()
        groups = brute_runs(table)
        assert list(zip(table.row_players(starts), days)) == list(groups)
        runs = [list(range(a, a + n)) for a, n in zip(starts.tolist(), lengths.tolist())]
        assert runs == list(groups.values())

    @settings(deadline=None, derandomize=True)
    @given(day_tables())
    def test_daily_rows_are_group_means(self, table):
        out = pool_features(table, FeatureSpec(("humidity", "status_fan", "usage_pct_fan")))
        groups = brute_runs(table)
        records = table_records(table)
        expected = [
            [np.mean([records[i].humidity for i in rows])]
            + [np.mean([records[i].statuses[2] for i in rows])] * 2
            for rows in groups.values()
        ]
        assert out.row_players == tuple(player for player, _ in groups)
        np.testing.assert_allclose(out.values, expected, rtol=1e-12, atol=1e-12)

    @settings(deadline=None, derandomize=True)
    @given(st.one_of(day_tables(), gappy_tables))
    def test_daily_pooled_features_match_a_count_per_day(self, table):
        out = pool_features(table, FeatureSpec(DAILY_POOLED_FEATURES))
        records = table_records(table)
        one_minute = dt.timedelta(minutes=1)
        for i, resource in enumerate(RESOURCES):
            switches, usage = [], []
            for rows in brute_runs(table).values():
                switches.append(sum(
                    records[b].statuses[i] != records[a].statuses[i]
                    for a, b in zip(rows, rows[1:])
                    if records[b].timestamp - records[a].timestamp == one_minute
                ))
                usage.append(sum(records[j].statuses[i] for j in rows) / len(rows))
            column = out.column_names.index
            assert out.values[:, column(f"switch_freq_{resource.value}")].tolist() == switches
            assert out.values[:, column(f"usage_pct_{resource.value}")].tolist() == usage

    @settings(deadline=None, derandomize=True)
    @given(day_tables())
    def test_segments_join_to_the_table_columns(self, table):
        segments = player_day_segments(table, ("humidity", "status_fan"))
        assert [(player, day) for player, day, _ in segments] == [
            key for key, _ in brute_minute_runs(table)
        ]
        for name in ("humidity", "status_fan"):
            joined = np.concatenate([series[name] for _, _, series in segments])
            assert np.array_equal(joined, table.columns[name])

    @settings(deadline=None, derandomize=True)
    @given(st.one_of(day_tables(), gappy_tables))
    def test_minute_runs_match_brute_force_cuts(self, table):
        starts, lengths = table.minute_runs()
        runs = [list(range(a, a + n)) for a, n in zip(starts.tolist(), lengths.tolist())]
        assert runs == [rows for _, rows in brute_minute_runs(table)]

    @settings(deadline=None, derandomize=True)
    @given(gappy_tables)
    def test_no_segment_spans_a_missing_minute(self, table):
        # each row's humidity is its minute, so a segment's steps are its lags
        minutes = table.timestamps.astype(np.int64)
        table.columns["humidity"] = minutes.astype(np.float64)
        segments = player_day_segments(table, ("humidity",))
        for _, _, series in segments:
            assert np.all(np.diff(series["humidity"]) == 1.0)
        assert sum(len(series["humidity"]) for _, _, series in segments) == len(table)
