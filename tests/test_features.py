"""Feature catalog, pooling, standardization, and per-segment extraction."""

import numpy as np
import pytest

from helpers import fm, make_record, make_table

from energyseg.errors import (
    AlreadyStandardized,
    AnalysisError,
    EmptyTable,
    TooFewRows,
    UnknownFeatureName,
)
from energyseg.features import (
    ALL_FEATURES,
    DAILY_POOLED_FEATURES,
    DEFAULT_CLUSTERING_FEATURES,
    DEFAULT_GRAPH_FEATURES,
    MINUTE_FEATURES,
    FeatureSpec,
    destandardize,
    player_day_segments,
    pool_features,
    raw_columns,
    standardize,
)


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

    def test_usage_pct_on_partial_day(self):
        records = toggle_day_records()
        out = pool_features(make_table(records), FeatureSpec(("usage_pct_desk_light",)))
        assert out.values[0, 0] == 0.5

    def test_daily_rows_one_per_player_day(self, tiny_table):
        spec = FeatureSpec(DEFAULT_CLUSTERING_FEATURES)
        out = pool_features(tiny_table, spec)
        assert out.values.shape == (6, len(DEFAULT_CLUSTERING_FEATURES))
        assert out.column_names == tuple(DEFAULT_CLUSTERING_FEATURES)
        pairs = list(zip(out.row_players, out.row_days))
        assert len(set(pairs)) == 6
        assert pairs == sorted(pairs)

    def test_daily_mean_of_minute_feature(self, tiny_table):
        out = pool_features(tiny_table, FeatureSpec(("portal_visits",)))
        first_player = tiny_table.records[0].player_id
        first_day = tiny_table.records[0].timestamp.date().isoformat()
        manual = np.mean(
            [
                r.portal_visits
                for r in tiny_table.records
                if r.player_id == first_player and r.timestamp.date().isoformat() == first_day
            ]
        )
        assert out.row_players[0] == first_player
        assert out.values[0, 0] == manual

    def test_minute_granularity_one_row_per_record(self, tiny_table):
        spec = FeatureSpec(("humidity", "status_fan"), granularity="minute")
        out = pool_features(tiny_table, spec)
        assert out.values.shape == (len(tiny_table), 2)
        assert out.values[:25, 0].tolist() == [r.humidity for r in tiny_table.records[:25]]

    def test_unknown_feature_name(self):
        with pytest.raises(UnknownFeatureName):
            FeatureSpec(("foo",))

    def test_bad_granularity(self):
        with pytest.raises(AnalysisError):
            FeatureSpec(("humidity",), granularity="weekly")

    def test_empty_table(self):
        from energyseg.records import DatasetTable

        with pytest.raises(EmptyTable):
            pool_features(DatasetTable.from_records([]), FeatureSpec(("usage_pct_fan",)))


class TestStandardize:
    def test_basic_example(self):
        out = standardize(fm([[1.0], [2.0], [3.0]]))
        assert out.values[:, 0].tolist() == [-1.0, 0.0, 1.0]
        assert out.standardized is True
        assert out.column_means.tolist() == [2.0]
        assert out.column_stds.tolist() == [1.0]

    def test_constant_column_zeroed_and_flagged(self):
        out = standardize(fm([[1.0, 5.0], [2.0, 5.0], [3.0, 5.0]]))
        assert out.values[:, 1].tolist() == [0.0, 0.0, 0.0]
        assert out.constant_columns == frozenset({"c1"})
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

    def test_destandardize_round_trip(self):
        rng = np.random.default_rng(6)
        raw = rng.standard_normal((50, 4)) * np.array([1.0, 10.0, 0.1, 5.0]) + 2.5
        raw = np.column_stack([raw, np.full(50, 3.14)])
        back = destandardize(standardize(fm(raw)))
        assert np.abs(back.values - raw).max() <= 1e-9
        assert back.standardized is False


class TestSegmentsAndColumns:
    def test_player_day_segments_shapes(self, tiny_table):
        segs = player_day_segments(tiny_table, ("humidity", "status_fan"))
        assert len(segs) == 6
        for player, day, series in segs:
            assert set(series) == {"humidity", "status_fan"}
            assert len(series["humidity"]) == 1440
        player, day, series = segs[0]
        first = [r for r in tiny_table.records if r.player_id == player][:1440]
        assert series["humidity"].tolist() == [r.humidity for r in first]

    def test_player_day_segments_rejects_pooled_names(self, tiny_table):
        with pytest.raises(UnknownFeatureName):
            player_day_segments(tiny_table, ("switch_freq_fan",))

    def test_raw_columns_match_records(self):
        records = toggle_day_records() + [
            make_record("p2", minute=0, humidity=80.0, rank=2, portal_visits=1)
        ]
        table = make_table(records)
        cols = raw_columns(table)
        assert cols["player_id"] == [r.player_id for r in table.records]
        assert cols["status_desk_light"].tolist() == [float(r.statuses[1]) for r in table.records]
        assert cols["humidity"].tolist() == [r.humidity for r in table.records]
        assert cols["rank"].tolist() == [float(r.rank) for r in table.records]
        assert cols["day"] == [r.timestamp.date().isoformat() for r in table.records]
