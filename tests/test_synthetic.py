"""Generator determinism, schema invariants, and latent-class structure."""

import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter, lfiltic

from helpers import run_chain_loop, table_records, table_to_csv

from energyseg.errors import InvalidConfig
from energyseg.records import compute_points, ingest_csv
from energyseg.features import raw_columns
from energyseg.synthetic import (
    MINUTES_PER_DAY,
    GeneratorConfig,
    _ar1,
    _run_chain,
    generate_synthetic,
    latent_class_name,
    player_roster,
)


class TestDeterminismAndShape:
    def test_same_seed_byte_identical(self):
        cfg = GeneratorConfig(players_per_class=(1, 1, 1), n_days=2)
        a = generate_synthetic(cfg, seed=42)
        b = generate_synthetic(cfg, seed=42)
        assert table_records(a) == table_records(b)
        assert table_to_csv(a) == table_to_csv(b)

    def test_different_seed_differs(self):
        cfg = GeneratorConfig(players_per_class=(1, 1, 1), n_days=2)
        a = generate_synthetic(cfg, seed=1)
        b = generate_synthetic(cfg, seed=2)
        assert table_records(a) != table_records(b)

    def test_row_count_and_players(self, synth_table):
        assert len(synth_table) == 6 * 7 * 1440
        assert list(synth_table.player_ids) == sorted(
            ["low_01", "low_02", "medium_01", "medium_02", "high_01", "high_02"]
        )

    def test_sorted_and_unique(self, synth_table):
        keys = [(r.player_id, r.timestamp) for r in table_records(synth_table)]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_csv_round_trip(self, tiny_table):
        again = ingest_csv(io.StringIO(table_to_csv(tiny_table)))
        assert table_records(again) == table_records(tiny_table)


class TestConfigValidation:
    def test_zero_days(self):
        with pytest.raises(InvalidConfig):
            GeneratorConfig(n_days=0)

    def test_zero_players(self):
        with pytest.raises(InvalidConfig):
            GeneratorConfig(players_per_class=(0, 0, 0))

    def test_wrong_class_count(self):
        with pytest.raises(InvalidConfig):
            GeneratorConfig(players_per_class=(2, 2))

    def test_nonpositive_booster(self):
        with pytest.raises(InvalidConfig):
            GeneratorConfig(booster=0.0)

    def test_roster_and_latent_names(self):
        roster = player_roster(GeneratorConfig(players_per_class=(2, 1, 3)))
        assert roster == [
            ("low_01", "low"),
            ("low_02", "low"),
            ("medium_01", "medium"),
            ("high_01", "high"),
            ("high_02", "high"),
            ("high_03", "high"),
        ]
        assert latent_class_name("medium_02") == "medium"
        with pytest.raises(InvalidConfig):
            latent_class_name("guest_01")


class TestRecordInvariants:
    def test_field_domains(self, synth_table):
        cols = raw_columns(synth_table)
        for name in (
            "status_ceiling_light",
            "status_desk_light",
            "status_fan",
            "status_ac",
            "is_weekend",
            "is_morning",
            "is_afternoon",
            "is_evening",
            "is_break",
            "is_midterm",
            "is_final",
        ):
            assert np.isin(cols[name], (0.0, 1.0)).all(), name
        assert cols["humidity"].min() >= 0.0 and cols["humidity"].max() <= 100.0
        assert cols["solar_radiation"].min() >= 0.0
        assert cols["portal_visits"].min() >= 0.0
        assert cols["rank"].min() >= 1 and cols["rank"].max() <= 6

    def test_usage_bounded_by_elapsed_minutes(self, tiny_table):
        for rec in table_records(tiny_table):
            elapsed = rec.timestamp.hour * 60 + rec.timestamp.minute + 1
            for u in rec.usage_today:
                assert 0.0 <= u <= elapsed
            assert all(b > 0 for b in rec.baselines)

    def test_usage_today_is_cumulative_status_sum(self, tiny_table):
        day_one = table_records(tiny_table)[:1440]
        running = np.zeros(4)
        for rec in day_one:
            running += np.asarray(rec.statuses, dtype=float)
        assert tuple(running) == day_one[-1].usage_today
        partial = np.cumsum([r.statuses[2] for r in day_one])
        assert [r.usage_today[2] for r in day_one] == partial.tolist()

    def test_calendar_flags(self, tiny_table):
        cols = raw_columns(tiny_table)
        n_players, T = 3, 2 * 1440
        for name in ("is_weekend", "is_morning", "is_afternoon", "is_evening", "is_break", "is_midterm", "is_final"):
            per_player = cols[name].reshape(n_players, T)
            assert (per_player == per_player[0]).all(), f"{name} differs across players"
        for rec in table_records(tiny_table)[:T]:
            minute = rec.timestamp.hour * 60 + rec.timestamp.minute
            assert rec.is_morning == (1 if 360 <= minute < 720 else 0)
            assert rec.is_afternoon == (1 if 720 <= minute < 1080 else 0)
            assert rec.is_evening == (1 if 1080 <= minute < 1440 else 0)
            assert rec.is_weekend == (1 if rec.timestamp.weekday() >= 5 else 0)


class TestPointsAndRanks:
    def recompute(self, table, booster=1.0):
        """Re-derive per-day points and competition ranks from raw records."""
        per = {}
        for rec in table_records(table):
            per.setdefault((rec.player_id, rec.timestamp.date()), []).append(rec)
        players = sorted({p for p, _ in per})
        days = sorted({d for _, d in per})
        points_day = {}
        for (p, d), recs in per.items():
            final = recs[-1]
            sums = [sum(r.statuses[i] for r in recs) for i in range(4)]
            assert final.usage_today == tuple(float(s) for s in sums)
            points_day[(p, d)] = sum(
                compute_points(final.baselines[i], float(sums[i]), booster)
                for i in range(4)
            )
        prior = {
            (p, d): sum(points_day[(p, dd)] for dd in days[:di])
            for p in players
            for di, d in enumerate(days)
        }
        ranks = {}
        for d in days:
            col = {p: prior[(p, d)] for p in players}
            for p in players:
                ranks[(p, d)] = 1 + sum(1 for q in players if col[q] > col[p])
        return per, prior, ranks

    def test_points_total_and_rank_match_recomputation(self, synth_table):
        per, prior, ranks = self.recompute(synth_table)
        for (p, d), recs in per.items():
            assert recs[0].points_total == prior[(p, d)]
            assert all(r.points_total == recs[0].points_total for r in recs[::240])
            assert all(r.rank == ranks[(p, d)] for r in recs[::240])

    def test_day_zero_everyone_rank_one(self, synth_table):
        records = table_records(synth_table)
        first_day = records[0].timestamp.date()
        for rec in records:
            if rec.timestamp.date() == first_day:
                assert rec.points_total == 0.0
                assert rec.rank == 1

    def test_booster_scales_points_exactly(self):
        base = generate_synthetic(GeneratorConfig(players_per_class=(1, 1, 0), n_days=3), seed=11)
        boosted = generate_synthetic(
            GeneratorConfig(players_per_class=(1, 1, 0), n_days=3, booster=2.0), seed=11
        )
        for a, b in zip(table_records(base), table_records(boosted)):
            assert a.statuses == b.statuses
            assert b.points_total == 2.0 * a.points_total
            assert a.rank == b.rank


class TestLatentStructure:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_fan_humidity_correlation_by_class(self, seed):
        table = generate_synthetic(GeneratorConfig(players_per_class=(2, 2, 2), n_days=7), seed=seed)
        cols = raw_columns(table)
        players = np.asarray(table.row_players())
        fan = cols["status_fan"]
        hum = cols["humidity"]
        for player in table.player_ids:
            mask = players == player
            corr = np.corrcoef(hum[mask], fan[mask])[0, 1]
            if latent_class_name(player) == "low":
                assert corr > 0.3, f"{player}: corr={corr:.3f}"
            elif latent_class_name(player) == "high":
                assert abs(corr) < 0.1, f"{player}: corr={corr:.3f}"


def lfilter_ar1(rng, n, phi, std):
    """``_ar1``'s draws, filtered by scipy's direct-form IIR filter."""
    x0 = std * rng.standard_normal()
    eps = std * np.sqrt(1.0 - phi * phi) * rng.standard_normal(n)
    path, _ = lfilter([1.0], [1.0, -phi], eps, zi=lfiltic([1.0], [1.0, -phi], [x0]))
    return path


class TestWeather:
    # the generator's two weather paths (humidity, temperature) and a silent one
    @pytest.mark.parametrize("phi,std", [(0.97, 12.0), (0.95, 1.0), (0.97, 0.0), (0.95, 0.0)])
    @pytest.mark.parametrize("n_days", [1, 2, 31])
    def test_ar1_matches_lfilter_exactly(self, phi, std, n_days):
        n = n_days * MINUTES_PER_DAY
        for seed in range(5):
            rng, oracle_rng = np.random.default_rng([seed, 0]), np.random.default_rng([seed, 0])
            assert np.array_equal(_ar1(rng, n, phi, std), lfilter_ar1(oracle_rng, n, phi, std))
            # later weather draws start from the same generator state
            assert rng.random() == oracle_rng.random()


# hazards at and beyond the ends of [0, 1], and draws equal to them
CHAIN_VALUES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]), st.floats(0.0, 1.0))


class TestRunChain:
    @settings(deadline=None, derandomize=True)
    @given(st.lists(st.tuples(CHAIN_VALUES, CHAIN_VALUES, CHAIN_VALUES), max_size=80))
    def test_matches_the_loop(self, steps):
        p_on, p_off, uniforms = np.array(steps, dtype=np.float64).reshape(-1, 3).T
        chain = _run_chain(p_on, p_off, uniforms)
        assert chain.dtype == np.int8
        assert np.array_equal(chain, run_chain_loop(p_on, p_off, uniforms))

    def test_generator_sized_chains_match_the_loop(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            p_on, p_off = rng.random((2, 2 * MINUTES_PER_DAY)) ** rng.integers(1, 8, 2)[:, None]
            uniforms = rng.random(2 * MINUTES_PER_DAY)
            assert np.array_equal(
                _run_chain(p_on, p_off, uniforms), run_chain_loop(p_on, p_off, uniforms)
            )
