"""Synthetic per-minute dataset with known latent behavior classes.

Three occupant archetypes drive resource usage:

* ``low`` efficiency — fan tracks (lagged) humidity, ceiling light is driven
  by the evening flag, desk light follows the ceiling light, A/C tracks
  temperature; heavy total usage, so under-usage points go negative.
* ``medium`` efficiency — presence-driven usage with slow turn-off
  (appliances linger after the occupant leaves) and a mild humidity tilt on
  the fan.
* ``high`` efficiency — presence-driven usage with prompt turn-off and no
  weather sensitivity; statuses inter-correlate through shared activity.

Weather is shared across players. Humidity is a mean-reverting AR(1) with no
deterministic daily phase, so any time-of-day-driven behavior stays
uncorrelated with it by construction; only the low class couples to it.

Points accumulate daily from per-resource baselines via the proportional
under-usage formula, and ranks are recomputed each day from the running
totals (rank 1 = highest points).
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfig
from .records import RESOURCES, DatasetTable, OccupantRecord, compute_points

MINUTES_PER_DAY = 1440

CLASS_NAMES = ("low", "medium", "high")

# shared standardization constants for the weather drivers (fixed, not
# estimated from the sample, so behavior is identical across seeds)
_HUM_MEAN, _HUM_SCALE = 55.0, 12.0
_TEMP_MEAN, _TEMP_SCALE = 22.0, 3.0

_BASE_BASELINES = (400.0, 300.0, 400.0, 350.0)  # minutes/day per RESOURCES order
_PORTAL_RATES = {"low": 0.7, "medium": 3.0, "high": 8.0}  # visits/day


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for :func:`generate_synthetic`.

    ``players_per_class`` is (low, medium, high). ``weather_noise`` scales
    the AR innovation level of the weather streams; ``behavior_jitter`` is
    the per-player multiplicative spread applied to switching hazards.
    """

    players_per_class: tuple[int, int, int] = (2, 2, 2)
    n_days: int = 7
    start_date: dt.date = dt.date(2018, 9, 3)
    booster: float = 1.0
    clamp_points_at_zero: bool = False
    weather_noise: float = 1.0
    behavior_jitter: float = 0.07
    baseline_jitter: float = 0.08

    def __post_init__(self) -> None:
        counts = tuple(int(c) for c in self.players_per_class)
        object.__setattr__(self, "players_per_class", counts)
        if len(counts) != 3 or any(c < 0 for c in counts):
            raise InvalidConfig(f"players_per_class must be 3 nonnegative counts, got {counts}")
        if sum(counts) == 0:
            raise InvalidConfig("at least one player is required")
        if self.n_days <= 0:
            raise InvalidConfig(f"n_days must be positive, got {self.n_days}")
        if self.booster <= 0:
            raise InvalidConfig(f"booster must be positive, got {self.booster}")
        if self.weather_noise < 0 or self.behavior_jitter < 0:
            raise InvalidConfig("noise levels must be nonnegative")


def player_roster(config: GeneratorConfig) -> list[tuple[str, str]]:
    """Ordered (player_id, latent class) pairs for a config."""
    roster = []
    for name, count in zip(CLASS_NAMES, config.players_per_class):
        for i in range(count):
            roster.append((f"{name}_{i + 1:02d}", name))
    return roster


def latent_class_name(player_id: str) -> str:
    """Recover the generator's latent class from a synthetic player id."""
    prefix = player_id.split("_", 1)[0]
    if prefix not in CLASS_NAMES:
        raise InvalidConfig(f"not a synthetic player id: {player_id!r}")
    return prefix


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def _lag1(arr: np.ndarray) -> np.ndarray:
    return np.concatenate((arr[:1], arr[:-1]))


def _ar1(rng: np.random.Generator, n: int, phi: float, std: float) -> np.ndarray:
    """Stationary AR(1) path with marginal standard deviation ``std``."""
    # deferred: scipy.signal is slow to import and only synthesis needs it
    from scipy.signal import lfilter, lfiltic

    if std == 0.0:
        return np.zeros(n)
    innov_std = std * np.sqrt(1.0 - phi * phi)
    x0 = std * rng.standard_normal()
    eps = innov_std * rng.standard_normal(n)
    zi = lfiltic([1.0], [1.0, -phi], [x0])
    path, _ = lfilter([1.0], [1.0, -phi], eps, zi=zi)
    return path


def _run_chain(p_on: np.ndarray, p_off: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Binary Markov chain with per-step switch-on/off hazards, started off."""
    n = len(uniforms)
    out = np.empty(n, dtype=np.int8)
    state = 0
    for t in range(n):
        if state:
            if uniforms[t] < p_off[t]:
                state = 0
        else:
            if uniforms[t] < p_on[t]:
                state = 1
        out[t] = state
    return out


@dataclass
class _Calendar:
    """Shared per-minute flag arrays over the full horizon."""

    weekend: np.ndarray
    morning: np.ndarray
    afternoon: np.ndarray
    evening: np.ndarray
    is_break: np.ndarray
    midterm: np.ndarray
    final: np.ndarray
    minute_of_day: np.ndarray
    day_index: np.ndarray


def _build_calendar(config: GeneratorConfig) -> _Calendar:
    n_days = config.n_days
    minute = np.tile(np.arange(MINUTES_PER_DAY), n_days)
    day_idx = np.repeat(np.arange(n_days), MINUTES_PER_DAY)

    weekdays = np.array(
        [(config.start_date + dt.timedelta(days=int(d))).weekday() for d in range(n_days)]
    )
    weekend_day = (weekdays >= 5).astype(np.float64)

    exam_len = max(1, n_days // 15)
    break_len = max(1, n_days // 20)
    mid_start = int(n_days * 0.45)
    midterm_day = np.zeros(n_days)
    midterm_day[mid_start : mid_start + exam_len] = 1.0
    break_day = np.zeros(n_days)
    break_day[mid_start + exam_len : mid_start + exam_len + break_len] = 1.0
    final_day = np.zeros(n_days)
    final_day[max(0, n_days - exam_len) :] = 1.0

    return _Calendar(
        weekend=weekend_day[day_idx],
        morning=((minute >= 360) & (minute < 720)).astype(np.float64),
        afternoon=((minute >= 720) & (minute < 1080)).astype(np.float64),
        evening=((minute >= 1080) & (minute < 1440)).astype(np.float64),
        is_break=break_day[day_idx],
        midterm=midterm_day[day_idx],
        final=final_day[day_idx],
        minute_of_day=minute,
        day_index=day_idx,
    )


def _build_weather(
    config: GeneratorConfig, cal: _Calendar, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    T = config.n_days * MINUTES_PER_DAY
    noise = config.weather_noise
    humidity = _HUM_MEAN + _ar1(rng, T, phi=0.97, std=_HUM_SCALE * noise)
    humidity = np.clip(humidity, 2.0, 98.0)

    temp_cycle = 4.0 * np.sin(2.0 * np.pi * (cal.minute_of_day - 540.0) / MINUTES_PER_DAY)
    temperature = _TEMP_MEAN + temp_cycle + _ar1(rng, T, phi=0.95, std=1.0 * noise)

    cloud = 0.55 + 0.45 * rng.random(config.n_days)
    daylight = np.sin(np.pi * (cal.minute_of_day - 360.0) / 720.0)
    daylight = np.where((cal.minute_of_day >= 360) & (cal.minute_of_day < 1080), daylight, 0.0)
    ripple = 1.0 + 0.08 * noise * rng.standard_normal(T)
    solar = np.clip(800.0 * cloud[cal.day_index] * daylight * ripple, 0.0, None)
    return humidity, temperature, solar


def _activity_profile(class_name: str, cal: _Calendar) -> np.ndarray:
    """Target occupancy probability per minute for presence-driven classes."""
    m = cal.minute_of_day
    night = m < 360
    morning = (m >= 360) & (m < 540)
    day = (m >= 540) & (m < 1080)
    evening = (m >= 1080) & (m < 1380)
    late = m >= 1380
    pi = np.empty(len(m))
    if class_name == "high":
        week = (0.01, 0.35, 0.08, 0.60, 0.05)
        wend = (0.02, 0.15, 0.35, 0.55, 0.05)
    else:  # medium
        week = (0.02, 0.40, 0.15, 0.70, 0.05)
        wend = (0.03, 0.25, 0.40, 0.65, 0.05)
    for mask, wk, we in zip(
        (night, morning, day, evening, late),
        week,
        wend,
    ):
        pi[mask] = np.where(cal.weekend[mask] > 0, we, wk)
    pi = pi * np.where(cal.is_break > 0, 0.6, 1.0)
    return pi


def _simulate_low(
    z_lag: np.ndarray,
    w_lag: np.ndarray,
    cal: _Calendar,
    exam_lag: np.ndarray,
    jm: float,
    rng: np.random.Generator,
) -> np.ndarray:
    T = len(z_lag)
    ev = _lag1(cal.evening)
    statuses = np.empty((4, T), dtype=np.int8)

    # fan: switching hazard driven by lagged humidity
    p_on = jm * 0.06 * _sigmoid(3.0 * z_lag)
    p_off = 0.06 * _sigmoid(-3.0 * z_lag)
    fan = _run_chain(np.clip(p_on, 0, 0.95), p_off, rng.random(T))

    # ceiling light: evening-driven
    p_on = jm * (0.004 + 0.30 * ev)
    p_off = 0.01 * ev + 0.12 * (1.0 - ev)
    ceil = _run_chain(np.clip(p_on, 0, 0.95), p_off, rng.random(T))

    # desk light: follows the ceiling light, studied harder at exam time
    cl = _lag1(ceil.astype(np.float64))
    p_on = jm * (0.006 + 0.10 * cl) * (1.0 + 0.5 * exam_lag)
    p_off = 0.03 * cl + 0.15 * (1.0 - cl)
    desk = _run_chain(np.clip(p_on, 0, 0.95), p_off, rng.random(T))

    # A/C: temperature-driven
    p_on = jm * 0.05 * _sigmoid(1.5 * w_lag)
    p_off = 0.05 * _sigmoid(-1.5 * w_lag)
    ac = _run_chain(np.clip(p_on, 0, 0.95), p_off, rng.random(T))

    statuses[0], statuses[1], statuses[2], statuses[3] = ceil, desk, fan, ac
    return statuses


def _simulate_presence(
    class_name: str,
    z_lag: np.ndarray,
    cal: _Calendar,
    exam_lag: np.ndarray,
    jm: float,
    rng: np.random.Generator,
) -> np.ndarray:
    T = len(z_lag)
    pi = _activity_profile(class_name, cal)
    rate = 0.25
    activity = _run_chain(rate * pi, rate * (1.0 - pi), rng.random(T))
    a = _lag1(activity.astype(np.float64))

    if class_name == "high":
        q_on = (0.083, 0.060, 0.037, 0.026)
        q_off = (0.06, 0.06, 0.06, 0.06)
        p_on_idle, p_off_idle = 0.0005, 0.5
        fan_tilt = np.ones(T)
        fan_off_tilt = np.ones(T)
    else:  # medium: slower to switch off than high, fan mildly humidity-tilted
        q_on = (0.055, 0.045, 0.075, 0.050)
        q_off = (0.050, 0.070, 0.055, 0.045)
        p_on_idle, p_off_idle = 0.001, 0.10
        fan_tilt = 2.0 * _sigmoid(1.2 * z_lag)
        fan_off_tilt = 2.0 * _sigmoid(-1.2 * z_lag)

    statuses = np.empty((4, T), dtype=np.int8)
    for r in range(4):
        on_gain = np.full(T, q_on[r])
        off_gain = np.full(T, q_off[r])
        if r == 2:
            on_gain = on_gain * fan_tilt
            off_gain = off_gain * fan_off_tilt
        if r == 1:
            on_gain = on_gain * (1.0 + 0.5 * exam_lag)
        p_on = jm * (a * on_gain + (1.0 - a) * p_on_idle)
        p_off = a * off_gain + (1.0 - a) * p_off_idle
        statuses[r] = _run_chain(np.clip(p_on, 0, 0.95), np.clip(p_off, 0, 0.95), rng.random(T))
    return statuses


def generate_synthetic(config: GeneratorConfig, seed: int) -> DatasetTable:
    """Deterministic synthetic dataset with known latent classes.

    Player ids are ``<class>_<nn>`` so tests can recover the latent truth.
    """
    roster = player_roster(config)
    n_players = len(roster)
    n_days = config.n_days
    T = n_days * MINUTES_PER_DAY

    cal = _build_calendar(config)
    weather_rng = np.random.default_rng([seed, 0])
    humidity, temperature, solar = _build_weather(config, cal, weather_rng)
    z_lag = _lag1((humidity - _HUM_MEAN) / _HUM_SCALE)
    w_lag = _lag1((temperature - _TEMP_MEAN) / _TEMP_SCALE)
    exam = np.maximum(cal.midterm, cal.final)
    exam_lag = _lag1(exam)

    statuses = np.empty((n_players, 4, T), dtype=np.int8)
    baselines = np.empty((n_players, 4))
    portal = np.empty((n_players, T), dtype=np.int64)
    for i, (_, class_name) in enumerate(roster):
        rng = np.random.default_rng([seed, 1 + i])
        jm = 1.0 + config.behavior_jitter * (2.0 * rng.random() - 1.0)
        baselines[i] = np.asarray(_BASE_BASELINES) * (
            1.0 + config.baseline_jitter * (2.0 * rng.random(4) - 1.0)
        )
        if class_name == "low":
            statuses[i] = _simulate_low(z_lag, w_lag, cal, exam_lag, jm, rng)
        else:
            statuses[i] = _simulate_presence(class_name, z_lag, cal, exam_lag, jm, rng)
        portal[i] = (rng.random(T) < _PORTAL_RATES[class_name] / MINUTES_PER_DAY).astype(np.int64)

    # per-day usage, points via the proportional under-usage formula, ranks
    per_day = statuses.reshape(n_players, 4, n_days, MINUTES_PER_DAY)
    usage_day = per_day.sum(axis=3)  # players × resources × days
    usage_cum = np.cumsum(per_day, axis=3)  # running minutes within each day

    points_day = np.zeros((n_players, n_days))
    for i in range(n_players):
        for d in range(n_days):
            points_day[i, d] = sum(
                compute_points(
                    baselines[i, r],
                    float(usage_day[i, r, d]),
                    config.booster,
                    clamp_at_zero=config.clamp_points_at_zero,
                )
                for r in range(4)
            )
    # totals visible during day d cover completed days 0..d-1
    prior_total = np.concatenate(
        (np.zeros((n_players, 1)), np.cumsum(points_day, axis=1)[:, :-1]), axis=1
    )
    ranks = np.empty((n_players, n_days), dtype=np.int64)
    for d in range(n_days):
        col = prior_total[:, d]
        ranks[:, d] = 1 + (col[None, :] > col[:, None] + 0.0).sum(axis=1)

    # table rows must come out sorted by (player_id, timestamp)
    order = sorted(range(n_players), key=lambda i: roster[i][0])
    roster = [roster[i] for i in order]
    statuses = statuses[order]
    baselines = baselines[order]
    portal = portal[order]
    usage_cum = usage_cum[order]
    prior_total = prior_total[order]
    ranks = ranks[order]

    day_dates = [config.start_date + dt.timedelta(days=d) for d in range(n_days)]
    day_keys = [d.isoformat() for d in day_dates]
    minute_ts = [
        dt.time(m // 60, m % 60) for m in range(MINUTES_PER_DAY)
    ]

    records: list[OccupantRecord] = []
    flag_arrays = (
        cal.weekend,
        cal.morning,
        cal.afternoon,
        cal.evening,
        cal.is_break,
        cal.midterm,
        cal.final,
    )
    for i, (player_id, _) in enumerate(roster):
        base_i = tuple(float(b) for b in baselines[i])
        for d in range(n_days):
            date_d = day_dates[d]
            rank_d = int(ranks[i, d])
            total_d = float(prior_total[i, d])
            off = d * MINUTES_PER_DAY
            for m in range(MINUTES_PER_DAY):
                t = off + m
                records.append(
                    OccupantRecord(
                        timestamp=dt.datetime.combine(date_d, minute_ts[m]),
                        player_id=player_id,
                        statuses=(
                            int(statuses[i, 0, t]),
                            int(statuses[i, 1, t]),
                            int(statuses[i, 2, t]),
                            int(statuses[i, 3, t]),
                        ),
                        usage_today=(
                            float(usage_cum[i, 0, d, m]),
                            float(usage_cum[i, 1, d, m]),
                            float(usage_cum[i, 2, d, m]),
                            float(usage_cum[i, 3, d, m]),
                        ),
                        baselines=base_i,
                        points_total=total_d,
                        rank=rank_d,
                        portal_visits=int(portal[i, t]),
                        humidity=float(humidity[t]),
                        temperature=float(temperature[t]),
                        solar_radiation=float(solar[t]),
                        is_weekend=int(cal.weekend[t]),
                        is_morning=int(cal.morning[t]),
                        is_afternoon=int(cal.afternoon[t]),
                        is_evening=int(cal.evening[t]),
                        is_break=int(cal.is_break[t]),
                        is_midterm=int(cal.midterm[t]),
                        is_final=int(cal.final[t]),
                    )
                )

    table = DatasetTable(records=records)
    _preseed_columns(table, roster, config, statuses, portal, humidity, temperature, solar,
                     flag_arrays, prior_total, ranks, day_keys)
    return table


def _preseed_columns(table, roster, config, statuses, portal, humidity, temperature, solar,
                     flag_arrays, prior_total, ranks, day_keys):
    """Fill the table's column cache from the simulation arrays.

    The cache layout matches features.raw_columns; seeding it here avoids a
    per-record reconstruction pass for large generated tables.
    """
    from .records import FLAG_NAMES

    n_players = len(roster)
    n_days = config.n_days
    T = n_days * MINUTES_PER_DAY
    cache = table._column_cache

    players: list[str] = []
    days: list[str] = []
    for player_id, _ in roster:
        players.extend([player_id] * T)
        for key in day_keys:
            days.extend([key] * MINUTES_PER_DAY)
    cache["player_id"] = players
    cache["day"] = days

    for r_idx, r in enumerate(RESOURCES):
        cache[f"status_{r.value}"] = statuses[:, r_idx, :].reshape(-1).astype(np.float64)
    cache["humidity"] = np.tile(humidity, n_players)
    cache["temperature"] = np.tile(temperature, n_players)
    cache["solar_radiation"] = np.tile(solar, n_players)
    for name, arr in zip(FLAG_NAMES, flag_arrays):
        cache[name] = np.tile(arr.astype(np.float64), n_players)
    cache["portal_visits"] = portal.reshape(-1).astype(np.float64)
    cache["points_total"] = np.repeat(prior_total.reshape(-1), MINUTES_PER_DAY)
    cache["rank"] = np.repeat(ranks.reshape(-1), MINUTES_PER_DAY).astype(np.float64)
    cache["_group_starts"] = np.arange(0, n_players * T, MINUTES_PER_DAY, dtype=np.intp)
