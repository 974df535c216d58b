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

from .errors import InvalidConfig, require_int, require_number
from .records import FLAG_NAMES, FIELD_COLUMNS, RESOURCES, DatasetTable, compute_points

MINUTES_PER_DAY = 1440

CLASS_NAMES = ("low", "medium", "high")

# shared standardization constants for the weather drivers (fixed, not
# estimated from the sample, so behavior is identical across seeds)
_HUM_MEAN, _HUM_SCALE = 55.0, 12.0
_TEMP_MEAN, _TEMP_SCALE = 22.0, 3.0

_BASE_BASELINES = (400.0, 300.0, 400.0, 350.0)  # minutes/day per RESOURCES order
_PORTAL_RATES = {"low": 0.7, "medium": 3.0, "high": 8.0}  # visits/day
_START_DATE = dt.date(2018, 9, 3)  # a Monday
_BASELINE_JITTER = 0.08  # per-player multiplicative spread of the baselines
_BEHAVIOR_JITTER = 0.07  # per-player multiplicative spread of the switching hazards


@dataclass(frozen=True)
class GeneratorConfig:
    """Settings for :func:`generate_synthetic`; the ``synth`` config section.

    ``players_per_class`` is (low, medium, high).
    """

    players_per_class: tuple[int, int, int] = (2, 2, 2)
    n_days: int = 7
    booster: float = 1.0

    def __post_init__(self) -> None:
        counts = tuple(self.players_per_class)
        object.__setattr__(self, "players_per_class", counts)
        if len(counts) != 3:
            raise InvalidConfig(f"players_per_class must be 3 nonnegative counts, got {counts}")
        for count in counts:
            require_int("players_per_class entry", count, 0)
        if sum(counts) == 0:
            raise InvalidConfig("at least one player is required")
        require_int("n_days", self.n_days, 1)
        require_number("booster", self.booster)
        if self.booster <= 0:
            raise InvalidConfig(f"booster must be positive, got {self.booster}")


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
    """Stationary AR(1) path x_t = eps_t + phi * x_{t-1}, marginal standard deviation ``std``."""
    innov_std = std * np.sqrt(1.0 - phi * phi)
    x = std * rng.standard_normal()
    eps = innov_std * rng.standard_normal(n)
    path = np.empty(n)
    for t, e in enumerate(eps.tolist()):
        x = e + phi * x
        path[t] = x
    return path


def _run_chain(p_on: np.ndarray, p_off: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Binary Markov chain with per-step switch-on/off hazards, started off.

    A step where only ``u < p_on`` holds sets the state, only ``u < p_off`` clears it, both
    flip it. So the state is its value at the last set or clear, flipped once per flip since.
    """
    on, off = uniforms < p_on, uniforms < p_off
    flips = np.concatenate(([0], np.cumsum(on & off)))  # flips up to each step
    last = np.maximum.accumulate(np.where(on != off, np.arange(1, len(on) + 1), 0))  # 0: none
    settled = np.concatenate(([False], on))[last]
    return (settled ^ ((flips[1:] - flips[last]) & 1).astype(bool)).astype(np.int8)


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
        [(_START_DATE + dt.timedelta(days=int(d))).weekday() for d in range(n_days)]
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
    humidity = _HUM_MEAN + _ar1(rng, T, phi=0.97, std=_HUM_SCALE)
    humidity = np.clip(humidity, 2.0, 98.0)

    temp_cycle = 4.0 * np.sin(2.0 * np.pi * (cal.minute_of_day - 540.0) / MINUTES_PER_DAY)
    temperature = _TEMP_MEAN + temp_cycle + _ar1(rng, T, phi=0.95, std=1.0)

    cloud = 0.55 + 0.45 * rng.random(config.n_days)
    daylight = np.sin(np.pi * (cal.minute_of_day - 360.0) / 720.0)
    daylight = np.where((cal.minute_of_day >= 360) & (cal.minute_of_day < 1080), daylight, 0.0)
    ripple = 1.0 + 0.08 * rng.standard_normal(T)
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

    return np.stack([ceil, desk, fan, ac])


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
    # rows are sorted by player id; each player's stream is seeded by its roster index
    order = sorted(range(n_players), key=lambda i: roster[i][0])
    for row, i in enumerate(order):
        class_name = roster[i][1]
        rng = np.random.default_rng([seed, 1 + i])
        jm = 1.0 + _BEHAVIOR_JITTER * (2.0 * rng.random() - 1.0)
        baselines[row] = np.asarray(_BASE_BASELINES) * (
            1.0 + _BASELINE_JITTER * (2.0 * rng.random(4) - 1.0)
        )
        if class_name == "low":
            statuses[row] = _simulate_low(z_lag, w_lag, cal, exam_lag, jm, rng)
        else:
            statuses[row] = _simulate_presence(class_name, z_lag, cal, exam_lag, jm, rng)
        portal[row] = (rng.random(T) < _PORTAL_RATES[class_name] / MINUTES_PER_DAY).astype(np.int64)

    # per-day usage, points via the proportional under-usage formula, ranks
    per_day = statuses.reshape(n_players, 4, n_days, MINUTES_PER_DAY)
    usage_day = per_day.sum(axis=3)  # players × resources × days
    usage_cum = np.cumsum(per_day, axis=3)  # running minutes within each day

    points_day = np.zeros((n_players, n_days))
    for i in range(n_players):
        for d in range(n_days):
            points_day[i, d] = sum(
                compute_points(baselines[i, r], float(usage_day[i, r, d]), config.booster)
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

    # rows run by player, then minute, so each array flattens in row order
    columns = {}
    for r, resource in enumerate(RESOURCES):
        columns[f"status_{resource.value}"] = statuses[:, r, :].reshape(-1)
        columns[f"usage_{resource.value}"] = usage_cum[:, r].reshape(-1).astype(np.float64)
        columns[f"baseline_{resource.value}"] = np.repeat(baselines[:, r], T)
    columns["points_total"] = np.repeat(prior_total.reshape(-1), MINUTES_PER_DAY)
    columns["rank"] = np.repeat(ranks.reshape(-1), MINUTES_PER_DAY)
    columns["portal_visits"] = portal.reshape(-1)
    columns["humidity"] = np.tile(humidity, n_players)
    columns["temperature"] = np.tile(temperature, n_players)
    columns["solar_radiation"] = np.tile(solar, n_players)
    flags = (cal.weekend, cal.morning, cal.afternoon, cal.evening, cal.is_break, cal.midterm, cal.final)
    for name, values in zip(FLAG_NAMES, flags):
        columns[name] = np.tile(values.astype(np.int8), n_players)
    start = np.datetime64(_START_DATE, "m")
    return DatasetTable(
        player_ids=tuple(roster[i][0] for i in order),
        player_codes=np.repeat(np.arange(n_players), T),
        timestamps=np.tile(start + np.arange(T), n_players),
        columns={name: columns[name] for name in FIELD_COLUMNS},
    )
