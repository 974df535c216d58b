"""Feature pooling and standardization.

Raw per-minute columns are pooled into a named design matrix at one of two
granularities:

* ``minute`` — one row per record; daily pooled features (switch frequency,
  usage percentage) are broadcast to every minute of their day.
* ``daily`` — one row per (player, day); per-minute columns are aggregated
  by their daily mean.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import (
    AlreadyStandardized,
    EmptyTable,
    InvalidConfig,
    NonFiniteValue,
    TooFewRows,
    UnknownFeatureName,
)
from .records import FLAG_NAMES, RESOURCES, DatasetTable

MINUTE_FEATURES: tuple[str, ...] = (
    tuple(f"status_{r.value}" for r in RESOURCES)
    + ("humidity", "temperature", "solar_radiation")
    + FLAG_NAMES
    + ("portal_visits", "points_total", "rank")
)

DAILY_POOLED_FEATURES: tuple[str, ...] = tuple(
    f"switch_freq_{r.value}" for r in RESOURCES
) + tuple(f"usage_pct_{r.value}" for r in RESOURCES)

ALL_FEATURES: tuple[str, ...] = MINUTE_FEATURES + DAILY_POOLED_FEATURES

# Independent features only (no points/rank): used for clustering defaults.
DEFAULT_CLUSTERING_FEATURES: tuple[str, ...] = DAILY_POOLED_FEATURES + ("portal_visits",)

# Default correlation/graph feature set: statuses, weather, calendar flags.
# Game-state columns (points, rank, portal visits) are available but not
# part of the default dependency graph.
DEFAULT_GRAPH_FEATURES: tuple[str, ...] = (
    tuple(f"status_{r.value}" for r in RESOURCES)
    + ("humidity", "temperature", "solar_radiation")
    + FLAG_NAMES
)


@dataclass(frozen=True)
class FeatureConfig:
    """Feature sets and granularities; the ``features`` config section."""

    clustering_features: tuple[str, ...] = DEFAULT_CLUSTERING_FEATURES
    graph_features: tuple[str, ...] = DEFAULT_GRAPH_FEATURES
    clustering_granularity: str = "daily"
    graph_granularity: str = "minute"

    @property
    def clustering_spec(self) -> FeatureSpec:
        return FeatureSpec(self.clustering_features, self.clustering_granularity)

    @property
    def graph_spec(self) -> FeatureSpec:
        return FeatureSpec(self.graph_features, self.graph_granularity)

    def __post_init__(self) -> None:
        for key in ("clustering_features", "graph_features"):
            object.__setattr__(self, key, tuple(getattr(self, key)))
        try:  # FeatureSpec checks the names and granularities
            _ = self.clustering_spec, self.graph_spec
        except UnknownFeatureName as exc:
            raise InvalidConfig(str(exc)) from None
        for key in ("clustering_features", "graph_features"):
            names = getattr(self, key)
            repeated = sorted({name for name in names if names.count(name) > 1})
            if repeated:
                raise InvalidConfig(f"{key} names a feature more than once: {repeated}")
        if not self.clustering_features:
            raise InvalidConfig("clustering_features must name at least 1 feature")
        if len(self.graph_features) < 2:
            raise InvalidConfig(
                f"graph_features must name at least 2 features, got {list(self.graph_features)}"
            )
        if self.clustering_granularity == "minute" and self.graph_granularity == "daily":
            raise InvalidConfig(
                "minute clustering needs a minute graph: a daily graph row spans "
                "minutes of several clusters"
            )


@dataclass(frozen=True)
class FeatureSpec:
    """Which features to emit and at which granularity."""

    features: tuple[str, ...]
    granularity: str = "daily"  # "daily" | "minute"

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", tuple(self.features))
        unknown = [f for f in self.features if f not in ALL_FEATURES]
        if unknown:
            raise UnknownFeatureName(f"unknown feature name(s): {unknown}")
        if self.granularity not in ("daily", "minute"):
            raise UnknownFeatureName(f"unknown granularity: {self.granularity!r}")


@dataclass
class FeatureMatrix:
    """N×p design matrix with named columns; ``row_codes`` index its rows' ``player_ids``."""

    values: np.ndarray
    column_names: tuple[str, ...]
    standardized: bool = False
    row_codes: np.ndarray | None = None
    player_ids: tuple[str, ...] = ()

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def row_players(self) -> tuple[str, ...] | None:
        """The player id of each row, built on each read."""
        if self.row_codes is None:
            return None
        return tuple(np.asarray(self.player_ids, dtype=object)[self.row_codes].tolist())


_BLOCK_ROWS = 1024  # rows per block of a pass that needs a temporary of the block's size


def require_finite(values: np.ndarray) -> None:
    """Raise :class:`NonFiniteValue` on a NaN or infinite entry; no mask of the matrix's size."""
    for start in range(0, len(values), _BLOCK_ROWS):
        if not np.isfinite(values[start : start + _BLOCK_ROWS]).all():
            raise NonFiniteValue("matrix contains NaN or infinite entries")


def _stream(seed: int, stream: str) -> random.Random:
    """Python's MT19937 for one use of ``seed``, seeded with the string ``"<seed>:<stream>"``.

    An int's digits hold no ``:``, so no two (seed, stream) pairs share a generator.
    """
    return random.Random(f"{seed}:{stream}")


def raw_columns(
    table: DatasetTable, names: Sequence[str] = MINUTE_FEATURES
) -> dict[str, np.ndarray]:
    """The named ``MINUTE_FEATURES`` columns of a table, as float64 arrays."""
    return {name: table.columns[name].astype(np.float64) for name in names}


def _daily_pooled(
    cols: dict, starts: np.ndarray, counts: np.ndarray, run_starts: np.ndarray
) -> dict[str, np.ndarray]:
    """Switch counts and usage shares per (player, day) run.

    A switch counts only across a one-minute step: none is read across a
    missing minute (a new run of ``run_starts``), and the count is not
    rescaled by the minutes observed.
    """
    pooled: dict[str, np.ndarray] = {}
    for r in RESOURCES:
        status = cols[f"status_{r.value}"]
        changed = np.diff(status) != 0
        changed[run_starts[1:] - 1] = False
        switches_before = np.concatenate(([0], np.cumsum(changed)))  # up to each row
        switches = switches_before[starts + counts - 1] - switches_before[starts]
        pooled[f"switch_freq_{r.value}"] = switches.astype(np.float64)
        pooled[f"usage_pct_{r.value}"] = np.add.reduceat(status, starts, dtype=np.int64) / counts
    return pooled


def pool_features(
    table: DatasetTable,
    spec: FeatureSpec,
    rows: np.ndarray | None = None,
    runs: tuple[np.ndarray, np.ndarray, list[str]] | None = None,
) -> FeatureMatrix:
    """Build the named design matrix described by ``spec``.

    Daily granularity yields one row per (player, day); minute granularity
    one row per record. Column order follows ``spec.features``. A bool mask
    ``rows`` keeps the rows it marks, as ``values[rows]``; ``runs`` is
    ``table.day_runs()`` when the caller holds it.

    Memory: the table's columns are read in place, with no float64 copy (int
    columns, int8 ones too, are summed exactly as int64), and one status
    column's switch counts at a time. Player codes, not names, are kept per
    row; at minute granularity they are a view of the table's.
    """
    if not len(table):
        raise EmptyTable("cannot pool features from an empty table")
    need_pooled = any(f in DAILY_POOLED_FEATURES for f in spec.features)
    starts, counts, _ = table.day_runs() if runs is None else runs
    pooled = {}
    if need_pooled:
        pooled = _daily_pooled(table.columns, starts, counts, table.minute_runs()[0])

    daily = spec.granularity == "daily"
    kept = slice(None) if rows is None else rows
    codes = table.player_codes[starts if daily else slice(None)][kept]
    values = np.empty((len(codes), len(spec.features)))
    for j, name in enumerate(spec.features):  # one column at a time into the matrix
        if name in pooled:
            column = pooled[name] if daily else np.repeat(pooled[name], counts)
        else:
            column = table.columns[name]
            if daily:  # int columns sum as int64: a day of int8 ones would wrap
                sums = np.add.reduceat(column, starts, dtype=np.result_type(column.dtype, np.int64))
                column = sums / counts
        values[:, j] = column[kept]

    return FeatureMatrix(
        values=values,
        column_names=spec.features,
        row_codes=codes,
        player_ids=table.player_ids,
    )


def _square_sums(values: np.ndarray) -> np.ndarray:
    """``np.square(values).sum(axis=0)``, bit for bit, without an N×p temporary.

    numpy sums a C-contiguous matrix of 2 or more columns down axis 0 row
    after row, so each row block's squares are summed with the running sum
    added into the block's first row. Other layouts are summed pairwise, so
    they get one temporary.
    """
    if values.shape[1] < 2 or not values.flags.c_contiguous:
        return np.square(values).sum(axis=0)
    block = np.empty((min(len(values), _BLOCK_ROWS), values.shape[1]))
    sums = np.zeros(values.shape[1])  # 0.0 + a square is that square, to the bit
    for start in range(0, len(values), _BLOCK_ROWS):
        squares = np.square(values[start : start + _BLOCK_ROWS], out=block[: len(values) - start])
        squares[0] += sums
        sums = squares.sum(axis=0)
    return sums


def _scaled_deviations(values: np.ndarray, divisor: int) -> np.ndarray:
    """Overwrite ``values`` with (value − column mean) / √(Σ deviation² / ``divisor``).

    Returns which columns are constant (scale 0); they come out all-zero.
    Memory: one row block beside ``values``, which the caller owns.
    """
    values -= values.mean(axis=0)
    scales = np.sqrt(_square_sums(values) / divisor)
    constant = scales == 0.0
    values /= np.where(constant, 1.0, scales)
    if constant.any():
        values[:, constant] = 0.0
    return constant


def standardize(matrix: FeatureMatrix) -> FeatureMatrix:
    """Zero-mean, unit-sample-std copy of ``matrix``.

    Constant columns are mapped to all-zero instead of raising; downstream
    sparse regressions simply never select them. Memory: one copy of the
    values, scaled in place; ``matrix`` is left as it was.
    """
    values = np.array(matrix.values, dtype=np.float64, order="K")
    return _standardize_in_place(replace(matrix, values=values))


def _standardize_in_place(matrix: FeatureMatrix) -> FeatureMatrix:
    """:func:`standardize` of a matrix whose values the caller owns; it scales them in place."""
    if matrix.standardized:
        raise AlreadyStandardized("matrix is already standardized")
    if matrix.n_rows < 2:
        raise TooFewRows(f"need at least 2 rows to standardize, got {matrix.n_rows}")
    _scaled_deviations(matrix.values, matrix.n_rows - 1)
    return replace(matrix, standardized=True)


def player_day_segments(
    table: DatasetTable, names: Sequence[str]
) -> list[tuple[str, str, dict[str, np.ndarray]]]:
    """(player, day, series) of each run of consecutive minutes, for the named raw columns.

    Used to build lagged designs that never cross a day boundary or a
    missing minute: a (player, day) with a gap gives one segment per
    :meth:`~energyseg.records.DatasetTable.minute_runs` run. Each series is
    a slice of ``table.columns`` at its stored width, not a float64 copy.
    """
    unknown = [n for n in names if n not in MINUTE_FEATURES]
    if unknown:
        raise UnknownFeatureName(f"unknown minute feature(s): {unknown}")
    if not len(table):
        raise EmptyTable("cannot segment an empty table")
    cols = table.columns
    starts, lengths = table.minute_runs()
    days = np.datetime_as_string(table.timestamps[starts].astype("datetime64[D]")).tolist()
    segments = []
    for player, day, start, stop in zip(
        table.row_players(starts), days, starts.tolist(), (starts + lengths).tolist()
    ):
        segments.append((player, day, {name: cols[name][start:stop] for name in names}))
    return segments
