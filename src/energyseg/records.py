"""Occupant usage records: schema, CSV ingest/emit, and the points formula.

The on-disk format is a UTF-8 CSV with one row per (player, minute). Column
names are fixed (see ``CSV_COLUMNS``); unknown extra columns are ignored on
ingest, and a column mapping can rename headers from foreign exports.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import datetime
from enum import Enum
from typing import Mapping

from .errors import EmptyTable, MissingColumn, NonPositiveBaseline, ParseError

SCHEMA_VERSION = 1


class ResourceKind(Enum):
    """The four metered room resources."""

    CEILING_LIGHT = "ceiling_light"
    DESK_LIGHT = "desk_light"
    FAN = "fan"
    AC = "ac"


RESOURCES: tuple[ResourceKind, ...] = (
    ResourceKind.CEILING_LIGHT,
    ResourceKind.DESK_LIGHT,
    ResourceKind.FAN,
    ResourceKind.AC,
)

FLAG_NAMES: tuple[str, ...] = (
    "is_weekend",
    "is_morning",
    "is_afternoon",
    "is_evening",
    "is_break",
    "is_midterm",
    "is_final",
)

CSV_COLUMNS: tuple[str, ...] = (
    ("timestamp", "player_id")
    + tuple(f"status_{r.value}" for r in RESOURCES)
    + tuple(f"usage_{r.value}" for r in RESOURCES)
    + tuple(f"baseline_{r.value}" for r in RESOURCES)
    + ("points_total", "rank", "portal_visits", "humidity", "temperature", "solar_radiation")
    + FLAG_NAMES
)


@dataclass(slots=True, frozen=True)
class OccupantRecord:
    """One per-minute observation of a single player.

    ``statuses``, ``usage_today`` and ``baselines`` are indexed in
    ``RESOURCES`` order.
    """

    timestamp: datetime
    player_id: str
    statuses: tuple[int, int, int, int]
    usage_today: tuple[float, float, float, float]
    baselines: tuple[float, float, float, float]
    points_total: float
    rank: int
    portal_visits: int
    humidity: float
    temperature: float
    solar_radiation: float
    is_weekend: int
    is_morning: int
    is_afternoon: int
    is_evening: int
    is_break: int
    is_midterm: int
    is_final: int

    def day_key(self) -> str:
        return self.timestamp.date().isoformat()


@dataclass
class DatasetTable:
    """Ordered, deduplicated collection of occupant records.

    Records are sorted by (player_id, timestamp) and unique on that pair.
    """

    records: list[OccupantRecord]
    schema_version: int = SCHEMA_VERSION
    dropped_rows: int = 0
    # populated lazily by features.raw_columns()
    _column_cache: dict = field(default_factory=dict, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.records)

    def players(self) -> list[str]:
        seen: dict[str, None] = {}
        for rec in self.records:
            seen.setdefault(rec.player_id, None)
        return list(seen)


def compute_points(baseline: float, usage: float, booster: float = 1.0,
                   clamp_at_zero: bool = False) -> float:
    """Daily points earned for one resource.

    Points scale with proportional under-usage relative to the baseline:
    ``booster * (baseline - usage) / baseline``. Overuse yields negative
    points unless ``clamp_at_zero`` is set.
    """
    if baseline <= 0:
        raise NonPositiveBaseline(f"baseline must be > 0, got {baseline}")
    points = booster * (baseline - usage) / baseline
    if clamp_at_zero and points < 0:
        return 0.0
    return points


def _parse_timestamp(raw: str) -> datetime:
    ts = datetime.fromisoformat(raw)
    return ts.replace(second=0, microsecond=0)


def _parse_binary(raw: str) -> int:
    value = int(raw)
    if value not in (0, 1):
        raise ValueError(f"expected 0/1, got {raw!r}")
    return value


def _record_from_row(row: Mapping[str, str]) -> OccupantRecord:
    timestamp = _parse_timestamp(row["timestamp"])
    statuses = tuple(_parse_binary(row[f"status_{r.value}"]) for r in RESOURCES)
    usage = tuple(float(row[f"usage_{r.value}"]) for r in RESOURCES)
    baselines = tuple(float(row[f"baseline_{r.value}"]) for r in RESOURCES)
    minutes_elapsed = timestamp.hour * 60 + timestamp.minute + 1
    for u in usage:
        if u < 0 or u > minutes_elapsed:
            raise ValueError(f"usage {u} outside [0, {minutes_elapsed}]")
    for b in baselines:
        if b <= 0:
            raise ValueError(f"baseline {b} not positive")
    rank = int(row["rank"])
    if rank < 1:
        raise ValueError(f"rank {rank} < 1")
    portal_visits = int(row["portal_visits"])
    if portal_visits < 0:
        raise ValueError(f"portal_visits {portal_visits} < 0")
    flags = {name: _parse_binary(row[name]) for name in FLAG_NAMES}
    return OccupantRecord(
        timestamp=timestamp,
        player_id=row["player_id"],
        statuses=statuses,
        usage_today=usage,
        baselines=baselines,
        points_total=float(row["points_total"]),
        rank=rank,
        portal_visits=portal_visits,
        humidity=float(row["humidity"]),
        temperature=float(row["temperature"]),
        solar_radiation=float(row["solar_radiation"]),
        **flags,
    )


def ingest_csv(source, schema: Mapping[str, str] | None = None) -> DatasetTable:
    """Parse a CSV stream into a :class:`DatasetTable`.

    Parameters
    ----------
    source:
        Text or binary file-like object, or a path string.
    schema:
        Optional mapping from canonical column names to the header names used
        in the source file. Identity for the canonical schema.

    Malformed rows are skipped and counted in ``dropped_rows``; duplicate
    (player, timestamp) rows keep the first occurrence. Raises
    :class:`MissingColumn` when a required header is absent and
    :class:`ParseError` when more than half the data rows are malformed.
    """
    if isinstance(source, (str, bytes)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return ingest_csv(handle, schema)
    if isinstance(source, io.RawIOBase) or (hasattr(source, "read") and "b" in getattr(source, "mode", "")):
        source = io.TextIOWrapper(source, encoding="utf-8")
    elif hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8")

    reader = csv.DictReader(source)
    header = reader.fieldnames or []
    mapping = {name: (schema or {}).get(name, name) for name in CSV_COLUMNS}
    missing = [src for src in mapping.values() if src not in header]
    if missing:
        raise MissingColumn(f"missing columns in header: {missing}")

    records: dict[tuple[str, datetime], OccupantRecord] = {}
    dropped = 0
    total = 0
    for raw_row in reader:
        total += 1
        try:
            row = {canonical: raw_row[src] for canonical, src in mapping.items()}
            rec = _record_from_row(row)
        except (ValueError, TypeError, KeyError):
            dropped += 1
            continue
        key = (rec.player_id, rec.timestamp)
        if key in records:
            dropped += 1
            continue
        records[key] = rec
    if total > 0 and dropped > total / 2:
        raise ParseError(f"{dropped} of {total} rows malformed")

    ordered = sorted(records.values(), key=lambda r: (r.player_id, r.timestamp))
    return DatasetTable(ordered, dropped_rows=dropped)


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _record_to_row(rec: OccupantRecord) -> list[str]:
    row = [rec.timestamp.isoformat(timespec="minutes"), rec.player_id]
    row += [str(s) for s in rec.statuses]
    row += [_format_value(u) for u in rec.usage_today]
    row += [_format_value(b) for b in rec.baselines]
    row += [
        _format_value(rec.points_total),
        str(rec.rank),
        str(rec.portal_visits),
        _format_value(rec.humidity),
        _format_value(rec.temperature),
        _format_value(rec.solar_radiation),
    ]
    row += [str(getattr(rec, name)) for name in FLAG_NAMES]
    return row


def emit_csv(table: DatasetTable, sink) -> None:
    """Write ``table`` in the canonical CSV schema (round-trips ingest_csv)."""
    if isinstance(sink, (str, bytes)):
        with open(sink, "w", encoding="utf-8", newline="") as handle:
            emit_csv(table, handle)
            return
    writer = csv.writer(sink, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in table.records:
        writer.writerow(_record_to_row(rec))


def require_nonempty(table: DatasetTable) -> None:
    if not table.records:
        raise EmptyTable("dataset contains no records")
