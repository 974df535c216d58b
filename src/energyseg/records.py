"""Occupant usage records: schema, CSV ingest/emit, and the points formula.

The on-disk format is a UTF-8 CSV with one row per (player, minute). Column
names are fixed (see ``CSV_COLUMNS``); unknown extra columns are ignored on
ingest.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import signal
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from enum import Enum
from functools import cache, reduce
from itertools import islice
from operator import ior, itemgetter
from stat import S_ISREG
from typing import BinaryIO, Callable, Iterable, Iterator

import numpy as np

from .errors import EmptyTable, MissingColumn, NonPositiveBaseline, ParseError


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

STATUS_COLUMNS = tuple(f"status_{r.value}" for r in RESOURCES)
USAGE_COLUMNS = tuple(f"usage_{r.value}" for r in RESOURCES)
BASELINE_COLUMNS = tuple(f"baseline_{r.value}" for r in RESOURCES)

CSV_COLUMNS: tuple[str, ...] = (
    ("timestamp", "player_id")
    + STATUS_COLUMNS
    + USAGE_COLUMNS
    + BASELINE_COLUMNS
    + ("points_total", "rank", "portal_visits", "humidity", "temperature", "solar_radiation")
    + FLAG_NAMES
)

# every CSV field but timestamp and player_id: one array each in a table
FIELD_COLUMNS: tuple[str, ...] = CSV_COLUMNS[2:]
# 0/1 by ingest's bad_binary check, so a table holds them as int8
BINARY_COLUMNS: tuple[str, ...] = STATUS_COLUMNS + FLAG_NAMES
INT_COLUMNS: frozenset[str] = frozenset(BINARY_COLUMNS + ("rank", "portal_visits"))
COLUMN_DTYPES: dict[str, type] = {
    name: np.int8 if name in BINARY_COLUMNS else np.int64 if name in INT_COLUMNS else np.float64
    for name in FIELD_COLUMNS
}

# Why ingest leaves a row out. A row is counted once, under the first reason
# in this order that applies to it.
DROP_REASONS: tuple[str, ...] = (
    "unparsable",  # a cell is missing or does not parse as its type
    "timestamp_offset",  # the timestamp carries a UTC offset
    "non_finite",  # nan or inf in a float field
    "bad_binary",  # a status or flag other than 0/1
    "usage_out_of_range",  # usage outside [0, minutes elapsed that day]
    "non_positive_baseline",
    "bad_rank",  # rank below 1
    "negative_portal_visits",
    "duplicate_key",  # same player and timestamp as an earlier row
    "timestamp_truncated",  # its seconds truncate onto an earlier row's minute
)

_EPOCH = datetime(1970, 1, 1)
_MICROSECOND = timedelta(microseconds=1)
_BLOCK_ROWS = 512  # physical lines parsed per ingest block: about 0.1 MB of text
_EMIT_ROWS = 512  # rows per emit block: its record buffer holds about 0.1 MB

# One field as csv's default dialect reads it: a quote opens a quoted field
# only at the field's start, and "" inside one is a literal quote.
_FIELD = r'(?:"(?:[^"]|"")*+"[^,\r\n]*+|[^",\r\n][^,\r\n]*+)?+'
# Matches a line that ends inside a quoted field, for a line that starts a
# record ([False]) and for one that continues a quoted field ([True]).
_ENDS_QUOTED = (
    re.compile(rf'{_FIELD}(?:,{_FIELD})*+"'),
    re.compile(rf'(?:[^"]|"")*+(?:\Z|"[^,\r\n]*+(?:,{_FIELD})*+")'),
)
# numpy's number parser skips these as white space, and int() and float()
# reject them; it also reads some non-ASCII letters as digits
_NUMPY_SPACES = "\x1c\x1d\x1e\x1f"


@dataclass(eq=False)
class DatasetTable:
    """Per-minute occupant rows, stored by column.

    Rows are sorted by (player, timestamp). ``player_ids`` is sorted and
    ``player_codes`` indexes it per row; ``timestamps`` are
    ``datetime64[m]``; ``columns`` holds one array per ``FIELD_COLUMNS``
    name, of its ``COLUMN_DTYPES`` type: int8 for the 0/1 ``BINARY_COLUMNS``,
    int64 for ``rank`` and ``portal_visits`` and float64 for the rest.
    ``dropped_by_reason`` counts the rows ingest left out, per
    ``DROP_REASONS`` entry.
    """

    player_ids: tuple[str, ...]
    player_codes: np.ndarray
    timestamps: np.ndarray
    columns: dict[str, np.ndarray]
    dropped_by_reason: dict[str, int] = field(
        default_factory=lambda: dict.fromkeys(DROP_REASONS, 0)
    )

    @property
    def dropped_rows(self) -> int:
        return sum(self.dropped_by_reason.values())

    def __len__(self) -> int:
        return len(self.timestamps)

    def row_players(self, rows: slice | np.ndarray = slice(None)) -> list[str]:
        """The player id of each row, or of each row in ``rows``."""
        return np.asarray(self.player_ids, dtype=object)[self.player_codes[rows]].tolist()

    def day_runs(self) -> tuple[np.ndarray, np.ndarray, list[str]]:
        """The start row, row count and ISO day of each (player, day) run.

        Rows are sorted by (player, timestamp), so each (player, day) is one
        contiguous run, starting wherever the player or the day changes.
        """
        days = self.timestamps.astype("datetime64[D]")
        new_run = np.ones(len(self), dtype=bool)
        new_run[1:] = (self.player_codes[1:] != self.player_codes[:-1]) | (days[1:] != days[:-1])
        starts = np.flatnonzero(new_run)
        lengths = np.diff(starts, append=len(self))
        return starts, lengths, np.datetime_as_string(days[starts]).tolist()

    def minute_runs(self) -> tuple[np.ndarray, np.ndarray]:
        """The start row and row count of each run of consecutive minutes.

        Each (player, day) run of :meth:`day_runs` is cut after every row
        whose next row is not the next minute.
        """
        day_starts = self.day_runs()[0]  # its temporaries are freed before the mask is made
        new_run = np.zeros(len(self), dtype=bool)
        new_run[day_starts] = True
        new_run[1:] |= np.diff(self.timestamps.view(np.int64)) != 1
        run_starts = np.flatnonzero(new_run)
        return run_starts, np.diff(run_starts, append=len(self))


def compute_points(baseline: float, usage: float, booster: float = 1.0) -> float:
    """Daily points earned for one resource.

    Points scale with proportional under-usage relative to the baseline:
    ``booster * (baseline - usage) / baseline``. Overuse yields negative
    points.
    """
    if baseline <= 0:
        raise NonPositiveBaseline(f"baseline must be > 0, got {baseline}")
    return booster * (baseline - usage) / baseline


class _TimestampOffset(ValueError):
    pass


def _epoch_microseconds(raw: str) -> int:
    ts = datetime.fromisoformat(raw)
    if ts.tzinfo is not None:
        raise _TimestampOffset(raw)
    return (ts - _EPOCH) // _MICROSECOND


def _parse_cells(cells, convert, dtype) -> tuple[np.ndarray, np.ndarray]:
    """The cells passed through ``convert``, and a mask of the cells it rejects.

    The mask holds 1 for a cell that does not parse and 2 for a timestamp
    with a UTC offset.
    """
    try:
        return np.fromiter(map(convert, cells), dtype, len(cells)), np.zeros(len(cells), np.int8)
    except (ValueError, OverflowError):
        values, rejected = np.zeros(len(cells), dtype), np.zeros(len(cells), np.int8)
        for i, cell in enumerate(cells):
            try:
                values[i] = convert(cell)
            except _TimestampOffset:
                rejected[i] = 2
            except (ValueError, OverflowError):
                rejected[i] = 1
        return values, rejected


def _ends_quoted(lines: list[str], inside: bool = False) -> bool:
    """Whether ``lines`` end inside a quoted field; ``inside``: they start in one."""
    for line in lines:
        if '"' in line:
            inside = _ENDS_QUOTED[inside].match(line) is not None
    return inside


def _blocks(lines: Iterator[str]) -> Iterator[list[str]]:
    """The lines in blocks of ``_BLOCK_ROWS`` or more, each ending where a record ends."""
    while block := list(islice(lines, _BLOCK_ROWS)):
        inside = _ends_quoted(block)
        while inside and (line := next(lines, None)) is not None:
            block.append(line)
            inside = _ends_quoted([line], inside)
        yield block


def _utf8_size(block: list[str]) -> int:
    """The UTF-8 bytes of the lines in ``block``."""
    text = "".join(block)
    return len(text) if text.isascii() else len(text.encode())


def _until(blocks: Iterator[list[str]], limit: int) -> Iterator[list[str]]:
    """Blocks from ``blocks`` until those taken hold ``limit`` UTF-8 bytes or more."""
    held = 0
    while held < limit and (block := next(blocks, None)) is not None:
        held += _utf8_size(block)
        yield block


def fork_child(work: Callable[[], object]) -> int | None:
    """Fork a child that runs ``work`` and exits; its pid, or None if none forked.

    The child exits 0 once ``work`` returns and 1 on any exception, through
    ``os._exit``, so none of the parent's cleanup, ``atexit`` hooks or stdio
    flushes run in it. None when ``os.fork`` is missing or raises ``OSError``
    (no process to spare: EAGAIN, ENOMEM); the caller then does the work
    inline. From Python 3.12 ``os.fork`` warns in a process with threads,
    such as BLAS's idle workers; the warning is dropped here, so it never
    becomes a stage warning. Neither child of the package calls BLAS.
    """
    if not hasattr(os, "fork"):
        return None
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)
            pid = os.fork()
    except OSError:
        return None
    if pid == 0:
        code = 1
        try:
            work()
            code = 0
        finally:
            os._exit(code)
    return pid


def reap_child(pid: int) -> bool:
    """Wait for the child ``pid`` of :func:`fork_child` to end; whether it exited 0."""
    return os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]) == 0


def _fork_pipe(send: Callable[[BinaryIO], None]) -> tuple[int, BinaryIO] | None:
    """Fork a child that runs ``send`` on a pipe; its pid and the pipe's read end, or None."""
    read_end, write_end = os.pipe()

    def work() -> None:
        os.close(read_end)  # else its writes would block, not fail, once the parent is gone
        with open(write_end, "wb") as pipe:
            send(pipe)

    pid = fork_child(work)
    os.close(write_end)
    if pid is None:
        os.close(read_end)
        return None
    return pid, open(read_end, "rb")


def _receive(pipe: BinaryIO, arrays: list[np.ndarray], total: int) -> tuple[int, list[str]] | None:
    """Read a child's rows from ``pipe`` into ``arrays`` after row ``total``.

    Returns the row count and the player names the rows' codes index, or
    None when the output ends early. Each array grows in place and its new
    rows are read straight into it.
    """
    line = pipe.readline()
    if not line.endswith(b"\n"):
        return None
    rows, names = json.loads(line)
    for array in arrays:
        if len(array) < total + rows:
            array.resize(total + rows, refcheck=False)
        if pipe.readinto(array[total:total + rows]) != rows * array.itemsize:
            return None
    return rows, names


def ingest_csv(source) -> DatasetTable:
    """Parse a CSV stream with the ``CSV_COLUMNS`` headers into a :class:`DatasetTable`.

    ``source`` is a text or binary file-like object, or a path (``str``,
    ``bytes`` or ``os.PathLike``).

    Malformed rows are skipped and counted in ``dropped_by_reason`` (see
    ``DROP_REASONS``); duplicate (player, minute) rows keep the first
    occurrence in the file. Raises :class:`MissingColumn` when a required
    header is absent and :class:`ParseError` when more than half the data
    rows are dropped.

    Two processes parse a path to a regular file whose first block of
    ``_BLOCK_ROWS`` lines ends before the file's middle byte, ``size // 2``.
    Once the header is checked, one child is forked (see :func:`fork_child`):
    it opens the path itself, checks that it is the same file, cuts the
    same blocks and parses those that start at or past that byte, then sends
    its rows through a pipe. The parent parses the blocks before it and
    reads the child's rows onto its own, so both halves meet in file order.
    Streams, other files, a one-block file and a process where the fork fails
    parse inline. When the child fails, the parent parses the second half
    inline, so an error in it surfaces as it would inline; when the parent
    fails, it kills and reaps the child first.

    Memory: blocks of ``_BLOCK_ROWS`` lines are parsed into the table's columns, sized from
    the file's bytes and stored at their ``COLUMN_DTYPES`` width; a block's 0/1 cells are
    checked as int64 first, so none wraps. Beside the columns are one block, per-row times
    and players, one bool array per drop check and one cache entry per timestamp. Rows in
    (player, minute) order are not sorted or gathered. A child's rows are read from the pipe
    straight into the columns' tails; the child holds its half of the columns until then.
    """
    if isinstance(source, (str, bytes, os.PathLike)):
        with open(source, "r", encoding="utf-8", newline="") as handle:
            return _ingest(handle, os.fspath(source))
    if hasattr(source, "read") and isinstance(source.read(0), bytes):
        source = io.TextIOWrapper(source, encoding="utf-8", newline="")
    return _ingest(source, None)


def _ingest(source, path: str | bytes | None) -> DatasetTable:
    """:func:`ingest_csv` of the text stream ``source``, which was opened from ``path`` if any."""
    try:
        info = os.fstat(source.fileno())
    except (AttributeError, OSError):  # a stream with no file behind it
        info = None
    size = info.st_size if info else 0

    lines = iter(source)
    header_lines: list[str] = []
    header = next(csv.reader(header_lines.append(line) or line for line in lines), [])
    position = {name: i for i, name in enumerate(header)}  # a repeated name: the last wins
    missing = [name for name in CSV_COLUMNS if name not in position]
    if missing:
        raise MissingColumn(f"missing columns in header: {missing}")
    index = [position[name] for name in CSV_COLUMNS]
    pick = itemgetter(*index)
    width = max(index) + 1
    blank = ("",) * len(index)  # a short row: every cell fails to parse

    player_index: dict[str, int] = {}
    converters = [
        (cache(_epoch_microseconds), np.int64),  # a file repeats each minute once per player
        (lambda p: player_index.setdefault(p, len(player_index)), np.intp),
    ] + [(int, np.int64) if name in INT_COLUMNS else (float, np.float64) for name in FIELD_COLUMNS]
    dtype = np.dtype([(name, conv[1] if name in FIELD_COLUMNS else object)
                      for name, conv in zip(CSV_COLUMNS, converters)])

    def parse(block: list[str], text: str) -> list[np.ndarray]:
        # each column's values, then per row: a cell does not parse; the timestamp has an offset
        if not any(c in text for c in _NUMPY_SPACES):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("error")  # e.g. a block of blank lines
                    cells = np.loadtxt(block, dtype, delimiter=",", quotechar='"',
                                       comments=None, usecols=index, ndmin=1)
            except (ValueError, Warning):
                pass  # only the per-cell path below tells which cells fail
            else:
                # numpy's numbers hold when every non-ASCII character sits in a
                # timestamp or an id: the block has those cells' excess UTF-8 bytes
                ids = "" if text.isascii() else "".join([*cells["timestamp"], *cells["player_id"]])
                if text.isascii() or len(text.encode()) - len(text) == len(ids.encode()) - len(ids):
                    stamps, rejected = _parse_cells(cells["timestamp"], *converters[0])
                    player, _ = _parse_cells(cells["player_id"], *converters[1])
                    fields = [cells[name] for name in FIELD_COLUMNS]
                    return [stamps, player, *fields, rejected == 1, rejected == 2]
        rows = [pick(row) if len(row) >= width else blank for row in csv.reader(block) if row]
        cells = list(zip(*rows)) or [()] * len(blank)
        values, rejected = zip(*(_parse_cells(col, *conv) for col, conv in zip(cells, converters)))
        return [*values, reduce(ior, (r == 1 for r in rejected)), rejected[0] == 2]

    # stamps, player codes, the fields, unparsable, offset, not binary: one array each, for
    # all rows; a 0/1 column's int64 cells are checked before they are stored as int8
    kinds = (np.int64, np.intp, *COLUMN_DTYPES.values(), bool, bool, bool)
    binary_parts = [2 + FIELD_COLUMNS.index(name) for name in BINARY_COLUMNS]

    def fill(arrays: list[np.ndarray], total: int, blocks: Iterator[list[str]], room: int) -> int:
        # parse blocks onto arrays after row total; returns the new row count
        base, chars = total, 0
        for block in blocks:
            text = "".join(block)
            parts = parse(block, text)
            parts.append(reduce(ior, ((parts[i] < 0) | (parts[i] > 1) for i in binary_parts)))
            start, total, chars = total, total + len(parts[0]), chars + len(text)
            if total > len(arrays[0]):  # room for `room` bytes at the rate so far, or an eighth more
                capacity = max(base + (total - base) * room // chars, total + total // 8 + 1)
                for array in arrays:  # a realloc: no copy is held beside the old array
                    array.resize(capacity, refcheck=False)
            for array, part in zip(arrays, parts):
                array[start:total] = part
            del block, text, parts  # before the next block is read
        return total

    # the blocks that start before byte `half` are the parent's
    half = size // 2 if path is not None and S_ISREG(info.st_mode) else 0
    blocks = _blocks(lines)
    first = list(islice(blocks, 1))
    data_start = _utf8_size(header_lines)
    held = data_start + sum(map(_utf8_size, first))  # where the second block starts

    def send(pipe: BinaryIO) -> None:
        # the child: the second half's row count and player names, a line of JSON, then its rows
        with open(path, "r", encoding="utf-8", newline="") as again:
            if not os.path.samestat(os.fstat(again.fileno()), info):
                raise FileNotFoundError(path)  # replaced since the parent opened it
            rest = iter(again)
            next(csv.reader(rest))
            rest = _blocks(rest)
            for _ in _until(rest, half - data_start):
                pass
            tail = [np.empty(0, kind) for kind in kinds]
            rows = fill(tail, 0, rest, size - half)
        pipe.write(json.dumps([rows, list(player_index)]).encode() + b"\n")
        for array in tail:
            pipe.write(array[:rows])

    arrays = [np.empty(0, kind) for kind in kinds]
    forked = _fork_pipe(send) if first and held < half else None

    def own() -> Iterator[list[str]]:  # the parent's blocks: all of them when none forked
        if first:
            yield first.pop()
        yield from blocks if forked is None else _until(blocks, half - held)

    if forked is None:
        total = fill(arrays, 0, own(), size)
    else:
        pid, pipe = forked
        sent = None
        try:
            with pipe:
                total = fill(arrays, 0, own(), size)
                sent = _receive(pipe, arrays, total)
        finally:
            if sent is None:  # the parent's half raised, or the child's output ended early
                os.kill(pid, signal.SIGKILL)
            if not reap_child(pid):
                sent = None
        if sent is None:  # the child failed: its half inline, so its error surfaces here
            total = fill(arrays, total, blocks, size - half)
        else:
            blocks.close()  # it holds the last block it cut
            rows, names = sent
            codes = np.array([player_index.setdefault(n, len(player_index)) for n in names], np.intp)
            child_codes = arrays[1][total:total + rows]
            child_codes[:] = codes[child_codes]
            total += rows
    for array in arrays:
        array.resize(total, refcheck=False)
    stamps, player, *fields, unparsable, offset, not_binary = arrays
    minutes, sub_minute = np.divmod(stamps, 60_000_000)
    columns = dict(zip(FIELD_COLUMNS, fields))
    del arrays, fields, stamps

    # first failed rule per row, in DROP_REASONS order; len(DROP_REASONS) = kept. A rule
    # over several columns ORs each new mask into its first in place (reduce with ior).
    elapsed = np.remainder(minutes, 1440, out=np.empty(total, np.int16), casting="unsafe")
    elapsed += 1
    checks = (
        unparsable,
        offset,
        reduce(ior, (~np.isfinite(columns[n]) for n in FIELD_COLUMNS if n not in INT_COLUMNS)),
        not_binary,
        reduce(ior, ((columns[n] < 0) | (columns[n] > elapsed) for n in USAGE_COLUMNS)),
        reduce(ior, (columns[n] <= 0 for n in BASELINE_COLUMNS)),
        columns["rank"] < 1,
        columns["portal_visits"] < 0,
    )
    kept_code = len(DROP_REASONS)
    reason = np.select(checks, list(range(len(checks))), default=kept_code)
    del checks, elapsed, unparsable, offset, not_binary

    # the valid rows by (player, minute): the first in the file of each key is
    # kept, and a later one is a duplicate when its timestamp is the same
    # instant, a truncation onto that minute otherwise
    names = sorted(player_index)
    name_order = np.argsort([player_index[name] for name in names])  # code -> position
    player = name_order[player]
    valid = reason == kept_code
    kept = slice(None) if valid.all() else np.flatnonzero(valid)
    row_player, row_minute = player[kept], minutes[kept]
    if not np.all((row_player[1:] > row_player[:-1]) | (
        (row_player[1:] == row_player[:-1]) & (row_minute[1:] > row_minute[:-1])
    )):  # not in order already: a stable sort
        rows = np.flatnonzero(valid)[np.lexsort((minutes[valid], player[valid]))]
        row_player = player[rows]
        repeat = np.zeros(len(rows), bool)
        repeat[1:] = (row_player[1:] == row_player[:-1]) & (minutes[rows[1:]] == minutes[rows[:-1]])
        first = np.maximum.accumulate(np.where(repeat, 0, np.arange(len(rows))))
        same_instant = sub_minute[rows] == sub_minute[rows[first]]
        reason[rows[repeat & same_instant]] = DROP_REASONS.index("duplicate_key")
        reason[rows[repeat & ~same_instant]] = DROP_REASONS.index("timestamp_truncated")
        kept, row_player = rows[~repeat], row_player[~repeat]
    del valid, row_minute, sub_minute

    dropped = total - len(row_player)
    if total > 0 and dropped > total / 2:
        raise ParseError(f"{dropped} of {total} rows malformed")
    counts = np.bincount(reason, minlength=kept_code + 1)
    present = np.zeros(len(names), bool)
    present[row_player] = True
    player_codes = (np.cumsum(present) - 1)[row_player]
    for name in FIELD_COLUMNS:  # one column at a time, so one copy is held beside the table
        columns[name] = columns[name][kept]
    return DatasetTable(
        player_ids=tuple(name for name, seen in zip(names, present) if seen),
        player_codes=player_codes,
        timestamps=minutes[kept].view("datetime64[m]"),
        columns=columns,
        dropped_by_reason=dict(zip(DROP_REASONS, counts[:kept_code].tolist())),
    )


def _quoted(text: str) -> str:
    """``text`` as one CSV field: quoted when it holds a comma, a quote or a line break."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _byte_table(cells: Iterable[str]) -> np.ndarray:
    """``cells`` in UTF-8 as ``V`` items as wide as the longest, padded with 0xFF (not UTF-8)."""
    encoded = [cell.encode() for cell in cells]
    lengths = np.fromiter(map(len, encoded), np.intp, len(encoded))
    text = np.frombuffer(b"".join(encoded), np.uint8)
    del encoded  # before the table and its mask are made
    table = np.full((len(lengths), max(1, lengths.max(initial=0))), 0xFF, np.uint8)
    table[np.arange(table.shape[1]) < lengths[:, None]] = text
    return table.view(f"V{table.shape[1]}")[:, 0]


def emit_csv(table: DatasetTable, sink) -> None:
    """Write ``table`` in the canonical CSV schema (round-trips ingest_csv).

    Float cells are the ``repr`` of Python floats, int cells their ``str``;
    a player id is quoted when it holds a comma, a quote or a line break.
    ``sink`` is a path (``str``, ``bytes`` or ``os.PathLike``), a binary
    file-like object or an ``io.TextIOBase``; each gets the same text. Memory:
    a :func:`_byte_table` of each column's distinct values (by bit pattern, so
    ``-0.0`` keeps its sign) and one ``_EMIT_ROWS``-row record buffer.
    """
    if isinstance(sink, (str, bytes, os.PathLike)):
        with open(sink, "wb") as handle:
            return emit_csv(table, handle)
    text = isinstance(sink, io.TextIOBase)
    sink.write(",".join(CSV_COLUMNS) + "\n" if text else ",".join(CSV_COLUMNS).encode() + b"\n")
    # per column: its sorted distinct keys, its keys and the cell of each distinct key
    fields = {"player_id": (np.arange(len(table.player_ids)), table.player_codes,
                            _byte_table(_quoted(p) + "," for p in table.player_ids))}
    for name in FIELD_COLUMNS:
        column = table.columns[name]
        keys = column.view(np.int64) if column.dtype == np.float64 else column
        # return_counts keeps np.unique on its sorting path: a bare call imports numpy.ma
        distinct, _ = np.unique(keys, return_counts=True)
        end = "\n" if name == FIELD_COLUMNS[-1] else ","
        cells = (repr(v) + end for v in distinct.view(column.dtype).tolist())
        fields[name] = distinct, keys, _byte_table(cells)
    clocks = _byte_table(f"{m // 60:02d}:{m % 60:02d}," for m in range(1440))
    layout = [("clock", clocks.dtype)] + [(name, cells.dtype) for name, (_, _, cells) in fields.items()]
    for start in range(0, len(table), _EMIT_ROWS):
        rows = slice(start, start + _EMIT_ROWS)
        day, clock = np.divmod(table.timestamps[rows].view(np.int64), 1440)
        days, _ = np.unique(day, return_counts=True)
        # 10 bytes for years 0-9999 and more beyond, so the day field is sized per block
        dates = _byte_table(d + "T" for d in np.datetime_as_string(days.astype("M8[D]")).tolist())
        block = np.empty(len(day), [("day", dates.dtype), *layout])
        block["day"] = dates[days.searchsorted(day)]
        block["clock"] = clocks[clock]
        for name, (distinct, keys, cells) in fields.items():
            block[name] = cells[distinct.searchsorted(keys[rows])]
        data = block.tobytes().translate(None, b"\xff")  # the pad bytes dropped
        sink.write(data.decode() if text else data)


def require_nonempty(table: DatasetTable) -> None:
    if not len(table):
        raise EmptyTable("dataset contains no records")
