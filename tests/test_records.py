"""Schema, ingestion, serialization, and the points formula."""

import csv
import datetime as dt
import io
import os
import signal
import subprocess
import sys
import tempfile
import threading
import warnings
from contextlib import contextmanager, nullcontext
from functools import cache
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    BASE_DATE,
    OccupantRecord,
    make_record,
    make_table,
    row_csv,
    table_records,
    table_to_csv,
    tables_equal,
    traced_peak,
)
from test_acceptance import _daily_minutes

from energyseg import records
from energyseg.errors import (
    DataSizeError,
    EmptyTable,
    MissingColumn,
    NonPositiveBaseline,
    NumericError,
    ParseError,
    SchemaError,
)
from energyseg.records import (
    BINARY_COLUMNS,
    COLUMN_DTYPES,
    CSV_COLUMNS,
    DROP_REASONS,
    DatasetTable,
    INT_COLUMNS,
    STATUS_COLUMNS,
    compute_points,
    emit_csv,
    ingest_csv,
    require_nonempty,
)
from energyseg.synthetic import GeneratorConfig, generate_synthetic


class TestComputePoints:
    def test_direct_evaluation(self):
        assert compute_points(100, 80, 1) == 0.2

    def test_usage_equals_baseline_is_zero(self):
        assert compute_points(100, 100, 5) == 0.0

    def test_overuse_goes_negative(self):
        assert compute_points(100, 150, 1) == -0.5

    def test_matches_formula_exactly_on_grid(self):
        for b in (1.0, 3.5, 100.0, 1440.0):
            for frac in (0.0, 0.25, 0.75, 1.0, 1.5, 3.0):
                u = b * frac
                for s in (0.5, 1.0, 2.0, 5.0):
                    assert compute_points(b, u, s) == s * (b - u) / b

    def test_zero_usage_returns_booster_exactly(self):
        for b in (0.5, 7.0, 1440.0):
            for s in (0.25, 1.0, 3.0):
                assert compute_points(b, 0.0, s) == s

    def test_strictly_decreasing_in_usage(self):
        pts = [compute_points(120.0, u, 2.0) for u in np.linspace(0.0, 240.0, 25)]
        assert all(a > b for a, b in zip(pts, pts[1:]))

    def test_nonpositive_baseline(self):
        with pytest.raises(NonPositiveBaseline):
            compute_points(0, 10, 1)
        with pytest.raises(NonPositiveBaseline):
            compute_points(-5, 10, 1)
        assert issubclass(NonPositiveBaseline, NumericError)


def small_records():
    return [
        make_record("a", 0, rank=1),
        make_record("a", 1, rank=1, statuses=(1, 0, 0, 0), usage_today=(1.0, 0.0, 0.0, 0.0)),
        make_record("b", 0, rank=2, humidity=72.5),
    ]


def small_csv() -> str:
    return table_to_csv(make_table(small_records()))


def corrupt_cell(line: str, column: str, value: str) -> str:
    cells = line.split(",")
    cells[CSV_COLUMNS.index(column)] = value
    return ",".join(cells)


class TestIngest:
    def test_three_well_formed_rows(self):
        table = ingest_csv(io.StringIO(small_csv()))
        assert len(table) == 3
        assert table.dropped_rows == 0
        assert table_records(table) == table_records(make_table(small_records()))

    def test_duplicate_player_timestamp_keeps_first(self):
        lines = small_csv().strip().split("\n")
        dup = corrupt_cell(lines[1], "humidity", "99.0")
        lines.insert(2, dup)
        table = ingest_csv(io.StringIO("\n".join(lines) + "\n"))
        assert len(table) == 3
        assert table.dropped_rows == 1
        kept = [r for r in table_records(table) if r.player_id == "a"][0]
        assert kept.humidity == 50.0

    def test_missing_rank_column(self):
        idx = CSV_COLUMNS.index("rank")
        lines = [
            ",".join(cell for i, cell in enumerate(line.split(",")) if i != idx)
            for line in small_csv().strip().split("\n")
        ]
        with pytest.raises(MissingColumn):
            ingest_csv(io.StringIO("\n".join(lines) + "\n"))
        assert issubclass(MissingColumn, SchemaError)

    def test_malformed_rows_skipped_and_counted(self):
        records = small_records() + [make_record("b", 1, rank=2)]
        lines = table_to_csv(make_table(records)).strip().split("\n")
        bad = make_record("c", 0, rank=3)
        bad_line = table_to_csv(make_table([bad])).strip().split("\n")[1]
        lines.append(corrupt_cell(bad_line, "rank", "not-a-rank"))
        table = ingest_csv(io.StringIO("\n".join(lines) + "\n"))
        assert len(table) == 4
        assert table.dropped_rows == 1
        assert all(r.player_id != "c" for r in table_records(table))

    @pytest.mark.parametrize(
        "column,value",
        [
            ("usage_fan", "500.0"),  # exceeds minutes elapsed in the day
            ("rank", "0"),
            ("is_weekend", "2"),
            ("baseline_ac", "-1.0"),
            ("timestamp", "not-a-time"),
            ("humidity", "nan"),
            ("temperature", "inf"),
            ("timestamp", "2018-09-03T00:02+02:00"),  # offset among naive timestamps
        ],
    )
    def test_invalid_field_values_drop_the_row(self, column, value):
        lines = small_csv().strip().split("\n")
        bad_line = table_to_csv(make_table([make_record("c", 2, rank=3)])).strip().split("\n")[1]
        lines.append(corrupt_cell(bad_line, column, value))
        table = ingest_csv(io.StringIO("\n".join(lines) + "\n"))
        assert len(table) == 3
        assert table.dropped_rows == 1

    def test_drop_reasons_counted(self):
        good = small_records() + [make_record("d", m) for m in range(20)]
        lines = table_to_csv(make_table(good)).strip().split("\n")
        a0, a1 = lines[1], lines[2]
        bad = table_to_csv(make_table([make_record("c", 2, rank=3)])).strip().split("\n")[1]
        corrupt = {
            "unparsable": [("rank", "x")],
            "timestamp_offset": [("timestamp", "2018-09-03T00:02+00:00")],
            "non_finite": [("rank", "0"), ("humidity", "nan")],  # first rule wins
            "bad_binary": [("status_fan", "2")],
            "usage_out_of_range": [("usage_fan", "-1.0")],
            "non_positive_baseline": [("baseline_fan", "0.0")],
            "bad_rank": [("rank", "0")],
            "negative_portal_visits": [("portal_visits", "-1")],
        }
        for cells in corrupt.values():
            line = bad
            for column, value in cells:
                line = corrupt_cell(line, column, value)
            lines.append(line)
        lines.append(corrupt_cell(a0, "timestamp", "2018-09-03 00:00"))  # same instant
        lines.append(corrupt_cell(a1, "timestamp", "2018-09-03T00:01:30"))
        lines.append("2018-09-03T00:03,c")  # short row
        table = ingest_csv(io.StringIO("\n".join(lines) + "\n"))
        expected = dict.fromkeys(DROP_REASONS, 1)
        expected["unparsable"] = 2
        assert table.dropped_by_reason == expected
        assert table.dropped_rows == len(DROP_REASONS) + 1
        assert len(table) == len(good)
        assert table_records(table) == table_records(make_table(good))

    def test_parse_error_when_majority_malformed(self):
        lines = small_csv().strip().split("\n")[:2]  # header + one valid row
        bad = corrupt_cell(lines[1], "rank", "x")
        with pytest.raises(ParseError):
            ingest_csv(io.StringIO("\n".join([lines[0], lines[1], bad, bad]) + "\n"))

    def test_rows_sorted_on_ingest(self):
        lines = small_csv().strip().split("\n")
        shuffled = [lines[0]] + list(reversed(lines[1:]))
        table = ingest_csv(io.StringIO("\n".join(shuffled) + "\n"))
        keys = [(r.player_id, r.timestamp) for r in table_records(table)]
        assert keys == sorted(keys)

    def test_extra_columns_ignored(self):
        lines = small_csv().strip().split("\n")
        lines[0] += ",extra_col"
        lines[1:] = [line + ",junk" for line in lines[1:]]
        table = ingest_csv(io.StringIO("\n".join(lines) + "\n"))
        assert len(table) == 3

    def test_binary_stream(self):
        table = ingest_csv(io.BytesIO(small_csv().encode("utf-8")))
        assert len(table) == 3

    def test_path_input(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(small_csv())
        table = ingest_csv(str(path))
        assert len(table) == 3


class TestNarrowColumns:
    @pytest.mark.parametrize("per_cell", [False, True])
    def test_cells_beyond_int8_are_bad_binary(self, per_cell):
        # each is checked as int64 before it is stored as int8, where 256 would wrap to 0
        values = ("2", "-1", "127", "128", "255", "256", "300", str(2**62))
        cases = [(column, value) for column in ("status_fan", "is_evening") for value in values]
        good = [make_record("a", m) for m in range(len(cases) + 1)]
        lines = table_to_csv(make_table(good)).strip().split("\n")
        bad = table_to_csv(make_table([make_record("b", m) for m in range(len(cases))]))
        for line, (column, value) in zip(bad.strip().split("\n")[1:], cases):
            lines.append(corrupt_cell(line, column, value))
        # the per-cell path alone: numpy's parser fails every block
        numpy_fails = patch("numpy.loadtxt", side_effect=ValueError) if per_cell else nullcontext()
        with numpy_fails, patch("energyseg.records.csv.reader", wraps=csv.reader) as reader:
            table = ingest_csv(io.StringIO("\n".join(lines) + "\n"))
        assert (reader.call_count > 1) == per_cell  # the header alone on the numpy path
        expected = dict.fromkeys(DROP_REASONS, 0)
        expected["bad_binary"] = len(cases)
        assert table.dropped_by_reason == expected
        assert table_records(table) == table_records(make_table(good))

    def test_column_dtypes(self):
        table = generate_synthetic(GeneratorConfig(players_per_class=(1, 1, 1), n_days=1), seed=0)
        for made in (table, ingest_csv(io.StringIO(table_to_csv(table)))):
            assert {name: column.dtype for name, column in made.columns.items()} == COLUMN_DTYPES
            assert all(made.columns[name].dtype == np.int8 for name in BINARY_COLUMNS)
            assert made.columns["rank"].dtype == made.columns["portal_visits"].dtype == np.int64


class TestIngestMemory:
    def test_peak_beyond_the_table(self, tmp_path):
        path = tmp_path / "synth.csv"
        emit_csv(generate_synthetic(GeneratorConfig(players_per_class=(2, 2, 2), n_days=4), seed=42),
                 str(path))
        table, peak = traced_peak(ingest_csv, str(path))
        held = table.timestamps.nbytes + table.player_codes.nbytes + sum(
            column.nbytes for column in table.columns.values()
        )
        # blocks, per-row temporaries and spare capacity, beside the table itself
        assert peak - held <= 0.4 * held, (peak, held)


class TestEmitMemory:
    def test_peak_beyond_the_table(self, tmp_path):
        table = generate_synthetic(GeneratorConfig(players_per_class=(2, 2, 2), n_days=4), seed=42)
        held = table.timestamps.nbytes + table.player_codes.nbytes + sum(
            column.nbytes for column in table.columns.values()
        )
        _, peak = traced_peak(emit_csv, table, tmp_path / "synth.csv")
        # the byte tables and one block's record buffer; a str per distinct
        # cell and per-row joins took 0.50 of the table
        assert peak <= 0.35 * held, (peak, held)


class TestRunMemory:
    @pytest.mark.parametrize("deleted", [0.0, 0.05])
    def test_minute_runs_peak_is_that_of_day_runs(self, synth_table, deleted):
        keep = np.random.default_rng(0).random(len(synth_table)) >= deleted
        table = DatasetTable(
            player_ids=synth_table.player_ids,
            player_codes=synth_table.player_codes[keep],
            timestamps=synth_table.timestamps[keep],
            columns={},
        )
        peaks = [traced_peak(runs)[1] for runs in (table.day_runs, table.minute_runs)]
        # minute_runs calls day_runs first; its own cuts must not raise the peak
        assert peaks[1] <= peaks[0], peaks


class TestEmit:
    def test_round_trip_equality(self):
        records = [
            make_record("a", 0, points_total=-1.25, baselines=(97.5, 100.0, 410.0, 344.25)),
            make_record("a", 1, rank=2, humidity=3.0),
            make_record("b", 0, rank=3, statuses=(1, 1, 0, 1), usage_today=(1.0, 1.0, 0.0, 1.0)),
        ]
        table = make_table(records)
        again = ingest_csv(io.StringIO(table_to_csv(table)))
        assert tables_equal(again, table)

    def test_emit_deterministic(self):
        table = make_table(small_records())
        assert table_to_csv(table) == table_to_csv(table)

    def test_header_matches_csv_columns(self):
        header = small_csv().split("\n", 1)[0]
        assert header == ",".join(CSV_COLUMNS)

    def test_emit_to_path(self, tmp_path):
        path = tmp_path / "out.csv"
        table = make_table(small_records())
        with open(path, "w", encoding="utf-8", newline="") as sink:
            emit_csv(table, sink)
        assert tables_equal(ingest_csv(str(path)), table)

    def test_path_sink_writes_the_same_bytes(self, tmp_path):
        table = make_table(small_records())
        emit_csv(table, tmp_path / "out.csv")
        assert (tmp_path / "out.csv").read_text(encoding="utf-8") == table_to_csv(table)

    def test_path_text_and_binary_sinks_get_the_same_bytes(self, tmp_path):
        table = make_table([make_record(p, m) for p in ("é,1", "b") for m in range(3)])
        emit_csv(table, tmp_path / "path.csv")
        with open(tmp_path / "text.csv", "w", encoding="utf-8", newline="") as text_file:
            emit_csv(table, text_file)
        with open(tmp_path / "binary.csv", "wb") as binary_file:
            emit_csv(table, binary_file)
        text_stream, binary_stream = io.StringIO(), io.BytesIO()
        emit_csv(table, text_stream)
        emit_csv(table, binary_stream)
        expected = row_csv(table).encode("utf-8")
        assert binary_stream.getvalue() == text_stream.getvalue().encode("utf-8") == expected
        for name in ("path.csv", "text.csv", "binary.csv"):
            assert (tmp_path / name).read_bytes() == expected, name
        assert tables_equal(ingest_csv(io.BytesIO(expected)), table)


class TestQuotedIds:
    # each id with the field emit_csv writes for it
    FIELDS = {
        "a\nb": '"a\nb"',
        "c\rd": '"c\rd"',
        "e\r\nf": '"e\r\nf"',
        '"': '""""',
        "g,h": '"g,h"',
        "": "",
        " i ": " i ",
    }

    def test_ids_round_trip_across_blocks(self, tmp_path):
        table = make_table([make_record(p, m) for p in self.FIELDS for m in range(2)])
        text = table_to_csv(table)
        for p, field in self.FIELDS.items():
            assert f"2018-09-03T00:00,{field},0," in text
        path = tmp_path / "ids.csv"
        path.write_bytes(text.encode("utf-8"))
        with patch("energyseg.records._BLOCK_ROWS", 3):  # quoted line breaks cross block ends
            for source in (io.StringIO(text), str(path), io.BytesIO(text.encode("utf-8"))):
                again = ingest_csv(source)
                assert again.dropped_rows == 0
                assert tables_equal(again, table)
                assert table_to_csv(again) == text

    def test_one_player_with_a_carriage_return(self):
        table = make_table([make_record("c\rd", 0)])
        assert tables_equal(ingest_csv(io.StringIO(table_to_csv(table))), table)

    def test_stray_quote_does_not_move_a_block_end(self):
        # csv reads a quote inside an unquoted field as a literal; counting
        # quotes would end the first block inside the quoted "a\nb"
        header, quoted_start, quoted_end, plain, _ = table_to_csv(
            make_table([make_record("a\nb", 0), make_record("p", 1)])
        ).split("\n")
        stray = plain.replace(",p,", ',x"y,')
        text = "\n".join([header, stray, quoted_start, quoted_end]) + "\n"
        with patch("energyseg.records._BLOCK_ROWS", 2):
            table = ingest_csv(io.StringIO(text))
        assert list(table.player_ids) == ["a\nb", 'x"y']
        assert table.dropped_rows == 0


class TestStatusAttributes:
    def test_status_names_read_statuses(self):
        record = make_record(statuses=(1, 0, 1, 0))
        assert [getattr(record, name) for name in STATUS_COLUMNS] == [1, 0, 1, 0]
        with pytest.raises(AttributeError):
            record.status_heater

    def test_daily_minutes_counts_weekday_status_minutes(self):
        # criterion 11's per-(player, day) minutes, against a count over the columns
        table = generate_synthetic(GeneratorConfig(players_per_class=(1, 1, 1), n_days=7), seed=4)
        players = np.array(table.row_players())
        days = table.timestamps.astype("datetime64[D]")
        weekday = table.columns["is_weekend"] == 0
        keys = sorted(set(zip(players[weekday].tolist(), days[weekday].tolist())))
        assert len(keys) == 3 * 5
        for column in STATUS_COLUMNS:
            expected = [
                int(table.columns[column][(players == p) & (days == d) & weekday].sum())
                for p, d in keys
            ]
            assert _daily_minutes(table, column) == expected


class TestRequireNonempty:
    def test_empty_raises(self):
        with pytest.raises(EmptyTable):
            require_nonempty(make_table([]))
        assert issubclass(EmptyTable, DataSizeError)

    def test_nonempty_passes(self):
        require_nonempty(make_table(small_records()))


finite = st.floats(allow_nan=False, allow_infinity=False)
binary = st.integers(0, 1)


@st.composite
def occupant_records(draw, id_alphabet='ab,"\u00e9 '):
    """A valid record: every field inside the range ingest accepts."""
    minute = draw(st.integers(0, 3 * 1440 - 1))
    elapsed = minute % 1440 + 1
    usage = st.floats(0.0, float(elapsed))
    baseline = st.floats(0.0, 1e300, exclude_min=True)
    return OccupantRecord(
        timestamp=dt.datetime.combine(BASE_DATE, dt.time()) + dt.timedelta(minutes=minute),
        player_id=draw(st.text(alphabet=id_alphabet, max_size=3)),
        statuses=tuple(draw(st.tuples(binary, binary, binary, binary))),
        usage_today=tuple(draw(st.tuples(usage, usage, usage, usage))),
        baselines=tuple(draw(st.tuples(baseline, baseline, baseline, baseline))),
        points_total=draw(finite),
        rank=draw(st.integers(1, 2**62)),
        portal_visits=draw(st.integers(0, 2**62)),
        humidity=draw(finite),
        temperature=draw(finite),
        solar_radiation=draw(finite),
        **{name: draw(binary) for name in CSV_COLUMNS[-7:]},
    )


def tables(id_alphabet='ab,"\u00e9 '):
    return st.lists(
        occupant_records(id_alphabet),
        min_size=1,
        max_size=30,
        unique_by=lambda r: (r.player_id, r.timestamp),
    ).map(make_table)


class TestRoundTripProperties:
    @settings(deadline=None, derandomize=True)
    @given(tables('ab,"\u00e9 \r\n'))
    def test_emit_ingest_emit_byte_identical(self, table):
        text = table_to_csv(table)
        again = ingest_csv(io.StringIO(text))
        assert again.dropped_rows == 0
        assert tables_equal(again, table)
        assert table_to_csv(again) == text

    @settings(deadline=None, derandomize=True)
    @given(tables(), st.randoms(use_true_random=False))
    def test_row_order_of_the_file_does_not_matter(self, table, rnd):
        header, *rows = table_to_csv(table).strip("\n").split("\n")
        rnd.shuffle(rows)
        shuffled = ingest_csv(io.StringIO("\n".join([header] + rows) + "\n"))
        assert tables_equal(shuffled, ingest_csv(io.StringIO(table_to_csv(table))))
        assert table_to_csv(shuffled) == table_to_csv(table)


# floats whose text is easy to get wrong: signed zero and NaN, infinities,
# subnormals, the extremes and values that need all 17 digits
AWKWARD_FLOATS = [0.0, -0.0, float("nan"), -float("nan"), float("inf"), -float("inf"), 5e-324,
                  -2.225073858507201e-308, 1.7976931348623157e308, 0.30000000000000004,
                  1 / 3, 123456789.12345679, 1e16, 1e-05, 2.0**-1074 * 3]
# minutes on either side of years 1970 and 9999, of year 0, and of datetime64[m]'s range
# (its lowest int64 is NaT, which no table holds)
AWKWARD_MINUTES = np.array(
    ["1969-12-31T23:59", "1970-01-01T00:00", "9999-12-31T23:59", "10000-01-01T00:00",
     "0000-01-01T00:00", "-0001-12-31T23:59", "-10000-06-15T12:30"], "datetime64[m]",
).view(np.int64).tolist() + [np.iinfo(np.int64).min + 1, np.iinfo(np.int64).max]


@st.composite
def any_cell_tables(draw):
    """A table of any cells its dtypes hold, rows in no order, at block-edge sizes.

    Each column draws a few values and the rows pick among them, so blocks
    share some cells and not others.
    """
    block = records._EMIT_ROWS
    n = draw(st.sampled_from([0, 1, 2, block - 1, block, block + 1, 2 * block - 1, 2 * block + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def pool(values: st.SearchStrategy, dtype) -> np.ndarray:
        cells = np.array(draw(st.lists(values, min_size=1, max_size=5)), dtype)
        return cells[rng.integers(0, len(cells), n)]

    columns = {}
    for name, dtype in COLUMN_DTYPES.items():
        if dtype is np.float64:
            values = st.floats() | st.sampled_from(AWKWARD_FLOATS)
        else:
            low, high = np.iinfo(dtype).min, np.iinfo(dtype).max
            values = st.integers(low, high) | st.sampled_from([low, high, -1, 0, 1])
        columns[name] = pool(values, dtype)
    ids = sorted(draw(st.sets(st.text('a,"\r\n\x00 é€\U0001f600', max_size=3),
                              min_size=1, max_size=4)))
    return DatasetTable(
        player_ids=tuple(ids),
        player_codes=rng.integers(0, len(ids), n).astype(np.intp),
        timestamps=pool(st.integers(-(2**62), 2**62) | st.sampled_from(AWKWARD_MINUTES),
                        np.int64).view("datetime64[m]"),
        columns=columns,
    )


class TestEmitMatchesRowReference:
    @settings(deadline=None, derandomize=True)
    @given(any_cell_tables())
    def test_same_bytes(self, table):
        sink = io.BytesIO()
        emit_csv(table, sink)
        assert sink.getvalue() == row_csv(table).encode("utf-8")

    def test_a_block_of_one_day_and_of_many(self):
        # every row in one day, and every row on a day of its own, about 11
        # years apart, so one block holds years below and above 10000
        for step in (1, 1440 * 4000):
            table = make_table([make_record("p", m) for m in range(3 * records._EMIT_ROWS)])
            table.timestamps = (np.arange(len(table)) * step).astype("datetime64[m]")
            assert table_to_csv(table) == row_csv(table)


def _field(cell: str) -> str:
    return '"' + cell.replace('"', '""') + '"' if any(c in cell for c in ',"\r\n') else cell


INT_CASES = ("1.0", "1e0", "1_0", "+1", " 1 ", str(2**63), "\u0661", "1\x1c", "256", "-1")
FLOAT_CASES = ("nan", "inf", "Infinity", "1_0", " 2.5 ", "\u0661", "1\x1c")
EDITS = ("none",) * 4 + (
    "timestamp", "repeat", "player_id", "int", "float", "quoted", "short", "extra", "space", "blank"
)


@st.composite
def edited_csv(draw):
    """A valid table's CSV with some rows edited into cases where numpy's parser
    and the per-cell path might disagree."""
    header, *rows = csv.reader(
        io.StringIO(table_to_csv(draw(tables('ab,"\u00e9\r\n'))), newline="")
    )
    lines = [",".join(header)]
    for row in rows:
        cells = [_field(cell) for cell in row]
        stamp = row[0]
        edit = draw(st.sampled_from(EDITS))
        if edit == "timestamp":
            cells[0] = draw(st.sampled_from([
                stamp + ":30", stamp + ":00.5", stamp + "Z", stamp + "+01:00",
                " " + stamp, "NaT", "today", "2018",
            ]))
        elif edit == "repeat":  # the same player and minute, seconds later
            lines.append(",".join([stamp + draw(st.sampled_from([":30", ":00.5"])), *cells[1:]]))
        elif edit == "player_id":
            cells[1] = 'x"y'  # a quote inside an unquoted field
        elif edit in ("int", "float"):
            column = draw(st.sampled_from(
                [i for i, n in enumerate(CSV_COLUMNS[2:], 2) if (n in INT_COLUMNS) == (edit == "int")]
            ))
            cells[column] = draw(st.sampled_from(INT_CASES if edit == "int" else FLOAT_CASES))
        elif edit == "quoted":
            cells[2:] = [f'"{cell}"' for cell in cells[2:]]
        elif edit == "short":
            cells = cells[: draw(st.integers(1, len(cells) - 1))]
        elif edit == "extra":
            cells.append("extra")
        elif edit == "space":
            lines.append("   ")
        elif edit == "blank":
            lines.extend([""] * draw(st.integers(1, 8)))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def _ingest_outcome(text: str, binary: bool):
    try:
        return ingest_csv(io.BytesIO(text.encode("utf-8")) if binary else io.StringIO(text))
    except Exception as exc:
        return type(exc), str(exc)


class TestFastPathAgreesWithPerCellPath:
    @settings(deadline=None, derandomize=True)
    @given(edited_csv(), st.integers(1, 50), st.booleans())
    def test_same_table_and_drop_reasons(self, text, block_rows, binary):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with patch("energyseg.records._BLOCK_ROWS", block_rows):
                fast = _ingest_outcome(text, binary)
        # the per-cell path alone: csv.reader over the whole file in one block
        with patch("numpy.loadtxt", side_effect=ValueError), \
                patch("energyseg.records._BLOCK_ROWS", 10**9):
            slow = _ingest_outcome(text, binary)
        # the same table, or the same error
        assert tables_equal(fast, slow) if isinstance(fast, DatasetTable) else fast == slow
        assert caught == []

    def test_non_ascii_ids_take_the_fast_path(self, tmp_path):
        table = generate_synthetic(GeneratorConfig(players_per_class=(1, 1, 1), n_days=1), seed=0)
        text = table_to_csv(table)
        for name in table.player_ids:
            text = text.replace(name, name.replace("o", "\u00f6").replace("i", "\u00ef"))
        path = tmp_path / "ids.csv"
        path.write_bytes(text.encode("utf-8"))
        with patch("energyseg.records.csv.reader", wraps=csv.reader) as reader, \
                patch("energyseg.records._BLOCK_ROWS", 500):
            again = ingest_csv(str(path))
        assert reader.call_count == 1  # the header alone: no block was read cell by cell
        assert all(not name.isascii() for name in again.player_ids)
        assert again.dropped_rows == 0 and table_to_csv(again) == text

    def test_blank_lines_and_no_rows_record_no_warning(self):
        header, row, _ = small_csv().split("\n", 2)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with patch("energyseg.records._BLOCK_ROWS", 2):
                assert len(ingest_csv(io.StringIO(f"{header}\n{row}\n\n\n\n{row}\n"))) == 1
                assert len(ingest_csv(io.StringIO(f"{header}\n"))) == 0
        assert caught == []

    @settings(deadline=None, derandomize=True)
    @given(tables('ab,"\r\n'), st.integers(1, 50))
    def test_clean_file_records_no_warning(self, table, block_rows):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with patch("energyseg.records._BLOCK_ROWS", block_rows):
                assert tables_equal(ingest_csv(io.StringIO(table_to_csv(table))), table)
        assert caught == []


@contextmanager
def _spied_ingest(block_rows=512):
    """Set ingest's block size and record its forks, the children's rows and their exits."""
    spy = SimpleNamespace(forks=0, received=[], reaped=[])
    fork, receive, reap = records.fork_child, records._receive, records.reap_child

    def fork_child(work):
        spy.forks += 1
        return fork(work)

    def receive_rows(*args):
        spy.received.append(receive(*args))
        return spy.received[-1]

    def reap_child(pid):
        spy.reaped.append(reap(pid))
        return spy.reaped[-1]

    with patch.object(records, "_BLOCK_ROWS", block_rows), \
            patch.object(records, "fork_child", fork_child), \
            patch.object(records, "_receive", receive_rows), \
            patch.object(records, "reap_child", reap_child):
        yield spy


def _outcome(path, block_rows=512, fork=True):
    """ingest_csv(path)'s table or its error's type and text; inline when not ``fork``."""
    with patch.object(records, "_BLOCK_ROWS", block_rows), \
            nullcontext() if fork else patch.object(records, "fork_child", lambda work: None):
        try:
            return ingest_csv(path)
        except Exception as exc:
            return type(exc), str(exc)


def _split(spy) -> bool:
    """Whether the spied ingest took a child's rows: one fork, some rows, a clean exit."""
    return spy.forks == 1 and spy.received[0] is not None and spy.received[0][0] > 0 \
        and spy.reaped == [True]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _csv(records_, line_end="\n", blank_every=0) -> str:
    """The CSV of ``records_``, lines ending in ``line_end``, and a blank line after every
    ``blank_every`` rows."""
    header, *rows = csv.reader(io.StringIO(table_to_csv(make_table(records_)), newline=""))
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator=line_end)
    writer.writerow(header)
    for i, row in enumerate(rows, 1):
        writer.writerow(row)
        if blank_every and i % blank_every == 0:
            buf.write(line_end)
    return buf.getvalue()


@cache
def _synth_csv() -> bytes:
    """4,320 rows: nine blocks of 512 lines."""
    table = generate_synthetic(GeneratorConfig(players_per_class=(1, 1, 1), n_days=1), seed=0)
    return table_to_csv(table).encode("utf-8")


def _write(tmp_path, data, name="split.csv") -> str:
    path = tmp_path / name
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    return str(path)


class TestTwoProcessIngest:
    """A path to a regular file whose first block ends before its middle byte is parsed
    by two processes."""

    @pytest.mark.parametrize("case", [
        "quoted_break", "non_ascii", "blank_lines", "crlf", "child_only_ids",
    ])
    def test_split_equals_inline(self, tmp_path, case):
        # every record of a quoted id takes two lines, so blocks of five end inside one
        ids = {"quoted_break": ["a\nb", "c\r\nd", "e"], "non_ascii": ["\u00e9", "\u00fc\nx", "o"]}
        players = ids.get(case, ["a", "b", "c"])
        rows = [make_record(p, m, rank=i + 1) for i, p in enumerate(players) for m in range(40)]
        if case == "child_only_ids":  # a player whose every row is in the second half
            rows += [make_record("z", m, rank=9) for m in range(20)]
        text = _csv(rows, "\r\n" if case == "crlf" else "\n", 3 if case == "blank_lines" else 0)
        path = _write(tmp_path, text)
        with _spied_ingest(block_rows=5) as spy:
            split = ingest_csv(path)
        assert _split(spy)
        assert tables_equal(split, _outcome(path, block_rows=5, fork=False))
        assert split.dropped_rows == 0 and len(split) == len(rows)
        if case == "child_only_ids":
            assert "z" in split.player_ids and "z" in spy.received[0][1]

    def test_repeats_of_the_parents_rows_in_the_childs_half(self, tmp_path):
        first = [make_record(p, m) for p in "ab" for m in range(40)]
        first += [make_record("c", m, rank=0) for m in range(10)]  # bad_rank
        header, *lines = _csv(first).splitlines()
        again = [line for line in lines if ",a," in line]  # duplicate_key
        again += [line.replace(",b,", ":30,b,", 1) for line in lines if ",b," in line]  # truncated
        again += _csv([make_record("c", m) for m in range(10)]).splitlines()[1:]  # now valid
        path = _write(tmp_path, "\n".join([header, *lines, *again]) + "\n")
        with _spied_ingest(block_rows=8) as spy:
            split = ingest_csv(path)
        assert _split(spy)
        assert tables_equal(split, _outcome(path, block_rows=8, fork=False))
        dropped = split.dropped_by_reason
        assert (dropped["bad_rank"], dropped["duplicate_key"], dropped["timestamp_truncated"]) \
            == (10, 40, 40)
        assert len(split) == 90

    @settings(deadline=None, derandomize=True, max_examples=60)
    @given(edited_csv(), st.integers(1, 6), st.sampled_from(["\n", "\r\n"]))
    def test_split_agrees_with_inline_on_edited_files(self, text, block_rows, line_end):
        # a quoted line break turns into \r\n with the line ends: the same bytes either way
        with _temporary_path(text.replace("\n", line_end)) as path:
            with _spied_ingest(block_rows) as spy:
                split = _outcome(path, block_rows)
            inline = _outcome(path, block_rows, fork=False)
            assert tables_equal(split, inline) if isinstance(split, DatasetTable) else split == inline
        assert spy.reaped in ([], [True])  # a child that forked sent its rows
        _no_child_left()

    def test_killed_child_gives_the_inline_table(self, tmp_path):
        path = _write(tmp_path, _synth_csv())
        fork = records.fork_child

        def fork_and_kill(work):
            pid = fork(work)
            os.kill(pid, signal.SIGKILL)
            return pid

        with _spied_ingest() as spy, patch.object(records, "fork_child", fork_and_kill):
            killed = ingest_csv(path)
        assert spy.reaped == [False]
        _no_child_left()
        assert tables_equal(killed, _outcome(path, fork=False))

    @pytest.mark.parametrize("fork", ["missing", "blocking"])
    def test_without_fork_gives_the_same_table(self, tmp_path, monkeypatch, fork):
        path = _write(tmp_path, _synth_csv())
        with _spied_ingest() as spy:
            split = ingest_csv(path)
        assert _split(spy)
        if fork == "missing":
            monkeypatch.delattr(os, "fork")
        else:
            monkeypatch.setattr(os, "fork", _fork_blocks)
        assert tables_equal(ingest_csv(path), split)

    def test_bad_utf8_in_the_childs_half_raises_as_inline(self, tmp_path):
        data = _synth_csv()
        at = len(data) * 9 // 10
        path = _write(tmp_path, data[:at] + b"\xff" + data[at + 1:])
        inline = _outcome(path, fork=False)
        assert inline[0] is UnicodeDecodeError
        with _spied_ingest() as spy:
            assert _outcome(path) == inline
        assert spy.forks == 1 and spy.reaped == [False]
        _no_child_left()

    def test_error_in_the_parents_half_leaves_no_child(self, tmp_path):
        data = _synth_csv()
        at = len(data) // 4  # past the first block, which is read before the fork
        path = _write(tmp_path, data[:at] + b"\xff" + data[at + 1:])
        with _spied_ingest() as spy, pytest.raises(UnicodeDecodeError):
            ingest_csv(path)
        assert spy.forks == 1
        _no_child_left()

    def test_path_object_splits_as_the_string_does(self, tmp_path):
        path = _write(tmp_path, _synth_csv())
        with _spied_ingest() as spy:
            split = ingest_csv(Path(path))
        assert _split(spy)
        assert tables_equal(split, ingest_csv(path))

    def test_one_block_file_stream_and_string_do_not_fork(self, tmp_path):
        with _spied_ingest() as spy:
            assert len(ingest_csv(_write(tmp_path, small_csv()))) == 3
            assert len(ingest_csv(io.StringIO(_synth_csv().decode("utf-8")))) == 4320
            assert len(ingest_csv(io.BytesIO(_synth_csv()))) == 4320
        assert spy.forks == 0

    def test_fifo_does_not_fork(self, tmp_path):
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)

        def feed():
            with open(fifo, "wb") as sink:
                sink.write(_synth_csv())

        writer = threading.Thread(target=feed)
        writer.start()
        try:
            with _spied_ingest() as spy:
                assert len(ingest_csv(str(fifo))) == 4320
        finally:
            writer.join(timeout=60)
        assert not writer.is_alive() and spy.forks == 0

    def test_dev_stdin_does_not_fork(self):
        script = (
            "import sys\n"
            "from energyseg import records\n"
            "def fork_child(work):\n"
            "    sys.exit('forked')\n"
            "records.fork_child = fork_child\n"
            "print(len(records.ingest_csv('/dev/stdin')))\n"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
        out = subprocess.run([sys.executable, "-c", script], input=_synth_csv(), env=env,
                             capture_output=True, check=True, timeout=120)
        assert out.stdout.strip() == b"4320"


def _fork_blocks():
    raise BlockingIOError(11, "Resource temporarily unavailable")


@contextmanager
def _temporary_path(text):
    """A file holding ``text``; hypothesis tests take no function-scoped tmp_path."""
    with tempfile.TemporaryDirectory() as directory:
        yield _write(Path(directory), text)
