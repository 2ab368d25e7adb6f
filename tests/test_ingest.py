import csv
import io
import json
import math
import random
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpqca import (
    CalibrationSpec,
    CaseTable,
    Cutpoints,
    Factor,
    FactorSchema,
    InputError,
    deduplicate,
    ingest,
    load_csv,
    to_csv_string,
    write_schema_json,
)


def write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


class TestLoadCsv:
    def test_passthrough_binary(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,A,B,O\nr1,1,0,1\nr2,0,1,0\nr3,1,1,1\n")
        t = load_csv(p, outcome_column="O")
        assert len(t) == 3
        assert [f.levels for f in t.schema.factors] == [2, 2]
        assert t.schema.outcome_levels == 2
        assert t.ids == ("r1", "r2", "r3")

    def test_single_cutpoint_boundary_goes_up(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,X,O\na,0.4,0\nb,0.5,0\nc,0.6,1\n")
        spec = CalibrationSpec({"X": Cutpoints((0.5,))})
        t = load_csv(p, outcome_column="O", calibration=spec)
        assert [int(v) for v in t.values.column(0)] == [0, 1, 1]
        assert t.schema.factors[0].cutpoints == (0.5,)

    def test_two_cutpoints_three_levels(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,X,O\na,0.2,0\nb,0.5,0\nc,0.9,1\n")
        spec = CalibrationSpec({"X": Cutpoints((0.33, 0.66))})
        t = load_csv(p, outcome_column="O", calibration=spec)
        assert [int(v) for v in t.values.column(0)] == [0, 1, 2]
        assert t.schema.factors[0].levels == 3

    def test_cutpoints_must_increase(self):
        with pytest.raises(InputError):
            Cutpoints((0.5, 0.5))

    @pytest.mark.parametrize("points, shown", [((1.0,) * 2500, "(1.0, 1.0, 1..."), ((2.0, 1.0), "(2.0, 1.0)")])
    def test_a_long_list_of_cutpoints_is_echoed_cut(self, points, shown):
        with pytest.raises(InputError) as err:
            Cutpoints(points)
        assert str(err.value) == f"cutpoints must be strictly increasing, got {shown}"

    def test_cutpoints_must_be_finite(self):
        with pytest.raises(InputError):
            Cutpoints((float("inf"),))

    def test_nan_cell_rejected_under_cutpoints(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,X,O\na,nan,1\nb,0.2,0\n")
        with pytest.raises(InputError, match="non-numeric"):
            load_csv(p, outcome_column="O", calibration=CalibrationSpec({"X": Cutpoints((0.5,))}))

    def test_label_column_is_enumerated_in_sorted_order(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,K,O\na,low,0\nb,high,1\nc,mid,1\n")
        t = load_csv(p, outcome_column="O")
        # sorted labels: high < low < mid
        assert t.schema.factors[0].labels == ("high", "low", "mid")
        assert [int(v) for v in t.values.column(0)] == [1, 0, 2]

    def test_outcome_label_mapping(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,A,O\na,1,yes\nb,0,no\n")
        t = load_csv(p, outcome_column="O")
        assert t.schema.outcome.labels == ("no", "yes")
        assert [int(v) for v in t.outcomes] == [1, 0]

    def test_non_numeric_under_cutpoints(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,X,O\na,oops,1\n")
        with pytest.raises(InputError, match="row 2.*non-numeric"):
            load_csv(p, outcome_column="O", calibration=CalibrationSpec({"X": Cutpoints((0.5,))}))

    def test_missing_outcome_column(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,A\na,1\n")
        with pytest.raises(InputError, match="outcome column"):
            load_csv(p, outcome_column="O")

    def test_duplicate_ids_rejected(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,A,O\nx,1,1\nx,0,0\n")
        with pytest.raises(InputError, match="duplicate case id"):
            load_csv(p, outcome_column="O")

    @pytest.mark.parametrize(
        "header, name",
        [
            ("id,A,O,O", "O"),
            ("id,A,B,id,O", "id"),
            ("id,A,A,O", "A"),
            ("id,A, A,O", "A"),
            ('"id",B,A,B,A,O', "B"),
        ],
        ids=["outcome", "id", "factor", "stripped", "quoted-first-repeat"],
    )
    def test_a_column_named_twice_is_refused(self, tmp_path, header, name):
        # Refused before any row is read, so the bad level and the short row
        # below are never reached, on the plain split and the csv module alike.
        width = header.count(",") + 1
        p = write(tmp_path, "t.csv", f"{header}\nx{',-1' * (width - 1)}\ny\n")
        with pytest.raises(InputError) as err:
            load_csv(p, outcome_column="O")
        assert str(err.value) == f"{p}: column {name!r} appears twice in the header"

    def test_checked_ids_are_handed_to_the_table(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,A,O\nx,1,1\ny,0,0\n")
        assert load_csv(p, outcome_column="O").__dict__["_unique_ids"] is True

    def test_first_column_of_codes_becomes_ids(self, tmp_path):
        p = write(tmp_path, "t.csv", "country,A,O\nFR,1,1\nDE,0,0\n")
        t = load_csv(p, outcome_column="O")
        assert t.ids == ("FR", "DE")
        assert [f.name for f in t.schema.factors] == ["A"]

    def test_a_calibrated_first_column_is_a_factor(self, tmp_path):
        # Its cells are not integers, but a calibrated column is never taken as ids.
        p = write(tmp_path, "t.csv", "score,B,O\n0.5,1,1\n1.7,0,1\n2.5,1,0\n0.2,0,0\n")
        t = load_csv(p, outcome_column="O", calibration=CalibrationSpec({"score": Cutpoints((1.0,))}))
        assert t.ids == ("0", "1", "2", "3")
        assert [f.name for f in t.schema.factors] == ["score", "B"]
        assert t.schema.factors[0].cutpoints == (1.0,)
        assert [row[0] for row in t.values] == [0, 1, 1, 0]

    @pytest.mark.parametrize(
        "header, id_column, name",
        [("id,A,O", None, "id"), ("ID,A,O", None, "ID"), ("tag,A,O", "tag", "tag"), ("id,A,O", "A", "A")],
        ids=["id-header", "ID-header", "id-column", "id-column-over-header"],
    )
    def test_a_calibration_of_the_id_column_is_refused(self, tmp_path, header, id_column, name):
        p = write(tmp_path, "t.csv", header + "\n1,1,1\n2,0,0\n")
        with pytest.raises(InputError) as err:
            load_csv(p, "O", CalibrationSpec({name: Cutpoints((1.5,))}), id_column=id_column)
        assert str(err.value) == f"{p}: calibration column {name!r} is the id column"

    def test_row_numbers_when_no_id_column(self, tmp_path):
        p = write(tmp_path, "t.csv", "A,B,O\n1,0,1\n0,1,0\n")
        t = load_csv(p, outcome_column="O")
        assert t.ids == ("0", "1")
        assert [f.name for f in t.schema.factors] == ["A", "B"]

    def test_explicit_id_column(self, tmp_path):
        p = write(tmp_path, "t.csv", "tag,A,O\nu,1,1\nv,0,0\n")
        t = load_csv(p, outcome_column="O", id_column="tag")
        assert t.ids == ("u", "v")

    def test_negative_level_rejected(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,A,O\na,-1,0\n")
        with pytest.raises(InputError, match="negative level"):
            load_csv(p, outcome_column="O")

    def test_empty_file(self, tmp_path):
        p = write(tmp_path, "t.csv", "")
        with pytest.raises(InputError, match="header"):
            load_csv(p, outcome_column="O")

    def test_first_column_past_the_digit_limit_raises_in_any_order(self, tmp_path):
        # A first column of one such cell and labels used to be ids or an
        # error by the order of its distinct cells, that is by the hash seed.
        for labels in (["x"], ["x", "y", "z"], ["b", "a"]):
            rows = ["1" * 5000, *labels]
            p = write(tmp_path, "t.csv", "A,B,O\n" + "".join(f"{c},1,1\n" for c in rows))
            with pytest.raises(InputError, match=r"^integer cell 111111111111\.\.\. has 5000 digits"):
                load_csv(p, outcome_column="O")

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,A,O\na,1\n")
        with pytest.raises(InputError, match="row 2"):
            load_csv(p, outcome_column="O")

    @pytest.mark.parametrize("name, shown", [("Nope", "Nope"), ("N" * 5000, "NNNNNNNNNNNN...")], ids=["short", "long"])
    def test_calibration_of_a_column_not_in_the_header(self, data_dir, name, shown):
        with pytest.raises(InputError) as err:
            load_csv(data_dir / "m1.csv", "O", CalibrationSpec({name: Cutpoints((0.5,))}))
        assert str(err.value) == f"{data_dir / 'm1.csv'}: calibration column {shown!r} not found"

    @pytest.mark.parametrize(
        "calibration, name, shown, kind",
        [([0.5], "A", "A", "list"), ((0.5,), "N" * 5000, "NNNNNNNNNNNN...", "tuple"),
         (None, "A", "A", "NoneType"), (0.5, "N" * 41, "NNNNNNNNNNNN...", "float")],
    )
    def test_a_calibration_that_is_not_cutpoints_is_refused(self, data_dir, calibration, name, shown, kind):
        # Column A of m1.csv would otherwise be read as labels, the calibration ignored.
        with pytest.raises(InputError) as err:
            load_csv(data_dir / "m1.csv", "O", CalibrationSpec({name: calibration}))
        assert str(err.value) == f"calibration of column {shown!r} is a {kind}, not Cutpoints"

    def test_an_absent_id_column_is_named_before_an_absent_calibration_column(self, data_dir):
        with pytest.raises(InputError) as err:
            load_csv(data_dir / "m1.csv", "O", CalibrationSpec({"Nope": Cutpoints((0.5,))}), id_column="Z")
        assert str(err.value) == f"{data_dir / 'm1.csv'}: id column 'Z' not found"


class TestRoundTrip:
    def test_load_write_load_is_idempotent(self, tmp_path, m1_table):
        p = tmp_path / "out.csv"
        p.write_text(to_csv_string(m1_table), encoding="utf-8", newline="")
        again = load_csv(p, outcome_column="O")
        assert again == m1_table
        p2 = tmp_path / "out2.csv"
        p2.write_text(to_csv_string(again), encoding="utf-8", newline="")
        assert p.read_text(encoding="utf-8") == p2.read_text(encoding="utf-8")

    def test_to_csv_string_matches_file(self, tmp_path, m1_table):
        p = tmp_path / "out.csv"
        p.write_text(to_csv_string(m1_table), encoding="utf-8", newline="")
        rows = ["id,A,B,O", "c1,1,1,1", "c2,1,0,1", "c3,1,1,1", "c4,0,1,0", "c5,0,0,0", "c6,1,0,0"]
        assert p.read_bytes() == "".join(f"{row}\n" for row in rows).encode()

    def test_schema_sidecar(self, tmp_path, m1_table):
        p = tmp_path / "schema.json"
        write_schema_json(m1_table, p)
        meta = json.loads(p.read_text(encoding="utf-8"))
        assert meta == {
            "factors": [{"name": "A", "levels": 2}, {"name": "B", "levels": 2}],
            "outcome": {"name": "O", "levels": 2},
            "cases": 6,
        }


class TestDeduplicate:
    def test_identical_rows_collapse(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,A,O\na,1,1\nb,1,1\nc,0,0\n")
        t = load_csv(p, outcome_column="O")
        out, removed = deduplicate(t)
        assert removed == 1
        assert out.ids == ("a", "c")

    def test_m1_collapses_its_one_repeated_configuration(self, m1_table):
        # c1 and c3 agree on every value and the outcome, so one goes
        out, removed = deduplicate(m1_table)
        assert removed == 1
        assert out.ids == ("c1", "c2", "c4", "c5", "c6")

    def test_contradictory_rows_are_retained(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,A,B,O\na,1,0,1\nb,1,0,0\n")
        t = load_csv(p, outcome_column="O")
        out, removed = deduplicate(t)
        assert removed == 0
        assert len(out) == 2

    def test_idempotent(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,A,O\na,1,1\nb,1,1\nc,1,1\nd,0,0\n")
        t = load_csv(p, outcome_column="O")
        once, r1 = deduplicate(t)
        twice, r2 = deduplicate(once)
        assert r1 == 2 and r2 == 0
        assert once == twice
        assert len(once) <= len(t)


class TestCalibrationMonotone:
    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=1, max_size=6, unique=True),
        st.lists(st.floats(-100, 100, allow_nan=False), min_size=2, max_size=10),
    )
    def test_levels_preserve_order(self, points, raws):
        cal = Cutpoints(tuple(sorted(points)))
        levels = [cal.level(x) for x in sorted(raws)]
        assert levels == sorted(levels)
        assert all(0 <= lv <= len(points) for lv in levels)


# ---------------------------------------------------------------------------
# Per-cell reference for load_csv: every cell parsed and checked on its own,
# row by row. The package decodes each distinct cell once instead and must
# give the same table or the same error for every input.


def _ref_parse_int(cell):
    cell = cell.strip()
    digits = cell[1:] if cell[:1] in ("+", "-") else cell
    if digits.isascii() and digits.isdigit():
        return int(cell)
    return None


def _ref_calibrate_column(name, cells, rows, calib):
    if isinstance(calib, Cutpoints):
        levels = []
        for cell, rowno in zip(cells, rows):
            try:
                x = float(cell)
            except ValueError:
                x = math.nan
            if not math.isfinite(x):
                raise InputError(
                    f"row {rowno}, column {name!r}: non-numeric value {cell!r} under cutpoint calibration"
                )
            levels.append(calib.level(x))
        return levels, Factor(name, calib.levels, cutpoints=calib.points)
    ints = [_ref_parse_int(c) for c in cells]
    if all(v is not None for v in ints):
        for v, rowno in zip(ints, rows):
            if v < 0:
                raise InputError(f"row {rowno}, column {name!r}: negative level {v}")
        return ints, Factor(name, max(2, max(ints, default=1) + 1))
    distinct = sorted({c.strip() for c in cells})
    mapping = {label: i for i, label in enumerate(distinct)}
    level_count = max(2, len(distinct))
    labels = tuple(distinct) + tuple(f"<unused-{i}>" for i in range(len(distinct), level_count))
    return [mapping[c.strip()] for c in cells], Factor(name, level_count, labels=labels)


def reference_load_csv(path, outcome_column, calibration=None, id_column=None):
    calibration = calibration or CalibrationSpec()
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, header row required") from None
        header = [h.strip() for h in header]
        for i, name in enumerate(header):
            if name in header[:i]:
                raise InputError(f"{path}: column {name!r} appears twice in the header")
        data = [[c for c in row] for row in reader if row and any(c.strip() for c in row)]
    for rowno, row in enumerate(data, start=2):
        if len(row) != len(header):
            raise InputError(f"{path}: row {rowno} has {len(row)} cells, header has {len(header)}")
    if outcome_column not in header:
        raise InputError(f"{path}: outcome column {outcome_column!r} not found (columns: {', '.join(header)})")
    columns = {name: [row[j] for row in data] for j, name in enumerate(header)}
    rownos = list(range(2, len(data) + 2))
    if id_column is not None:
        if id_column not in header:
            raise InputError(f"{path}: id column {id_column!r} not found")
        id_name = id_column
    else:
        lowered = [h.lower() for h in header]
        id_name = header[lowered.index("id")] if "id" in lowered else None
    if id_name in calibration.columns:
        raise InputError(f"{path}: calibration column {id_name!r} is the id column")
    if (
        id_name is None
        and header
        and header[0] != outcome_column
        and header[0] not in calibration.columns
        and any(_ref_parse_int(c) is None for c in columns[header[0]])
    ):
        id_name = header[0]
    ids = [c.strip() for c in columns[id_name]] if id_name is not None else [str(i) for i in range(len(data))]
    seen = {}
    for cid, rowno in zip(ids, rownos):
        if cid in seen:
            raise InputError(f"{path}: duplicate case id {cid!r} at rows {seen[cid]} and {rowno}")
        seen[cid] = rowno
    factors, value_cols = [], []
    for name in [h for h in header if h != outcome_column and h != id_name]:
        vals, fac = _ref_calibrate_column(name, columns[name], rownos, calibration.columns.get(name))
        factors.append(fac)
        value_cols.append(vals)
    outcome_vals, outcome_factor = _ref_calibrate_column(
        outcome_column, columns[outcome_column], rownos, calibration.columns.get(outcome_column)
    )
    schema = FactorSchema(factors=tuple(factors), outcome=outcome_factor)
    values = [list(row) for row in zip(*value_cols)] if value_cols else [[] for _ in data]
    return CaseTable(schema=schema, ids=tuple(ids), values=values, outcomes=outcome_vals)


def _outcome_of(fn, *args, **kwargs):
    try:
        return ("table", fn(*args, **kwargs))
    except Exception as exc:  # the error type and text must match too
        return (type(exc).__name__, str(exc))


NAMES = ["id", "ID", "A", "B", "C", "O", "code", " A "]
CELLS = (
    ["0", "1", "2", "3", "-1", "+1", " 2 ", "7", "40000", "²", "01", "-0"]
    + ["a", "b", "low", " high", "x y", "FR"]
    + ["0.5", "-2.5", "1e3", "nan", "inf", "1_0", " .25 "]
    + ["", "  "]
)
CALIBRATIONS = st.one_of(
    st.none(),
    st.builds(Cutpoints, st.sampled_from([(0.5,), (0.0, 2.5), (-1.0, 1.0, 3.0)])),
)


LINE_KINDS = st.sampled_from(["row"] * 8 + ["blank", "spaces", "ragged"])
# A small pool of cells per column keeps distinct cells few, as in real
# data; a column of row-numbered cells ("c3" or "3") can serve as ids.
COLUMN_CELLS = st.one_of(
    st.lists(st.sampled_from(CELLS), min_size=1, max_size=4).map(st.sampled_from),
    st.sampled_from(["c{}", "{}"]).map(st.just),
)


@st.composite
def csv_inputs(draw):
    header = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=5, unique=draw(st.booleans())))
    row_cells = st.tuples(*(draw(COLUMN_CELLS) for _ in header))
    lines = []
    for i in range(draw(st.integers(0, 8))):
        kind = draw(LINE_KINDS)
        if kind == "blank":
            lines.append("")
        elif kind == "spaces":
            lines.append(",".join(" " * draw(st.integers(0, 2)) for _ in header))
        else:
            row = [cell.format(i) for cell in draw(row_cells)]
            if kind == "ragged":
                row = row[: draw(st.integers(0, len(row) - 1))] or row + ["1"]
            lines.append(",".join(row))
    names = [h.strip() for h in header]
    outcome = draw(st.sampled_from([*names, "missing"]))
    id_column = draw(st.sampled_from([None, None, None, *names, " A ", "missing"]))
    calib = {name: c for name in names if (c := draw(CALIBRATIONS)) is not None}
    return "\n".join([",".join(header), *lines]) + "\n", outcome, id_column, CalibrationSpec(calib)


class TestAgainstPerCellReference:
    @settings(max_examples=120, deadline=None)
    @given(csv_inputs())
    def test_same_table_or_same_error(self, case):
        text, outcome, id_column, calibration = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            path.write_text(text, encoding="utf-8")
            expected = _outcome_of(reference_load_csv, path, outcome, calibration, id_column)
            got = _outcome_of(load_csv, path, outcome, calibration, id_column)
        assert got == expected

    def test_parse_int_runs_once_per_distinct_cell(self, tmp_path, monkeypatch):
        rows = [f"r{i},{i % 3},{'yes' if i % 2 else 'no'},{i % 4},{i % 5 % 2}" for i in range(2000)]
        p = write(tmp_path, "t.csv", "\n".join(["id,A,B,C,O", *rows]) + "\n")
        calls = []
        real = ingest._parse_int
        monkeypatch.setattr(ingest, "_parse_int", lambda cell: calls.append(cell) or real(cell))
        table = load_csv(p, outcome_column="O")
        assert len(table) == 2000
        # distinct cells: A 3, B 2, C 4, O 2; the id column is named, so never parsed
        assert len(calls) <= 3 + 2 + 4 + 2


# ---------------------------------------------------------------------------
# Two ways to decode a column: one `bytes.translate` when every distinct cell
# is one ASCII character (and every level is below 256), else one lookup per
# cell. Both must give the per-cell reference's levels.

DECODE_CELLS = st.one_of(st.characters(max_codepoint=127), st.sampled_from(["", "ab", "é", " ", "01", "\u3000"]))


def one_ascii_char_each(cells):
    return all(len(c) == 1 and c.isascii() for c in set(cells))


class TestDecode:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(DECODE_CELLS, max_size=30), st.data())
    def test_decode_equals_the_per_cell_map(self, cells, data):
        distinct = sorted(set(cells))
        levels = data.draw(st.lists(st.integers(0, 300), min_size=len(distinct), max_size=len(distinct)))
        code = dict(zip(distinct, levels))
        got = ingest._decode(cells, code)
        assert list(got) == [code[c] for c in cells]
        assert isinstance(got, bytes) == (one_ascii_char_each(cells) and max(levels, default=0) < 256)

    @pytest.mark.parametrize(
        "cells, fast",
        [(["a", " ", "b", "a"], True), (["", "ab"], False), (["é", "e"], False), (["", ""], False), ([], True)],
    )
    def test_which_cells_take_the_translate(self, cells, fast):
        code = {c: i for i, c in enumerate(sorted(set(cells)))}
        got = ingest._decode(cells, code)
        assert isinstance(got, bytes) == fast
        assert list(got) == [code[c] for c in cells]

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(
            [
                (["0", "1", "2", "3", "7"], None),
                (["0", "1", "01", "10", " 2"], None),
                (["a", "b", " ", "z", "B"], None),
                (["a", "b", "ab", "é", ""], None),
                (["0", "5", "9", "3"], Cutpoints((0.5, 4.0))),
                (["0", "5", "0.5", "-1", "12"], Cutpoints((0.5, 4.0))),
                (["0", "5", "9"], Cutpoints(tuple(range(-299, 1)))),
            ]
        ).flatmap(lambda pool: st.tuples(st.lists(st.sampled_from(pool[0]), min_size=1, max_size=20), st.just(pool[1])))
    )
    def test_columns_decode_as_the_per_cell_reference(self, case):
        cells, calib = case
        want_levels, want_factor = _ref_calibrate_column("X", cells, range(2, len(cells) + 2), calib)
        levels, factor = ingest._calibrate_column("X", cells, calib)
        assert (list(levels), factor) == (want_levels, want_factor)
        assert isinstance(levels, bytes) == (one_ascii_char_each(cells) and max(want_levels) < 256)

    def test_padded_cells_load_as_the_plain_file(self, tmp_path, data_dir):
        plain = (data_dir / "m1.csv").read_text(encoding="utf-8")
        header, *rows = plain.splitlines()
        padded = [",".join([r.split(",")[0], *("0" + c for c in r.split(",")[1:])]) for r in rows]
        p = write(tmp_path, "padded.csv", "\n".join([header, *padded]) + "\n")
        assert load_csv(p, outcome_column="O") == load_csv(data_dir / "m1.csv", outcome_column="O")


# ---------------------------------------------------------------------------
# Two ways to split the text: lines with no quote, CR or NUL are split on "\n"
# and ",", any other text is read by `csv.reader`. A quoted first header cell
# sends a file down the csv path with the same cells, so every quote-free
# file must load the same, or fail with the same error, both ways.

# Lines that hold nothing but commas and whitespace, of every kind.
BLANK_LINES = ["", " ", ",,,", " , ,", "\t,", "\u3000,\x85", ",\x0b\x0c", "\x1c\x1d\x1e\x1f", "\xa0,  "]


def quote_first_cell(text):
    header, sep, rest = text.partition("\n")
    first, comma, others = header.partition(",")
    return f'"{first}"{comma}{others}{sep}{rest}'


@st.composite
def quote_free_inputs(draw):
    text, outcome, id_column, calibration = draw(csv_inputs())
    header, *rows = text.split("\n")[:-1]
    for _ in range(draw(st.integers(0, 3))):
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(BLANK_LINES)))
    text = "\n".join([header, *rows]) + draw(st.sampled_from(["\n", ""]))
    bom = "\ufeff" if draw(st.booleans()) else ""
    return bom, text, outcome, id_column, calibration


def load_text(path, text, *args):
    path.write_text(text, encoding="utf-8")
    return _outcome_of(load_csv, path, *args)


class TestPlainSplitMatchesCsvReader:
    @settings(max_examples=200, deadline=None)
    @given(quote_free_inputs())
    def test_quoted_header_cell_changes_nothing(self, case):
        bom, text, outcome, id_column, calibration = case
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "in.csv"
            plain = load_text(path, bom + text, outcome, calibration, id_column)
            quoted = load_text(path, bom + quote_first_cell(text), outcome, calibration, id_column)
        assert plain == quoted

    def test_each_text_takes_its_path(self, tmp_path, monkeypatch):
        taken = []
        for name in ("_split_plain", "_split_csv"):
            real = getattr(ingest, name)
            monkeypatch.setattr(ingest, name, lambda *a, real=real, name=name: taken.append(name) or real(*a))
        text = "id,A,O\na,1,1\nb,0,0\n"
        tables = [load_text(tmp_path / "t.csv", t, "O") for t in (text, quote_first_cell(text))]
        assert taken == ["_split_plain", "_split_csv"]
        assert tables[0] == tables[1]

    def test_blank_set_is_comma_and_every_whitespace_character(self):
        whitespace = "".join(c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace())
        assert ingest._BLANK == "," + whitespace

    def test_crlf_file_equals_its_lf_twin(self, tmp_path):
        text = "id,A,B,O\na,1,0,1\n\n , \nb,0,1,0\nc,1,1,1"
        lf = load_text(tmp_path / "t.csv", text, "O")
        crlf = load_text(tmp_path / "t.csv", text.replace("\n", "\r\n"), "O")
        assert lf[0] == "table"
        assert crlf == lf

    def test_line_over_the_field_limit_reads_as_csv_does(self, tmp_path):
        limit = csv.field_size_limit(8)
        try:
            # Longer than the limit, but every cell fits: loads as usual.
            fits = load_text(tmp_path / "t.csv", "id,A,O\nabcdefgh,1,1\n", "O")
            too_long = load_text(tmp_path / "t.csv", "id,A,O\na,1,1\nabcdefghi,1,1\n", "O")
        finally:
            csv.field_size_limit(limit)
        assert fits[0] == "table" and fits[1].ids == ("abcdefgh",)
        assert too_long == ("InputError", f"{tmp_path / 't.csv'}: line 3: field larger than field limit (8)")

    def test_nul_reads_as_this_pythons_csv_reads_it(self, tmp_path):
        text = "id,A,O\na\x00b,1,1\nc,0,0\n"
        got = load_text(tmp_path / "t.csv", text, "O")
        try:
            list(csv.reader(io.StringIO(text, newline="")))
        except csv.Error as exc:  # Python 3.10 rejects NUL
            assert got == ("InputError", f"{tmp_path / 't.csv'}: line 2: {exc}")
        else:  # later versions keep it in the cell
            assert got[0] == "table" and got[1].ids == ("a\x00b", "c")

    @pytest.mark.parametrize(
        "data, message",
        [
            (b"id,A,O\na,1,\xff\n", "byte 0xff: invalid start byte"),
            (b"\xef\xbb\xbfid,A,O\na,1,\xe2\x28\n", "byte 0xe2: invalid continuation byte"),
            (b'"id",A,O\na,1,1\n\xc3', "byte 0xc3: unexpected end of data"),
            (b"\xef\xbbid,A,O\n", "byte 0xef: invalid continuation byte"),
        ],
    )
    def test_non_utf8_byte_keeps_its_error_text(self, tmp_path, data, message):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        with pytest.raises(InputError) as err:
            load_csv(path, outcome_column="O")
        assert str(err.value) == f"{path}: not UTF-8 text ({message})"

    @pytest.mark.parametrize("text", ["\n", "\n\na,b\n", ",\n"])
    def test_blank_header_line(self, tmp_path, text):
        plain = load_text(tmp_path / "t.csv", text, "O")
        crlf = load_text(tmp_path / "t.csv", text.replace("\n", "\r\n"), "O")
        assert plain[0] == "InputError"
        assert plain == crlf


# ---------------------------------------------------------------------------
# The plain split reads the text a line-aligned slice at a time. With tiny
# slices every row, error and row number must stay what one slice (and the
# csv path) gives.


@pytest.mark.parametrize("size", [1, 2, 7, 64])
@settings(max_examples=60, deadline=None)
@given(case=quote_free_inputs())
def test_any_slice_size_reads_as_csv_does(size, case):
    bom, text, outcome, id_column, calibration = case
    with mock.patch.object(ingest, "_SLICE", size), tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        sliced = load_text(path, bom + text, outcome, calibration, id_column)
        quoted = load_text(path, bom + quote_first_cell(text), outcome, calibration, id_column)
    assert sliced == quoted


# Rows 2 to 5, with a blank line and a line of commas and spaces between them.
EARLY_ROWS = "a,1,0,1\nb,0,1,0\n\nc,1,1,1\n , ,,\nd,0,0,0\n"


class TestErrorsInALaterSlice:
    @pytest.fixture(autouse=True)
    def tiny_slices(self, monkeypatch):
        monkeypatch.setattr(ingest, "_SLICE", 3)

    @pytest.mark.parametrize(
        "last, calibration, message",
        [
            ("e,1,1", None, "{path}: row 6 has 3 cells, header has 4"),
            ("e,1,1,0,1", None, "{path}: row 6 has 5 cells, header has 4"),
            ("e,-1,0,1", None, "row 6, column 'A': negative level -1"),
            ("e,x,0,1", Cutpoints((0.5,)), "row 6, column 'A': non-numeric value 'x' under cutpoint calibration"),
            ("e," + "1" * 5000 + ",0,1", None, "integer cell 111111111111... has 5000 digits, too many for a level"),
            ("b,1,0,1", None, "{path}: duplicate case id 'b' at rows 3 and 6"),
        ],
    )
    def test_same_error_as_one_slice_and_as_csv(self, tmp_path, monkeypatch, last, calibration, message):
        text = "id,A,B,O\n" + EARLY_ROWS + last + "\nf,1,1,1\n"
        path = tmp_path / "t.csv"
        spec = CalibrationSpec({"A": calibration} if calibration else {})
        sliced = load_text(path, text, "O", spec)
        quoted = load_text(path, quote_first_cell(text), "O", spec)
        monkeypatch.setattr(ingest, "_SLICE", 1 << 16)
        whole = load_text(path, text, "O", spec)
        assert sliced == quoted == whole == ("InputError", message.format(path=path))

    def test_a_long_line_after_a_ragged_row_reads_as_csv(self, tmp_path):
        limit = csv.field_size_limit(8)
        try:
            got = load_text(tmp_path / "t.csv", "id,A,O\na,1,1\nb,1\nc,0,0\nabcdefghi,1,1\n", "O")
        finally:
            csv.field_size_limit(limit)
        assert got == ("InputError", f"{tmp_path / 't.csv'}: line 5: field larger than field limit (8)")

    def test_a_ragged_row_is_raised_after_the_last_line(self, tmp_path):
        # The ragged row is the first; a blank line and a good row follow.
        got = load_text(tmp_path / "t.csv", "id,A,O\na,1,1\n\nb,1\nc,1,1,1\nd,0,0\n", "O")
        assert got == ("InputError", f"{tmp_path / 't.csv'}: row 3 has 2 cells, header has 3")

    def test_a_column_of_one_character_cells_turns_into_a_list(self, tmp_path):
        text = "id,A,B,O\n" + EARLY_ROWS + "e,10,b,1\nf,,0,0\n"
        sliced = load_text(tmp_path / "t.csv", text, "O")
        assert sliced == load_text(tmp_path / "t.csv", quote_first_cell(text), "O")
        table = sliced[1]
        assert [table.values.column(j).tolist() for j in range(2)] == [[2, 1, 2, 1, 3, 0], [0, 1, 1, 0, 2, 0]]


class TestLongDataValuesInErrors:
    # A value from the file longer than 40 characters is echoed as its first
    # 12 and "..."; one of 40 or fewer is echoed whole.
    @pytest.mark.parametrize("cell, shown", [("x" * 5000, "xxxxxxxxxxxx..."), ("x" * 40, "x" * 40)], ids=["long", "40"])
    def test_a_non_numeric_cell_under_cutpoints(self, tmp_path, cell, shown):
        spec = CalibrationSpec({"A": Cutpoints((0.5,))})
        got = load_text(tmp_path / "t.csv", f"id,A,O\na,1,1\nb,{cell},0\n", "O", spec)
        assert got == ("InputError", f"row 3, column 'A': non-numeric value {shown!r} under cutpoint calibration")

    @pytest.mark.parametrize(
        "cell, shown", [("-" + "9" * 4000, "-99999999999..."), ("-" + "9" * 39, "-" + "9" * 39)], ids=["long", "40"]
    )
    def test_a_negative_level(self, tmp_path, cell, shown):
        got = load_text(tmp_path / "t.csv", f"id,A,O\na,1,1\nb,{cell},0\n", "O")
        assert got == ("InputError", f"row 3, column 'A': negative level {shown}")

    @pytest.mark.parametrize("cid, shown", [("d" * 5000, "dddddddddddd..."), ("d" * 40, "d" * 40)], ids=["long", "40"])
    def test_a_duplicate_case_id(self, tmp_path, cid, shown):
        got = load_text(tmp_path / "t.csv", f"id,A,O\n{cid},1,1\nb,0,0\n{cid},1,0\n", "O")
        assert got == ("InputError", f"{tmp_path / 't.csv'}: duplicate case id {shown!r} at rows 2 and 4")


# A header name longer than 40 characters is echoed as its first 12 and "...";
# one of 40 or fewer is echoed whole.
LONG_NAMES = pytest.mark.parametrize(
    "name, shown", [("N" * 5000, "NNNNNNNNNNNN..."), ("N" * 41, "NNNNNNNNNNNN..."), ("N" * 40, "N" * 40)],
    ids=["5000", "41", "40"],
)


@LONG_NAMES
class TestLongHeaderNamesInErrors:
    def test_a_non_numeric_cell_under_cutpoints(self, tmp_path, name, shown):
        spec = CalibrationSpec({name: Cutpoints((0.5,))})
        got = load_text(tmp_path / "t.csv", f"id,{name},O\na,1,1\nb,x,0\n", "O", spec)
        assert got == ("InputError", f"row 3, column {shown!r}: non-numeric value 'x' under cutpoint calibration")

    def test_a_negative_level(self, tmp_path, name, shown):
        got = load_text(tmp_path / "t.csv", f"id,{name},O\na,1,1\nb,-1,0\n", "O")
        assert got == ("InputError", f"row 3, column {shown!r}: negative level -1")

    def test_an_integer_column_of_more_than_32768_levels(self, tmp_path, name, shown):
        got = load_text(tmp_path / "t.csv", f"id,{name},O\na,40000,1\nb,0,0\n", "O")
        assert got == ("InputError", f"factor {shown!r}: level count must be <= 32768, got 40001")

    def test_a_column_named_twice(self, tmp_path, name, shown):
        got = load_text(tmp_path / "t.csv", f"id,{name},O,{name}\na,1,1,0\n", "O")
        assert got == ("InputError", f"{tmp_path / 't.csv'}: column {shown!r} appears twice in the header")



# ---------------------------------------------------------------------------
# The splitter is picked once, from the whole text, before any cell is read:
# the plain split only when no line is longer than the field limit, else
# `csv.reader` alone, whatever the slice size.


@pytest.fixture
def taken(monkeypatch):
    """The names of the splitters that `load_csv` calls, in order."""
    calls = []
    for name in ("_split_plain", "_split_csv"):
        real = getattr(ingest, name)
        monkeypatch.setattr(ingest, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
    return calls


@pytest.fixture
def limit_10():
    limit = csv.field_size_limit(10)
    yield
    csv.field_size_limit(limit)


@pytest.mark.parametrize("size", [3, 1 << 16])
@pytest.mark.parametrize(
    "text, split",
    [
        ("a,O\nb,1\n", "_split_plain"),  # the whole text is shorter than the limit
        ("id,A,O\nabcdef,1,1\n", "_split_plain"),  # a line of exactly the limit
        ("id,A,O\nabcdef,1,1", "_split_plain"),  # ... with no newline after it
        ("identit,A,O\na,1,1\n", "_split_csv"),  # one character more, in the first line
        ("id,A,O\na,1,1\nabcdefg,1,1\n", "_split_csv"),  # ... in the last line
        ("id,A,O\na,1,1\nabcdefg,1,1", "_split_csv"),  # ... in the last line, with no newline
    ],
)
def test_the_route_is_chosen_once_from_the_longest_line(tmp_path, monkeypatch, taken, limit_10, size, text, split):
    monkeypatch.setattr(ingest, "_SLICE", size)
    got = load_text(tmp_path / "t.csv", text, "O")
    assert taken == [split]
    assert got[0] == "table"
    assert got == load_text(tmp_path / "t.csv", quote_first_cell(text), "O")


def test_a_long_line_before_a_ragged_row_reads_as_csv(tmp_path, taken, limit_10):
    got = load_text(tmp_path / "t.csv", "id,A,O\nabcdefghijk,1,1\nb,1\nc,0,0\n", "O")
    assert taken == ["_split_csv"]
    assert got == ("InputError", f"{tmp_path / 't.csv'}: line 2: field larger than field limit (10)")

def test_peak_memory_of_a_tall_one_character_file(tmp_path):
    # 20 000 rows x 12 columns of one-character cells: the text is read a
    # slice at a time, and such columns are kept as one str, so the peak
    # stays near the table itself.
    rng = random.Random(0)
    lines = ["ABCDEFGHIJKL"[i] for i in range(12)]
    rows = [",".join(str(rng.randrange(3)) for _ in range(12)) for _ in range(20_000)]
    path = tmp_path / "tall.csv"
    path.write_text(",".join(lines) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
    load_csv(path, outcome_column="L")  # imports and first-call caches stay out of the figures
    tracemalloc.start()
    try:
        table = load_csv(path, outcome_column="L")
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(table) == 20_000
    assert peak < 3.5 * retained
