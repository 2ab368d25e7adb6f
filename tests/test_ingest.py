import csv
import json
import math
import tempfile
from pathlib import Path

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
    Passthrough,
    deduplicate,
    ingest,
    load_csv,
    schema_metadata,
    to_csv_string,
    write_csv,
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

    def test_declared_levels_violation(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,A,O\na,3,1\nb,0,0\n")
        with pytest.raises(InputError, match="outside declared levels"):
            load_csv(p, outcome_column="O", calibration=CalibrationSpec({"A": Passthrough(levels=2)}))

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

    def test_first_column_of_codes_becomes_ids(self, tmp_path):
        p = write(tmp_path, "t.csv", "country,A,O\nFR,1,1\nDE,0,0\n")
        t = load_csv(p, outcome_column="O")
        assert t.ids == ("FR", "DE")
        assert [f.name for f in t.schema.factors] == ["A"]

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

    def test_ragged_row(self, tmp_path):
        p = write(tmp_path, "t.csv", "id,A,O\na,1\n")
        with pytest.raises(InputError, match="row 2"):
            load_csv(p, outcome_column="O")


class TestRoundTrip:
    def test_load_write_load_is_idempotent(self, tmp_path, m1_table):
        p = tmp_path / "out.csv"
        write_csv(m1_table, p)
        again = load_csv(p, outcome_column="O")
        assert again == m1_table
        p2 = tmp_path / "out2.csv"
        write_csv(again, p2)
        assert p.read_text() == p2.read_text()

    def test_to_csv_string_matches_file(self, tmp_path, m1_table):
        p = tmp_path / "out.csv"
        write_csv(m1_table, p)
        assert p.read_text() == to_csv_string(m1_table)

    def test_schema_sidecar(self, tmp_path, m1_table):
        p = tmp_path / "schema.json"
        write_schema_json(m1_table, p)
        meta = json.loads(p.read_text())
        assert meta == schema_metadata(m1_table)
        assert meta["cases"] == 6
        assert [f["name"] for f in meta["factors"]] == ["A", "B"]


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
            if calib.levels is not None and v >= calib.levels:
                raise InputError(
                    f"row {rowno}, column {name!r}: value {v} outside declared levels 0..{calib.levels - 1}"
                )
        levels = calib.levels if calib.levels is not None else max(2, max(ints, default=1) + 1)
        return ints, Factor(name, levels)
    distinct = sorted({c.strip() for c in cells})
    if calib.levels is not None and len(distinct) > calib.levels:
        raise InputError(f"column {name!r}: {len(distinct)} distinct labels exceed declared {calib.levels} levels")
    mapping = {label: i for i, label in enumerate(distinct)}
    level_count = calib.levels if calib.levels is not None else max(2, len(distinct))
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
        if "id" in lowered:
            id_name = header[lowered.index("id")]
        elif header and header[0] != outcome_column and any(_ref_parse_int(c) is None for c in columns[header[0]]):
            id_name = header[0]
        else:
            id_name = None
    ids = [c.strip() for c in columns[id_name]] if id_name is not None else [str(i) for i in range(len(data))]
    seen = {}
    for cid, rowno in zip(ids, rownos):
        if cid in seen:
            raise InputError(f"{path}: duplicate case id {cid!r} at rows {seen[cid]} and {rowno}")
        seen[cid] = rowno
    factors, value_cols = [], []
    for name in [h for h in header if h != outcome_column and h != id_name]:
        vals, fac = _ref_calibrate_column(name, columns[name], rownos, calibration.for_column(name))
        factors.append(fac)
        value_cols.append(vals)
    outcome_vals, outcome_factor = _ref_calibrate_column(
        outcome_column, columns[outcome_column], rownos, calibration.for_column(outcome_column)
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
    st.builds(Passthrough),
    st.builds(Passthrough, levels=st.integers(2, 5)),
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
