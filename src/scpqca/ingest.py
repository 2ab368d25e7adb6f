"""CSV ingestion, threshold calibration, and duplicate handling.

Raw columns become dense integer levels in one of two ways:

* passthrough: cells are already non-negative integer levels, or arbitrary
  labels that get mapped to 0..k-1 in sorted label order (mapping recorded
  in the schema);
* cutpoints: a strictly increasing list of thresholds maps a numeric column
  to levels 0..k, where a value lands in the level counting how many
  cutpoints it reaches (boundary values go to the higher level).

Only explicit threshold calibration is offered; picking the thresholds is
the analyst's job, not this module's. `numeric_label_columns` lists the
label columns whose labels are all numbers, so that a front end can warn
that such a column probably wanted cutpoints.

The file is read once, as one string, and split one of two ways. Text with
no double quote, no CR and no NUL, and no line longer than
`csv.field_size_limit()`, is split on "\n" and then "," by str methods:
`csv.reader` reads exactly those cells from such text, and an empty line is
a row of no cells there too. The blank-row skip and the width check work on
whole lines, and each column is a slice (`cells[j::n]`) of one flat list of
cells, so no list per row and no transpose is built. Any other text (a
quoted cell, CRLF line ends, a NUL, which the csv module rejects on Python
3.10 and keeps in the cell on 3.11 and later, or a line whose cell may pass
the field limit) is read by `csv.reader` over the same string, as before.
Both ways give the same rows, row numbers and errors. On the `tall`
benchmark file (20 000 rows x 12 columns, 580 KB; CPython 3.11.7, 2-vCPU
Xeon VM, best of 21 in each of three interleaved runs) `load_csv` took
28-43 ms against 44-58 ms when every row went through `csv.reader` and
`zip(*rows)`, and its tracemalloc peak fell from 9.68 to 6.37 MB. Most of
what is left is the calibration below.

Columns are dictionary-encoded: each distinct raw cell of a column is parsed
and checked once, into a dict from cell to level. Only when a distinct cell
is bad is the column scanned, to name the first row holding it in the error.
The cells then become levels in one of two ways (`_decode`). When every
distinct cell is one ASCII character and every level is below 256, as in
most QCA data (every bundled file and benchmark input), the joined cells
are encoded and mapped by one `bytes.translate` through a 256-byte table
built from the dict, which gives the `bytes` column `model` stores without
a copy. Any other column (a cell such as "01", "low" or "é", an empty cell,
a cutpoint level past 255) maps each cell by one lookup. The test is on the
distinct cells themselves: the joined length alone would pass ["", "ab"].
On the `tall` file the 11 calibrated columns took 6.4 ms against 12.2 ms
cell by cell, and `load_csv` 31 ms against 42 ms (medians of 21
alternating in-process calls, CPython 3.11.7, 2-vCPU Xeon VM).
"""

from __future__ import annotations

import csv
import math
import io
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Mapping, Sequence

from .model import CaseTable, Factor, FactorSchema, InputError, _echo


@dataclass(frozen=True)
class Cutpoints:
    """Strictly increasing thresholds mapping a numeric column to levels 0..k."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise InputError("cutpoint calibration needs at least one threshold")
        if not all(math.isfinite(p) for p in pts):
            raise InputError(f"cutpoints must be finite, got {pts}")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise InputError(f"cutpoints must be strictly increasing, got {pts}")
        object.__setattr__(self, "points", pts)

    @property
    def levels(self) -> int:
        return len(self.points) + 1

    def level(self, x: float) -> int:
        return bisect_right(self.points, x)


@dataclass(frozen=True)
class CalibrationSpec:
    """Per-column calibration; columns not listed are passthrough."""

    columns: Mapping[str, Cutpoints] = field(default_factory=dict)

    def for_column(self, name: str) -> Cutpoints | None:
        return self.columns.get(name)


def _parse_int(cell: str) -> int | None:
    cell = cell.strip()
    digits = cell[1:] if cell[:1] in ("+", "-") else cell
    if digits.isascii() and digits.isdigit():
        try:
            return int(cell)
        except ValueError:  # past the interpreter's limit on digits per integer
            raise InputError(
                f"integer cell {cell[:12]}... has {len(digits)} digits, too many for a level"
            ) from None
    return None


def _first_row_with(cells: Sequence[str], bad: set[str]) -> tuple[int, str]:
    """Row number (the header is row 1) and cell of the first cell in `bad`."""
    return next((rowno, cell) for rowno, cell in enumerate(cells, start=2) if cell in bad)


def _decode(cells: Sequence[str], code: dict[str, int]) -> bytes | list[int]:
    """The level of every cell, `code` giving the level of each distinct cell.

    When every distinct cell is one ASCII character and every level is below
    256, the column is one `bytes.translate` of the joined cells; else each
    cell is looked up.
    """
    if all(len(cell) == 1 and cell.isascii() for cell in code) and max(code.values(), default=0) < 256:
        table = bytearray(256)
        for cell, level in code.items():
            table[ord(cell)] = level
        return "".join(cells).encode().translate(table)
    return list(map(code.__getitem__, cells))


def _calibrate_column(name: str, cells: Sequence[str], calib: Cutpoints | None) -> tuple[bytes | list[int], Factor]:
    """Returns the dense level per cell plus the resulting Factor metadata."""
    distinct = set(cells)
    if isinstance(calib, Cutpoints):
        code: dict[str, int] = {}
        bad: set[str] = set()
        for cell in distinct:
            try:
                x = float(cell)
            except ValueError:
                x = math.nan
            if math.isfinite(x):
                code[cell] = calib.level(x)
            else:
                bad.add(cell)
        if bad:
            rowno, cell = _first_row_with(cells, bad)
            raise InputError(
                f"row {rowno}, column {name!r}: non-numeric value {cell!r} under cutpoint calibration"
            )
        return _decode(cells, code), Factor(name, calib.levels, cutpoints=calib.points)

    ints = {cell: _parse_int(cell) for cell in distinct}
    if None not in ints.values():
        bad = {c for c, v in ints.items() if v < 0}
        if bad:
            rowno, cell = _first_row_with(cells, bad)
            raise InputError(f"row {rowno}, column {name!r}: negative level {ints[cell]}")
        levels = max(2, max(ints.values(), default=1) + 1)
        return _decode(cells, ints), Factor(name, levels)

    # Label column: enumerate distinct labels in sorted order.
    labels = sorted({c.strip() for c in distinct})
    mapping = {label: i for i, label in enumerate(labels)}
    code = {cell: mapping[cell.strip()] for cell in distinct}
    level_count = max(2, len(labels))
    padded = tuple(labels) + tuple(f"<unused-{i}>" for i in range(len(labels), level_count))
    return _decode(cells, code), Factor(name, level_count, labels=padded)


# A row is blank when it holds nothing but commas and whitespace: the comma
# and every character for which `str.isspace` is true, so that stripping a
# line of these is the csv path's `"".join(row).strip()`, without a copy.
_BLANK = ",\t\n\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"


def _raise_ragged(path: Path, widths: Sequence[int], header_len: int) -> None:
    for rowno, width in enumerate(widths, start=2):
        if width != header_len:
            raise InputError(f"{path}: row {rowno} has {width} cells, header has {header_len}")


def _split_plain(path: Path, lines: list[str]) -> tuple[list[str], list[str], int]:
    """Header, data cells in row order and row count of lines with no quote, CR or NUL.

    Such lines read exactly as `csv.reader` reads them: cells are the pieces
    between commas, and an empty line is a row of no cells.
    """
    header = lines[0].split(",") if lines[0] else []
    body = lines[1:]
    rows = list(compress(body, map(str.strip, body, repeat(_BLANK))))
    if set(map(str.count, rows, repeat(","))) - {len(header) - 1}:
        _raise_ragged(path, [row.count(",") + 1 for row in rows], len(header))
    return header, ",".join(rows).split(",") if rows else [], len(rows)


def _split_csv(path: Path, text: str) -> tuple[list[str], list[str], int]:
    """Header, data cells in row order and row count of any text, read by `csv.reader`."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
        data = [row for row in reader if "".join(row).strip()]
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    widths = list(map(len, data))
    if set(widths) - {len(header)}:
        _raise_ragged(path, widths, len(header))
    return header, list(chain.from_iterable(data)), len(data)


def _read_cells(path: Path) -> tuple[list[str], list[str], int]:
    """The file's text, split by `_split_plain` where it may be, else by `_split_csv`."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise InputError(f"{path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})") from None
    if not text:
        raise InputError(f"{path}: empty file, header row required")
    if '"' not in text and "\r" not in text and "\0" not in text:
        lines = text.split("\n")
        if max(map(len, lines)) <= csv.field_size_limit():
            return _split_plain(path, lines)
    return _split_csv(path, text)


def _read_columns(path: Path) -> tuple[list[str], list[list[str]], int]:
    """Header cells, one column of raw cells per header cell, and the row count.

    The flat cell list lives only here, so it is freed before calibration.
    """
    header, cells, n_rows = _read_cells(path)
    return header, [cells[j :: len(header)] for j in range(len(header))], n_rows


def load_csv(
    path: str | Path,
    outcome_column: str,
    calibration: CalibrationSpec | None = None,
    id_column: str | None = None,
) -> CaseTable:
    """Load a UTF-8, comma-separated, header-first CSV into a CaseTable.

    A leading byte-order mark is skipped, so it never sticks to the first
    header name.

    Case ids come from `id_column` when given, else from a column literally
    named "id" (any capitalization), else from the first column when its
    cells are not all integers (e.g. country codes), else from row numbers.
    Every remaining column except the outcome becomes a factor, in header
    order. Duplicate ids are rejected.
    """
    calibration = calibration or CalibrationSpec()
    path = Path(path)
    header, raw_columns, n_rows = _read_columns(path)
    header = [h.strip() for h in header]

    if outcome_column not in header:
        raise InputError(f"{path}: outcome column {_echo(outcome_column)!r} not found (columns: {', '.join(header)})")

    columns = dict(zip(header, raw_columns))

    if id_column is not None:
        if id_column not in header:
            raise InputError(f"{path}: id column {_echo(id_column)!r} not found")
        id_name: str | None = id_column
    else:
        lowered = [h.lower() for h in header]
        if "id" in lowered:
            id_name = header[lowered.index("id")]
        elif header and header[0] != outcome_column and None in map(_parse_int, set(columns[header[0]])):
            id_name = header[0]
        else:
            id_name = None

    ids = list(map(str.strip, columns[id_name])) if id_name is not None else list(map(str, range(n_rows)))
    if len(set(ids)) != len(ids):
        seen: dict[str, int] = {}
        for rowno, cid in enumerate(ids, start=2):
            if cid in seen:
                raise InputError(f"{path}: duplicate case id {cid!r} at rows {seen[cid]} and {rowno}")
            seen[cid] = rowno

    factor_names = [h for h in header if h != outcome_column and h != id_name]
    factors: list[Factor] = []
    value_cols: list[bytes | list[int]] = []
    for name in factor_names:
        vals, fac = _calibrate_column(name, columns[name], calibration.for_column(name))
        factors.append(fac)
        value_cols.append(vals)
    outcome_vals, outcome_factor = _calibrate_column(
        outcome_column, columns[outcome_column], calibration.for_column(outcome_column)
    )

    schema = FactorSchema(factors=tuple(factors), outcome=outcome_factor)
    table = CaseTable.from_columns(schema, ids, value_cols, outcome_vals)
    # The ids were checked above, so the table's first `require_unique_ids`
    # builds no second set of them.
    object.__setattr__(table, "_unique_ids", True)
    return table


def _is_finite_number(text: str) -> bool:
    try:
        return math.isfinite(float(text))
    except ValueError:
        return False


def numeric_label_columns(table: CaseTable) -> list[Factor]:
    """Label columns (factors or outcome) whose labels all read as finite numbers.

    Such a column was numeric but not integer levels, so passthrough made
    each distinct value a level of its own; it most likely wanted cutpoints.
    Integer and cutpoint columns carry no labels and are never listed.
    """
    return [
        f
        for f in (*table.schema.factors, table.schema.outcome)
        if f.labels is not None and all(map(_is_finite_number, f.labels))
    ]


def _write_rows(table: CaseTable, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["id", *(f.name for f in table.schema.factors), table.schema.outcome_name])
    columns = map(table.values.column, range(len(table.schema.factors)))
    writer.writerows(zip(table.ids, *columns, table.outcomes))


def write_csv(table: CaseTable, path: str | Path) -> None:
    """Write the dense-level representation: id, factors..., outcome."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        _write_rows(table, fh)


def to_csv_string(table: CaseTable) -> str:
    buf = io.StringIO()
    _write_rows(table, buf)
    return buf.getvalue()


def schema_metadata(table: CaseTable) -> dict:
    """JSON-able record of the schema, including label/cutpoint provenance."""

    def factor_entry(f: Factor) -> dict:
        entry: dict = {"name": f.name, "levels": f.levels}
        if f.labels is not None:
            entry["labels"] = {label: i for i, label in enumerate(f.labels)}
        if f.cutpoints is not None:
            entry["cutpoints"] = list(f.cutpoints)
        return entry

    return {
        "factors": [factor_entry(f) for f in table.schema.factors],
        "outcome": factor_entry(table.schema.outcome),
        "cases": len(table),
    }


def write_schema_json(table: CaseTable, path: str | Path) -> None:
    Path(path).write_text(json.dumps(schema_metadata(table), indent=2) + "\n", encoding="utf-8")


def deduplicate(table: CaseTable) -> tuple[CaseTable, int]:
    """Collapse cases identical in all factor values AND outcome.

    The first occurrence (and its id) is kept. Cases that agree on factors
    but differ in outcome are contradictory rather than duplicate and are
    retained; the consistency thresholds downstream are the mechanism for
    dealing with them.
    """
    first: dict[tuple, int] = {}
    for i, key in enumerate(zip(table.values, table.outcomes)):
        first.setdefault(key, i)
    removed = len(table) - len(first)
    if removed == 0:
        return table, 0
    return table.take(list(first.values())), removed
