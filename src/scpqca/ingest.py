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

The file is read as one string, and one of two splitters is picked for
it before any cell is read (`_is_plain`). Text with no double quote, no CR,
no NUL and no line longer than `csv.field_size_limit()` is split by str
methods, a line-aligned slice of about 64 KB at a time (`_split_plain`):
`csv.reader` reads exactly those cells from such text, and an empty line is
a row of no cells there too. A slice's nonblank rows are joined, a "\\n"
cell ending each, and split once; the cell count and one strided count of
the "\\n" cells check every row's width. Any other text (a quoted cell,
CRLF line ends, a NUL, which the csv module rejects on Python 3.10 and
keeps in the cell on 3.11 and later, or a line whose cell may pass the
field limit) is read by `csv.reader` over the same string, laid out alike.
Both ways give the same rows, row numbers and errors; the plain split
carries the row number across slices.

Each column takes a stride of each slice's cells (`_gather`): as one str
while every cell is one ASCII character, else as a list, beside the set of
its distinct cells (but for the id column). A slice's cells are one
character each when their join is as long as they are and none is empty,
which the slice text tells at once (",," or a comma at an end); one
`bytes.translate` deleting the cells seen finds new ones. No list of all
lines or cells is built. On the `tall` benchmark file (20 000 rows x 12
columns, 580 KB; CPython 3.11.7, 2-vCPU Xeon VM, pinned to one CPU, best of
150 calls in 3 alternating runs) `load_csv` takes 10.3-10.4 ms against
12.3-12.9 ms with a `str.count` per line and a `set` per slice and column,
at a tracemalloc peak of 2.77 MB against 2.70.

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
cell by cell (medians of 21 alternating calls, CPython 3.11.7,
2-vCPU Xeon VM).

Going out, `to_csv_string` gives a table's dense levels as CSV text and
`write_schema_json` writes its schema, with the labels and cutpoints that
map levels back, as a JSON file.
"""

from __future__ import annotations

import csv
import math
import io
import json
from bisect import bisect_right
from itertools import chain, compress, repeat
from pathlib import Path
from typing import Iterator, Mapping, Sequence

from .model import CaseTable, Factor, FactorSchema, InputError, _echo, frozen


@frozen
class Cutpoints:
    """Strictly increasing thresholds mapping a numeric column to levels 0..k."""

    points: tuple[float, ...]

    def __post_init__(self) -> None:
        pts = tuple(float(p) for p in self.points)
        if not pts:
            raise InputError("cutpoint calibration needs at least one threshold")
        if not all(math.isfinite(p) for p in pts):
            raise InputError(f"cutpoints must be finite, got {_echo(str(pts))}")
        if any(b <= a for a, b in zip(pts, pts[1:])):
            raise InputError(f"cutpoints must be strictly increasing, got {_echo(str(pts))}")
        object.__setattr__(self, "points", pts)

    @property
    def levels(self) -> int:
        return len(self.points) + 1

    def level(self, x: float) -> int:
        return bisect_right(self.points, x)


@frozen
class CalibrationSpec:
    """Per-column calibration; columns not listed are passthrough."""

    columns: Mapping[str, Cutpoints] | None = None  # None: a new empty dict

    def __post_init__(self) -> None:
        if self.columns is None:
            object.__setattr__(self, "columns", {})
        for name, calib in self.columns.items():
            if not isinstance(calib, Cutpoints):
                raise InputError(f"calibration of column {_echo(name)!r} is a {_echo(type(calib).__name__)}, not Cutpoints")


def _parse_int(cell: str) -> int | None:
    cell = cell.strip()
    digits = cell[1:] if cell[:1] in ("+", "-") else cell
    if digits.isascii() and digits.isdigit():
        try:
            return int(cell)
        except ValueError:  # past the interpreter's limit on digits per integer
            raise InputError(
                f"integer cell {_echo(cell)} has {len(digits)} digits, too many for a level"
            ) from None
    return None


def _first_row_with(cells: Sequence[str], bad: set[str]) -> tuple[int, str]:
    """Row number (the header is row 1) and cell of the first cell in `bad`."""
    return next((rowno, cell) for rowno, cell in enumerate(cells, start=2) if cell in bad)


def _decode(cells: str | Sequence[str], code: dict[str, int]) -> bytes | list[int]:
    """The level of every cell, `code` giving the level of each distinct cell.

    `cells` is a list of cells or a str of one-character cells. When every
    distinct cell is one ASCII character and every level is below 256, the
    column is one `bytes.translate` of the joined cells; else each cell is
    looked up.
    """
    if all(len(cell) == 1 and cell.isascii() for cell in code) and max(code.values(), default=0) < 256:
        table = bytearray(256)
        for cell, level in code.items():
            table[ord(cell)] = level
        return (cells if isinstance(cells, str) else "".join(cells)).encode().translate(table)
    return list(map(code.__getitem__, cells))


def _calibrate_column(
    name: str, cells: str | Sequence[str], calib: Cutpoints | None, distinct: set[str] | None = None
) -> tuple[bytes | list[int], Factor]:
    """Returns the dense level per cell plus the resulting Factor metadata.

    `distinct` is the set of `cells`, when the caller has it.
    """
    distinct = set(cells) if distinct is None else distinct
    if calib is not None:
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
                f"row {rowno}, column {_echo(name)!r}: non-numeric value {_echo(cell)!r} under cutpoint calibration"
            )
        return _decode(cells, code), Factor(name, calib.levels, cutpoints=calib.points)

    ints = {cell: _parse_int(cell) for cell in distinct}
    if None not in ints.values():
        bad = {c for c, v in ints.items() if v < 0}
        if bad:
            rowno, cell = _first_row_with(cells, bad)
            raise InputError(f"row {rowno}, column {_echo(name)!r}: negative level {_echo(ints[cell])}")
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


# A line-aligned slice of the text is split at once on the plain route: about
# this many characters, cut at the next "\n".
_SLICE = 1 << 16


def _ragged(path: Path, widths: Sequence[int], header_len: int, first: int = 2) -> InputError:
    """The error for the first width unlike the header's, `first` being the row number of `widths[0]`."""
    rowno, width = next((rowno, w) for rowno, w in enumerate(widths, start=first) if w != header_len)
    return InputError(f"{path}: row {rowno} has {width} cells, header has {header_len}")


def _split_plain(path: Path, text: str) -> Iterator[list[str] | tuple[list[str], bool]]:
    """The header, then each slice's `(cells, holes)` (see `_gather`), of plain text (see `_is_plain`).

    Such text reads exactly as `csv.reader` reads it: cells are the pieces
    between commas, and an empty line is a row of no cells. The route is
    settled before the first slice, so a ragged row is raised at its slice.
    """
    header, rowno, start = None, 2, 0
    while start < len(text):
        stop = text.find("\n", start + _SLICE - 1)
        stop = len(text) if stop < 0 else stop
        lines = text[start:stop].split("\n")
        start = stop + 1
        if header is None:
            header = lines[0].split(",") if lines[0] else []
            yield header
            del lines[0]
        rows = list(compress(lines, map(str.strip, lines, repeat(_BLANK))))
        if not rows:
            continue
        # No plain cell holds "\n", so it marks each row's end as a cell of its own.
        joined = ",\n,".join(rows)
        cells = joined.split(",")
        cells.append("\n")
        step = len(header) + 1
        if len(cells) != step * len(rows) or cells[step - 1 :: step].count("\n") != len(rows):
            raise _ragged(path, [row.count(",") + 1 for row in rows], len(header), rowno)
        rowno += len(rows)
        yield cells, joined[0] == "," or joined[-1] == "," or ",," in joined


def _split_csv(path: Path, text: str) -> Iterator[list[str] | tuple[list[str], bool]]:
    """The header, then the data's `(cells, holes)` (see `_gather`), of any text, read by `csv.reader`."""
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
        yield header
        data = [row for row in reader if "".join(row).strip()]
    except csv.Error as exc:
        raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    widths = list(map(len, data))
    if set(widths) - {len(header)}:
        raise _ragged(path, widths, len(header))
    for row in data:
        row.append("\n")
    if data:
        yield list(chain.from_iterable(data)), True


def _gather(columns: list, distinct: list[set[str] | None], cells: list[str], holes: bool) -> None:
    """Add the data cells of some rows, in row order, to their columns.

    `cells` holds each row's cells and then one marker cell; `holes` is
    false only when no cell is empty. A column stays one str, a character
    per cell, while each of its cells is one ASCII character, and is a list
    of cells from its first other cell on. A column whose `distinct` is None
    (the id column) is a list and collects no distinct cells.
    """
    step = len(distinct) + 1
    for j, seen in enumerate(distinct):
        col = cells[j::step]
        if isinstance(columns[j], str):
            # No cell is empty and the join is as long as the cells: one character each.
            joined = "".join(col)
            if len(joined) == len(col) and joined.isascii() and not (holes and "" in col):
                columns[j] += joined
                new = joined.encode().translate(None, "".join(seen).encode())
                while new:  # one distinct cell not seen before at a time
                    seen.add(chr(new[0]))
                    new = new.translate(None, new[:1])
                continue
            columns[j] = list(columns[j])
        if seen is not None:
            seen.update(col)
        columns[j] += col


def _named_id(header: list[str], id_column: str | None) -> str | None:
    """The id column that `id_column` or a header cell "id" (any capitalization) names, else None."""
    if id_column is not None:
        return id_column
    lowered = [h.lower() for h in header]
    return header[lowered.index("id")] if "id" in lowered else None


def _is_plain(text: str) -> bool:
    """Whether the text holds no double quote, CR or NUL, and no line longer than `csv.field_size_limit()`.

    From a line's start, the last "\\n" within the limit ends lines that fit.
    """
    if '"' in text or "\r" in text or "\0" in text:
        return False
    limit, start = csv.field_size_limit(), 0
    while len(text) - start > limit:
        start = text.rfind("\n", start, start + limit + 1) + 1
        if not start:
            return False
    return True


def _read_columns(
    path: Path, outcome_column: str, id_column: str | None
) -> tuple[list[str], list[str | list[str]], list[set[str] | None], str | None, int]:
    """Stripped header names, each column's cells (see `_gather`) and distinct cells, the id column, the row count.

    A header that names a column twice is refused before any row is read,
    naming the first repeat in header order. The id column is the one
    `_named_id` names; unless it is the outcome, it collects no distinct
    cells: they would be as many as its rows.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise InputError(f"{path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})") from None
    if not text:
        raise InputError(f"{path}: empty file, header row required")
    parts = (_split_plain if _is_plain(text) else _split_csv)(path, text)
    header = [h.strip() for h in next(parts)]
    first: dict[str, int] = {}
    for i, name in enumerate(header):
        if first.setdefault(name, i) != i:
            raise InputError(f"{path}: column {_echo(name)!r} appears twice in the header")
    id_name = _named_id(header, id_column)
    distinct: list[set[str] | None] = [None if h == id_name != outcome_column else set() for h in header]
    columns: list = [[] if seen is None else "" for seen in distinct]
    n_rows = 0
    for cells, holes in parts:
        _gather(columns, distinct, cells, holes)
        n_rows += len(cells) // (len(header) + 1)
    return header, columns, distinct, id_name, n_rows


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
    named "id" (any capitalization), else from the first column when it is
    not calibrated and its cells are not all integers (e.g. country codes),
    else from row numbers. Every remaining column except the outcome becomes
    a factor, in header order. A header that names a column twice (after
    stripping spaces), duplicate ids, and a calibration of a column not in
    the header or of the named id column, are rejected.
    """
    calibration = calibration or CalibrationSpec()
    path = Path(path)
    header, cells, cell_sets, id_name, n_rows = _read_columns(path, outcome_column, id_column)

    if outcome_column not in header:
        raise InputError(
            f"{path}: outcome column {_echo(outcome_column)!r} not found (columns: {_echo(', '.join(header))})"
        )

    columns = dict(zip(header, cells))
    distinct = dict(zip(header, cell_sets))

    if id_column is not None and id_column not in header:
        raise InputError(f"{path}: id column {_echo(id_column)!r} not found")
    for name in calibration.columns:
        if name not in header:
            raise InputError(f"{path}: calibration column {_echo(name)!r} not found")
    if id_name in calibration.columns:
        raise InputError(f"{path}: calibration column {_echo(id_name)!r} is the id column")
    if id_name is None and header and header[0] != outcome_column and header[0] not in calibration.columns:
        # Every distinct cell is parsed, so that a cell past the digit limit
        # raises whatever the set's order, as it does in a factor column.
        if None in [_parse_int(cell) for cell in distinct[header[0]]]:
            id_name = header[0]

    ids = list(map(str.strip, columns[id_name])) if id_name is not None else list(map(str, range(n_rows)))
    # A set would do, but for 20 000 ids its peak is 2.5 MB, and dict keys' 0.6 MB.
    if len(dict.fromkeys(ids)) != len(ids):
        seen: dict[str, int] = {}
        for rowno, cid in enumerate(ids, start=2):
            if cid in seen:
                raise InputError(f"{path}: duplicate case id {_echo(cid)!r} at rows {seen[cid]} and {rowno}")
            seen[cid] = rowno

    factor_names = [h for h in header if h != outcome_column and h != id_name]
    factors: list[Factor] = []
    value_cols: list[bytes | list[int]] = []
    for name in factor_names:
        vals, fac = _calibrate_column(name, columns[name], calibration.columns.get(name), distinct[name])
        factors.append(fac)
        value_cols.append(vals)
    outcome_vals, outcome_factor = _calibrate_column(
        outcome_column, columns[outcome_column], calibration.columns.get(outcome_column), distinct[outcome_column]
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


def to_csv_string(table: CaseTable) -> str:
    """The dense-level CSV text: a header, then one line per case (id,
    factors..., outcome), each ended by a bare newline, so a file takes it
    with ``newline=""``."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", *(f.name for f in table.schema.factors), table.schema.outcome_name])
    columns = map(table.values.column, range(len(table.schema.factors)))
    writer.writerows(zip(table.ids, *columns, table.outcomes))
    return buf.getvalue()


def write_schema_json(table: CaseTable, path: str | Path) -> None:
    """Write a JSON record of the schema, with label/cutpoint provenance, and the case count."""

    def factor_entry(f: Factor) -> dict:
        entry: dict = {"name": f.name, "levels": f.levels}
        if f.labels is not None:
            entry["labels"] = {label: i for i, label in enumerate(f.labels)}
        if f.cutpoints is not None:
            entry["cutpoints"] = list(f.cutpoints)
        return entry

    meta = {
        "factors": [factor_entry(f) for f in table.schema.factors],
        "outcome": factor_entry(table.schema.outcome),
        "cases": len(table),
    }
    Path(path).write_text(json.dumps(meta, indent=2) + "\n", encoding="utf-8")


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
