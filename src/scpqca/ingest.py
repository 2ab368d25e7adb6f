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

Columns are dictionary-encoded: each distinct raw cell of a column is parsed
and checked once, and every cell then maps to its level by one lookup. Only
when a distinct cell is bad is the column scanned, to name the first row
holding it in the error.
"""

from __future__ import annotations

import csv
import math
import io
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .model import CaseTable, Factor, FactorSchema, InputError


@dataclass(frozen=True)
class Passthrough:
    """Column already holds integer levels (or labels to be enumerated).

    `levels` optionally declares the admissible level count; integer cells
    at or above it are rejected.
    """

    levels: int | None = None

    def __post_init__(self) -> None:
        if self.levels is not None and self.levels < 2:
            raise InputError("declared level count must be >= 2")


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

    columns: Mapping[str, Passthrough | Cutpoints] = field(default_factory=dict)

    def for_column(self, name: str) -> Passthrough | Cutpoints:
        return self.columns.get(name, Passthrough())


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


def _calibrate_column(name: str, cells: Sequence[str], calib: Passthrough | Cutpoints) -> tuple[list[int], Factor]:
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
        return list(map(code.__getitem__, cells)), Factor(name, calib.levels, cutpoints=calib.points)

    ints = {cell: _parse_int(cell) for cell in distinct}
    if None not in ints.values():
        bad = {c for c, v in ints.items() if v < 0 or (calib.levels is not None and v >= calib.levels)}
        if bad:
            rowno, cell = _first_row_with(cells, bad)
            v = ints[cell]
            if v < 0:
                raise InputError(f"row {rowno}, column {name!r}: negative level {v}")
            raise InputError(
                f"row {rowno}, column {name!r}: value {v} outside declared levels 0..{calib.levels - 1}"
            )
        levels = calib.levels if calib.levels is not None else max(2, max(ints.values(), default=1) + 1)
        return list(map(ints.__getitem__, cells)), Factor(name, levels)

    # Label column: enumerate distinct labels in sorted order.
    labels = sorted({c.strip() for c in distinct})
    if calib.levels is not None and len(labels) > calib.levels:
        raise InputError(f"column {name!r}: {len(labels)} distinct labels exceed declared {calib.levels} levels")
    mapping = {label: i for i, label in enumerate(labels)}
    code = {cell: mapping[cell.strip()] for cell in distinct}
    level_count = calib.levels if calib.levels is not None else max(2, len(labels))
    padded = tuple(labels) + tuple(f"<unused-{i}>" for i in range(len(labels), level_count))
    return list(map(code.__getitem__, cells)), Factor(name, level_count, labels=padded)


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
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
            data = [row for row in reader if "".join(row).strip()]
        except StopIteration:
            raise InputError(f"{path}: empty file, header row required") from None
        except UnicodeDecodeError as exc:
            byte = exc.object[exc.start]
            raise InputError(f"{path}: not UTF-8 text (byte 0x{byte:02x}: {exc.reason})") from None
        except csv.Error as exc:
            raise InputError(f"{path}: line {reader.line_num}: {exc}") from None
    header = [h.strip() for h in header]

    if set(map(len, data)) - {len(header)}:
        for rowno, row in enumerate(data, start=2):
            if len(row) != len(header):
                raise InputError(f"{path}: row {rowno} has {len(row)} cells, header has {len(header)}")

    if outcome_column not in header:
        raise InputError(f"{path}: outcome column {outcome_column!r} not found (columns: {', '.join(header)})")

    columns = dict(zip(header, zip(*data))) if data else {name: () for name in header}

    if id_column is not None:
        if id_column not in header:
            raise InputError(f"{path}: id column {id_column!r} not found")
        id_name: str | None = id_column
    else:
        lowered = [h.lower() for h in header]
        if "id" in lowered:
            id_name = header[lowered.index("id")]
        elif header and header[0] != outcome_column and None in map(_parse_int, set(columns[header[0]])):
            id_name = header[0]
        else:
            id_name = None

    ids = list(map(str.strip, columns[id_name])) if id_name is not None else list(map(str, range(len(data))))
    if len(set(ids)) != len(ids):
        seen: dict[str, int] = {}
        for rowno, cid in enumerate(ids, start=2):
            if cid in seen:
                raise InputError(f"{path}: duplicate case id {cid!r} at rows {seen[cid]} and {rowno}")
            seen[cid] = rowno

    factor_names = [h for h in header if h != outcome_column and h != id_name]
    factors: list[Factor] = []
    value_cols: list[list[int]] = []
    for name in factor_names:
        vals, fac = _calibrate_column(name, columns[name], calibration.for_column(name))
        factors.append(fac)
        value_cols.append(vals)
    outcome_vals, outcome_factor = _calibrate_column(
        outcome_column, columns[outcome_column], calibration.for_column(outcome_column)
    )

    schema = FactorSchema(factors=tuple(factors), outcome=outcome_factor)
    return CaseTable.from_columns(schema, ids, value_cols, outcome_vals)


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
