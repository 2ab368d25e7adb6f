"""CSV ingestion, threshold calibration, and duplicate handling.

Raw columns become dense integer levels in one of two ways:

* passthrough: cells are already non-negative integer levels, or arbitrary
  labels that get mapped to 0..k-1 in sorted label order (mapping recorded
  in the schema);
* cutpoints: a strictly increasing list of thresholds maps a numeric column
  to levels 0..k, where a value lands in the level counting how many
  cutpoints it reaches (boundary values go to the higher level).

Only explicit threshold calibration is offered; picking the thresholds is
the analyst's job, not this module's.
"""

from __future__ import annotations

import csv
import math
import io
import json
from bisect import bisect_right
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

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
        return int(cell)
    return None


def _calibrate_column(
    name: str, cells: list[str], rows: list[int], calib: Passthrough | Cutpoints
) -> tuple[list[int], Factor]:
    """Returns the dense level per cell plus the resulting Factor metadata."""
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

    ints = [_parse_int(c) for c in cells]
    if all(v is not None for v in ints):
        for v, rowno in zip(ints, rows):
            assert v is not None
            if v < 0:
                raise InputError(f"row {rowno}, column {name!r}: negative level {v}")
            if calib.levels is not None and v >= calib.levels:
                raise InputError(
                    f"row {rowno}, column {name!r}: value {v} outside declared levels 0..{calib.levels - 1}"
                )
        values = [int(v) for v in ints]  # type: ignore[arg-type]
        levels = calib.levels if calib.levels is not None else max(2, max(values, default=1) + 1)
        return values, Factor(name, levels)

    # Label column: enumerate distinct labels in sorted order.
    distinct = sorted({c.strip() for c in cells})
    if calib.levels is not None and len(distinct) > calib.levels:
        raise InputError(f"column {name!r}: {len(distinct)} distinct labels exceed declared {calib.levels} levels")
    mapping = {label: i for i, label in enumerate(distinct)}
    level_count = calib.levels if calib.levels is not None else max(2, len(distinct))
    labels = tuple(distinct) + tuple(f"<unused-{i}>" for i in range(len(distinct), level_count))
    return [mapping[c.strip()] for c in cells], Factor(name, level_count, labels=labels)


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
        id_name: str | None = id_column
    else:
        lowered = [h.lower() for h in header]
        if "id" in lowered:
            id_name = header[lowered.index("id")]
        elif header and header[0] != outcome_column and any(_parse_int(c) is None for c in columns[header[0]]):
            id_name = header[0]
        else:
            id_name = None

    ids = [c.strip() for c in columns[id_name]] if id_name is not None else [str(i) for i in range(len(data))]
    seen: dict[str, int] = {}
    for cid, rowno in zip(ids, rownos):
        if cid in seen:
            raise InputError(f"{path}: duplicate case id {cid!r} at rows {seen[cid]} and {rowno}")
        seen[cid] = rowno

    factor_names = [h for h in header if h != outcome_column and h != id_name]
    factors: list[Factor] = []
    value_cols: list[list[int]] = []
    for name in factor_names:
        vals, fac = _calibrate_column(name, columns[name], rownos, calibration.for_column(name))
        factors.append(fac)
        value_cols.append(vals)
    outcome_vals, outcome_factor = _calibrate_column(
        outcome_column, columns[outcome_column], rownos, calibration.for_column(outcome_column)
    )

    schema = FactorSchema(factors=tuple(factors), outcome=outcome_factor)
    n = len(data)
    values = np.array(value_cols, dtype=np.int16).T.reshape(n, len(factors))
    return CaseTable(schema=schema, ids=tuple(ids), values=values, outcomes=np.array(outcome_vals, dtype=np.int16))


def _write_rows(table: CaseTable, fh) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(["id", *(f.name for f in table.schema.factors), table.schema.outcome_name])
    for i in range(len(table)):
        writer.writerow([table.ids[i], *(int(v) for v in table.values[i]), int(table.outcomes[i])])


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
    seen: set[tuple] = set()
    keep: list[int] = []
    for i in range(len(table)):
        key = (tuple(int(v) for v in table.values[i]), int(table.outcomes[i]))
        if key in seen:
            continue
        seen.add(key)
        keep.append(i)
    removed = len(table) - len(keep)
    if removed == 0:
        return table, 0
    idx = np.array(keep, dtype=np.intp)
    return (
        CaseTable(
            schema=table.schema,
            ids=tuple(table.ids[i] for i in keep),
            values=table.values[idx],
            outcomes=table.outcomes[idx],
        ),
        removed,
    )
