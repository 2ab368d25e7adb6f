"""Report payloads and renderers for the command-line front end.

Every subcommand first builds a plain-dict payload (the JSON output), then
the text and CSV renderers derive their views from it, so the three formats
always agree on the numbers; each command's text and CSV views take their
rows from one row builder. Ratios are formatted with four decimals,
trailing zeros trimmed ("1.0", "0.8333", "0.94").

Configuration charts mark a binary level 1 with a solid circle, level 0
with a hollow circle, multi-value levels with the integer itself, and
necessary conditions with '*'.

`render_json` writes the bytes of `json.dumps(payload, indent=2,
ensure_ascii=False)` with a small recursive writer of its own, because any
`indent` makes the json module fall back to its pure-Python encoder. Leaves
are written as the json module writes them. A list whose items are all
strings is joined in one call over the C string encoder
(`json.encoder.encode_basestring`): a solve payload is mostly such lists of
covered case ids, and a first writer that recursed into every leaf was
slower than `json.dumps` (45 ms against 18.6 ms). On the `tall` benchmark's
693 367-byte payload (CPython 3.11.7, 2-vCPU Xeon VM, best of 15 in each
of three interleaved runs) this writer takes 5.2-8.2 ms against 11.8-18.9
ms for `json.dumps`; the small `sweep`, `xval` and `solve` payloads of the
other benchmarks are no slower (0.29 against 0.35 ms, 0.44 against 0.62
ms, 0.05 against 0.07 ms, best runs). A container's text is one join of
its pieces (brackets, separators, keys and item texts), so an item's text
is copied only into its container's: on that payload the tracemalloc peak
is 1.33 MB, about twice the text, against 1.99 MB when brackets and keys
were added by concatenation, and 3.47 MB for `json.dumps`.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import TYPE_CHECKING, Sequence

from .model import (
    AnalysisParams,
    CandidateRule,
    CaseTable,
    FactorSchema,
    conjunction_shorthand,
    dnf_shorthand,
    ids_of,
)

if TYPE_CHECKING:  # annotations only: rendering imports no pipeline stage
    from .pipeline import SolveResult
    from .robustness import ValidityReport

SOLID = "●"  # binary level 1
HOLLOW = "○"  # binary level 0
NECESSARY_MARK = "*"


def fmt_ratio(x: Fraction | float) -> str:
    s = f"{float(x):.4f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


_encode_str = json.encoder.encode_basestring  # the C encoder of ensure_ascii=False
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_key(key: object) -> str:
    """A dict key as text, converted as the json module converts keys."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return _json(key, "")
    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")


def _json(value: object, indent: str) -> str:
    """`value` as `json.dumps(value, indent=2, ensure_ascii=False)` writes it, at `indent`."""
    if isinstance(value, str):
        return _encode_str(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        text = float.__repr__(value)
        return _NON_FINITE.get(text, text)
    inner = indent + "  "
    sep = ",\n" + inner
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        if set(map(type, value)) == {str}:
            return f"[\n{inner}{sep.join(map(_encode_str, value))}\n{indent}]"
        ends, items = "[]", (("", item) for item in value)
    elif isinstance(value, dict):
        if not value:
            return "{}"
        ends, items = "{}", ((f"{_encode_str(_json_key(k))}: ", v) for k, v in value.items())
    else:
        raise TypeError(f"Object of type {value.__class__.__name__} is not JSON serializable")
    # One join of the container's pieces: an item's text is copied once, into it.
    pieces = []
    for key, item in items:
        pieces += (sep, key, _json(item, inner))
    pieces[0] = ends[0] + "\n" + inner
    pieces.append("\n" + indent + ends[1])
    return "".join(pieces)


def render_json(payload: dict) -> str:
    """`json.dumps(payload, indent=2, ensure_ascii=False)` plus a newline, byte for byte."""
    return _json(payload, "") + "\n"


def _csv_string(rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _grid(rows: Sequence[Sequence[str]]) -> str:
    """Left-aligned fixed-width text table."""
    if not rows:
        return ""
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    out = []
    for r in rows:
        out.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(out)


def _conditions(rule: CandidateRule, schema: FactorSchema) -> dict:
    """Level per factor name, None where the rule leaves the factor free."""
    values = {l.factor_index: l.value for l in rule.conjunction.literals}
    return {f.name: values.get(i) for i, f in enumerate(schema.factors)}


# ---------------------------------------------------------------------------
# necessity


def _necessity_entry(lit, consistency: Fraction, schema: FactorSchema) -> dict:
    return {
        "factor": schema.factors[lit.factor_index].name,
        "level": lit.value,
        "consistency": float(consistency),
    }


def necessity_payload(result_rows, table: CaseTable, params: AnalysisParams) -> dict:
    return {
        "command": "necessity",
        "outcome": table.schema.outcome_name,
        "decision_label": params.decision_label,
        "threshold": float(params.necessity_threshold),
        "necessary": [_necessity_entry(lit, cons, table.schema) for lit, cons in result_rows],
    }


def _necessity_rows(payload: dict) -> list[list[str]]:
    rows = [["factor", "level", "consistency"]]
    for item in payload["necessary"]:
        rows.append([item["factor"], str(item["level"]), fmt_ratio(item["consistency"])])
    return rows


def necessity_text(payload: dict) -> str:
    rows = _necessity_rows(payload)
    if len(rows) == 1:
        return (
            f"No necessary conditions above threshold {fmt_ratio(payload['threshold'])} "
            f"for {payload['outcome']}={payload['decision_label']}\n"
        )
    head = (
        f"Necessary conditions for {payload['outcome']}={payload['decision_label']} "
        f"(consistency > {fmt_ratio(payload['threshold'])})\n"
    )
    return head + _grid(rows) + "\n"


def necessity_csv(payload: dict) -> str:
    return _csv_string(_necessity_rows(payload))


# ---------------------------------------------------------------------------
# candidates


def candidates_payload(
    rules: Sequence[CandidateRule], table: CaseTable, params, bound: int
) -> dict:
    schema = table.schema
    entries = [
        {
            "conditions": _conditions(rule, schema),
            "expression": conjunction_shorthand(rule.conjunction, schema),
            "consistency": float(rule.consistency),
            "matched_count": rule.matched_bits.bit_count(),
            "matched": ids_of(rule.matched_bits, table.ids),
        }
        for rule in rules
    ]
    return {
        "command": "candidates",
        "outcome": schema.outcome_name,
        "decision_label": params.decision_label,
        "consistency_threshold": float(params.consistency_threshold),
        "cutoff": params.cutoff,
        "max_order": params.max_order,
        "enumeration_bound": bound,
        "count": len(entries),
        "rules": entries,
    }


def _candidate_rows(payload: dict, free: str, tail_head: list[str], tail) -> list[list[str]]:
    """Rule number, levels (`free` where the rule leaves a factor free), expression,
    consistency, then the columns `tail(entry)` names under `tail_head`."""
    rules = payload["rules"]
    names = list(rules[0]["conditions"]) if rules else []
    rows = [["rule", *names, "expression", "consistency", *tail_head]]
    for i, entry in enumerate(rules, start=1):
        levels = [free if v is None else str(v) for v in entry["conditions"].values()]
        rows.append([str(i), *levels, entry["expression"], fmt_ratio(entry["consistency"]), *tail(entry)])
    return rows


def candidates_text(payload: dict) -> str:
    head = (
        f"{payload['count']} candidate rule(s) for {payload['outcome']}={payload['decision_label']} "
        f"(consistency >= {fmt_ratio(payload['consistency_threshold'])}, cutoff {payload['cutoff']})\n"
    )
    if not payload["rules"]:
        return head
    rows = _candidate_rows(payload, "-", ["cases"], lambda entry: [", ".join(entry["matched"])])
    return head + _grid(rows) + "\n"


def candidates_csv(payload: dict) -> str:
    return _csv_string(_candidate_rows(
        payload, "", ["matched_count", "matched"], lambda entry: [str(entry["matched_count"]), ";".join(entry["matched"])]
    ))


# ---------------------------------------------------------------------------
# solve


def solve_payload(result: SolveResult, oracle: Sequence[CandidateRule] | None = None) -> dict:
    table = result.table
    schema = table.schema
    solution = result.solution
    necessary_factors = {l.factor_index for l in solution.necessary}
    configs = [
        {
            "index": i + 1,
            "conditions": _conditions(rule, schema),
            "expression": conjunction_shorthand(rule.conjunction, schema),
            "consistency": float(rule.consistency),
            "coverage": rule.matched_bits.bit_count(),
            "unique_coverage": solution.per_rule_unique_coverage[i],
            "covered_cases": ids_of(rule.matched_bits, table.ids),
        }
        for i, rule in enumerate(solution.rules)
    ]
    payload = {
        "command": "solve",
        "outcome": schema.outcome_name,
        "decision_label": solution.decision_label,
        "factor_levels": {f.name: f.levels for f in schema.factors},
        "params": {
            "consistency_threshold": float(result.params.consistency_threshold),
            "cutoff": result.params.cutoff,
            "unique_cover": result.params.unique_cover,
            "necessity_threshold": float(result.params.necessity_threshold),
            "max_order": result.params.max_order,
        },
        "necessity": [
            {**_necessity_entry(lit, cons, schema), "conjoined": lit in solution.necessary}
            for lit, cons in result.necessity
        ],
        "necessary_factors": sorted(schema.factors[i].name for i in necessary_factors),
        "candidate_count": len(result.candidates),
        "configurations": configs,
        "solution": {
            "coverage": float(solution.solution_coverage),
            "consistency": float(solution.solution_consistency),
            "expression": dnf_shorthand(solution.configurations(), schema),
        },
        "warnings": list(result.warnings),
    }
    if oracle is not None:
        covered = 0
        for r in oracle:
            covered |= r.positive_bits
        payload["oracle"] = {
            "selection": [conjunction_shorthand(r.conjunction, schema) for r in oracle],
            "covered_positives": (covered & table.positive_bits(solution.decision_label)).bit_count(),
        }
    return payload


def _solve_columns(payload: dict, mark) -> list[list[str]]:
    """One column per configuration: index, `mark(factor, level)` per factor
    (level None where the configuration leaves the factor free), consistency,
    coverage and unique coverage."""
    names = list(payload["factor_levels"])
    return [
        [str(c["index"]), *[mark(n, c["conditions"][n]) for n in names],
         fmt_ratio(c["consistency"]), str(c["coverage"]), str(c["unique_coverage"])]
        for c in payload["configurations"]
    ]


def solve_text(payload: dict) -> str:
    out = []
    label = f"{payload['outcome']}={payload['decision_label']}"
    out.append(f"scpQCA solution for {label}")
    nec = payload["necessity"]
    if nec:
        parts = [f"{n['factor']}={n['level']} ({fmt_ratio(n['consistency'])})" for n in nec]
        out.append("Necessary conditions: " + ", ".join(parts))
    else:
        out.append("Necessary conditions: none")
    out.append(f"Candidate rules: {payload['candidate_count']}")
    configs = payload["configurations"]
    if configs:
        levels = payload["factor_levels"]
        conjoined = {n["factor"] for n in nec if n["conjoined"]}

        def mark(name: str, v: int | None) -> str:
            if name in conjoined:
                return NECESSARY_MARK
            if v is None:
                return ""
            if levels[name] == 2:
                return SOLID if v == 1 else HOLLOW
            return str(v)

        labels = ["Configuration", *levels, "Consistency", "Coverage", "Unique coverage"]
        columns = _solve_columns(payload, mark)
        out.append("")
        out.append(_grid([[label, *cells] for label, cells in zip(labels, zip(*columns))]))
        if all(len(c["covered_cases"]) <= 12 for c in configs):
            out.append("")
            for c in configs:
                out.append(f"Configuration {c['index']} covers: " + ", ".join(c["covered_cases"]))
    else:
        out.append("No sufficient configurations; the necessary conditions stand alone.")
    out.append("")
    out.append(f"Solution coverage     {fmt_ratio(payload['solution']['coverage'])}")
    out.append(f"Solution consistency  {fmt_ratio(payload['solution']['consistency'])}")
    out.append(f"Expression: {payload['solution']['expression']}")
    if "oracle" in payload:
        o = payload["oracle"]
        out.append(
            f"Oracle selection ({o['covered_positives']} positives): " + " + ".join(o["selection"])
        )
    for w in payload["warnings"]:
        out.append(f"warning: {w}")
    return "\n".join(out) + "\n"


def solve_csv(payload: dict) -> str:
    factor_names = list(payload["factor_levels"])
    ratios = [fmt_ratio(payload["solution"]["coverage"]), fmt_ratio(payload["solution"]["consistency"])]
    rows: list[list[object]] = [
        [
            "configuration",
            *factor_names,
            "consistency",
            "coverage",
            "unique_coverage",
            "solution_coverage",
            "solution_consistency",
        ]
    ]
    for column in _solve_columns(payload, lambda _, v: "" if v is None else str(v)):
        rows.append([*column, *ratios])
    if not payload["configurations"]:
        # necessary-only solution: one row carrying the conjoined literals
        nec = {n["factor"]: n["level"] for n in payload["necessity"] if n["conjoined"]}
        marks = [nec.get(n, "") for n in factor_names]
        rows.append(
            [
                "necessary",
                *marks,
                fmt_ratio(payload["solution"]["consistency"]),
                "",
                "",
                *ratios,
            ]
        )
    return _csv_string(rows)


# ---------------------------------------------------------------------------
# experiment


def experiment_payload(rows: list[dict], spec_info: dict) -> dict:
    return {"command": "experiment", **spec_info, "rows": rows}


def _experiment_rows(payload: dict, blank: str) -> list[list[str]]:
    """`blank` marks a row of a single run, which has no rep."""
    rows = [["confounds", "rep", "expression", "consistency", "coverage", "candidates"]]
    for r in payload["rows"]:
        rows.append(
            [
                str(r["confounds"]),
                blank if r.get("rep") is None else str(r["rep"]),
                r["expression"],
                fmt_ratio(r["consistency"]),
                fmt_ratio(r["coverage"]),
                str(r["candidates"]),
            ]
        )
    return rows


def experiment_text(payload: dict) -> str:
    head = (
        f"Pathway {payload['pathway']!r}, {payload['samples']} samples, seed {payload['seed']}\n"
    )
    return head + _grid(_experiment_rows(payload, "-")) + "\n"


def experiment_csv(payload: dict) -> str:
    return _csv_string(_experiment_rows(payload, ""))


# ---------------------------------------------------------------------------
# sweep


def sweep_payload(cells, schema: FactorSchema) -> dict:
    rows = []
    for cell in cells:
        sol = None if cell.result is None else cell.result.solution
        rows.append({
            "consistency_threshold": float(cell.consistency_threshold),
            "cutoff": cell.cutoff,
            "unique_cover": cell.unique_cover,
            "candidates": cell.candidate_count,
            "solution_coverage": None if sol is None else float(sol.solution_coverage),
            "solution_consistency": None if sol is None else float(sol.solution_consistency),
            "expression": None if sol is None else dnf_shorthand(sol.configurations(), schema),
            "error": cell.error if sol is None else None,
        })
    return {"command": "sweep", "cells": rows}


def _sweep_cells(cell: dict, blank: str) -> list[str]:
    """The columns both views share; `blank` stands for the ratios of a failed cell."""
    ratios = [
        blank if cell[key] is None else fmt_ratio(cell[key])
        for key in ("solution_coverage", "solution_consistency")
    ]
    return [
        fmt_ratio(cell["consistency_threshold"]),
        str(cell["cutoff"]),
        str(cell["unique_cover"]),
        str(cell["candidates"]),
        *ratios,
    ]


def sweep_text(payload: dict) -> str:
    rows = [["consistency", "cutoff", "unique", "rules", "sol.cov", "sol.con", "expression"]]
    for c in payload["cells"]:
        last = c["expression"] if c["error"] is None else f"failed: {c['error']}"
        rows.append([*_sweep_cells(c, "-"), last])
    return _grid(rows) + "\n"


def sweep_csv(payload: dict) -> str:
    rows = [
        ["consistency_threshold", "cutoff", "unique_cover", "candidates",
         "solution_coverage", "solution_consistency", "expression", "error"]
    ]
    for c in payload["cells"]:
        rows.append([*_sweep_cells(c, ""), c["expression"] or "", c["error"] or ""])
    return _csv_string(rows)


# ---------------------------------------------------------------------------
# xval


def xval_payload(report: ValidityReport, schema: FactorSchema) -> dict:
    totals = report.class_totals()
    tallies = report.per_original_tallies()
    accuracies = report.per_original_accuracy()
    return {
        "command": "xval",
        "fraction": report.fraction,
        "reps": len(report.repetitions),
        "seed": report.seed,
        "originals": [conjunction_shorthand(c, schema) for c in report.originals],
        "per_original": [
            {
                "expression": conjunction_shorthand(c, schema),
                **{cls.value: n for cls, n in t.items()},
                "accuracy": float(a),
            }
            for c, t, a in zip(report.originals, tallies, accuracies)
        ],
        # The classes in their declared order; "not identified" is keyed "not_identified".
        "totals": {cls.value.replace(" ", "_"): n for cls, n in totals.items()},
        "overall_accuracy": float(report.overall_accuracy()),
        "degenerate_repetitions": sum(1 for r in report.repetitions if r.degenerate),
        "repetitions": [
            {
                "removed": list(r.removed_ids),
                "configurations": [conjunction_shorthand(c, schema) for c in r.configurations],
                "classes": [cls.value for cls, _ in r.classes],
                "degenerate": r.degenerate,
            }
            for r in report.repetitions
        ],
    }


def _xval_rows(payload: dict, labels: Sequence[str], zero: str, blank: str) -> list[list[str]]:
    """The three class rows, the not-identified row and the accuracy row under
    `labels`; `zero` marks a class no repetition gave, `blank` the per-configuration
    cells of the not-identified row."""
    per, totals = payload["per_original"], payload["totals"]
    rows = [
        [label, *[str(o[key]) if o[key] else zero for o in per], str(totals[key])]
        for label, key in zip(labels, ("replicated", "superset", "subset"))
    ]
    rows.append([labels[3], *[blank] * len(per), str(totals["not_identified"])])
    rows.append([labels[4], *[fmt_ratio(o["accuracy"]) for o in per], fmt_ratio(payload["overall_accuracy"])])
    return rows


def xval_text(payload: dict) -> str:
    k = len(payload["per_original"])
    labels = ("Replicated", "Superset", "Subset", "not Identified", "Accuracy")
    rows = [["", *[str(i + 1) for i in range(k)], "Number"], *_xval_rows(payload, labels, "-", "-")]
    head_items = [f"{i + 1}: {o['expression']}" for i, o in enumerate(payload["per_original"])]
    head = (
        f"External validity, {payload['reps']} repetitions removing "
        f"{payload['fraction']:.0%} of cases (seed {payload['seed']})\n"
        + "Original configurations: " + "; ".join(head_items) + "\n"
    )
    tail = ""
    if payload["degenerate_repetitions"]:
        tail = f"\nDegenerate repetitions (no solution): {payload['degenerate_repetitions']}"
    return head + _grid(rows) + tail + "\n"


def xval_csv(payload: dict) -> str:
    k = len(payload["per_original"])
    labels = ("replicated", "superset", "subset", "not_identified", "accuracy")
    rows = [["metric", *[f"config_{i + 1}" for i in range(k)], "number"], *_xval_rows(payload, labels, "0", "")]
    return _csv_string(rows)
