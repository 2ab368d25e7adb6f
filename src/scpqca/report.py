"""Report payloads and renderers for the command-line front end.

Every subcommand first builds a plain-dict payload (the JSON output), then
the text and CSV renderers derive their views from it, so the three formats
always agree on the numbers; where the text and CSV views show the same
rows, one row builder makes them for both. Ratios are formatted with four
decimals, trailing zeros trimmed ("1.0", "0.8333", "0.94").

Configuration charts mark a binary level 1 with a solid circle, level 0
with a hollow circle, multi-value levels with the integer itself, and
necessary conditions with '*'.
"""

from __future__ import annotations

import csv
import io
import json
from fractions import Fraction
from typing import Sequence

from .model import (
    CandidateRule,
    CaseTable,
    FactorSchema,
    conjunction_shorthand,
    dnf_shorthand,
    ids_of,
)
from .pipeline import SolveResult
from .robustness import ValidityClass, ValidityReport

SOLID = "●"  # binary level 1
HOLLOW = "○"  # binary level 0
NECESSARY_MARK = "*"


def fmt_ratio(x: Fraction | float) -> str:
    s = f"{float(x):.4f}".rstrip("0")
    return s + "0" if s.endswith(".") else s


def render_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, ensure_ascii=False) + "\n"


def _csv_string(rows: Sequence[Sequence[object]]) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _grid(rows: Sequence[Sequence[str]], indent: str = "") -> str:
    """Left-aligned fixed-width text table."""
    if not rows:
        return ""
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    out = []
    for r in rows:
        out.append(indent + "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
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


def necessity_payload(result_rows, table: CaseTable, decision_label: int, threshold) -> dict:
    return {
        "command": "necessity",
        "outcome": table.schema.outcome_name,
        "decision_label": decision_label,
        "threshold": float(threshold),
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


def candidates_text(payload: dict) -> str:
    factor_names = list(payload["rules"][0]["conditions"].keys()) if payload["rules"] else []
    rows = [["rule", *factor_names, "expression", "consistency", "cases"]]
    for i, entry in enumerate(payload["rules"], start=1):
        marks = ["-" if entry["conditions"][n] is None else str(entry["conditions"][n]) for n in factor_names]
        rows.append(
            [str(i), *marks, entry["expression"], fmt_ratio(entry["consistency"]), ", ".join(entry["matched"])]
        )
    head = (
        f"{payload['count']} candidate rule(s) for {payload['outcome']}={payload['decision_label']} "
        f"(consistency >= {fmt_ratio(payload['consistency_threshold'])}, cutoff {payload['cutoff']})\n"
    )
    if not payload["rules"]:
        return head
    return head + _grid(rows) + "\n"


def candidates_csv(payload: dict) -> str:
    factor_names = list(payload["rules"][0]["conditions"].keys()) if payload["rules"] else []
    rows: list[list[object]] = [["rule", *factor_names, "expression", "consistency", "matched_count", "matched"]]
    for i, entry in enumerate(payload["rules"], start=1):
        marks = ["" if entry["conditions"][n] is None else entry["conditions"][n] for n in factor_names]
        rows.append(
            [i, *marks, entry["expression"], fmt_ratio(entry["consistency"]), entry["matched_count"],
             ";".join(entry["matched"])]
        )
    return _csv_string(rows)


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
        factor_names = list(configs[0]["conditions"].keys())
        levels = payload["factor_levels"]
        conjoined = {n["factor"] for n in nec if n["conjoined"]}
        rows = [["Configuration", *[str(c["index"]) for c in configs]]]
        for name in factor_names:
            marks = []
            for c in configs:
                v = c["conditions"][name]
                if name in conjoined:
                    marks.append(NECESSARY_MARK)
                elif v is None:
                    marks.append("")
                elif levels[name] == 2:
                    marks.append(SOLID if v == 1 else HOLLOW)
                else:
                    marks.append(str(v))
            rows.append([name, *marks])
        rows.append(["Consistency", *[fmt_ratio(c["consistency"]) for c in configs]])
        rows.append(["Coverage", *[str(c["coverage"]) for c in configs]])
        rows.append(["Unique coverage", *[str(c["unique_coverage"]) for c in configs]])
        out.append("")
        out.append(_grid(rows))
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
    configs = payload["configurations"]
    factor_names = list(payload["factor_levels"].keys())
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
    for c in configs:
        marks = ["" if c["conditions"][n] is None else c["conditions"][n] for n in factor_names]
        rows.append(
            [
                c["index"],
                *marks,
                fmt_ratio(c["consistency"]),
                c["coverage"],
                c["unique_coverage"],
                *ratios,
            ]
        )
    if not configs:
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
        row: dict = {
            "consistency_threshold": float(cell.params.consistency_threshold),
            "cutoff": cell.params.cutoff,
            "unique_cover": cell.params.unique_cover,
            "candidates": cell.candidate_count,
        }
        if cell.result is not None:
            row["solution_coverage"] = float(cell.result.solution.solution_coverage)
            row["solution_consistency"] = float(cell.result.solution.solution_consistency)
            row["expression"] = dnf_shorthand(cell.result.solution.configurations(), schema)
            row["error"] = None
        else:
            row["solution_coverage"] = None
            row["solution_consistency"] = None
            row["expression"] = None
            row["error"] = cell.error
        rows.append(row)
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
                "replicated": t[ValidityClass.REPLICATED],
                "superset": t[ValidityClass.SUPERSET],
                "subset": t[ValidityClass.SUBSET],
                "accuracy": float(a),
            }
            for c, t, a in zip(report.originals, tallies, accuracies)
        ],
        "totals": {
            "replicated": totals[ValidityClass.REPLICATED],
            "superset": totals[ValidityClass.SUPERSET],
            "subset": totals[ValidityClass.SUBSET],
            "not_identified": totals[ValidityClass.NOT_IDENTIFIED],
        },
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


def xval_text(payload: dict) -> str:
    k = len(payload["per_original"])
    rows = [["", *[str(i + 1) for i in range(k)], "Number"]]
    for key in ("replicated", "superset", "subset"):
        rows.append(
            [key.capitalize(), *[str(o[key]) if o[key] else "-" for o in payload["per_original"]],
             str(payload["totals"][key])]
        )
    rows.append(["not Identified", *["-"] * k, str(payload["totals"]["not_identified"])])
    rows.append(
        [
            "Accuracy",
            *[fmt_ratio(o["accuracy"]) for o in payload["per_original"]],
            fmt_ratio(payload["overall_accuracy"]),
        ]
    )
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
    rows: list[list[object]] = [["metric", *[f"config_{i + 1}" for i in range(k)], "number"]]
    for key in ("replicated", "superset", "subset"):
        rows.append([key, *[o[key] for o in payload["per_original"]], payload["totals"][key]])
    rows.append(["not_identified", *[""] * k, payload["totals"]["not_identified"]])
    rows.append(
        ["accuracy", *[fmt_ratio(o["accuracy"]) for o in payload["per_original"]],
         fmt_ratio(payload["overall_accuracy"])]
    )
    return _csv_string(rows)
