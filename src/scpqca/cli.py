"""Command-line front end for the two-step pipeline and the harnesses.

Subcommands: necessity, candidates, solve, synth, experiment, sweep, xval.
Exit codes: 0 success, 1 input error, 2 no admissible cover / vacuous
solution. Output goes to stdout in text, JSON, or CSV form and is
byte-identical for identical arguments and seed; timing information is
only ever printed to stderr, and only with --timing.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from fractions import Fraction
from statistics import median

from . import report
from .candidates import CandidateParams, candidate_count_bound, enumerate_candidates
from .cover import exhaustive_cover_oracle
from .ingest import (
    CalibrationSpec,
    Cutpoints,
    deduplicate,
    load_csv,
    numeric_label_columns,
    to_csv_string,
    write_schema_json,
)
from .model import (
    CaseTable,
    InputError,
    Literal,
    ScpqcaError,
    VacuousSolutionError,
    as_fraction,
)
from .necessity import conflicting_factors, necessary_conditions
from .pathways import (
    ExperimentSpec,
    generate_experiment_table,
    parse_pathway,
    run_experiment,
    synth_schema,
)
from .pipeline import AnalysisParams, solve
from .robustness import derive_seed, external_validity, internal_sweep

ENUMERATION_WARN_BOUND = 5_000_000


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _ArgumentError(f"{self.format_usage()}{self.prog}: error: {message}")


def _seed_default(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("SCPQCA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"SCPQCA_SEED must be an integer, got {env!r}") from None
    return 0


def _parse_cutpoints(items: list[str] | None) -> CalibrationSpec:
    columns: dict = {}
    for item in items or []:
        if ":" not in item:
            raise InputError(f"--cutpoints expects COLUMN:p1,p2,..., got {item!r}")
        name, _, rest = item.partition(":")
        try:
            points = tuple(float(p) for p in rest.split(",") if p.strip())
        except ValueError:
            raise InputError(f"--cutpoints {item!r}: thresholds must be numeric") from None
        columns[name.strip()] = Cutpoints(points)
    return CalibrationSpec(columns)


def _parse_literals(text: str, table: CaseTable) -> tuple[Literal, ...]:
    lits = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise InputError(f"--assume-necessary expects FACTOR=LEVEL, got {part!r}")
        name, _, level = part.partition("=")
        idx = table.schema.factor_index(name.strip())
        try:
            v = int(level)
        except ValueError:
            raise InputError(f"--assume-necessary {part!r}: level must be an integer") from None
        if not 0 <= v < table.schema.factors[idx].levels:
            raise InputError(
                f"--assume-necessary {part!r}: level {v} out of range "
                f"(0..{table.schema.factors[idx].levels - 1})"
            )
        lits.append(Literal(idx, v))
    return tuple(lits)


def _resolve_label(table: CaseTable, label: str) -> int:
    outcome = table.schema.outcome
    if outcome.labels is not None and label in outcome.labels:
        return outcome.labels.index(label)
    try:
        value = int(label)
    except ValueError:
        raise InputError(
            f"--label {label!r} is neither an outcome label nor an integer level"
        ) from None
    if not 0 <= value < outcome.levels:
        raise InputError(f"--label {value} out of range (outcome levels 0..{outcome.levels - 1})")
    return value


def _load(args: argparse.Namespace) -> CaseTable:
    table = load_csv(
        args.data,
        outcome_column=args.outcome,
        calibration=_parse_cutpoints(getattr(args, "cutpoints", None)),
        id_column=getattr(args, "id_column", None),
    )
    for f in numeric_label_columns(table):
        print(
            f"warning: column {f.name!r} has {f.levels} levels, one per distinct number; "
            f"calibrate it with --cutpoints {f.name}:p1,p2,...",
            file=sys.stderr,
        )
    if getattr(args, "dedup", False):
        table, removed = deduplicate(table)
        if removed:
            print(f"note: removed {removed} duplicate case(s)", file=sys.stderr)
    if getattr(args, "emit_schema", None):
        write_schema_json(table, args.emit_schema)
    return table


def _analysis_params(args: argparse.Namespace, table: CaseTable) -> AnalysisParams:
    assume = None
    if getattr(args, "assume_necessary", None):
        assume = _parse_literals(args.assume_necessary, table)
    return AnalysisParams(
        decision_label=_resolve_label(table, args.label),
        consistency_threshold=as_fraction(args.consistency),
        cutoff=args.cutoff,
        unique_cover=args.unique_cover,
        necessity_threshold=as_fraction(args.necessity_threshold),
        max_order=args.max_order,
        assume_necessary=assume,
    )


def _emit(payload: dict, fmt: str, text_fn, csv_fn) -> None:
    if fmt == "json":
        sys.stdout.write(report.render_json(payload))
    elif fmt == "csv":
        sys.stdout.write(csv_fn(payload))
    else:
        sys.stdout.write(text_fn(payload))


def _levels_arg(text: str, n_factors: int) -> int | list[int]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise InputError(f"--levels must be an integer or comma list, got {text!r}") from None
    if len(values) == 1:
        return values[0]
    if len(values) != n_factors:
        raise InputError(f"--levels lists {len(values)} counts for {n_factors} factors")
    return values


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(p) for p in text.split(",") if p.strip()]
    except ValueError:
        raise InputError(f"{flag} expects a comma-separated integer list, got {text!r}") from None


def _warn_enumeration_bound(table: CaseTable, params: CandidateParams) -> int:
    bound = candidate_count_bound(table.schema, None, params.max_order)
    if bound > 2**63:
        print("warning: enumeration bound > 2^63 conjunctions; set --max-order", file=sys.stderr)
    elif bound > ENUMERATION_WARN_BOUND:
        print(
            f"warning: enumeration will visit up to {bound} conjunctions; "
            "consider --max-order to bound the run",
            file=sys.stderr,
        )
    return min(bound, 2**63)


# ---------------------------------------------------------------------------
# Subcommand handlers


def _cmd_necessity(args: argparse.Namespace) -> int:
    table = _load(args)
    label = _resolve_label(table, args.label)
    threshold = as_fraction(args.necessity_threshold)
    rows = necessary_conditions(table, label, threshold)
    conflicted = conflicting_factors(rows)
    if conflicted:
        names = ", ".join(table.schema.factors[i].name for i in conflicted)
        print(
            f"warning: multiple levels of factor(s) {names} qualify as necessary; "
            "solve conjoins none of them unless --assume-necessary picks one",
            file=sys.stderr,
        )
    payload = report.necessity_payload(rows, table, label, threshold)
    _emit(payload, args.format, report.necessity_text, report.necessity_csv)
    return 0


def _cmd_candidates(args: argparse.Namespace) -> int:
    table = _load(args)
    params = CandidateParams(
        decision_label=_resolve_label(table, args.label),
        consistency_threshold=as_fraction(args.consistency),
        cutoff=args.cutoff,
        max_order=args.max_order,
    )
    bound = _warn_enumeration_bound(table, params)
    rules = enumerate_candidates(table, range(len(table.schema.factors)), params)
    payload = report.candidates_payload(rules, table, params, bound)
    _emit(payload, args.format, report.candidates_text, report.candidates_csv)
    return 0


def _cmd_solve(args: argparse.Namespace) -> int:
    table = _load(args)
    params = _analysis_params(args, table)
    _warn_enumeration_bound(table, params.candidate_params())
    result = solve(table, params)
    oracle = None
    if args.oracle:
        positives = table.positive_ids(params.decision_label)
        oracle = exhaustive_cover_oracle(result.candidates, positives, params.cover_params())
    payload = report.solve_payload(result, oracle)
    _emit(payload, args.format, report.solve_text, report.solve_csv)
    return 0


def _cmd_synth(args: argparse.Namespace) -> int:
    schema = synth_schema(args.factors, _levels_arg(args.levels, args.factors))
    pathway = parse_pathway(args.pathway, schema)
    spec = ExperimentSpec(
        schema=schema,
        pathway=pathway,
        sample_size=args.samples,
        confound_count=args.confound,
        seed=_seed_default(args.seed),
    )
    table = generate_experiment_table(spec)
    if args.emit == "json":
        payload = {
            "command": "synth",
            "factors": [{"name": f.name, "levels": f.levels} for f in schema.factors],
            "outcome": schema.outcome_name,
            "pathway": pathway.expression(),
            "seed": spec.seed,
            "confounds": spec.confound_count,
            "cases": [
                {"id": cid, "values": list(row), "outcome": outcome}
                for cid, row, outcome in zip(table.ids, table.values, table.outcomes)
            ],
        }
        out = report.render_json(payload)
    else:
        out = to_csv_string(table)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    schema = synth_schema(args.factors, _levels_arg(args.levels, args.factors))
    pathway = parse_pathway(args.pathway, schema)
    base_seed = _seed_default(args.seed)
    params = AnalysisParams(
        decision_label=1,
        consistency_threshold=as_fraction(args.consistency),
        cutoff=args.cutoff,
        unique_cover=args.unique_cover,
        necessity_threshold=as_fraction(args.necessity_threshold),
        max_order=args.max_order,
    )
    confounds = _int_list(args.confounds, "--confounds")
    rows = []
    for c in confounds:
        per_rep: list[tuple[Fraction, Fraction, int]] = []
        for rep in range(args.reps):
            seed = base_seed if args.reps == 1 else derive_seed(base_seed, rep)
            rep_report = run_experiment(
                ExperimentSpec(schema, pathway, args.samples, c, seed), params
            )
            rows.append(
                {
                    "confounds": c,
                    "rep": rep if args.reps > 1 else None,
                    "seed": seed,
                    "expression": rep_report.expression,
                    "consistency": float(rep_report.consistency),
                    "coverage": float(rep_report.coverage),
                    "candidates": rep_report.candidate_count,
                }
            )
            per_rep.append((rep_report.consistency, rep_report.coverage, rep_report.candidate_count))
        if args.reps > 1:
            rows.append(
                {
                    "confounds": c,
                    "rep": "median",
                    "seed": base_seed,
                    "expression": "-",
                    "consistency": float(median(x for x, _, _ in per_rep)),
                    "coverage": float(median(y for _, y, _ in per_rep)),
                    "candidates": int(median(n for _, _, n in per_rep)),
                }
            )
    payload = report.experiment_payload(
        rows,
        {
            "pathway": pathway.expression(),
            "factors": args.factors,
            "samples": args.samples,
            "seed": base_seed,
            "reps": args.reps,
        },
    )
    _emit(payload, args.format, report.experiment_text, report.experiment_csv)
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    table = _load(args)
    params = _analysis_params(args, table)
    cons_list = [as_fraction(x) for x in args.consistency_list.split(",")] if args.consistency_list else [
        params.consistency_threshold
    ]
    cutoff_list = _int_list(args.cutoff_list, "--cutoff-list") if args.cutoff_list else [params.cutoff]
    unique_list = (
        _int_list(args.unique_cover_list, "--unique-cover-list")
        if args.unique_cover_list
        else [params.unique_cover]
    )
    grid = [(c, k, u) for c in cons_list for k in cutoff_list for u in unique_list]
    cells = internal_sweep(table, grid, params)
    payload = report.sweep_payload(cells, table.schema)
    _emit(payload, args.format, report.sweep_text, report.sweep_csv)
    return 0


def _cmd_xval(args: argparse.Namespace) -> int:
    table = _load(args)
    params = _analysis_params(args, table)
    validity = external_validity(
        table, params, fraction=args.fraction, reps=args.reps, seed=_seed_default(args.seed)
    )
    payload = report.xval_payload(validity, table.schema)
    _emit(payload, args.format, report.xval_text, report.xval_csv)
    return 0


# ---------------------------------------------------------------------------
# Parser assembly


def build_parser() -> _Parser:
    parser = _Parser(prog="scpqca", description=__doc__.splitlines()[0])

    out_parent = argparse.ArgumentParser(add_help=False)
    out_parent.add_argument("--format", choices=["text", "json", "csv"], default="text")
    out_parent.add_argument("--timing", action="store_true", help="print runtime to stderr")

    data_parent = argparse.ArgumentParser(add_help=False)
    data_parent.add_argument("--data", required=True, help="CSV dataset (UTF-8, header row)")
    data_parent.add_argument("--outcome", required=True, help="outcome column name")
    data_parent.add_argument("--label", default="1", help="decision label (outcome level or raw label)")
    data_parent.add_argument("--id-column", default=None, help="column holding case ids")
    data_parent.add_argument("--cutpoints", action="append", metavar="COL:p1,p2",
                             help="threshold calibration for a column (repeatable)")
    data_parent.add_argument("--dedup", action="store_true",
                             help="drop cases identical in all values and outcome")
    data_parent.add_argument("--emit-schema", metavar="PATH",
                             help="write the schema metadata sidecar as JSON")

    analysis_parent = argparse.ArgumentParser(add_help=False)
    analysis_parent.add_argument("--consistency", default="0.8",
                                 help="sufficiency consistency threshold (default 0.8)")
    analysis_parent.add_argument("--cutoff", type=int, default=2,
                                 help="minimum matched-case count per rule (default 2)")
    analysis_parent.add_argument("--unique-cover", type=int, default=2,
                                 help="minimum new positives per selected rule (default 2)")
    analysis_parent.add_argument("--necessity-threshold", default="0.9",
                                 help="necessity consistency threshold (default 0.9)")
    analysis_parent.add_argument("--max-order", type=int, default=None,
                                 help="maximum literals per rule (default: all factors)")
    analysis_parent.add_argument("--assume-necessary", metavar="F=V,...",
                                 help="conjoin exactly these literals as necessary conditions")

    seed_parent = argparse.ArgumentParser(add_help=False)
    seed_parent.add_argument("--seed", type=int, default=None,
                             help="PRNG seed (fallback: SCPQCA_SEED, then 0)")

    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = sub.add_parser("necessity", parents=[data_parent, analysis_parent, out_parent],
                       help="report necessary conditions")
    p.set_defaults(func=_cmd_necessity)

    p = sub.add_parser("candidates", parents=[data_parent, analysis_parent, out_parent],
                       help="enumerate the candidate rule list")
    p.set_defaults(func=_cmd_candidates)

    p = sub.add_parser("solve", parents=[data_parent, analysis_parent, out_parent],
                       help="run the full two-step pipeline")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check the greedy cover with the exact oracle (small instances)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("synth", parents=[seed_parent],
                       help="generate a synthetic planted-pathway dataset")
    p.add_argument("--factors", type=int, required=True)
    p.add_argument("--levels", default="2", help="level count, or comma list per factor")
    p.add_argument("--pathway", required=True, help="DNF pathway, e.g. 'ab+CD' or 'A0*B0+B1*C1'")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--confound", type=int, default=0, help="outcomes to corrupt")
    p.add_argument("--emit", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("experiment", parents=[analysis_parent, seed_parent, out_parent],
                       help="planted-pathway recovery sweep over confound counts")
    p.add_argument("--factors", type=int, required=True)
    p.add_argument("--levels", default="2")
    p.add_argument("--pathway", required=True)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--confounds", default="0", help="comma list of confound counts")
    p.add_argument("--reps", type=int, default=1, help="repetitions per confound count")
    p.set_defaults(func=_cmd_experiment)

    p = sub.add_parser("sweep", parents=[data_parent, analysis_parent, out_parent],
                       help="internal validity: rerun over a parameter grid")
    p.add_argument("--consistency-list", default=None, metavar="0.8,0.75")
    p.add_argument("--cutoff-list", default=None, metavar="2,3,4")
    p.add_argument("--unique-cover-list", default=None, metavar="1,2")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("xval", parents=[data_parent, analysis_parent, seed_parent, out_parent],
                       help="external validity: jackknife resampling")
    p.add_argument("--fraction", type=float, default=0.10, help="share of cases to remove")
    p.add_argument("--reps", type=int, default=10)
    p.set_defaults(func=_cmd_xval)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        code = args.func(args)
        if getattr(args, "timing", False):
            print(f"total runtime: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
        return code
    except _ArgumentError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except VacuousSolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScpqcaError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except Exception as exc:  # pragma: no cover - safety net, no bare traces
        if os.environ.get("SCPQCA_DEBUG"):
            raise
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
