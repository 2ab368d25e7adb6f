"""Command-line front end for the two-step pipeline and the harnesses.

Subcommands: necessity, candidates, solve, synth, experiment, sweep, xval.
Exit codes: 0 success, 1 input error, 2 no admissible cover / vacuous
solution. A subcommand's handler returns its `report.*_payload` dict, and
`main` alone writes it to stdout: `report.render_json` for `--format json`,
else the `report.<command>_text` or `_csv` view its "command" names (`synth`
writes its own output and returns None). Output is byte-identical for
identical arguments and seed; timing information is only ever printed to
stderr, and only with --timing.

The command line is declared once, as data. `ANALYSIS_FLAGS` holds each
analysis flag, `_SHARED_FLAGS` each other flag that subcommands declare
alike, and `_COMMANDS` each subcommand's handler, help line and flags in
help order. A subcommand takes only the flags it reads; any other is a usage
error. `_params` builds the run's one `AnalysisParams` from the flags given,
so the defaults live in `AnalysisParams` alone. `build_parser` builds the
parser from these tables once per process, since in-process callers, such
as the `resample` benchmark, call `main` twice per operation.
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
import time
from fractions import Fraction

from . import report
from .candidates import candidate_count_bound, enumerate_candidates
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
    AnalysisParams,
    CaseTable,
    InputError,
    Literal,
    ScpqcaError,
    VacuousSolutionError,
    _echo,
)
from .necessity import conflicting_factors, necessary_conditions
from .pipeline import solve
from .robustness import check_reps, derive_seed, external_validity, internal_sweep

ENUMERATION_WARN_BOUND = 5_000_000

# Each analysis flag: the `AnalysisParams` field it sets and its other
# `add_argument` keywords. A flag left off the command line is not passed on,
# so `AnalysisParams` holds every default.
ANALYSIS_FLAGS = {
    "--consistency": ("consistency_threshold", {
        "metavar": "CONSISTENCY", "help": "sufficiency consistency threshold (default 0.8)"}),
    "--cutoff": ("cutoff", {"type": int, "help": "minimum matched-case count per rule (default 2)"}),
    "--unique-cover": ("unique_cover", {"type": int, "help": "minimum new positives per selected rule (default 2)"}),
    "--necessity-threshold": ("necessity_threshold", {"help": "necessity consistency threshold (default 0.9)"}),
    "--max-order": ("max_order", {"type": int, "help": "maximum literals per rule (default: all factors)"}),
    "--assume-necessary": ("assume_necessary", {
        "metavar": "F=V,...", "help": "conjoin exactly these literals as necessary conditions"}),
}
# `sweep` takes each swept value from its single flag or from its list (with
# the list's metavar), never both.
_SWEEP_LISTS = {
    "--consistency": ("--consistency-list", "0.8,0.75"),
    "--cutoff": ("--cutoff-list", "2,3,4"),
    "--unique-cover": ("--unique-cover-list", "1,2"),
}
# The fields `sweep` takes from its grid, not from its base params.
SWEPT = tuple(ANALYSIS_FLAGS[flag][0] for flag in _SWEEP_LISTS)


class _ArgumentError(Exception):
    pass


# The two messages in which argparse echoes what was given unquoted: the
# stray arguments, and an option that abbreviates several flags.
_UNQUOTED = (r"(unrecognized arguments: )(.*)()", r"(ambiguous option: )(.*)( could match [^ ]*(?:, [^ ]*)*)")


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        # What argparse echoes unquoted, and each value it quotes, as `repr`
        # does in '' or "", is echoed cut.
        for pattern in _UNQUOTED:
            if m := re.fullmatch(pattern, message, re.S):
                message = m[1] + _echo(m[2]) + m[3]
        message = re.sub(r"""(['"])((?:\\.|(?!\1).)*)\1""", lambda m: m[1] + _echo(m[2]) + m[1], message)
        raise _ArgumentError(f"{self.format_usage()}{self.prog}: error: {message}")


def _seed_default(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("SCPQCA_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise InputError(f"SCPQCA_SEED must be an integer, got {_echo(env)!r}") from None
    return 0


def _entries(text: str) -> list[str]:
    """The entries of a comma list as typed, blank ones skipped."""
    return [part for part in text.split(",") if part.strip()]


def _parse_cutpoints(items: list[str] | None) -> CalibrationSpec:
    columns: dict = {}
    for item in items or []:
        if ":" not in item:
            raise InputError(f"--cutpoints expects COLUMN:p1,p2,..., got {_echo(item)!r}")
        name, _, rest = item.partition(":")
        try:
            points = tuple(map(float, _entries(rest)))
        except ValueError:
            raise InputError(f"--cutpoints {_echo(item)!r}: thresholds must be numeric") from None
        name = name.strip()
        if name in columns:
            raise InputError(f"--cutpoints names column {_echo(name)!r} twice")
        columns[name] = Cutpoints(points)
    return CalibrationSpec(columns)


def _parse_literals(text: str, table: CaseTable) -> tuple[Literal, ...]:
    lits = []
    for part in map(str.strip, _entries(text)):
        if "=" not in part:
            raise InputError(f"--assume-necessary expects FACTOR=LEVEL, got {_echo(part)!r}")
        name, _, level = part.partition("=")
        idx = table.schema.factor_index(name.strip())
        try:
            v = int(level)
        except ValueError:
            raise InputError(f"--assume-necessary {_echo(part)!r}: level must be an integer") from None
        if not 0 <= v < table.schema.factors[idx].levels:
            raise InputError(
                f"--assume-necessary {_echo(part)!r}: level {_echo(v)} out of range "
                f"(0..{table.schema.factors[idx].levels - 1})"
            )
        if any(lit.factor_index == idx for lit in lits):
            raise InputError(f"--assume-necessary names factor {_echo(name.strip())!r} twice")
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
            f"--label {_echo(label)!r} is neither an outcome label nor an integer level"
        ) from None
    if not 0 <= value < outcome.levels:
        raise InputError(f"--label {_echo(value)} out of range (outcome levels 0..{outcome.levels - 1})")
    return value


def _load(args: argparse.Namespace) -> CaseTable:
    table = load_csv(
        args.data,
        outcome_column=args.outcome,
        calibration=_parse_cutpoints(args.cutpoints),
        id_column=args.id_column,
    )
    for f in numeric_label_columns(table):
        print(
            f"warning: column {_echo(f.name)!r} has {f.levels} levels, one per distinct number; "
            f"calibrate it with --cutpoints {_echo(f.name)}:p1,p2,...",
            file=sys.stderr,
        )
    if args.dedup:
        table, removed = deduplicate(table)
        if removed:
            print(f"note: removed {removed} duplicate case(s)", file=sys.stderr)
    if args.emit_schema:
        write_schema_json(table, args.emit_schema)
    return table


def _params(args: argparse.Namespace, table: CaseTable | None, omit: tuple[str, ...] = ()) -> AnalysisParams:
    """The run's `AnalysisParams`, from the analysis flags given on the command line.

    `--assume-necessary` is parsed against `table` first, then `--label` is
    resolved in it; a run without a table decides for level 1. A field left
    out, or named in `omit`, keeps its `AnalysisParams` default.
    """
    given = {field: getattr(args, field) for field, _ in ANALYSIS_FLAGS.values()
             if field not in omit and hasattr(args, field)}
    assume = given.pop("assume_necessary", None)
    if assume:
        given["assume_necessary"] = _parse_literals(assume, table)
    return AnalysisParams(1 if table is None else _resolve_label(table, args.label), **given)


def _levels_arg(text: str, n_factors: int) -> int | list[int]:
    try:
        values = list(map(int, _entries(text)))
    except ValueError:
        raise InputError(f"--levels must be an integer or comma list, got {_echo(text)!r}") from None
    if len(values) == 1:
        return values[0]
    if len(values) != n_factors:
        raise InputError(f"--levels lists {len(values)} counts for {n_factors} factors")
    return values


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return list(map(int, _entries(text)))
    except ValueError:
        raise InputError(f"{flag} expects a comma-separated integer list, got {_echo(text)!r}") from None


def _warn_enumeration_bound(table: CaseTable, params: AnalysisParams) -> int:
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


def _cmd_necessity(args: argparse.Namespace) -> dict:
    table = _load(args)
    params = _params(args, table)
    rows = necessary_conditions(table, params)
    conflicted = conflicting_factors(rows)
    if conflicted:
        names = ", ".join(_echo(table.schema.factors[i].name) for i in conflicted)
        print(
            f"warning: multiple levels of factor(s) {names} qualify as necessary; "
            "solve conjoins none of them unless --assume-necessary picks one",
            file=sys.stderr,
        )
    return report.necessity_payload(rows, table, params)


def _cmd_candidates(args: argparse.Namespace) -> dict:
    table = _load(args)
    params = _params(args, table)
    bound = _warn_enumeration_bound(table, params)
    rules = enumerate_candidates(table, range(len(table.schema.factors)), params)
    return report.candidates_payload(rules, table, params, bound)


def _cmd_solve(args: argparse.Namespace) -> dict:
    table = _load(args)
    params = _params(args, table)
    _warn_enumeration_bound(table, params)
    result = solve(table, params)
    oracle = None
    if args.oracle:
        positives = table.positive_ids(params.decision_label)
        oracle = exhaustive_cover_oracle(result.candidates, positives, params)
    return report.solve_payload(result, oracle)


def _cmd_synth(args: argparse.Namespace) -> None:
    from .pathways import ExperimentSpec, generate_experiment_table, parse_pathway, synth_schema

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


def _cmd_experiment(args: argparse.Namespace) -> dict:
    from statistics import median

    from .pathways import ExperimentSpec, parse_pathway, run_experiment, synth_schema

    schema = synth_schema(args.factors, _levels_arg(args.levels, args.factors))
    pathway = parse_pathway(args.pathway, schema)
    base_seed = _seed_default(args.seed)
    params = _params(args, None)
    confounds = _int_list(args.confounds, "--confounds")
    if not confounds:
        raise InputError("--confounds must list at least one count")
    check_reps(args.reps)

    def row(c, rep, seed, expression, consistency, coverage, candidates) -> dict:
        return {"confounds": c, "rep": rep, "seed": seed, "expression": expression,
                "consistency": float(consistency), "coverage": float(coverage), "candidates": candidates}

    rows = []
    for c in confounds:
        # Only each repetition's three exact figures are kept: --reps goes up to 100 000.
        per_rep: list[tuple[Fraction, Fraction, int]] = []
        for rep in range(args.reps):
            seed = base_seed if args.reps == 1 else derive_seed(base_seed, rep)
            spec = ExperimentSpec(schema, pathway, args.samples, c, seed)
            try:
                got = run_experiment(spec, params)
            except ScpqcaError as exc:  # name the draw that failed, keep the class and so the exit code
                where = f"confounds {c}" + (f", rep {rep}" if args.reps > 1 else "")
                raise type(exc)(f"{where} (seed {_echo(seed)}): {exc}") from None
            per_rep.append((got.consistency, got.coverage, got.candidate_count))
            rows.append(row(c, rep if args.reps > 1 else None, seed, got.expression, *per_rep[-1]))
        if args.reps > 1:
            consistency, coverage, candidates = map(median, zip(*per_rep))
            rows.append(row(c, "median", base_seed, "-", consistency, coverage, int(candidates)))
    return report.experiment_payload(
        rows,
        {
            "pathway": pathway.expression(),
            "factors": args.factors,
            "samples": args.samples,
            "seed": base_seed,
            "reps": args.reps,
        },
    )


def _cmd_sweep(args: argparse.Namespace) -> dict:
    table = _load(args)
    # The swept values go into the grid, so `sweep --cutoff 0` fails one cell.
    params = _params(args, table, omit=SWEPT)
    consistency, cutoff, unique = (getattr(args, field, getattr(params, field)) for field in SWEPT)
    # `internal_sweep` parses each consistency, so that an error echoes it as given.
    # A list flag given empty (`--cutoff-list=`) is an input error, not the single value.
    cons_list = [consistency] if args.consistency_list is None else _entries(args.consistency_list)
    cutoff_list = [cutoff] if args.cutoff_list is None else _int_list(args.cutoff_list, "--cutoff-list")
    unique_list = (
        [unique] if args.unique_cover_list is None else _int_list(args.unique_cover_list, "--unique-cover-list")
    )
    grid = [(c, k, u) for c in cons_list for k in cutoff_list for u in unique_list]
    cells = internal_sweep(table, grid, params)
    return report.sweep_payload(cells, table.schema)


def _cmd_xval(args: argparse.Namespace) -> dict:
    table = _load(args)
    params = _params(args, table)
    validity = external_validity(
        table, params, fraction=args.fraction, reps=args.reps, seed=_seed_default(args.seed)
    )
    return report.xval_payload(validity, table.schema)


# ---------------------------------------------------------------------------
# Parser assembly


# The flags, other than the analysis flags, that subcommands declare alike:
# each one's `add_argument` keywords.
_SHARED_FLAGS = {
    "--data": {"required": True, "help": "CSV dataset (UTF-8, header row)"},
    "--outcome": {"required": True, "help": "outcome column name"},
    "--label": {"default": "1", "help": "decision label (outcome level or raw label)"},
    "--id-column": {"help": "column holding case ids"},
    "--cutpoints": {"action": "append", "metavar": "COL:p1,p2",
                    "help": "threshold calibration for a column (repeatable)"},
    "--dedup": {"action": "store_true", "help": "drop cases identical in all values and outcome"},
    "--emit-schema": {"metavar": "PATH", "help": "write the schema metadata sidecar as JSON"},
    "--seed": {"type": int, "help": "PRNG seed (fallback: SCPQCA_SEED, then 0)"},
    "--format": {"choices": ["text", "json", "csv"], "default": "text"},
    "--timing": {"action": "store_true", "help": "print runtime to stderr"},
    "--factors": {"type": int, "required": True},
    "--samples": {"type": int, "default": 200},
}
_DATA = ("--data", "--outcome", "--label", "--id-column", "--cutpoints", "--dedup", "--emit-schema")
_OUT = ("--format", "--timing")

# Each subcommand: its handler, its help line and its flags in help order. A
# flag is a `_SHARED_FLAGS` or `ANALYSIS_FLAGS` name, or a `(flag, keywords)`
# pair that only this subcommand declares.
_COMMANDS = {
    "necessity": (_cmd_necessity, "report necessary conditions", (*_DATA, "--necessity-threshold", *_OUT)),
    "candidates": (_cmd_candidates, "enumerate the candidate rule list",
                   (*_DATA, "--consistency", "--cutoff", "--max-order", *_OUT)),
    "solve": (_cmd_solve, "run the full two-step pipeline", (
        *_DATA, *ANALYSIS_FLAGS, *_OUT,
        ("--oracle", {"action": "store_true",
                      "help": "cross-check the greedy cover with the exact oracle (small instances)"}),
    )),
    "synth": (_cmd_synth, "generate a synthetic planted-pathway dataset", (
        "--seed", "--factors",
        ("--levels", {"default": "2", "help": "level count, or comma list per factor"}),
        ("--pathway", {"required": True, "help": "DNF pathway, e.g. 'ab+CD' or 'A0*B0+B1*C1'"}),
        "--samples",
        ("--confound", {"type": int, "default": 0, "help": "outcomes to corrupt"}),
        ("--emit", {"choices": ["csv", "json"], "default": "csv"}),
        ("--out", {"help": "output path (default stdout)"}),
    )),
    "experiment": (_cmd_experiment, "planted-pathway recovery sweep over confound counts", (
        *(flag for flag in ANALYSIS_FLAGS if flag != "--assume-necessary"), "--seed", *_OUT,
        "--factors", ("--levels", {"default": "2"}), ("--pathway", {"required": True}), "--samples",
        ("--confounds", {"default": "0", "help": "comma list of confound counts"}),
        ("--reps", {"type": int, "default": 1, "help": "repetitions per confound count"}),
    )),
    "sweep": (_cmd_sweep, "internal validity: rerun over a parameter grid", (*_DATA, *ANALYSIS_FLAGS, *_OUT)),
    "xval": (_cmd_xval, "external validity: jackknife resampling", (
        *_DATA, *ANALYSIS_FLAGS, "--seed", *_OUT,
        ("--fraction", {"type": float, "default": 0.10, "help": "share of cases to remove"}),
        ("--reps", {"type": int, "default": 10}),
    )),
}


def _add_flag(container, flag: str | tuple[str, dict]) -> None:
    if isinstance(flag, tuple):
        flag, keywords = flag
    elif flag in ANALYSIS_FLAGS:
        field, keywords = ANALYSIS_FLAGS[flag]
        keywords = {"dest": field, "default": argparse.SUPPRESS, **keywords}
    else:
        keywords = _SHARED_FLAGS[flag]
    container.add_argument(flag, **keywords)


@functools.cache
def build_parser() -> _Parser:
    parser = _Parser(prog="scpqca", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, (handler, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.set_defaults(func=handler)
        for flag in flags:
            if name == "sweep" and flag in _SWEEP_LISTS:
                group = p.add_mutually_exclusive_group()
                _add_flag(group, flag)
                list_flag, metavar = _SWEEP_LISTS[flag]
                group.add_argument(list_flag, metavar=metavar)
            else:
                _add_flag(p, flag)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        t0 = time.perf_counter()
        payload = args.func(args)
        if payload is not None:  # `synth` writes its own output
            fmt = args.format
            view = report.render_json if fmt == "json" else getattr(report, f"{payload['command']}_{fmt}")
            sys.stdout.write(view(payload))
        if getattr(args, "timing", False):
            print(f"total runtime: {time.perf_counter() - t0:.2f}s", file=sys.stderr)
        return 0
    except _ArgumentError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except VacuousSolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ScpqcaError, OSError) as exc:
        if isinstance(exc, OSError) and isinstance(exc.filename, str):
            exc.filename = _echo(exc.filename)  # a long path is echoed cut, like any other value
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse --help
        code = exc.code
        return int(code) if isinstance(code, int) else 0
    except Exception as exc:  # pragma: no cover - safety net, no bare traces
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
