"""Synthetic experiments: DNF pathway parsing, planted outcomes, sampling.

Pathway grammar (whitespace ignored, terms separated by '+'):

* boolean shorthand, only when every factor name is a single letter:
  an uppercase letter is that factor at level 1, lowercase at level 0,
  conjoined by juxtaposition or '*' ("ab+CD+ace+BDF");
* multi-value form: a factor name immediately followed by an integer
  level, conjoined by '*' ("A0*B0+B1*C1"). Used for any term containing
  a digit.

Randomness comes from `random.Random`, CPython's Mersenne Twister
(MT19937). Its core generator is guaranteed reproducible across Python
versions and platforms when seeded, which the experiment and resampling
protocols rely on; the test suite pins reference draws. Sampling draws
`sample_size` row indices uniformly with replacement, then picks
`confound_count` distinct sampled rows (same stream) and replaces each
outcome with a different level chosen uniformly among the remaining ones.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .model import (
    CaseTable,
    Conjunction,
    Factor,
    FactorSchema,
    InputError,
    Literal,
    dnf_shorthand,
)
from .pipeline import AnalysisParams, SolveResult, solve

MAX_TRUTH_TABLE_ROWS = 1 << 24


@dataclass(frozen=True)
class PathwaySpec:
    """A parsed DNF causal pathway bound to a schema."""

    terms: tuple[Conjunction, ...]
    schema: FactorSchema

    def __post_init__(self) -> None:
        if not self.terms:
            raise InputError("pathway needs at least one term")
        for t in self.terms:
            if not t.literals:
                raise InputError("pathway terms must not be empty")
            for lit in t.literals:
                if lit.factor_index >= len(self.schema.factors):
                    raise InputError(f"literal factor index {lit.factor_index} not in schema")
                if lit.value >= self.schema.factors[lit.factor_index].levels:
                    raise InputError(
                        f"level {lit.value} out of range for factor "
                        f"{self.schema.factors[lit.factor_index].name!r}"
                    )

    def evaluate(self, values: Sequence[int]) -> bool:
        return any(t.matches_values(values) for t in self.terms)

    def expression(self) -> str:
        return dnf_shorthand(self.terms, self.schema)


@dataclass(frozen=True)
class ExperimentSpec:
    """One synthetic run: plant a pathway, sample, corrupt some outcomes."""

    schema: FactorSchema
    pathway: PathwaySpec
    sample_size: int = 200
    confound_count: int = 0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.pathway.schema != self.schema:
            raise InputError("pathway is bound to a different schema")
        if self.sample_size < 1:
            raise InputError("sample_size must be >= 1")
        if not 0 <= self.confound_count <= self.sample_size:
            raise InputError("confound_count must lie in [0, sample_size]")


# ---------------------------------------------------------------------------
# Parsing


# Terms and levels longer than this are echoed in errors cut to 12
# characters and "...", as ingest cuts a long cell.
_ECHO_LIMIT = 40


def _echo(text: str) -> str:
    return text if len(text) <= _ECHO_LIMIT else text[:12] + "..."


def _term_spans(text: str) -> list[tuple[int, int]]:
    spans = []
    start = 0
    for i, ch in enumerate(text):
        if ch == "+":
            spans.append((start, i))
            start = i + 1
    spans.append((start, len(text)))
    return spans


def _parse_bool_term(text: str, a: int, b: int, schema: FactorSchema) -> Conjunction:
    by_letter = {
        f.name.upper(): i for i, f in enumerate(schema.factors) if len(f.name) == 1 and f.name.isalpha()
    }
    if len(by_letter) != len(schema.factors):
        raise InputError(
            f"term at position {a} has no level digits, but boolean shorthand "
            "requires every factor name to be a single letter"
        )
    lits: list[Literal] = []
    pos = a
    atom_seen = False
    pending_star = False
    while pos < b:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "*":
            if not atom_seen or pending_star:
                raise InputError(f"dangling '*' at position {pos}")
            pending_star = True
            pos += 1
            continue
        if not ch.isalpha():
            raise InputError(f"unexpected character {ch!r} at position {pos}")
        idx = by_letter.get(ch.upper())
        if idx is None:
            raise InputError(f"unknown factor {ch!r} at position {pos}")
        lits.append(Literal(idx, 1 if ch.isupper() else 0))
        atom_seen = True
        pending_star = False
        pos += 1
    if not atom_seen or pending_star:
        raise InputError(f"dangling operator at position {b}")
    return Conjunction(tuple(lits))


def _parse_mv_term(text: str, a: int, b: int, schema: FactorSchema) -> Conjunction:
    names = sorted(((f.name, i) for i, f in enumerate(schema.factors)), key=lambda t: -len(t[0]))
    lits: list[Literal] = []
    pos = a
    atom_seen = False
    pending_star = False
    while pos < b:
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] == "*":
            if not atom_seen or pending_star:
                raise InputError(f"dangling '*' at position {pos}")
            pending_star = True
            pos += 1
            continue
        if atom_seen and not pending_star:
            raise InputError(f"expected '*' between atoms at position {pos}")
        hit = None
        for name, idx in names:
            if text.startswith(name, pos):
                hit = (name, idx)
                break
        if hit is None:
            raise InputError(f"unknown factor at position {pos}")
        name, idx = hit
        pos += len(name)
        while pos < b and text[pos].isspace():
            pos += 1
        j = pos
        while j < b and text[j] in "0123456789":
            j += 1
        if j == pos:
            raise InputError(f"expected level digits after factor {name!r} at position {pos}")
        try:
            level = int(text[pos:j])
        except ValueError:  # past the interpreter's limit on digits per integer
            raise InputError(
                f"level {text[pos:pos + 12]}... has {j - pos} digits, too many for factor "
                f"{name!r} at position {pos}"
            ) from None
        if level >= schema.factors[idx].levels:
            raise InputError(
                f"level {_echo(str(level))} out of range for factor {name!r} "
                f"(levels 0..{schema.factors[idx].levels - 1}) at position {pos}"
            )
        lits.append(Literal(idx, level))
        pos = j
        atom_seen = True
        pending_star = False
    if not atom_seen or pending_star:
        raise InputError(f"dangling operator at position {b}")
    return Conjunction(tuple(lits))


def parse_pathway(text: str, schema: FactorSchema) -> PathwaySpec:
    """Parse a DNF pathway expression against the schema."""
    if not text or not text.strip():
        raise InputError("empty pathway expression")
    terms: list[Conjunction] = []
    spans = _term_spans(text)
    for a, b in spans:
        if not text[a:b].strip():
            if (a, b) == spans[-1]:
                raise InputError(f"dangling '+' at position {a}")
            raise InputError(f"empty term at position {a}")
        seg = text[a:b]
        try:
            if any(c.isdigit() for c in seg):
                terms.append(_parse_mv_term(text, a, b, schema))
            else:
                terms.append(_parse_bool_term(text, a, b, schema))
        except InputError as exc:
            raise InputError(f"{exc} (term {_echo(seg.strip())!r})") from None
    return PathwaySpec(terms=tuple(terms), schema=schema)


# ---------------------------------------------------------------------------
# Generation


def synth_schema(
    n_factors: int, levels: int | Sequence[int] = 2, outcome_name: str = "OUTCOME"
) -> FactorSchema:
    """Factors named A, B, C, ... with the given level count(s), binary outcome."""
    if not 1 <= n_factors <= 26:
        raise InputError("synthetic schemas support 1..26 factors (single-letter names)")
    if isinstance(levels, int):
        per = [levels] * n_factors
    else:
        per = [int(x) for x in levels]
        if len(per) != n_factors:
            raise InputError(f"{len(per)} level counts for {n_factors} factors")
    names = [chr(ord("A") + i) for i in range(n_factors)]
    return FactorSchema(
        factors=tuple(Factor(n, lv) for n, lv in zip(names, per)),
        outcome=Factor(outcome_name, 2),
    )


def _suffix_products(counts: Sequence[int]) -> list[int]:
    after = [1] * len(counts)
    for j in range(len(counts) - 2, -1, -1):
        after[j] = after[j + 1] * counts[j + 1]
    return after


def full_truth_table(schema: FactorSchema) -> CaseTable:
    """One row per value combination, ids r0.., rightmost factor cycling fastest.

    Outcomes are a zero placeholder; `plant_outcome` fills them in.
    """
    counts = schema.level_counts()
    n = math.prod(counts)
    if n > MAX_TRUTH_TABLE_ROWS:
        raise InputError(f"truth table would have {n} rows, above the {MAX_TRUTH_TABLE_ROWS}-row bound")
    after = _suffix_products(counts)
    columns = ([v for v in range(lv) for _ in range(af)] * (n // (lv * af)) for lv, af in zip(counts, after))
    ids = tuple(f"r{i}" for i in range(n))
    return CaseTable.from_columns(schema, ids, columns, [0] * n)


def plant_outcome(skeleton: CaseTable, pathway: PathwaySpec) -> CaseTable:
    """Outcome 1 where any pathway term matches the row, else 0."""
    if pathway.schema != skeleton.schema:
        raise InputError("pathway is bound to a different schema")
    outcomes = [1 if pathway.evaluate(row) else 0 for row in skeleton.values]
    return CaseTable(schema=skeleton.schema, ids=skeleton.ids, values=skeleton.values, outcomes=outcomes)


def _confounded_level(rng: random.Random, current: int, levels: int) -> int:
    if levels == 2:
        return 1 - current
    r = rng.randrange(levels - 1)
    return r if r < current else r + 1


def sample_and_confound(table: CaseTable, spec: ExperimentSpec) -> CaseTable:
    """Resample the table with replacement and corrupt some outcomes.

    Fresh ids s0.. are assigned; with a fixed seed the result is identical
    across runs and platforms.
    """
    if spec.schema != table.schema:
        raise InputError("experiment spec is bound to a different schema")
    if len(table) == 0:
        raise InputError("cannot sample from an empty table")
    rng = random.Random(spec.seed)
    sample = table.take([rng.randrange(len(table)) for _ in range(spec.sample_size)])
    outcomes = sample.outcomes.tolist()
    for p in sorted(rng.sample(range(spec.sample_size), spec.confound_count)):
        outcomes[p] = _confounded_level(rng, outcomes[p], spec.schema.outcome_levels)
    ids = tuple(f"s{i}" for i in range(spec.sample_size))
    return CaseTable(schema=spec.schema, ids=ids, values=sample.values, outcomes=outcomes)


def generate_experiment_table(spec: ExperimentSpec) -> CaseTable:
    """Sampled-and-confounded table without materializing the truth table.

    Row indices are drawn exactly as `sample_and_confound` would draw them
    from `plant_outcome(full_truth_table(schema), pathway)`, then decoded
    directly, so the two routes produce identical tables for the same seed
    while this one stays cheap for large factor spaces.
    """
    counts = spec.schema.level_counts()
    n_rows = math.prod(counts)
    after = _suffix_products(counts)
    rng = random.Random(spec.seed)
    idx = [rng.randrange(n_rows) for _ in range(spec.sample_size)]
    columns = [[(i // af) % lv for i in idx] for lv, af in zip(counts, after)]
    outcomes = [1 if spec.pathway.evaluate(row) else 0 for row in zip(*columns)]
    for p in sorted(rng.sample(range(spec.sample_size), spec.confound_count)):
        outcomes[p] = _confounded_level(rng, outcomes[p], spec.schema.outcome_levels)
    ids = tuple(f"s{i}" for i in range(spec.sample_size))
    return CaseTable.from_columns(spec.schema, ids, columns, outcomes)


# ---------------------------------------------------------------------------
# Experiment runner


@dataclass(frozen=True)
class ExperimentReport:
    spec: ExperimentSpec
    params: AnalysisParams
    result: SolveResult
    expression: str
    consistency: Fraction
    coverage: Fraction
    candidate_count: int


def run_experiment(spec: ExperimentSpec, params: AnalysisParams) -> ExperimentReport:
    """Generate the table, run the full pipeline, report the solution row."""
    table = generate_experiment_table(spec)
    result = solve(table, params)
    return ExperimentReport(
        spec=spec,
        params=params,
        result=result,
        expression=dnf_shorthand(result.solution.configurations(), spec.schema),
        consistency=result.solution.solution_consistency,
        coverage=result.solution.solution_coverage,
        candidate_count=len(result.candidates),
    )
