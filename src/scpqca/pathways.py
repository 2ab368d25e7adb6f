"""Synthetic experiments: DNF pathway parsing, planted outcomes, sampling.

Pathway grammar (whitespace ignored, terms separated by '+'):

* boolean shorthand, only when the factor names are single letters that
  differ beyond case: an uppercase letter is that factor at level 1,
  lowercase at level 0, conjoined by juxtaposition or '*' ("ab+CD+ace+BDF");
* multi-value form: the longest factor name that fits, then its level as
  a run of ASCII digits, maybe after whitespace ("B 2"); atoms conjoined
  by '*' ("A0*B0+B1*C1"). Used for any term containing a digit.

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
from collections.abc import Iterable
from fractions import Fraction
from functools import partial
from typing import Callable, Sequence

from .model import (
    CaseTable,
    Conjunction,
    Factor,
    FactorSchema,
    InputError,
    Literal,
    _check_literal,
    _echo,
    as_index,
    dnf_shorthand,
    frozen,
)
from .pipeline import AnalysisParams, SolveResult, solve

MAX_TRUTH_TABLE_ROWS = 1 << 24
# A sample is drawn as one list of row indices, so its size is bounded.
MAX_SAMPLE_SIZE = 10**7


@frozen
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
                _check_literal(self.schema, lit)

    def evaluate(self, values: Sequence[int]) -> bool:
        return any(t.matches_values(values) for t in self.terms)

    def expression(self) -> str:
        return dnf_shorthand(self.terms, self.schema)


@frozen
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
        n = as_index(self.sample_size, "sample_size", 1, MAX_SAMPLE_SIZE)
        object.__setattr__(self, "sample_size", n)
        object.__setattr__(self, "confound_count", as_index(self.confound_count, "confound_count", 0, n))
        object.__setattr__(self, "seed", as_index(self.seed, "seed"))


# ---------------------------------------------------------------------------
# Parsing


def _read_letter(by_letter: dict[str, int], text: str, pos: int, b: int) -> tuple[Literal, int]:
    ch = text[pos]
    if not ch.isalpha():
        raise InputError(f"unexpected character {ch!r} at position {pos}")
    idx = by_letter.get(ch.upper())
    if idx is None:
        raise InputError(f"unknown factor {ch!r} at position {pos}")
    return Literal(idx, 1 if ch.isupper() else 0), pos + 1


def _read_level(names: list[tuple[str, int]], schema: FactorSchema, text: str, pos: int, b: int) -> tuple[Literal, int]:
    hit = next(((name, idx) for name, idx in names if text.startswith(name, pos)), None)
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
        raise InputError(f"expected level digits after factor {_echo(name)!r} at position {pos}")
    try:
        level = int(text[pos:j])
    except ValueError:  # past the interpreter's limit on digits per integer
        raise InputError(
            f"level {_echo(text[pos:j])} has {j - pos} digits, too many for factor "
            f"{_echo(name)!r} at position {pos}"
        ) from None
    if level >= schema.factors[idx].levels:
        raise InputError(
            f"level {_echo(level)} out of range for factor {_echo(name)!r} "
            f"(levels 0..{schema.factors[idx].levels - 1}) at position {pos}"
        )
    return Literal(idx, level), j


def _parse_term(
    text: str, a: int, b: int, read_atom: Callable[[str, int, int], tuple[Literal, int]], star_optional: bool
) -> Conjunction:
    """The atoms of ``text[a:b]``, joined by '*', or also by juxtaposition if `star_optional`.

    ``read_atom(text, pos, b)`` reads the atom at `pos` and returns its literal
    and the position after it.
    """
    lits: list[Literal] = []
    pending_star = False
    pos = a
    while pos < b:
        if text[pos].isspace():
            pos += 1
        elif text[pos] == "*":
            if not lits or pending_star:
                raise InputError(f"dangling '*' at position {pos}")
            pending_star = True
            pos += 1
        elif lits and not pending_star and not star_optional:
            raise InputError(f"expected '*' between atoms at position {pos}")
        else:
            lit, pos = read_atom(text, pos, b)
            lits.append(lit)
            pending_star = False
    if not lits or pending_star:
        raise InputError(f"dangling operator at position {b}")
    return Conjunction(tuple(lits))


def parse_pathway(text: str, schema: FactorSchema) -> PathwaySpec:
    """Parse a DNF pathway expression against the schema."""
    if not text or not text.strip():
        raise InputError("empty pathway expression")
    by_letter = {f.name.upper(): i for i, f in enumerate(schema.factors) if len(f.name) == 1 and f.name.isalpha()}
    longest_first = sorted(((f.name, i) for i, f in enumerate(schema.factors)), key=lambda t: -len(t[0]))
    terms: list[Conjunction] = []
    a = 0
    for seg in text.split("+"):
        b = a + len(seg)
        if not seg.strip():
            raise InputError(f"dangling '+' at position {a}" if b == len(text) else f"empty term at position {a}")
        try:
            if any(c.isdigit() for c in seg):
                terms.append(_parse_term(text, a, b, partial(_read_level, longest_first, schema), star_optional=False))
            elif len(by_letter) != len(schema.factors):
                raise InputError(
                    f"term at position {a} has no level digits, but boolean shorthand "
                    "requires every factor name to be a single letter"
                )
            else:
                terms.append(_parse_term(text, a, b, partial(_read_letter, by_letter), star_optional=True))
        except InputError as exc:
            raise InputError(f"{exc} (term {_echo(seg.strip())!r})") from None
        a = b + 1
    return PathwaySpec(terms=tuple(terms), schema=schema)


# ---------------------------------------------------------------------------
# Generation


def synth_schema(n_factors: int, levels: int | Sequence[int] = 2) -> FactorSchema:
    """Factors named A, B, C, ... with the given level count(s), each read by `Factor`, binary outcome OUTCOME."""
    n_factors = as_index(n_factors, "n_factors")
    if not 1 <= n_factors <= 26:
        raise InputError("synthetic schemas support 1..26 factors (single-letter names)")
    scalar = isinstance(levels, str) or not isinstance(levels, Iterable)
    per = [levels] * n_factors if scalar else list(levels)
    if len(per) != n_factors:
        raise InputError(f"{len(per)} level counts for {n_factors} factors")
    names = [chr(ord("A") + i) for i in range(n_factors)]
    return FactorSchema(
        factors=tuple(Factor(n, lv) for n, lv in zip(names, per)),
        outcome=Factor("OUTCOME", 2),
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


def _confound(rng: random.Random, spec: ExperimentSpec, outcomes: list[int]) -> tuple[str, ...]:
    """Give `spec.confound_count` distinct rows a different outcome; return the fresh ids s0..."""
    levels = spec.schema.outcome_levels
    for p in sorted(rng.sample(range(spec.sample_size), spec.confound_count)):
        r = rng.randrange(levels - 1) if levels > 2 else 0  # a binary outcome flips without a draw
        outcomes[p] = r if r < outcomes[p] else r + 1
    return tuple(f"s{i}" for i in range(spec.sample_size))


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
    ids = _confound(rng, spec, outcomes)
    return CaseTable(schema=spec.schema, ids=ids, values=sample.values, outcomes=outcomes)


def generate_experiment_table(spec: ExperimentSpec) -> CaseTable:
    """Sampled-and-confounded table without materializing the truth table.

    Row indices are drawn exactly as `sample_and_confound` would draw them
    from `plant_outcome(full_truth_table(schema), pathway)`, then decoded
    directly, so the two routes produce identical tables for the same seed
    while this one stays cheap for large factor spaces. Those three are the
    reference route the tests compare this one against; the package does
    not export them.
    """
    counts = spec.schema.level_counts()
    n_rows = math.prod(counts)
    after = _suffix_products(counts)
    rng = random.Random(spec.seed)
    idx = [rng.randrange(n_rows) for _ in range(spec.sample_size)]
    columns = [[(i // af) % lv for i in idx] for lv, af in zip(counts, after)]
    outcomes = [1 if spec.pathway.evaluate(row) else 0 for row in zip(*columns)]
    ids = _confound(rng, spec, outcomes)
    return CaseTable.from_columns(spec.schema, ids, columns, outcomes)


# ---------------------------------------------------------------------------
# Experiment runner


@frozen
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
