"""Greedy maximal-coverage rule selection and solution assembly.

The selection loop repeatedly picks, among the rules whose marginal gain
(positive cases matched but not yet covered) is at least `unique_cover`, the
one with the largest gain. Ties break by higher rule consistency, then fewer
literals, then the deterministic candidate ordering, so a run is exactly
reproducible. The unique-cover floor binds at selection time against the
then-uncovered cases; a rule's final unique coverage, reported per rule, can
end up lower once later picks overlap it. There is no backward pruning or
replacement, pure forward greedy.

`exhaustive_cover_oracle` is an independent exact search over rule subsets
used by tests and the `--oracle` flag; a subset is admissible when some pick
order gives every rule a marginal gain of at least `unique_cover`, which by
construction includes every sequence the greedy loop can produce.

Greedy reads its candidates as the columns of a `model.CandidateRules` (a
plain list of rules is put into columns once), bitsets over the table's ids,
and builds rule objects only for its picks. A gain is the popcount of
``positive_bits & uncovered``; `positives` are ids, mapped onto the
candidates' ids once per call.

Each greedy pass takes gains first and ties second: it computes every
rule's gain and their maximum, and builds the full tie-break key
(consistency from the popcounts, fewer literals, candidate order) only for
the rules that tie on that gain, so most passes build no `Fraction`. Gains
only fall as cases get covered, so after each pass the rules whose gain is
below `unique_cover`, the picked one included, leave the scan for good; the
tie-break still sees each rule's original candidate index. Lazy greedy
(Minoux 1978), a heap keyed by gain and a precomputed tie-break rank, picks
the same rules but measured slower than this scan on the small, repeated
solves of a sweep or jackknife: ranking the rules by their `Fraction`
consistencies costs more than the passes it saves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from .model import (
    CandidateRule,
    CandidateRules,
    CaseTable,
    Conjunction,
    InputError,
    Literal,
    Solution,
    UndefinedRatioError,
    VacuousSolutionError,
    as_index,
    bits_of,
    match_bits,
    rule_from_conjunction,
    solution_metrics,
)

ORACLE_CANDIDATE_LIMIT = 20


@dataclass(frozen=True)
class CoverParams:
    decision_label: int
    unique_cover: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "decision_label", as_index(self.decision_label, "decision_label"))
        object.__setattr__(self, "unique_cover", as_index(self.unique_cover, "unique_cover"))
        if self.unique_cover < 1:
            raise InputError(f"unique_cover must be >= 1, got {self.unique_cover}")


def greedy_cover(
    candidates: Sequence[CandidateRule], positives: Iterable[str], params: CoverParams
) -> list[CandidateRule]:
    """Forward greedy selection; empty result means no admissible cover."""
    columns = CandidateRules.of(candidates)
    uncovered = bits_of(positives, columns.ids)
    floor = params.unique_cover
    # Live rules: their positive bits and their index in `candidates`.
    pbits = columns.positive_bits
    index = list(range(len(candidates)))
    picks: list[int] = []
    while uncovered and pbits:
        gains = [(p & uncovered).bit_count() for p in pbits]
        best = max(gains)
        if best < floor:
            break
        at = gains.index(best)
        if gains.count(best) > 1:
            at = max(
                (i for i, gain in enumerate(gains) if gain == best),
                key=lambda i: (
                    Fraction(pbits[i].bit_count(), columns.matched_bits[index[i]].bit_count()),
                    -len(columns.literals[index[i]]),
                    -index[i],
                ),
            )
        picks.append(index[at])
        uncovered &= ~pbits[at]
        gains[at] = 0
        live = [gain >= floor for gain in gains]
        pbits = list(compress(pbits, live))
        index = list(compress(index, live))
    return [candidates[i] for i in picks]


def unique_coverage(rules: Sequence[CandidateRule], positives: Iterable[str]) -> tuple[int, ...]:
    """Per rule: positives it matches that no other listed rule matches."""
    if not rules:
        return ()
    once = twice = 0
    for rule in rules:
        twice |= once & rule.positive_bits
        once |= rule.positive_bits
    only = once & ~twice & bits_of(positives, rules[0].ids)
    return tuple((rule.positive_bits & only).bit_count() for rule in rules)


def assemble_solution(
    necessary: Sequence[Literal],
    selected: Sequence[CandidateRule],
    table: CaseTable,
    params: CoverParams,
) -> Solution:
    """Conjoin the necessary literals with the selected rules and score the result.

    Metrics are computed on the full table with the necessary literals folded
    into every rule's match predicate (they were excluded from enumeration, so
    the stored matched sets do not account for them). With no selected rules
    the solution is the bare conjunction of the necessary literals; with
    neither, there is nothing to report and VacuousSolutionError is raised.
    """
    necessary = tuple(sorted(necessary))
    if not selected and not necessary:
        raise VacuousSolutionError("no admissible cover and no necessary conditions")
    table.require_unique_ids()
    base = Conjunction(necessary)

    positives = table.positive_bits(params.decision_label)
    if not positives:
        raise UndefinedRatioError(f"no cases with outcome {params.decision_label}")

    effective: list[CandidateRule] = []
    for rule in selected:
        matched = match_bits(base.merge(rule.conjunction), table)
        if not matched:
            raise UndefinedRatioError(
                "selected rule matches no cases once the necessary conditions are conjoined"
            )
        # Keep the selected conjunction; case bits are the effective ones.
        effective.append(CandidateRule(rule.conjunction, matched, matched & positives, table.ids))

    scored = effective or [rule_from_conjunction(base, table, params.decision_label)]
    consistency, coverage = solution_metrics(scored, table, params.decision_label)
    return Solution(
        necessary=necessary,
        rules=tuple(effective),
        decision_label=params.decision_label,
        solution_consistency=consistency,
        solution_coverage=coverage,
        per_rule_unique_coverage=unique_coverage(effective, table.positive_ids(params.decision_label)),
    )


def exhaustive_cover_oracle(
    candidates: Sequence[CandidateRule],
    positives: Iterable[str],
    params: CoverParams,
) -> list[CandidateRule]:
    """Exact best admissible selection, for cross-checking the greedy loop.

    Maximizes (covered positives, fewer rules, higher union consistency),
    with the lexicographically smallest candidate-index set as the final
    tie-break. Admissibility means some pick order exists in which every
    rule contributes at least `unique_cover` new positives, checked by a
    DP over subsets, so the search is exponential and the candidate list
    is capped at 20.
    """
    n = len(candidates)
    if n > ORACLE_CANDIDATE_LIMIT:
        raise InputError(
            f"{n} candidate rules exceed the oracle limit of {ORACLE_CANDIDATE_LIMIT}; "
            "tighten the filters or skip --oracle"
        )

    pos_mask = bits_of(positives, candidates[0].ids) if candidates else 0
    pos_bits = [rule.positive_bits & pos_mask for rule in candidates]
    matched_bits = [rule.matched_bits for rule in candidates]

    total = 1 << n
    covered = [0] * total  # positives covered by the subset
    union = [0] * total  # all cases matched by the subset
    reachable = [False] * total
    reachable[0] = True
    for sub in range(1, total):
        low = sub & -sub
        prev = sub ^ low
        covered[sub] = covered[prev] | pos_bits[low.bit_length() - 1]
        union[sub] = union[prev] | matched_bits[low.bit_length() - 1]
        s = sub
        while s:
            b = s & -s
            s ^= b
            rest = sub ^ b
            if reachable[rest]:
                gain = (pos_bits[b.bit_length() - 1] & ~covered[rest]).bit_count()
                if gain >= params.unique_cover:
                    reachable[sub] = True
                    break

    best_sub = 0
    best_key: tuple = (0, 0, Fraction(0), ())
    for sub in range(total):
        if not reachable[sub]:
            continue
        cov = covered[sub].bit_count()
        u = union[sub]
        cons = Fraction((u & pos_mask).bit_count(), u.bit_count()) if u else Fraction(0)
        idxs = tuple(i for i in range(n) if sub >> i & 1)
        key = (cov, -len(idxs), cons, tuple(-i for i in idxs))
        if key > best_key:
            best_key = key
            best_sub = sub
    return [candidates[i] for i in range(n) if best_sub >> i & 1]
