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
``matched_bits & uncovered``, and uncovered holds positives only: the
`positives` ids, mapped once per call onto the candidates' `positives`.
Greedy, assembly and the oracle read the decision label and `unique_cover`
of the run's one `model.AnalysisParams`, which checked them when it was built.

Each greedy pass takes gains first and ties second: it computes every
rule's gain and their maximum, and compares only the rules that tie on that
gain. A tie breaks by higher consistency, compared as exact integer cross
products of the popcounts (``p * m'`` against ``p' * m``, so no `Fraction`
is built), then fewer literals, then the earlier candidate. Gains only fall
as cases get covered, so after each pass the rules whose gain is below
`unique_cover`, the picked one included, leave the scan for good; the
tie-break still sees each rule's original candidate index. Lazy greedy
(Minoux 1978), a heap keyed by gain and a precomputed tie-break rank, picks
the same rules but measured slower than this scan on the small, repeated
solves of a sweep or jackknife: ranking the rules by their `Fraction`
consistencies costs more than the passes it saves.

A run is recorded on the `CandidateRules` it covered: its starting
uncovered bits, its floor, its picks and each pick's gain. Picked gains
never rise, and a rule whose gain is below a floor `f` can never tie the
best while the best is at least `f`, so a run at `f` makes exactly the
picks of a run at any lower floor whose gain is at least `f`, and stops
where they stop. A later call on the same rules and the same uncovered
bits at a floor at least the recorded one is answered from the record
without a pass; any other call runs and replaces it. A sweep's cells that
share a (consistency, cutoff) share one `CandidateRules` (see
`candidates.CandidatePool`), so they cover once at the first cell's floor,
and once more only where a later cell's floor is lower. A plain list is
put into new columns on each call, so it never meets an old record.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Iterable, Sequence

from .model import (
    AnalysisParams,
    CandidateRule,
    CandidateRules,
    CaseTable,
    Conjunction,
    InputError,
    Literal,
    Solution,
    UndefinedRatioError,
    VacuousSolutionError,
    bits_of,
    match_bits,
    rule_from_conjunction,
    solution_metrics,
)

ORACLE_CANDIDATE_LIMIT = 20


def greedy_cover(
    candidates: Sequence[CandidateRule], positives: Iterable[str], params: AnalysisParams
) -> list[CandidateRule]:
    """Forward greedy selection; empty result means no admissible cover."""
    columns = CandidateRules.of(candidates)
    uncovered = bits_of(positives, columns.ids) & columns.positives
    floor = params.unique_cover
    record = columns._greedy
    if record is not None and record[0] == uncovered and record[1] <= floor:
        return [candidates[i] for i, gain in zip(record[2], record[3]) if gain >= floor]
    start = uncovered
    # Live rules: their matched bits and their index in `candidates`.
    mbits = columns.matched_bits
    index = list(range(len(candidates)))
    picks: list[int] = []
    picked_gains: list[int] = []
    while uncovered and mbits:
        gains = [(m & uncovered).bit_count() for m in mbits]
        best = max(gains)
        if best < floor:
            break
        at = gains.index(best)
        if gains.count(best) > 1:
            # Consistencies p/m compared as p * m' against p' * m, then fewer
            # literals; on a full tie the earlier rule, found first, stays.
            pos, lits = columns.positives, columns.literals
            p, m, size = (mbits[at] & pos).bit_count(), mbits[at].bit_count(), len(lits[index[at]])
            for i in range(at + 1, len(gains)):
                if gains[i] == best:
                    pi, mi, si = (mbits[i] & pos).bit_count(), mbits[i].bit_count(), len(lits[index[i]])
                    if pi * m > p * mi or (pi * m == p * mi and si < size):
                        at, p, m, size = i, pi, mi, si
        picks.append(index[at])
        picked_gains.append(best)
        uncovered &= ~mbits[at]
        gains[at] = 0
        live = [gain >= floor for gain in gains]
        mbits = list(compress(mbits, live))
        index = list(compress(index, live))
    columns._greedy = (start, floor, picks, picked_gains)
    return [candidates[i] for i in picks]


def unique_coverage(rules: Sequence[CandidateRule]) -> tuple[int, ...]:
    """Per rule: positives it matches that no other listed rule matches."""
    once = twice = 0
    for rule in rules:
        twice |= once & rule.positive_bits
        once |= rule.positive_bits
    only = once & ~twice
    return tuple((rule.positive_bits & only).bit_count() for rule in rules)


def assemble_solution(
    necessary: Sequence[Literal],
    selected: Sequence[CandidateRule],
    table: CaseTable,
    params: AnalysisParams,
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

    positives = table.require_positives(params.decision_label)

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
        per_rule_unique_coverage=unique_coverage(effective),
    )


def exhaustive_cover_oracle(
    candidates: Sequence[CandidateRule],
    positives: Iterable[str],
    params: AnalysisParams,
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
