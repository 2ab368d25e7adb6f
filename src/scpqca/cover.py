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
construction includes every sequence the greedy loop can produce. Like
greedy, it refuses rules over different case ids (`candidates.CandidateRules.of`).

Greedy reads its candidates from a `candidates.CandidateRules` (a plain
list of rules is put into one once): their matched bits, bitsets over the
table's ids, and for a tie their literal counts, read from its prefix tree;
it builds rule objects only for its picks. A gain is the popcount of
``matched_bits & uncovered``, and uncovered holds positives only: the
`positives` ids, mapped once per call onto the candidates' `positives`.
Greedy, assembly and the oracle read the decision label and `unique_cover`
of the run's one `model.AnalysisParams`, which checked them when it was built.

Greedy takes gains first and ties second, and breaks a tie in one
function: higher consistency, compared as exact integer cross products of
the popcounts (``p * m'`` against ``p' * m``, so no `Fraction` is built),
then fewer literals, then the earlier candidate.

One loop, the scan, covers every rule list: a walk's, a
`candidates.CandidatePool`'s selection, or a plain list. It counts every
rule's gain once and keeps each rule in a bucket of its last counted gain
(Dial 1969), a list linked through one array slot per rule. Gains only
fall as cases get covered, so a last gain bounds the gain now: greedy
recounts the rules of the top bucket only, and moves each whose gain fell
to its new bucket, or out of the scan if it fell below `unique_cover`.
The first bucket from the top where some recounted rule keeps its gain
holds the best gain, and the rules that keep it are the whole tie set,
compared in candidate order. The buckets are lazy greedy (Minoux 1978)
without a heap. On the `wide` benchmark's tables nearly every rule keeps
a gain at or above `unique_cover` after each pick, and the buckets count
about two gains per rule where a pass per pick counted three or four:
greedy takes about 40 % less time. The first pass counts each rule's gain
and links the rule at once, with no list of gains, so it peaks at about 4
bytes a rule over its input, against 12 with that list and 31 without
buckets.

On a pool's selection the first pass links only the rules the pool left
unmarked (see `candidates.CandidatePool`), so a marked rule is never
counted or recounted. Each marked rule has a sub-conjunction in the same
selection that matches its negative cases and at least its positives:
that sub-conjunction's gain is never lower, it wins every tie, and once it
is picked the marked rule's gain is 0. On `resample` about 64 % of the
rules scanned are marked. A walk's rules carry no marks: marking them in
the walk cost it more time than greedy saved.

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
put into a new `CandidateRules` on each call, so it never meets an old record.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from typing import Iterable, Sequence

from .candidates import CandidateRules
from .model import (
    AnalysisParams,
    CandidateRule,
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
    picks, picked_gains = _scan(columns, uncovered, floor)
    columns._greedy = (uncovered, floor, picks, picked_gains)
    return [candidates[i] for i in picks]


def _tie_break(columns: CandidateRules, tied: list[int]) -> int:
    """The position in `tied`, rules in ascending order that tie on gain, of
    the one greedy picks: the higher consistency p/m, compared as ``p * m'``
    against ``p' * m``, then fewer literals; on a full tie the earlier rule."""
    pos, matched, length = columns.positives, columns.matched_bits, columns._length
    first = matched[tied[0]]
    at, p, m, size = 0, (first & pos).bit_count(), first.bit_count(), length(tied[0])
    for k in range(1, len(tied)):
        bits = matched[tied[k]]
        pk, mk, sk = (bits & pos).bit_count(), bits.bit_count(), length(tied[k])
        if pk * m > p * mk or (pk * m == p * mk and sk < size):
            at, p, m, size = k, pk, mk, sk
    return at


def _scan(columns: CandidateRules, uncovered: int, floor: int) -> tuple[list[int], list[int]]:
    """Greedy's picks and their gains, a rule recounted only while the gain
    it last had could still be the best."""
    # A live rule sits in the bucket of its last counted gain: bucket g
    # starts at rule `first[g]` and is linked through `after`, -1 ending it.
    # The buckets above `level` are empty, so the best gain is at most it.
    # The first pass counts and links each rule at once, so no list of gains
    # is held: on top of its input the scan peaks at about 4 bytes a rule.
    mbits = columns.matched_bits
    first = [-1] * (uncovered.bit_count() + 1)
    after = array("i", [-1]) * len(mbits)
    level = 0
    marks = columns._marks
    if marks is None:
        for i, m in enumerate(mbits):
            gain = (m & uncovered).bit_count()
            if gain >= floor:
                after[i], first[gain] = first[gain], i
                if gain > level:
                    level = gain
    else:  # a pool's selection: the marked rules are never picked, so never linked
        for i, node in enumerate(columns._nodes):
            if marks[node]:
                continue
            gain = (mbits[i] & uncovered).bit_count()
            if gain >= floor:
                after[i], first[gain] = first[gain], i
                if gain > level:
                    level = gain
    picks: list[int] = []
    picked_gains: list[int] = []
    while uncovered and level >= floor:
        tied = []
        i, first[level] = first[level], -1
        while i >= 0:
            gain, later = (mbits[i] & uncovered).bit_count(), after[i]
            if gain == level:
                tied.append(i)
            elif gain >= floor:
                after[i], first[gain] = first[gain], i
            i = later
        if not tied:
            level -= 1
            continue
        tied.sort()
        at = tied.pop(_tie_break(columns, tied))
        picks.append(at)
        picked_gains.append(level)
        uncovered &= ~mbits[at]
        for i in tied:
            after[i], first[level] = first[level], i
    return picks, picked_gains


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

    pos_mask = bits_of(positives, CandidateRules.of(candidates).ids)
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
