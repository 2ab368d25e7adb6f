"""End-to-end cross-check of solve() against a from-scratch reference.

The reference below re-implements the whole two-step pipeline with nothing
but itertools and set arithmetic: necessity by counting loops, enumeration
by materializing every conjunction, greedy selection by scanning sorted
lists, metrics by explicit set unions. Same contracts, none of the shared
code paths (no numpy masks, no frontier pruning, no Fraction reuse beyond
the standard library). Agreement over many random tables is the strongest
single piece of evidence that the fast implementation is faithful.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from scpqca import AnalysisParams, CaseTable, ScpqcaError, solve
from conftest import random_table


def reference_solve(table: CaseTable, params: AnalysisParams):
    cases = [
        (table.ids[i], tuple(int(v) for v in table.values[i]), int(table.outcomes[i]))
        for i in range(len(table))
    ]
    label = params.decision_label
    positives = {cid for cid, _, o in cases if o == label}
    if not positives:
        raise ValueError("no positives")

    # step 1: necessity
    nf = len(table.schema.factors)
    necessary = []
    for i in range(nf):
        for v in range(table.schema.factors[i].levels):
            hits = sum(1 for cid, vals, o in cases if o == label and vals[i] == v)
            cons = Fraction(hits, len(positives))
            if cons > params.necessity_threshold:
                necessary.append(((i, v), cons))
    by_factor = {}
    for (i, v), _ in necessary:
        by_factor.setdefault(i, []).append(v)
    conjoined = sorted((i, vs[0]) for i, vs in by_factor.items() if len(vs) == 1)
    remaining = [i for i in range(nf) if i not in {i for i, _ in conjoined}]

    # step 2: enumerate candidates over the remaining factors
    max_order = params.max_order or len(remaining)
    rules = []  # (sort_key, literals, matched, pos_matched, consistency)
    for k in range(1, min(max_order, len(remaining)) + 1):
        for idxs in combinations(remaining, k):
            for values in product(*[range(table.schema.factors[i].levels) for i in idxs]):
                lits = tuple(zip(idxs, values))
                matched = {
                    cid for cid, vals, _ in cases if all(vals[i] == v for i, v in lits)
                }
                if len(matched) < params.cutoff:
                    continue
                pos = matched & positives
                cons = Fraction(len(pos), len(matched))
                if cons < params.consistency_threshold:
                    continue
                rules.append(((len(lits), lits), lits, matched, pos, cons))
    rules.sort(key=lambda r: r[0])

    # greedy cover with the pinned tie-breaks
    uncovered = set(positives)
    chosen = []
    available = list(enumerate(rules))
    while uncovered and available:
        scored = []
        for idx, rule in available:
            gain = len(rule[3] & uncovered)
            if gain >= params.unique_cover:
                scored.append((gain, rule[4], -len(rule[1]), -idx))
        if not scored:
            break
        best = max(scored)
        pick_idx = -best[3]
        rule = rules[pick_idx]
        chosen.append(rule)
        uncovered -= rule[3]
        available = [(i, r) for i, r in available if i != pick_idx]

    # assemble with necessary literals folded in
    def matches_all(vals, lits):
        return all(vals[i] == v for i, v in lits)

    effective = []
    kept_chosen = []
    for rule in chosen:
        full = tuple(sorted(set(rule[1]) | set(conjoined)))
        matched = {cid for cid, vals, _ in cases if matches_all(vals, full)}
        if not matched:
            continue  # the pipeline drops rules that die under the necessary literals
        effective.append((full, matched))
        kept_chosen.append(rule)
    chosen = kept_chosen
    if effective:
        union = set()
        for _, m in effective:
            union |= m
        covered = len(union & positives)
        sol_cons = Fraction(covered, len(union))
        sol_cov = Fraction(covered, len(positives))
    elif conjoined:
        matched = {cid for cid, vals, _ in cases if matches_all(vals, tuple(conjoined))}
        if not matched:
            raise ValueError("necessary conjunction matches nothing")
        sol_cons = Fraction(len(matched & positives), len(matched))
        sol_cov = Fraction(len(matched & positives), len(positives))
    else:
        raise ValueError("vacuous")

    unique = []
    for i, (_, m) in enumerate(effective):
        others = set()
        for j, (_, other) in enumerate(effective):
            if j != i:
                others |= other & positives
        unique.append(len((m & positives) - others))

    return {
        "necessary": conjoined,
        "rules": [tuple(sorted(lits)) for _, lits, _, _, _ in chosen],
        "consistency": sol_cons,
        "coverage": sol_cov,
        "matched": [m for _, m in effective],
        "unique": unique,
    }


@pytest.mark.parametrize("seed", range(120))
def test_solve_agrees_with_reference(seed):
    rng = random.Random(97_000 + seed)
    table = random_table(rng, max_factors=4, max_levels=3, max_cases=30)
    label = rng.randrange(table.schema.outcome_levels)
    params = AnalysisParams(
        decision_label=label,
        consistency_threshold=Fraction(rng.randint(5, 10), 10),
        cutoff=rng.randint(1, 3),
        unique_cover=rng.randint(1, 2),
        necessity_threshold=Fraction(rng.randint(6, 10), 10),
        max_order=rng.choice([None, 2, 3]),
    )
    try:
        expected = reference_solve(table, params)
    except ValueError:
        with pytest.raises(ScpqcaError):
            solve(table, params)
        return
    result = solve(table, params)
    solution = result.solution
    assert [(l.factor_index, l.value) for l in solution.necessary] == expected["necessary"]
    got_rules = [
        tuple((l.factor_index, l.value) for l in r.conjunction.literals) for r in solution.rules
    ]
    assert got_rules == expected["rules"]
    assert solution.solution_consistency == expected["consistency"]
    assert solution.solution_coverage == expected["coverage"]
    assert [r.matched for r in solution.rules] == expected["matched"]
    assert list(solution.per_rule_unique_coverage) == expected["unique"]
