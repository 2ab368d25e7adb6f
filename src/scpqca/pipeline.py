"""The two-step analysis pipeline: necessity first, then sufficiency.

Step 1 finds the necessary conditions and removes their factors from the
search space. Step 2 enumerates candidate rules over the remaining factors,
covers the positive cases greedily, and conjoins the necessary literals back
into the final solution. Shared by the CLI, the synthetic-experiment
harness, and the robustness protocols; only the robustness protocols pass a
candidate pool, so that their many solves of one table share one lattice
walk. Every stage reads the one `AnalysisParams` it is given (defined in
`model`, and checked in full when it was built); `solve` adds no check of
its own.
"""

from __future__ import annotations

from fractions import Fraction
from .candidates import CandidatePool, CandidateRules, enumerate_candidates
from .cover import assemble_solution, greedy_cover
from .model import (
    AnalysisParams,
    CaseTable,
    Conjunction,
    Literal,
    Solution,
    conjunction_expr,
    frozen,
    match_bits,
    necessity_consistency,
)
from .necessity import conflicting_factors, exclude_necessary, necessary_conditions


@frozen
class SolveResult:
    table: CaseTable
    params: AnalysisParams
    necessity: tuple[tuple[Literal, Fraction], ...]
    conjoined_necessary: tuple[Literal, ...]
    factor_set: tuple[int, ...]
    candidates: CandidateRules
    solution: Solution
    warnings: tuple[str, ...]


def solve(table: CaseTable, params: AnalysisParams, *, pool: CandidatePool | None = None) -> SolveResult:
    """Run the full pipeline; raises VacuousSolutionError when nothing remains.

    A table with no case of the decision label is refused first, before
    necessity or enumeration (`CaseTable.require_positives`).

    A `pool` (see `candidates.CandidatePool`) is shared by the solves of one
    sweep or jackknife; on a subset of the pool's table over the pool's
    factor set, `candidates` then index the pool table's ids, while the
    solution is scored on `table`.
    """
    table.require_unique_ids()
    table.require_positives(params.decision_label)
    warnings: list[str] = []

    if params.assume_necessary is not None:  # no scan: list what is conjoined, with its consistency
        conjoined = tuple(sorted(params.assume_necessary))
        necessity = tuple((lit, necessity_consistency(lit, table, params.decision_label)) for lit in conjoined)
    else:
        necessity = tuple(necessary_conditions(table, params))
        conflicts = set(conflicting_factors(necessity))
        if conflicts:
            names = ", ".join(table.schema.factors[i].name for i in sorted(conflicts))
            warnings.append(
                f"multiple levels of factor(s) {names} exceed the necessity threshold; "
                "none of them is conjoined into the solution (use assume_necessary to pick one)"
            )
        conjoined = tuple(sorted(lit for lit, _ in necessity if lit.factor_index not in conflicts))

    factor_set = exclude_necessary(table.schema, conjoined)
    candidates = enumerate_candidates(table, factor_set, params, pool=pool)

    selected = greedy_cover(candidates, table.positive_ids(params.decision_label), params)

    # Rules that lose every matched case once the necessary literals are
    # conjoined cannot be scored; drop them with a warning instead of failing.
    # The walk left the conjoined factors out, so a rule shares none with them.
    if conjoined:
        base = match_bits(Conjunction(conjoined), table)
        kept = []
        for rule in selected:
            if base & match_bits(rule.conjunction, table):
                kept.append(rule)
            else:
                warnings.append(
                    f"rule {conjunction_expr(rule.conjunction, table.schema)} matches no cases "
                    "under the necessary conditions and was dropped"
                )
        selected = kept

    solution = assemble_solution(conjoined, selected, table, params)

    if solution.solution_consistency < params.consistency_threshold:
        warnings.append(
            f"solution consistency {float(solution.solution_consistency):.4f} fell below the "
            f"candidate threshold {float(params.consistency_threshold):.4f}"
        )

    return SolveResult(
        table=table,
        params=params,
        necessity=necessity,
        conjoined_necessary=conjoined,
        factor_set=factor_set,
        candidates=candidates,
        solution=solution,
        warnings=tuple(warnings),
    )
