"""The two-step analysis pipeline: necessity first, then sufficiency.

Step 1 finds the necessary conditions and removes their factors from the
search space. Step 2 enumerates candidate rules over the remaining factors,
covers the positive cases greedily, and conjoins the necessary literals back
into the final solution. Shared by the CLI, the synthetic-experiment
harness, and the robustness protocols; only the robustness protocols pass a
candidate pool, so that their many solves of one table share one lattice
walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .candidates import CandidateParams, CandidatePool, enumerate_candidates
from .cover import CoverParams, assemble_solution, greedy_cover
from .model import (
    CandidateRules,
    CaseTable,
    Conjunction,
    Literal,
    Solution,
    UndefinedRatioError,
    as_fraction,
    conjunction_expr,
    match_bits,
)
from .necessity import (
    DEFAULT_NECESSITY_THRESHOLD,
    conflicting_factors,
    exclude_necessary,
    necessary_conditions,
)


@dataclass(frozen=True)
class AnalysisParams:
    """Everything a full pipeline run needs besides the table."""

    decision_label: int
    consistency_threshold: Fraction = Fraction(4, 5)
    cutoff: int = 2
    unique_cover: int = 2
    necessity_threshold: Fraction = DEFAULT_NECESSITY_THRESHOLD
    max_order: int | None = None
    assume_necessary: tuple[Literal, ...] | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "consistency_threshold", as_fraction(self.consistency_threshold))
        object.__setattr__(self, "necessity_threshold", as_fraction(self.necessity_threshold))

    def candidate_params(self) -> CandidateParams:
        return CandidateParams(
            decision_label=self.decision_label,
            consistency_threshold=self.consistency_threshold,
            cutoff=self.cutoff,
            max_order=self.max_order,
        )

    def cover_params(self) -> CoverParams:
        return CoverParams(decision_label=self.decision_label, unique_cover=self.unique_cover)


@dataclass(frozen=True)
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

    A `pool` (see `candidates.CandidatePool`) is shared by the solves of one
    sweep or jackknife; on a subset of the pool's table, `candidates` then
    index the pool table's ids, while the solution is scored on `table`.
    """
    table.require_unique_ids()
    warnings: list[str] = []

    necessity = tuple(necessary_conditions(table, params.decision_label, params.necessity_threshold))

    if params.assume_necessary is not None:
        conjoined = tuple(sorted(params.assume_necessary))
        Conjunction(conjoined)  # validates one literal per factor
    else:
        conflicts = set(conflicting_factors(necessity))
        if conflicts:
            names = ", ".join(table.schema.factors[i].name for i in sorted(conflicts))
            warnings.append(
                f"multiple levels of factor(s) {names} exceed the necessity threshold; "
                "none of them is conjoined into the solution (use assume_necessary to pick one)"
            )
        conjoined = tuple(sorted(lit for lit, _ in necessity if lit.factor_index not in conflicts))

    factor_set = exclude_necessary(table.schema, conjoined)
    candidates = enumerate_candidates(table, factor_set, params.candidate_params(), pool=pool)

    positives = table.positive_ids(params.decision_label)
    if not positives:
        raise UndefinedRatioError(f"no cases with outcome {params.decision_label}")

    selected = greedy_cover(candidates, positives, params.cover_params())

    # Rules that lose every matched case once the necessary literals are
    # conjoined cannot be scored; drop them with a warning instead of failing.
    if conjoined:
        base = Conjunction(conjoined)
        kept = []
        for rule in selected:
            if match_bits(base.merge(rule.conjunction), table):
                kept.append(rule)
            else:
                warnings.append(
                    f"rule {conjunction_expr(rule.conjunction, table.schema)} matches no cases "
                    "under the necessary conditions and was dropped"
                )
        selected = kept

    solution = assemble_solution(conjoined, selected, table, params.cover_params())

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
