"""Candidate-rule enumeration over the non-necessary factors.

Every non-empty conjunction over the chosen factors (up to `max_order`
literals) is screened against two filters: a minimum matched-case count
(`cutoff`, total matches, not just positives) and a minimum sufficiency
consistency (compared with >=, so a rule at exactly the threshold is kept).
No minimality pruning happens here; a rule and its specializations may
coexist, the covering stage decides what survives.

Enumeration walks the conjunction lattice level by level (order 1, then 2,
...), extending only prefixes that still meet the cutoff. Matching is
anti-monotone (adding a literal never enlarges the matched set), so a prefix
below the cutoff can never recover and the whole subtree is skipped. The
level-wise walk streams rules in the final deterministic order, literal
count ascending then lexicographic on (factor index, value), and holds only
the current frontier of extendable prefixes, never the full lattice. The
last level (`max_order` literals) is never extended, so it adds no frontier.

Case sets are the table's bitsets over its ids (see `model`): a child's
matched set is its prefix's bits ANDed with one literal's, counts are
popcounts, and the consistency filter compares exact integer cross products
(``positives * den >= num * matched``), so no `Fraction` is built per node.

The walk appends literals in ascending factor order and derives each rule's
bits from the table, so an emitted rule is valid by construction. It is
built with the unchecked `CandidateRule._walked`, which skips the re-sort
and the per-field checks of the public constructors; those checks cost more
per rule than the walk itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .model import (
    CandidateRule,
    CaseTable,
    FactorSchema,
    InputError,
    Literal,
    as_fraction,
)


@dataclass(frozen=True)
class CandidateParams:
    decision_label: int
    consistency_threshold: Fraction = Fraction(4, 5)
    cutoff: int = 2
    max_order: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "consistency_threshold", as_fraction(self.consistency_threshold))
        if not 0 < self.consistency_threshold <= 1:
            raise InputError(f"consistency threshold must be in (0,1], got {self.consistency_threshold}")
        if self.cutoff < 1:
            raise InputError(f"cutoff must be >= 1, got {self.cutoff}")
        if self.max_order is not None and self.max_order < 1:
            raise InputError(f"max_order must be >= 1, got {self.max_order}")


def _check_factor_set(table: CaseTable, factor_set: Sequence[int]) -> tuple[int, ...]:
    nf = len(table.schema.factors)
    factors = tuple(sorted(set(int(i) for i in factor_set)))
    for i in factors:
        if not 0 <= i < nf:
            raise InputError(f"factor index {i} out of range (table has {nf} factors)")
    return factors


def iter_candidates(
    table: CaseTable, factor_set: Sequence[int], params: CandidateParams
) -> Iterator[CandidateRule]:
    """Stream passing rules in deterministic order; see module docstring."""
    table.require_unique_ids()
    factors = _check_factor_set(table, factor_set)
    if not factors:
        return
    max_order = params.max_order if params.max_order is not None else len(factors)
    max_order = min(max_order, len(factors))

    pos = table.positive_bits(params.decision_label)
    num, den = params.consistency_threshold.numerator, params.consistency_threshold.denominator
    cutoff, ids, walked = params.cutoff, table.ids, CandidateRule._walked
    literals = [
        [(Literal(j, v), table.literal_bits(j, v)) for v in range(table.schema.factors[j].levels)]
        for j in factors
    ]

    # Frontier entries: (literals tuple, matched bits, position in `factors` to
    # extend from), all meeting the cutoff. Literals are appended in ascending
    # factor order, so every tuple is already a valid conjunction.
    frontier = [((), (1 << len(table)) - 1, 0)]
    for order in range(1, max_order + 1):
        extend = order < max_order
        next_frontier = []
        for lits, bits, first in frontier:
            for at in range(first, len(factors)):
                for lit, lit_bits in literals[at]:
                    child = bits & lit_bits
                    count = child.bit_count()
                    if count < cutoff:
                        continue
                    child_lits = lits + (lit,)
                    child_pos = child & pos
                    if child_pos.bit_count() * den >= num * count:
                        yield walked(child_lits, child, child_pos, ids)
                    if extend:
                        next_frontier.append((child_lits, child, at + 1))
        frontier = next_frontier
        if not frontier:
            break


def enumerate_candidates(
    table: CaseTable, factor_set: Sequence[int], params: CandidateParams
) -> list[CandidateRule]:
    """All rules passing both filters, deterministically ordered."""
    return list(iter_candidates(table, factor_set, params))


def candidate_count_bound(
    schema: FactorSchema, factor_set: Sequence[int] | None = None, max_order: int | None = None
) -> int:
    """Number of conjunctions the enumeration would visit without pruning.

    With full order this is prod(levels_j + 1) - 1 over the factor set; a
    truncated order sums the products over all subsets of size <= max_order
    (elementary symmetric sums of the level counts). Used as a pre-flight
    cost estimate; the CLI warns when it exceeds 2**63.
    """
    indices = range(len(schema.factors)) if factor_set is None else sorted(set(factor_set))
    levels = [schema.factors[i].levels for i in indices]
    m = len(levels)
    order = m if max_order is None else min(max_order, m)
    if order < 0:
        raise InputError("max_order must be non-negative")
    # coeffs[k] = sum over k-subsets of the product of their level counts
    coeffs = [1] + [0] * order
    for lv in levels:
        for k in range(min(order, m), 0, -1):
            coeffs[k] += coeffs[k - 1] * lv
    return sum(coeffs[1:])
