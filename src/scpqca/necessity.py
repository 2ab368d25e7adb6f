"""Necessary-condition analysis: the first step of the two-step pipeline.

A literal is reported as necessary when its necessity consistency strictly
exceeds the threshold (0.9 by default). Factors carrying a necessary literal
are excluded from the sufficiency enumeration and conjoined back into the
final solution.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

from .model import (
    CaseTable,
    FactorSchema,
    InputError,
    Literal,
    as_fraction,
    necessity_consistency,
)

DEFAULT_NECESSITY_THRESHOLD = Fraction(9, 10)


def necessary_conditions(
    table: CaseTable,
    decision_label: int,
    threshold: float | str | Fraction = DEFAULT_NECESSITY_THRESHOLD,
) -> list[tuple[Literal, Fraction]]:
    """All factor=value literals with necessity consistency > threshold.

    Sorted by consistency descending (ties by factor index, then value).
    More than one level of the same factor can only qualify when the
    threshold is at or below 0.5; no cap is imposed here, callers decide
    how to handle the conflict.
    """
    thr = as_fraction(threshold)
    if not 0 < thr <= 1:
        raise InputError(f"necessity threshold must be in (0,1], got {thr}")
    out: list[tuple[Literal, Fraction]] = []
    for i, factor in enumerate(table.schema.factors):
        for v in range(factor.levels):
            # A level no case holds has consistency 0 once there are positives
            # (without any, necessity_consistency raises), so it never qualifies.
            if not table.literal_bits(i, v) and table.positive_bits(decision_label):
                continue
            lit = Literal(i, v)
            cons = necessity_consistency(lit, table, decision_label)
            if cons > thr:
                out.append((lit, cons))
    out.sort(key=lambda item: (-item[1], item[0].factor_index, item[0].value))
    return out


def exclude_necessary(schema: FactorSchema, necessary: Iterable[Literal]) -> tuple[int, ...]:
    """Factor indices NOT constrained by any necessary literal, ascending."""
    fixed = {lit.factor_index for lit in necessary}
    for i in fixed:
        if not 0 <= i < len(schema.factors):
            raise InputError(f"factor index {i} out of range for schema with {len(schema.factors)} factors")
    return tuple(i for i in range(len(schema.factors)) if i not in fixed)


def conflicting_factors(necessary: Sequence[tuple[Literal, Fraction]]) -> tuple[int, ...]:
    """Factor indices for which more than one level qualified as necessary."""
    counts: dict[int, int] = {}
    for lit, _ in necessary:
        counts[lit.factor_index] = counts.get(lit.factor_index, 0) + 1
    return tuple(sorted(i for i, c in counts.items() if c > 1))
