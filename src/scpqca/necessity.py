"""Necessary-condition analysis: the first step of the two-step pipeline.

A literal is reported as necessary when its necessity consistency strictly
exceeds the threshold (0.9 by default). Factors carrying a necessary literal
are excluded from the sufficiency enumeration and conjoined back into the
final solution.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, Sequence

from .model import (
    AnalysisParams,
    CaseTable,
    FactorSchema,
    Literal,
    _check_literal,
)


def necessary_conditions(table: CaseTable, params: AnalysisParams) -> list[tuple[Literal, Fraction]]:
    """All factor=value literals with necessity consistency > `params.necessity_threshold`.

    Consistency is ``both / total``, popcounts of the literal's cached bitset
    and the positives and of the positives alone. A literal qualifies when
    ``both * den > num * total`` for the threshold num/den, an exact test;
    only then is its `Fraction` built. Sorted by consistency descending (ties
    by factor index, then value). Several levels of one factor can qualify
    at a threshold of 0.5 or below; callers decide how to handle that.
    """
    if not table.schema.factors:
        return []
    positives = table.require_positives(params.decision_label)
    total = positives.bit_count()
    num, den = params.necessity_threshold.as_integer_ratio()
    out: list[tuple[Literal, Fraction]] = []
    for i, factor in enumerate(table.schema.factors):
        for v in range(factor.levels):
            both = (table.literal_bits(i, v) & positives).bit_count()
            if both * den > num * total:
                out.append((Literal(i, v), Fraction(both, total)))
    out.sort(key=lambda item: (-item[1], item[0].factor_index, item[0].value))
    return out


def exclude_necessary(schema: FactorSchema, necessary: Iterable[Literal]) -> tuple[int, ...]:
    """Factor indices NOT constrained by any necessary literal, ascending."""
    fixed = set()
    for lit in necessary:
        _check_literal(schema, lit)
        fixed.add(lit.factor_index)
    return tuple(i for i in range(len(schema.factors)) if i not in fixed)


def conflicting_factors(necessary: Sequence[tuple[Literal, Fraction]]) -> tuple[int, ...]:
    """Factor indices for which more than one level qualified as necessary."""
    counts = Counter(lit.factor_index for lit, _ in necessary)
    return tuple(sorted(i for i, c in counts.items() if c > 1))
