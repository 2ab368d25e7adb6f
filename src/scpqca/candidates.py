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
level-wise walk visits nodes in the final deterministic order, literal
count ascending then lexicographic on (factor index, value). A literal that
matches fewer cases than the cutoff (a level no case holds matches none) is
dropped before the walk, since every node under it fails; each factor
position then has one flat list of the literals that may follow it. The
last level (`max_order` literals) is counted, never extended: it has its
own loop that builds a node's literal tuple only when the node passes both
filters and keeps no frontier. On a wide table that level holds most of the
nodes and few of them pass: with 20 binary factors, 200 cases and
`max_order` 4, about 77 500 of the 87 440 nodes, of which about 10 000 pass.

Every case holds exactly one level of each factor, so a node's children
over one factor's levels split its matched and positive cases. At the last
level, for a factor none of whose levels was dropped (its group is
complete), the last level's two counts are the node's minus its siblings'
(the diffsets of Zaki and Gouda's vertical mining), and its bits are built
only when it passes; a factor with a dropped level is walked level by
level. The node is recounted once for this: carrying the counts on the
frontier instead was 9 % faster on the `tall` table's walk but 5 % slower
and 0.56 MB (17 %) higher in tracemalloc peak on a wide one. A frontier
keeps only nodes with a literal to extend by. Measured in process against
the level-by-level walk that kept every node, alternating (CPython 3.11.7,
2-vCPU Xeon VM): `tall`'s walk 21.7 -> 17.6 ms (faster in 20 of 20), the
eight `wide` tables together 324 -> 306 ms (11 of 12), and its tracemalloc
peak 1.91 -> 1.78 MB on `tall` and 3.36 -> 3.12 MB on a `wide` table.

The walk and the selection below are plain loops on purpose. On CPython
3.11.7 (2-vCPU Xeon VM), a walk written as a per-node `map`/`compress`
pipeline took 0.16 s on that table against 0.034 s for this loop, and
even greedy's gains over its 10 500 rules took 1.9 ms with `map` against
1.4 ms with a list comprehension.

Case sets are the table's bitsets over its ids (see `model`): a child's
matched set is its prefix's bits ANDed with one literal's, counts are
popcounts, and the consistency filter compares exact integer cross products
(``positives * den >= num * matched``), so no `Fraction` is built per node.

A call with no pool walks the lattice over its own table at its own
cutoff and consistency, and every node of that walk is a rule. Only a
sweep or jackknife shares a `CandidatePool`, which keeps the nodes of one
walk and filters them per cell or rep; a call its pool cannot answer walks
directly as well. Either way the rules come back as one `CandidateRules`
(see `model`): the nodes' literal tuples and matched bits as columns, the
table's positives as one bitset, and no rule object per node. The walk
appends literals in ascending factor order and derives each node's bits from
the table, so every rule is valid by construction. The filters, the decision label and `max_order` are read from
the run's one `model.AnalysisParams`, which checked them when it was built;
only the pool checks its own cutoff.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .model import (
    AnalysisParams,
    CandidateRules,
    CaseTable,
    FactorSchema,
    InputError,
    Literal,
    _echo,
    as_fraction,
    as_index,
    bits_of,
)


def _check_factor_set(schema: FactorSchema, factor_set: Sequence[int]) -> tuple[int, ...]:
    nf = len(schema.factors)
    factors = tuple(sorted({as_index(i, "factor index") for i in factor_set}))
    for i in factors:
        if not 0 <= i < nf:
            raise InputError(f"factor index {_echo(i)} out of range (table has {nf} factors)")
    return factors


def _walk(
    table: CaseTable, factors: tuple[int, ...], params: AnalysisParams, cutoff: int, threshold: Fraction
) -> CandidateRules:
    """Every node up to `params.max_order` literals that meets `cutoff` and
    whose consistency for `params.decision_label` is at least `threshold`,
    in emit order, as a `CandidateRules` over `table.ids`."""
    nf = len(factors)
    max_order = min(params.max_order if params.max_order is not None else nf, nf)
    positives = table.positive_bits(params.decision_label)
    num, den = threshold.numerator, threshold.denominator
    # A literal below the cutoff heads only subtrees below it (levels no case
    # holds have no bits at all), so it is dropped before the walk.
    # tails[at] lists every literal of factors[at:] in emit order, each with
    # the position a child ending in it extends from. groups[at] holds the
    # same literals per factor for the last level, as (head, last): `last` is
    # the factor's last level when none of its levels was dropped (the group
    # is complete), else None, and `head` holds its other kept levels.
    tails: list[list[tuple[Literal, int, int]]] = [[] for _ in range(nf + 1)]
    groups: list[list[tuple[list, tuple[Literal, int] | None]]] = [[] for _ in range(nf + 1)]
    for at in reversed(range(nf)):
        j = factors[at]
        levels = table.schema.factors[j].levels
        kept = [
            (Literal(j, v), bits) for v in range(levels)
            if (bits := table.literal_bits(j, v)).bit_count() >= cutoff
        ]
        tails[at] = [(lit, bits, at + 1) for lit, bits in kept] + tails[at + 1]
        groups[at] = [(kept[:-1], kept[-1]) if len(kept) == levels else (kept, None)] + groups[at + 1]
    out_literals, out_matched = [], []

    # Frontier entries: (literals tuple, matched bits, position in `factors` to
    # extend from), all meeting the cutoff and with a literal to extend by.
    # Literals are appended in ascending factor order, so every tuple is
    # already a valid conjunction.
    frontier = [((), (1 << len(table)) - 1, 0)]
    for _ in range(1, max_order):
        next_frontier = []
        for lits, bits, first in frontier:
            for lit, lit_bits, after in tails[first]:
                child = bits & lit_bits
                count = child.bit_count()
                if count < cutoff:
                    continue
                child_lits = lits + (lit,)
                if (child & positives).bit_count() * den >= num * count:
                    out_literals.append(child_lits)
                    out_matched.append(child)
                if tails[after]:
                    next_frontier.append((child_lits, child, after))
        frontier = next_frontier
    # The last level is counted, never extended: a node's literal tuple is
    # built only when it passes both filters. In a complete group the last
    # level's counts are the node's minus its siblings'.
    for lits, bits, first in frontier:
        whole = bits.bit_count()
        whole_pos = (bits & positives).bit_count()
        for head, last in groups[first]:
            left, left_pos = whole, whole_pos
            for lit, lit_bits in head:
                child = bits & lit_bits
                count = child.bit_count()
                pos = (child & positives).bit_count()
                left -= count
                left_pos -= pos
                if count >= cutoff and pos * den >= num * count:
                    out_literals.append(lits + (lit,))
                    out_matched.append(child)
            if last is not None and left >= cutoff and left_pos * den >= num * left:
                lit, lit_bits = last
                out_literals.append(lits + (lit,))
                out_matched.append(bits & lit_bits)
    return CandidateRules(out_literals, out_matched, positives, table.ids)


class CandidatePool:
    """Every lattice node that meets one cutoff, walked once and filtered per call.

    Only the owner of a run that solves one table many times (a sweep over
    its cells, a jackknife over its reps) creates a pool: at the loosest
    cutoff it will ask for, passed to every `enumerate_candidates` call. The
    first call walks its table and factor set at that cutoff, with no
    consistency filter unless the owner gives one (see below), and keeps
    every node in emit order as one `CandidateRules`. A later call selects
    from its columns into new ones. Both filters are anti-monotone and a
    subset of cases can only lower a node's counts, so every rule of the
    later call is a pool node, and filtering keeps the order. A selection on
    the pool's own table is kept per (cutoff, consistency, factor set): a
    repeat returns the same `CandidateRules`, so the sweep cells that share
    them share greedy's recorded run too (see `cover`).

    A selection indexes the pool table's `ids`; on a subset that
    `CaseTable.take` made from that table its matched bits and positives are
    the pool's masked to the subset's cases. The pool knows such a subset by
    the table it was taken from, so a table that only equals one (built
    another way) is not compared case by case but walks its own table, like
    any call the pool cannot answer.

    An owner that solves only the pool's own table (a sweep) may also give
    the loosest `consistency` it will ask for; the pool then keeps only the
    nodes that meet it, which on a wide table is a small share of those that
    meet the cutoff. Such a pool answers no subset, because dropping cases
    can raise a node's consistency.
    """

    def __init__(self, cutoff: int, consistency: Fraction | float | str | None = None) -> None:
        self.cutoff = as_index(cutoff, "cutoff", 1)
        self.consistency = None if consistency is None else as_fraction(consistency)
        self._table: CaseTable | None = None

    def _build(self, table: CaseTable, factors: tuple[int, ...], params: AnalysisParams) -> None:
        self._table, self._factors = table, factors
        self._label, self._max_order = params.decision_label, params.max_order
        self._nodes = _walk(table, factors, params, self.cutoff, self.consistency or Fraction(0))
        self._selected: dict[tuple, CandidateRules] = {}  # the own table's selections, by key

    def _keep(self, table: CaseTable) -> int | None:
        """Bits of `table`'s cases over the pool's ids, or None when `table`
        was not taken from the pool's table."""
        source = table._taken_from
        if self.consistency is not None or source is None or source() is not self._table:
            return None
        return bits_of(table.ids, self._table.ids)

    def _select(self, table: CaseTable, factors: tuple[int, ...], params: AnalysisParams) -> CandidateRules | None:
        """The rules passing `params` on `table` and `factors`, in emit order,
        or None when the pool cannot answer: another label or `max_order`, a
        factor outside the pool's, a cutoff or consistency below the pool's,
        or a table that is not a subset of its own."""
        if self._table is None:
            self._build(table, factors, params)
        # On the pool's own table the nodes' bits pass as they are, shared, not
        # copied (``& -1`` would copy each); on a subset, masked to its cases.
        keep = None if table is self._table else self._keep(table)
        if (
            params.decision_label != self._label
            or params.max_order != self._max_order
            or params.cutoff < self.cutoff
            or (self.consistency is not None and params.consistency_threshold < self.consistency)
            or not set(factors) <= set(self._factors)
            or (keep is None and table is not self._table)
        ):
            return None
        key = (params.cutoff, params.consistency_threshold, factors)
        if keep is None and key in self._selected:
            return self._selected[key]
        excluded = set(self._factors) - set(factors)
        nodes = self._nodes
        cutoff, threshold = params.cutoff, params.consistency_threshold
        num, den = threshold.numerator, threshold.denominator
        positives = nodes.positives if keep is None else nodes.positives & keep
        out_literals, out_matched = [], []
        for lits, matched in zip(nodes.literals, nodes.matched_bits):
            if keep is not None:
                matched &= keep
            count = matched.bit_count()
            if count < cutoff or (matched & positives).bit_count() * den < num * count:
                continue
            if excluded and any(lit.factor_index in excluded for lit in lits):
                continue
            out_literals.append(lits)
            out_matched.append(matched)
        rules = CandidateRules(out_literals, out_matched, positives, nodes.ids)
        if keep is None:
            self._selected[key] = rules
        return rules


def enumerate_candidates(
    table: CaseTable,
    factor_set: Sequence[int],
    params: AnalysisParams,
    *,
    pool: CandidatePool | None = None,
) -> CandidateRules:
    """All rules passing both filters, deterministically ordered.

    With no pool, or one that cannot answer, they are the nodes of one walk
    over `table` at `params`' own cutoff and consistency. With a `pool`,
    they are selected from it (see `CandidatePool`); on a subset of the
    pool's table they index the pool table's ids.
    """
    table.require_unique_ids()
    factors = _check_factor_set(table.schema, factor_set)
    rules = None if pool is None else pool._select(table, factors, params)
    return _walk(table, factors, params, params.cutoff, params.consistency_threshold) if rules is None else rules


def candidate_count_bound(
    schema: FactorSchema, factor_set: Sequence[int] | None = None, max_order: int | None = None
) -> int:
    """Number of conjunctions the enumeration would visit without pruning.

    With full order this is prod(levels_j + 1) - 1 over the factor set; a
    truncated order sums the products over all subsets of size <= max_order
    (elementary symmetric sums of the level counts). Used as a pre-flight
    cost estimate: the CLI warns when it exceeds `cli.ENUMERATION_WARN_BOUND`
    (5 000 000) and prints a separate message above 2**63.
    """
    indices = range(len(schema.factors)) if factor_set is None else _check_factor_set(schema, factor_set)
    levels = [schema.factors[i].levels for i in indices]
    m = len(levels)
    order = m if max_order is None else min(as_index(max_order, "max_order", 0), m)
    # coeffs[k] = sum over k-subsets of the product of their level counts
    coeffs = [1] + [0] * order
    for lv in levels:
        for k in range(min(order, m), 0, -1):
            coeffs[k] += coeffs[k - 1] * lv
    return sum(coeffs[1:])
