"""Candidate-rule enumeration over the non-necessary factors.

Every non-empty conjunction over the chosen factors (up to `max_order`
literals) is screened against two filters: a minimum matched-case count
(`cutoff`, total matches, not just positives) and a minimum sufficiency
consistency (compared with >=, so a rule at exactly the threshold is kept).
No minimality pruning happens here; a rule and its specializations may
coexist, the covering stage decides what survives.

Enumeration walks the conjunction lattice from short conjunctions to long,
extending only prefixes that still meet the cutoff. Matching is
anti-monotone (adding a literal never enlarges the matched set), so a prefix
below the cutoff can never recover and the whole subtree is skipped. Nodes
come out in the final deterministic order, literal count ascending then
lexicographic on (factor index, value). A literal that matches fewer cases
than the cutoff (a level no case holds matches none) is dropped before the
walk, since every node under it fails; each factor position then has one
flat list of the literals that may follow it.

Levels 1 to `max_order - 2` are walked level by level, each level's
frontier holding its nodes that meet the cutoff and have a literal to
extend by. The last two levels are walked one parent of level
`max_order - 2` at a time: its children are emitted, those with a literal
to extend by are its batch, and the batch's last level is counted at once
and dropped. So the walk holds the frontiers up to level `max_order - 2`
and one parent's batch. It never holds the frontier of level
`max_order - 1`, the largest on a wide table: with 20 binary factors, 200
cases and `max_order` 4, 7 752 nodes against at most 34 in a batch.

The order is the level-wise walk's. Every shallower level is emitted before
the last two start. Parents come in emit order and each one's children in
order, so level `max_order - 1` is emitted in order, and so is the last
level, which goes to its own columns, appended to the others at the end.
Measured in process against the level-wise walk (CPython 3.11.7, 2-vCPU
Xeon VM), on synth tables at consistency 0.8 and cutoff 2, the walk's
tracemalloc peak fell from 1.83 to 1.08 times what its rules retain on
the shape above, and from 1.45 to 1.05 on 22 binary factors at
`max_order` 5. A walk that takes every level
one node at a time, on an explicit stack, held less still, but pushing and
popping each node made the deep walks of a jackknife pool (7 factors at
full order) about 40 % slower.

The last level (`max_order` literals) is counted, never extended: a node's
literal tuple is built only when it passes both filters. On a wide table
that level holds most of the nodes and few of them pass: on the table
above, about 77 500 of the 87 440 nodes, of which about 10 000 pass. Every
case holds exactly one level of each factor, so a node's children over one
factor's levels split its matched and positive cases. At the last level,
for a factor none of whose levels was dropped (its group is complete), the
last level's two counts are the node's minus its siblings' (the diffsets of
Zaki and Gouda's vertical mining), and its bits are built only when it
passes; a factor with a dropped level is walked level by level. The node
is recounted once for this: carrying the counts down instead was 9 %
faster on the `tall` table's walk but 5 % slower and 17 % higher in
tracemalloc peak on a wide one.

The walk is a plain loop on purpose. On CPython 3.11.7 (2-vCPU Xeon VM),
a walk written as a per-node `map`/`compress` pipeline took 0.16 s on that
table against 0.034 s for this loop, and even greedy's gains over its
10 500 rules took 1.9 ms with `map` against 1.4 ms with a list
comprehension. A pool's selection is the opposite case: it asks the same
two questions of every node, so it runs no loop over nodes at all, but a
few dozen big-int operations on bit-sliced counts (see `CandidatePool`).
On the `resample` table, 50 jackknife selections over its 1 409 pool
nodes took 10.1 ms with a per-node loop against 6.3 ms this way, the
one-time build of the node index included (medians of 30 runs).

Case sets are the table's bitsets over its ids (see `model`): a child's
matched set is its prefix's bits ANDed with one literal's, counts are
popcounts, and the consistency filter compares exact integer cross products
(``positives * den >= num * matched``), so no `Fraction` is built per node.

A call with no pool walks the lattice over its own table at its own
cutoff and consistency, and every node of that walk is a rule. Only a
sweep or jackknife shares a `CandidatePool`, which keeps the nodes of one
walk with their counts as a bit-sliced index and filters all of them at
once per cell or rep; a call its pool cannot answer walks directly as
well. Either way the rules come back as one `CandidateRules` (see
`model`): the nodes' literal tuples and matched bits as columns, the
table's positives as one bitset, and no rule object per node. The walk
appends literals in ascending factor order and derives each node's bits
from the table, so every rule is valid by construction. The filters, the
decision label and `max_order` are read from the run's one
`model.AnalysisParams`, which checked them when it was built; only the
pool checks its own cutoff.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from fractions import Fraction
from functools import partial, reduce
from itertools import chain, compress, repeat, zip_longest
from operator import and_, attrgetter, or_
from typing import Iterable, Sequence

from .model import (
    AnalysisParams,
    CandidateRules,
    CaseTable,
    FactorSchema,
    Literal,
    _check_factor_index,
    _flags,
    as_fraction,
    as_index,
    ids_of,
)


def _check_factor_set(schema: FactorSchema, factor_set: Sequence[int]) -> tuple[int, ...]:
    nf = len(schema.factors)
    factors = tuple(sorted({as_index(i, "factor index") for i in factor_set}))
    for i in factors:
        _check_factor_index(i, nf)
    return factors


def _walk(
    table: CaseTable, factors: tuple[int, ...], params: AnalysisParams, cutoff: int, threshold: Fraction
) -> CandidateRules:
    """Every node up to `params.max_order` literals that meets `cutoff` and
    whose consistency for `params.decision_label` is at least `threshold`,
    in emit order, as a `CandidateRules` over `table.ids`.

    Levels below `max_order - 1` go level by level, keeping each frontier;
    the last two go one parent of level `max_order - 2` at a time, keeping
    only that parent's batch (see the module docstring)."""
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
    for _ in range(2, max_order):
        frontier = _extend(frontier, tails, positives, cutoff, num, den, out_literals, out_matched)
    if max_order < 2:  # the root's children are the last level
        _count_last(frontier, groups, positives, cutoff, num, den, out_literals, out_matched)
        return CandidateRules(out_literals, out_matched, positives, table.ids)
    # Levels max_order - 1 and max_order, one parent at a time: its children
    # are emitted in order after every shallower node, and those that can be
    # extended are its batch, whose last level goes to its own columns.
    last_literals, last_matched = [], []
    for parent in frontier:
        batch = _extend((parent,), tails, positives, cutoff, num, den, out_literals, out_matched)
        if batch:
            _count_last(batch, groups, positives, cutoff, num, den, last_literals, last_matched)
    # The frontier goes before the first join, and each last-level list
    # before the next.
    del frontier
    out_literals += last_literals
    del last_literals
    out_matched += last_matched
    del last_matched
    return CandidateRules(out_literals, out_matched, positives, table.ids)


def _extend(parents, tails, positives, cutoff, num, den, out_literals, out_matched) -> list:
    """Append the children of `parents` that pass both filters to the output
    columns, in emit order, and return those with a literal to extend by."""
    extendable = []
    for lits, bits, first in parents:
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
                extendable.append((child_lits, child, after))
    return extendable


def _count_last(parents, groups, positives, cutoff, num, den, out_literals, out_matched) -> None:
    """Append the children of `parents` that pass both filters to the output
    columns, in emit order. They are counted, never extended: a child's
    literal tuple is built only when it passes, and in a complete group the
    last level's counts are the parent's minus its siblings'."""
    for lits, bits, first in parents:
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


# Bit-sliced counts: a count per pool node is held as a list of slices, least
# significant first, slice b the bitset of the nodes whose count has bit b
# set (bit t stands for node t). A slice list ends in a non-empty slice.
# _BIT_DIGITS[b] maps a byte to b"1" when its bit b is set, else b"0".
_BIT_DIGITS = [(b"0" * (1 << b) + b"1" * (1 << b)) * (128 >> b) for b in range(8)]
_FACTOR, _LEVEL = attrgetter("factor_index"), attrgetter("value")
_CHUNK = 4096  # nodes read at once by `_literal_nodes`


def _column(values: Iterable[int], top: int) -> bytes | array:
    """`values` (each in [0, `top`]) as bytes when `top` is below 256, else
    in an array of the narrowest unsigned type that holds `top`."""
    if top < 256:
        return bytes(values)  # several times faster to fill than an array
    return array(next(code for code in "HIQ" if top < 256 ** array(code).itemsize), values)


def _planes(column: bytes | array) -> list[bytes]:
    """The byte planes of `column`, least significant first, each reversed
    so that position 0 is its last byte, as `int(..., 2)` reads digits."""
    if isinstance(column, bytes):
        return [column[::-1]]
    if sys.byteorder == "big":
        column = array(column.typecode, column)
        column.byteswap()
    raw, size = column.tobytes(), column.itemsize
    return [raw[i::size][::-1] for i in range(size)]


def _equal(planes: list[bytes], value: int) -> int:
    """The positions whose value, split into `planes`, is `value`."""
    bits = -1
    for i, plane in enumerate(planes):
        byte = value >> 8 * i & 255
        bits &= int(b"0" + plane.translate(b"0" * byte + b"1" + b"0" * (255 - byte)), 2)
    return bits


def _slices(counts: Iterable[int], bound: int) -> list[int]:
    """The slices of `counts`, each in [0, `bound`], position t's at index t:
    one translate per bit of each byte plane."""
    slices = [
        int(b"0" + plane.translate(_BIT_DIGITS[b]), 2)
        for i, plane in enumerate(_planes(_column(counts, bound)))
        for b in range(min(8, bound.bit_length() - 8 * i))
    ]
    while slices and not slices[-1]:
        slices.pop()
    return slices


def _count(bitsets: Iterable[int]) -> list[int]:
    """The slices of how many of `bitsets` hold each position."""
    slices: list[int] = []
    for carry in bitsets:
        for i, bits in enumerate(slices):
            slices[i], carry = bits ^ carry, bits & carry
            if not carry:
                break
        else:
            if carry:
                slices.append(carry)
    return slices


def _add(a: list[int], b: list[int]) -> list[int]:
    """The slices of a + b, position by position."""
    out, carry = [], 0
    for x, y in zip_longest(a, b, fillvalue=0):
        half = x ^ y
        out.append(half ^ carry)
        carry = (x & y) | (half & carry)
    return out + [carry] if carry else out


def _sub(a: list[int], b: list[int]) -> tuple[list[int], int]:
    """The slices of a - b, and the borrow out of the top slice: the
    positions where a < b, whose slices hold a - b + 2 ** max(len(a), len(b))."""
    out, borrow = [], 0
    for x, y in zip_longest(a, b, fillvalue=0):
        half = x ^ y
        out.append(half ^ borrow)
        borrow = (~x & y) | (~half & borrow)
    return out, borrow


def _scale(a: list[int], k: int) -> list[int]:
    """The slices of k * a for an int k >= 0, by shift and add: a shift by s
    prepends s empty slices, which the sum below them leaves as they are."""
    out: list[int] = []
    for s in range(k.bit_length()):
        if k >> s & 1:
            out = out[:s] + [0] * (s - len(out)) + _add(out[s:], a)
    return out


def _literal_nodes(literals: Sequence[tuple[Literal, ...]], top: int) -> dict[int, dict[int, int]]:
    """Factor -> level -> the bitset of the nodes holding that literal, for
    every literal some node holds; no factor index or level exceeds `top`.

    `literals` must come in ascending length, as the walk emits them, so the
    nodes of one length are one run. A chunk of a run is read once, its
    tuples flattened: the factor indices and the levels of all its literals
    become one array each, at C speed. At one literal position, a literal's
    nodes are those equal to its factor and to its level there, one
    translate per byte plane of each. The build holds one chunk's arrays at
    a time, not a buffer per literal.
    """
    out: dict[int, dict[int, int]] = {}
    lo = 0
    while lo < len(literals):
        size = len(literals[lo])
        hi = bisect_left(literals, size + 1, lo, key=len)
        for start in range(lo, hi, _CHUNK):
            flat = list(chain.from_iterable(literals[start : min(hi, start + _CHUNK)]))
            factors, levels = _column(map(_FACTOR, flat), top), _column(map(_LEVEL, flat), top)
            del flat
            factor_planes, level_planes = _planes(factors), _planes(levels)
            for k in range(size):
                # Position k is every size-th value from k, and every size-th
                # byte from size - 1 - k of a (reversed) plane.
                at = slice(size - 1 - k, None, size)
                factor_at, level_at = [plane[at] for plane in factor_planes], [plane[at] for plane in level_planes]
                by_level = {v: _equal(level_at, v) for v in set(levels[k::size])}
                for j in set(factors[k::size]):
                    on_factor = _equal(factor_at, j)
                    held = out.setdefault(j, {})
                    for v, bits in by_level.items():
                        if on_factor & bits:
                            held[v] = held.get(v, 0) | (on_factor & bits) << start
        lo = hi
    return out


def _nodes_matching(index: dict[int, tuple], every: int, case: int) -> int:
    """The nodes of `every` that match the case at position `case` of the
    table whose node index (built by `CandidatePool._build`) is `index`."""
    contradicting = 0
    for column, others, holding in index.values():
        contradicting |= others.get(column[case], holding)
    return every ^ contradicting


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

    A selection filters every node at once through a bit-sliced index
    (O'Neil and Quass, "Improved query performance with variant indexes",
    SIGMOD 1997). Each node's matched and positive counts, popcounted once
    when the pool is built, are held as slices: slice b is the bitset over
    node positions of the counts with bit b set. A subset lowers each
    count by the node's dropped cases, along a borrow chain (Rinfret,
    O'Neil and O'Neil, "Bit-sliced index arithmetic", SIGMOD 2001). Each
    filter is then the borrow out of one subtraction: matched minus
    `cutoff`, and ``den * positive`` minus ``num * matched``, the products
    exact by shift and add. The passing nodes are taken by `compress`, so
    no Python code runs per node. The nodes that match one case are those
    holding no literal at another level of its factors. So the build makes,
    with the nodes and their slices, per walked factor and level the bitset
    of the nodes holding a literal on that factor at another level, and per
    factor the bitset of the nodes holding any literal on it, which a
    narrower factor set drops.

    The same counts serve greedy's gains (see `cover`). A selection carries
    its passing nodes, its positive-count slices (the gains before any pick)
    and a function from a case to the nodes that match it, over that index;
    a subset's dropped cases and greedy's covered ones both lower counts by
    it. The selection holds no reference to the pool, so a pool dies with
    its owner's last reference while its selections live on.

    A selection indexes the pool table's `ids`; on a subset that
    `CaseTable.take` made from that table its matched bits and positives are
    the pool's masked to the subset's cases. The subset answers which cases
    it holds (`CaseTable.subset_bits`), and only for the table it was taken
    from, so a table that only equals one (built another way) walks its own
    table, like any call the pool cannot answer.

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
        nodes = self._nodes = _walk(table, factors, params, self.cutoff, self.consistency or Fraction(0))
        self._all = (1 << len(nodes)) - 1
        self._matched = _slices(map(int.bit_count, nodes.matched_bits), len(table))
        self._positive = _slices(map(int.bit_count, map(and_, nodes.matched_bits, repeat(nodes.positives))), len(table))
        # The node index, per walked factor j: the table's column j, the nodes
        # holding a literal on j at a level other than v (by level v, for the
        # levels some node holds), and the nodes holding any literal on j.
        top = max([len(table.schema.factors), *(table.schema.factors[j].levels for j in factors)])
        by_factor = _literal_nodes(nodes.literals, top)
        self._index: dict[int, tuple] = {}
        for j in factors:
            levels = by_factor.get(j, {})
            holding = reduce(or_, levels.values(), 0)
            for v, bits in levels.items():
                levels[v] = holding ^ bits
            self._index[j] = (table.values.column(j), levels, holding)
        # The nodes that match the pool table's case at a given index. It
        # holds the index, not the pool: a selection that held the pool would
        # make a cycle through `_selected`, which only the garbage collector frees.
        self._case_nodes = partial(_nodes_matching, self._index, self._all)
        self._selected: dict[tuple, CandidateRules] = {}  # the own table's selections, by key

    def _select(self, table: CaseTable, factors: tuple[int, ...], params: AnalysisParams) -> CandidateRules | None:
        """The rules passing `params` on `table` and `factors`, in emit order,
        or None when the pool cannot answer: another label or `max_order`, a
        factor outside the pool's, a cutoff or consistency below the pool's,
        or a table that is not a subset of its own."""
        if self._table is None:
            self._build(table, factors, params)
        # On the pool's own table the nodes' bits pass as they are, shared, not
        # copied (``& -1`` would copy each); on a subset, masked to its cases.
        keep = None if table is self._table or self.consistency is not None else table.subset_bits(self._table)
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
        nodes, every = self._nodes, self._all
        matched, positive = self._matched, self._positive
        dropped = 0 if keep is None else ((1 << len(self._table)) - 1) ^ keep
        if dropped:
            # A dropped case lowers the counts of the nodes it matches.
            cases = range(len(self._table))
            lost = _count(map(self._case_nodes, ids_of(dropped & nodes.positives, cases)))
            lost_negative = _count(map(self._case_nodes, ids_of(dropped & ~nodes.positives, cases)))
            matched = _sub(matched, _add(lost, lost_negative))[0]
            positive = _sub(positive, lost)[0]
        threshold = params.consistency_threshold
        # A node fails when matched < cutoff or den * positive < num * matched.
        failing = _sub(matched, _scale([every], params.cutoff))[1]
        failing |= _sub(_scale(positive, threshold.denominator), _scale(matched, threshold.numerator))[1]
        for j in set(self._factors) - set(factors):
            failing |= self._index[j][2]
        passing = every & ~failing
        flags = _flags(passing)
        literals, matched_bits = list(compress(nodes.literals, flags)), compress(nodes.matched_bits, flags)
        if keep is not None:
            rules = CandidateRules(literals, list(map(keep.__and__, matched_bits)), nodes.positives & keep, nodes.ids)
        else:
            rules = self._selected[key] = CandidateRules(literals, list(matched_bits), nodes.positives, nodes.ids)
        rules._pooled = (passing, positive, self._case_nodes)  # greedy covers it in node space (see `cover`)
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
