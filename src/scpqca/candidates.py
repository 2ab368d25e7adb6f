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
extend by, and each parent popped from it as it is walked. The last two
levels are walked one parent of level `max_order - 2` at a time: its
children are emitted, those with a literal to extend by are its batch,
and the batch's last level is counted at once and dropped. So the walk
holds what is left of one frontier, the part of the next built so far,
and one parent's batch. It never holds the frontier of level
`max_order - 1`, the largest on a wide table: with 20 binary factors, 200
cases and `max_order` 4, 7 752 nodes against at most 34 in a batch.

The order is the level-wise walk's. Every shallower level is emitted before
the last two start. Parents come in emit order and each one's children in
order, so level `max_order - 1` is emitted in order, and so is the last
level. The last level goes straight to the output; level `max_order - 1`,
a tenth of its size on the table above, goes to its own columns, which are
inserted before the last level at the end, so that no join copies the
larger one. Measured in process (CPython 3.11.7, 2-vCPU Xeon VM), on synth
tables at cutoff 2, the walk's tracemalloc peak is 1.03 times what its
rules retain on the shape above at consistency 0.8 (0.82 against 0.80
MiB), 1.02 times with no consistency filter, 1.015 times on 22 binary
factors at `max_order` 5 and consistency 0.8, and 1.58 times with no
`max_order` on 18 factors and 30 cases; with each frontier held whole
these read 1.08, 1.02, 1.07 and 2.44, and the level-wise walk 1.83 on the
first. Popping the parents made the deep walks of a jackknife pool (7
factors at full order) 4 to 5 % slower (a None per slot, 9 %). A walk
that takes every level one node at a time, on an explicit stack, held
less still, but made those walks about 40 % slower.

The last level (`max_order` literals) is counted, never extended: a node
is added to the tree only when it passes both filters. On a wide table
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
few dozen big-int operations on bit-sliced counts (see `CandidatePool`),
which are themselves counted from each case's set of matching nodes.
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
well. Either way the rules come back as one `CandidateRules`: nodes of a
prefix tree with their matched bits, the table's positives as one bitset,
and no rule object or literal tuple per rule. The walk appends literals in
ascending factor order and derives each node's bits from the table, so
every rule is valid by construction. The filters, the decision label and
`max_order` are read from the run's one `model.AnalysisParams`, which
checked them when it was built; only the pool checks its own cutoff.

The tree (`_Tree`, after the FP-tree of Han, Pei and Yin, "Mining frequent
patterns without candidate generation", SIGMOD 2000) holds per node its
parent's index and its last literal, in arrays; the walk adds a node when
it is a rule or has a literal to extend by, so a parent that fails the
consistency filter stays as an inner node. A rule's literal tuple is built
only when it is read: by greedy's picks, the tie-break's literal count,
report rows, iteration. On 22 binary factors, 200 cases, `max_order` 5 and
consistency 0.8, a rule retains about 72 bytes (its matched bits about 52,
its list slot 8, its node about 9, with 88 087 inner nodes beside its
246 665 rules), where a rule with a literal tuple retained about 147.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import partial, reduce
from itertools import compress, zip_longest
from operator import eq, or_
from typing import Iterable, Iterator, Sequence

from .model import (
    AnalysisParams,
    CandidateRule,
    CaseTable,
    Conjunction,
    FactorSchema,
    InputError,
    Literal,
    _bits_where,
    _check_factor_index,
    _flags,
    _set,
    as_fraction,
    as_index,
    ids_of,
)


class _Tree:
    """Conjunctions as a prefix tree. Node 0 is the empty conjunction, and
    every other node is its parent's conjunction with one literal appended:
    `parents` holds each node's parent, and `codes` its last literal as a
    position in `literals` (0, and None there, for the root). Nodes are only
    appended, each after its parent."""

    __slots__ = ("parents", "codes", "literals")

    def __init__(self, literals: Iterable[Literal]) -> None:
        self.literals = (None, *literals)
        self.parents = array("I", [0])
        # A bytearray or an "I" array: both append at about list speed, where
        # "B" and "H" arrays take two to three times as long.
        self.codes = bytearray(1) if len(self.literals) <= 256 else array("I", [0])

    def conjunction(self, node: int) -> tuple[Literal, ...]:
        """The literals of `node`, first to last."""
        parents, codes, literals = self.parents, self.codes, self.literals
        out = []
        while node:
            out.append(literals[codes[node]])
            node = parents[node]
        out.reverse()
        return tuple(out)

    def depth(self, node: int) -> int:
        """How many literals `node` holds."""
        parents, depth = self.parents, 0
        while node:
            node, depth = parents[node], depth + 1
        return depth


class CandidateRules(Sequence[CandidateRule]):
    """A read-only list of rules over one `ids` tuple, held without a rule
    object or a literal tuple per rule.

    Rule i is node ``_nodes[i]`` of a prefix tree (`_Tree`) shared by every
    list cut from the same walk, and its case set is ``matched_bits[i]``;
    one bitset holds the `positives`. `len` builds nothing; an index or an
    iteration builds one `CandidateRule` per rule read, its literals read up
    the tree and its positive bits ``matched_bits & positives``, and a slice
    is another `CandidateRules` on the same tree. It equals a list or tuple
    of the same rules. The columns are taken unchecked: the walk builds them
    valid. Two memos, each written whole in one assignment, which equality,
    `repr`, copies, pickles and slices leave out: `_greedy`, the last greedy
    run over them (see `cover.greedy_cover`), and on a pool's selection
    `_pooled`, its nodes among the pool's, their positive counts and the
    nodes matching a case (see `CandidatePool`).
    """

    __slots__ = ("_tree", "_nodes", "matched_bits", "positives", "ids", "_greedy", "_pooled")

    def __init__(
        self, tree: _Tree, nodes: Sequence[int], matched_bits: list[int], positives: int, ids: tuple[str, ...]
    ) -> None:
        self._tree, self._nodes, self.matched_bits, self.positives, self.ids = tree, nodes, matched_bits, positives, ids
        self._greedy: tuple[int, int, list[int], list[int]] | None = None
        self._pooled = None

    def __reduce__(self):
        return CandidateRules, (self._tree, self._nodes, self.matched_bits, self.positives, self.ids)

    @classmethod
    def of(cls, rules: Sequence[CandidateRule]) -> "CandidateRules":
        """`rules` in one new tree over their one ids tuple, refused when they
        index different ids or disagree on which cases are positive; a
        `CandidateRules` as it is."""
        if isinstance(rules, cls):
            return rules
        ids = rules[0].ids if rules else ()
        if any(rule.ids is not ids and rule.ids != ids for rule in rules):
            raise InputError("candidate rules index different case ids")
        positives = reduce(or_, [rule.positive_bits for rule in rules], 0)
        if any(rule.positive_bits != rule.matched_bits & positives for rule in rules):
            raise InputError("candidate rules disagree on which cases are positive")
        tree = _Tree(sorted({lit for rule in rules for lit in rule.conjunction.literals}))
        code = {lit: c for c, lit in enumerate(tree.literals)}
        node_of: dict[tuple[Literal, ...], int] = {(): 0}
        nodes = array("I")
        for rule in rules:
            literals = rule.conjunction.literals
            for k in range(1, len(literals) + 1):
                if literals[:k] not in node_of:  # a new prefix: a rule's node, or an inner one
                    node_of[literals[:k]] = len(tree.parents)
                    tree.parents.append(node_of[literals[: k - 1]])
                    tree.codes.append(code[literals[k - 1]])
            nodes.append(node_of[literals])
        return cls(tree, nodes, [rule.matched_bits for rule in rules], positives, ids)

    def _rule(self, literals: tuple[Literal, ...], matched_bits: int) -> CandidateRule:
        # Checking costs more than walking the node, so the frozen fields are
        # set directly, one at a time: that keeps no instance dict per rule.
        conjunction = object.__new__(Conjunction)
        _set(conjunction, "literals", literals)
        rule = object.__new__(CandidateRule)
        _set(rule, "conjunction", conjunction)
        _set(rule, "matched_bits", matched_bits)
        _set(rule, "positive_bits", matched_bits & self.positives)
        _set(rule, "ids", self.ids)
        return rule

    def _length(self, i: int) -> int:
        """How many literals rule i holds, read without building it."""
        return self._tree.depth(self._nodes[i])

    def __len__(self) -> int:
        return len(self._nodes)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return CandidateRules(self._tree, self._nodes[i], self.matched_bits[i], self.positives, self.ids)
        return self._rule(self._tree.conjunction(self._nodes[i]), self.matched_bits[i])

    def __iter__(self) -> Iterator[CandidateRule]:
        return map(self._rule, map(self._tree.conjunction, self._nodes), self.matched_bits)

    def __eq__(self, other: object) -> bool:  # also makes the sequence unhashable
        if not isinstance(other, (CandidateRules, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"CandidateRules({list(self)!r})"


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

    Levels below `max_order - 1` go level by level, each frontier emptied
    as the next one grows; the last two go one parent of level
    `max_order - 2` at a time, keeping only that parent's batch (see the
    module docstring)."""
    nf = len(factors)
    max_order = min(params.max_order if params.max_order is not None else nf, nf)
    positives = table.positive_bits(params.decision_label)
    num, den = threshold.numerator, threshold.denominator
    # A literal below the cutoff heads only subtrees below it (levels no case
    # holds have no bits at all), so it is dropped before the walk; each kept
    # one is coded by its position in the tree's literals.
    # tails[at] lists every literal of factors[at:] in emit order, each with
    # the position a child ending in it extends from. groups[at] holds the
    # same literals per factor for the last level, as (head, last): `last` is
    # the factor's last level when none of its levels was dropped (the group
    # is complete), else None, and `head` holds its other kept levels.
    literals: list[Literal] = []
    tails: list[list[tuple[int, int, int]]] = [[] for _ in range(nf + 1)]
    groups: list[list[tuple[list, tuple[int, int] | None]]] = [[] for _ in range(nf + 1)]
    for at in reversed(range(nf)):
        j = factors[at]
        levels = table.schema.factors[j].levels
        kept = []
        for v in range(levels):
            bits = table.literal_bits(j, v)
            if bits.bit_count() >= cutoff:
                literals.append(Literal(j, v))
                kept.append((len(literals), bits))
        tails[at] = [(code, bits, at + 1) for code, bits in kept] + tails[at + 1]
        groups[at] = [(kept[:-1], kept[-1]) if len(kept) == levels else (kept, None)] + groups[at + 1]
    tree = _Tree(literals)
    out_nodes, out_matched = array("I"), []

    # Frontier entries: (tree node, matched bits, position in `factors` to
    # extend from), all meeting the cutoff and with a literal to extend by.
    # Literals are appended in ascending factor order, so every node is
    # already a valid conjunction.
    frontier = [(0, (1 << len(table)) - 1, 0)]
    for _ in range(2, max_order):
        frontier = _extend(frontier, tails, positives, cutoff, num, den, tree, out_nodes, out_matched)
    if max_order < 2:  # the root's children are the last level
        _count_last(frontier, groups, positives, cutoff, num, den, tree, out_nodes, out_matched)
        return CandidateRules(tree, out_nodes, out_matched, positives, table.ids)
    # Levels max_order - 1 and max_order, one parent at a time: its children
    # go to their own columns, and those that can be extended are its batch,
    # whose last level is appended to the output. At the end the level
    # max_order - 1 columns, the smaller ones, go in before the last level.
    # A parent is popped, so its bits are freed once its batch is counted.
    shallow = len(out_matched)
    next_nodes, next_matched = array("I"), []
    frontier.reverse()
    while frontier:
        batch = _extend([frontier.pop()], tails, positives, cutoff, num, den, tree, next_nodes, next_matched)
        if batch:
            _count_last(batch, groups, positives, cutoff, num, den, tree, out_nodes, out_matched)
    out_nodes[shallow:shallow] = next_nodes
    out_matched[shallow:shallow] = next_matched
    return CandidateRules(tree, out_nodes, out_matched, positives, table.ids)


def _extend(parents, tails, positives, cutoff, num, den, tree, out_nodes, out_matched) -> list:
    """Add to `tree` the children of `parents` that pass both filters or can
    be extended, append those that pass to the output columns, in emit
    order, and return those with a literal to extend by. `parents` is
    emptied, each parent popped as its children are counted."""
    extendable = []
    add_parent, add_code = tree.parents.append, tree.codes.append
    add_node, add_matched = out_nodes.append, out_matched.append
    node = len(tree.parents)
    parents.reverse()
    while parents:
        parent, bits, first = parents.pop()
        for code, lit_bits, after in tails[first]:
            child = bits & lit_bits
            count = child.bit_count()
            if count < cutoff:
                continue
            if (child & positives).bit_count() * den >= num * count:
                add_node(node)
                add_matched(child)
            elif not tails[after]:
                continue
            add_parent(parent)
            add_code(code)
            if tails[after]:
                extendable.append((node, child, after))
            node += 1
    return extendable


def _count_last(parents, groups, positives, cutoff, num, den, tree, out_nodes, out_matched) -> None:
    """Add to `tree` and to the output columns the children of `parents`
    that pass both filters, in emit order. They are counted, never
    extended: a child's node is added only when it passes, and in a
    complete group the last level's counts are the parent's minus its
    siblings'."""
    add_parent, add_code, add_matched = tree.parents.append, tree.codes.append, out_matched.append
    first_node = len(tree.parents)
    for parent, bits, first in parents:
        whole = bits.bit_count()
        whole_pos = (bits & positives).bit_count()
        for head, last in groups[first]:
            left, left_pos = whole, whole_pos
            for code, lit_bits in head:
                child = bits & lit_bits
                count = child.bit_count()
                pos = (child & positives).bit_count()
                left -= count
                left_pos -= pos
                if count >= cutoff and pos * den >= num * count:
                    add_parent(parent)
                    add_code(code)
                    add_matched(child)
            if last is not None and left >= cutoff and left_pos * den >= num * left:
                code, lit_bits = last
                add_parent(parent)
                add_code(code)
                add_matched(bits & lit_bits)
    out_nodes.extend(range(first_node, len(tree.parents)))


# Bit-sliced counts: a count per pool node is held as a list of slices, least
# significant first, slice b the bitset of the nodes whose count has bit b
# set (bit t stands for node t). A slice list ends in a non-empty slice.
_CHUNK = 4096  # nodes read at once by `_literal_nodes`


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


def _literal_nodes(rules: CandidateRules) -> dict[int, dict[int, int]]:
    """Factor -> level -> the bitset of the rules holding that literal, for
    every literal some rule holds.

    `rules` must come in ascending length, as the walk emits them. They are
    read a chunk at a time, up their tree one level per step: a step's
    column holds each rule's literal code at that depth from its end, at C
    speed, in bytes or an "I" array as the tree's codes are, and a
    literal's rules at that step are those equal to its code there, packed
    by `model._bits_where` as a table's column is. The rules that have
    reached the root are a prefix of the chunk, since lengths ascend, and
    are cut off. The build holds one chunk's columns at a time, not a
    buffer per literal.
    """
    tree = rules._tree
    parents, codes, literals = tree.parents, tree.codes, tree.literals
    out: dict[int, dict[int, int]] = {}
    for start in range(0, len(rules), _CHUNK):
        at = rules._nodes[start : start + _CHUNK]
        while at:
            column = map(codes.__getitem__, at)
            column = bytes(column) if len(literals) <= 256 else array("I", column)
            for code in set(column):
                lit = literals[code]
                held = out.setdefault(lit.factor_index, {})
                held[lit.value] = held.get(lit.value, 0) | _bits_where(column, code) << start
            at = array("I", map(parents.__getitem__, at))
            done = at.count(0)
            at, start = at[done:], start + done
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
    SIGMOD 1997). Each node's matched and positive counts are held as
    slices: slice b is the bitset over node positions of the counts with
    bit b set. A subset lowers each count by the node's dropped cases,
    along a borrow chain (Rinfret, O'Neil and O'Neil, "Bit-sliced index
    arithmetic", SIGMOD 2001). Each filter is then the borrow out of one
    subtraction: matched minus `cutoff`, and ``den * positive`` minus
    ``num * matched``, the products exact by shift and add. The passing
    nodes are taken by `compress`, so no Python code runs per node. The
    nodes that match one case are those holding no literal at another
    level of its factors. So the build makes, with the nodes, per walked
    factor and level the bitset of the nodes holding a literal on that
    factor at another level, and per factor the bitset of the nodes holding
    any literal on it, which a narrower factor set drops. From that index
    it takes each case's node set, and a node's matched count is how many
    cases' sets hold it, its positive count how many positive cases' sets
    do: the same sets, counted the same way (`_count`), that later lower
    the counts.

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
        # The nodes' places in the tree, as a list: a selection takes its own
        # from it by `compress`, in 19 us against 51 us into an array over
        # the `resample` table's 1 409 nodes, at about 36 bytes a node.
        self._node_ids = list(nodes._nodes)
        # The node index, per walked factor j: the table's column j, the nodes
        # holding a literal on j at a level other than v (by level v, for the
        # levels some node holds), and the nodes holding any literal on j.
        by_factor = _literal_nodes(nodes)
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
        # A node's count is how many cases' node sets hold it: its popcount.
        # Each case's set is built once: the positive cases' are counted apart,
        # then added to the rest's.
        cases = range(len(table))
        self._positive = _count(map(self._case_nodes, ids_of(nodes.positives, cases)))
        negative = _count(map(self._case_nodes, ids_of(((1 << len(table)) - 1) ^ nodes.positives, cases)))
        self._matched = _add(self._positive, negative)
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
        tree, selected = nodes._tree, list(compress(self._node_ids, flags))
        matched_bits = compress(nodes.matched_bits, flags)
        if keep is not None:
            rules = CandidateRules(tree, selected, list(map(keep.__and__, matched_bits)), nodes.positives & keep, nodes.ids)
        else:
            rules = self._selected[key] = CandidateRules(tree, selected, list(matched_bits), nodes.positives, nodes.ids)
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
