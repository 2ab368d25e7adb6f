"""Candidate-rule enumeration over the non-necessary factors.

Every non-empty conjunction over the chosen factors (up to `max_order`
literals) is screened against two filters: a minimum matched-case count
(`cutoff`, total matches, not just positives) and a minimum sufficiency
consistency (compared with >=, so a rule at exactly the threshold is kept).
No minimality pruning happens here; a rule and its specializations may
coexist, the covering stage decides what survives.

Enumeration walks the conjunction lattice from short conjunctions to long.
Matching is anti-monotone (adding a literal never enlarges the matched
set), so a prefix below the cutoff is not extended, nor one with fewer
positives than every rule holds, ``ceil(consistency * cutoff)``, as no node
below it holds more (an optimistic estimate: Grosskreutz, Rüping and
Wrobel, ECML PKDD 2008). Nodes come out in the final deterministic order,
literal count ascending then lexicographic on (factor index, value). A
literal that matches fewer cases than the cutoff (a level no case holds
matches none) is dropped before the walk; each factor position then has
one flat list of the literals that may follow it.

Levels 1 to `max_order - 2` are walked level by level, each level's
frontier holding its nodes that can be extended, and each parent popped
from it as it is walked. The last two levels are walked one parent of
level `max_order - 2` at a time: its children are emitted, those that can
be extended are its batch, and the batch's last level is counted at once
and dropped. So the walk holds what is left of one frontier, the part of
the next built so far, and one parent's batch. It never holds the frontier of level
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
factors at `max_order` 5 and consistency 0.8, and 1.12 times with no
`max_order` on 18 factors and 30 cases (1.58 with no positive floor); with
each frontier held whole the first three read 1.08, 1.02 and 1.07, and the
level-wise walk 1.83 on the first. Popping the parents made the deep walks
of a jackknife pool (7 factors at full order) 4 to 5 % slower (a None per
slot, 9 %). A walk that takes every level one node at a time, on an
explicit stack, held less still, but made those walks about 40 % slower.

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
comprehension. A pool's selection is a plain loop too, over the pool's
nodes (see `CandidatePool`).

Case sets are the table's bitsets over its ids (see `model`): a child's
matched set is its prefix's bits ANDed with one literal's, counts are
popcounts, and the consistency filter compares exact integer cross products
(``positives * den >= num * matched``), so no `Fraction` is built per node.

A call with no pool walks the lattice over its own table at its own
cutoff and consistency, and every node of that walk is a rule. Only a
sweep or jackknife shares a `CandidatePool`, which keeps the nodes of one
walk over one factor set and filters them per cell or rep; a call its pool
cannot answer walks directly as well, so a repetition whose necessary
conditions differ from the full table's walks its own cases. Either way
the rules come back as one `CandidateRules`: nodes of a prefix tree with
their matched bits, the table's positives as one bitset, and no rule
object or literal tuple per rule. Greedy covers both alike (see `cover`).
The walk appends literals in ascending factor order and derives each
node's bits from the table, so every rule is valid by construction. The
filters, the decision label and `max_order` are read from the run's one
`model.AnalysisParams`, which checked them when it was built; only the
pool checks its own cutoff and consistency.

The tree (`_Tree`, after the FP-tree of Han, Pei and Yin, "Mining frequent
patterns without candidate generation", SIGMOD 2000) holds per node its
parent's index and its last literal, in arrays; the walk adds a node when
it is a rule or can be extended, so a parent that fails the consistency
filter may stay as an inner node. A rule's literal tuple is built only
when it is read: by greedy's picks, the tie-break's literal count,
report rows, iteration. On 22 binary factors, 200 cases, `max_order` 5 and
consistency 0.8, a rule retains about 72 bytes (its matched bits about 52,
its list slot 8, its node about 9, with 85 544 inner nodes beside its
246 665 rules), where a rule with a literal tuple retained about 147.
"""

from __future__ import annotations

from array import array
from fractions import Fraction
from functools import reduce
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
    _check_factor_index,
    _check_threshold,
    _set,
    as_fraction,
    as_index,
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
    valid. One memo, written whole in one assignment, which equality,
    `repr`, copies, pickles and slices leave out: `_greedy`, the last greedy
    run over them (see `cover.greedy_cover`).
    """

    __slots__ = ("_tree", "_nodes", "matched_bits", "positives", "ids", "_greedy")

    def __init__(
        self, tree: _Tree, nodes: Sequence[int], matched_bits: list[int], positives: int, ids: tuple[str, ...]
    ) -> None:
        self._tree, self._nodes, self.matched_bits, self.positives, self.ids = tree, nodes, matched_bits, positives, ids
        self._greedy: tuple[int, int, list[int], list[int]] | None = None

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


def _floor(threshold: Fraction, cutoff: int) -> int:
    """``ceil(threshold * cutoff)``: a rule's fewest positives."""
    return -(-threshold.numerator * cutoff // threshold.denominator)


def _walk(
    table: CaseTable, factors: tuple[int, ...], params: AnalysisParams, cutoff: int, threshold: Fraction, floor=None
) -> CandidateRules:
    """Every node up to `params.max_order` literals that meets `cutoff` and
    whose consistency for `params.decision_label` is at least `threshold`,
    in emit order, as a `CandidateRules` over `table.ids`, walked as the
    module docstring says. A node with fewer than `floor` positives (by
    default `_floor(threshold, cutoff)`, which every rule reaches) is neither
    kept nor extended, since no node below it holds more positives."""
    nf = len(factors)
    max_order = min(params.max_order if params.max_order is not None else nf, nf)
    positives = table.positive_bits(params.decision_label)
    num, den = threshold.numerator, threshold.denominator
    if floor is None:
        floor = _floor(threshold, cutoff)
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
        frontier = _extend(frontier, tails, positives, cutoff, floor, num, den, tree, out_nodes, out_matched)
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
        batch = _extend([frontier.pop()], tails, positives, cutoff, floor, num, den, tree, next_nodes, next_matched)
        if batch:
            _count_last(batch, groups, positives, cutoff, num, den, tree, out_nodes, out_matched)
    out_nodes[shallow:shallow] = next_nodes
    out_matched[shallow:shallow] = next_matched
    return CandidateRules(tree, out_nodes, out_matched, positives, table.ids)


def _extend(parents, tails, positives, cutoff, floor, num, den, tree, out_nodes, out_matched) -> list:
    """Add to `tree` the children of `parents` with at least `floor`
    positives that pass both filters or can be extended, append those that
    pass to the output columns, in emit order, and return those with a
    literal to extend by. `parents` is emptied, each parent popped as its
    children are counted."""
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
            pos = (child & positives).bit_count()
            if pos < floor:
                continue
            if pos * den >= num * count:
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


class CandidatePool:
    """Every lattice node that meets one cutoff, walked once and filtered per call.

    Only the owner of a run that solves one table many times (a sweep over
    its cells, a jackknife over its reps) creates a pool: at the loosest
    cutoff it will ask for, passed to every `enumerate_candidates` call. The
    first call walks its table and factor set at that cutoff c, with no
    consistency filter unless the owner gives one (see below), and keeps
    every node with at least ``ceil(t * c)`` positives in emit order as one
    `CandidateRules`, t that consistency or else the first call's. A later
    call over the same factor set selects from its columns into new ones.
    Both filters are anti-monotone and a subset of cases can only lower a
    node's counts, so every rule of a later call whose own
    ``ceil(consistency * cutoff)`` is at least that floor is a pool node (it
    holds that many positives on the subset, so on the pool's table), and
    filtering keeps the order; any other call walks. So a repetition whose
    necessary conditions differ from the full table's walks its own cases.
    A selection on the pool's own table is kept per (cutoff, consistency):
    a repeat returns the same `CandidateRules`, so the sweep cells that
    share them share greedy's recorded run too (see `cover`).

    A selection is one loop over the pool's nodes: each node's matched bits,
    masked to the subset's cases, are counted and put to the walk's own
    two tests. A selection is a plain `CandidateRules` that greedy covers
    as it covers a walk's (see `cover`). It holds no reference to the pool,
    so a pool dies with its owner's last reference while its selections
    live on.

    A selection indexes the pool table's `ids`; on a subset that
    `CaseTable.take` made from that table its matched bits and positives are
    the pool's masked to the subset's cases. The subset answers which cases
    it holds (`CaseTable.subset_bits`), and only for the table it was taken
    from, so a table that only equals one (built another way) walks its own
    table, like any call the pool cannot answer.

    An owner that solves only the pool's own table (a sweep) may also give
    the loosest `consistency` it will ask for, checked as
    `model.AnalysisParams` checks one; the pool then keeps only the nodes
    that meet it, which on a wide table is a small share of those that meet
    the cutoff. Such a pool answers no subset, because dropping cases can
    raise a node's consistency.
    """

    def __init__(self, cutoff: int, consistency: Fraction | float | str | None = None) -> None:
        self.cutoff = as_index(cutoff, "cutoff", 1)
        self.consistency = None if consistency is None else _check_threshold(as_fraction(consistency), "consistency")
        self._table: CaseTable | None = None

    def _build(self, table: CaseTable, factors: tuple[int, ...], params: AnalysisParams) -> None:
        self._table, self._walked = table, (factors, params.decision_label, params.max_order)
        first = params.consistency_threshold if self.consistency is None else self.consistency
        self._floor = _floor(first, self.cutoff)
        self._nodes = _walk(table, factors, params, self.cutoff, self.consistency or Fraction(0), self._floor)
        self._selected: dict[tuple, CandidateRules] = {}  # the own table's selections, by key

    def _select(self, table: CaseTable, factors: tuple[int, ...], params: AnalysisParams) -> CandidateRules | None:
        """The rules passing `params` on `table` and the pool's factor set, in
        emit order, or None when the pool cannot answer: another factor set,
        label or `max_order` than it walked, a cutoff, consistency or
        positive floor below the pool's, or a table that is not a subset of
        its own."""
        if self._table is None:
            self._build(table, factors, params)
        # On the pool's own table the nodes' bits pass as they are, shared, not
        # copied (``& -1`` would copy each); on a subset, masked to its cases.
        keep = None if table is self._table or self.consistency is not None else table.subset_bits(self._table)
        if (
            (factors, params.decision_label, params.max_order) != self._walked
            or params.cutoff < self.cutoff
            or _floor(params.consistency_threshold, params.cutoff) < self._floor
            or (self.consistency is not None and params.consistency_threshold < self.consistency)
            or (keep is None and table is not self._table)
        ):
            return None
        key = (params.cutoff, params.consistency_threshold)
        if keep is None and key in self._selected:
            return self._selected[key]
        nodes, threshold, cutoff = self._nodes, params.consistency_threshold, params.cutoff
        positives = nodes.positives if keep is None else nodes.positives & keep
        num, den = threshold.numerator, threshold.denominator
        selected, matched = array("I"), []
        for node, bits in zip(nodes._nodes, nodes.matched_bits):
            if keep is not None:
                bits &= keep
            m = bits.bit_count()
            if m >= cutoff and (bits & positives).bit_count() * den >= num * m:
                selected.append(node)
                matched.append(bits)
        rules = CandidateRules(nodes._tree, selected, matched, positives, nodes.ids)
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
