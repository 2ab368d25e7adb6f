#!/usr/bin/env python3
"""Measure the lattice walk, greedy and the candidate pool on large synthetic
tables, print three tables, and exit 1 when a figure misses its bound.

Every table is synthetic (`synth_schema(k, levels)`, no confounds unless a
row says so, seed 1 unless it says so), with its bitsets cached first, so
each figure is the measured call's own. Every call runs at cutoff 2 and the
default consistency, 0.8.

The first table walks one table per row with `enumerate_candidates`: 12,
14, 16 and 18 binary factors over 30 cases (pathway ``ab+CD``), 12 factors of
3 levels (``A1*B2+C0*D1``) and 10 factors of 4 levels (``A1*B2+C0*D3``) over
200 cases, all with no `max_order`; then 22 binary factors over 200 cases at
`max_order` 5 (``ab+CD+ace+BDF``, seed 2), whose level-4 frontier of about
117 000 nodes the walk must never hold. Columns:

- rules: how many rules the walk returns;
- inner nodes: the nodes of the walk's prefix tree that are not rules;
- walk: the fastest of three untraced walks, in seconds;
- peak: the tracemalloc peak of one more walk, over what was traced before it;
- peak/retained: that peak over what the returned rules retain;
- B/rule: what the returned rules retain, in bytes per rule.

The second table is the jackknife's candidate pool, as `xval` builds it
(`CandidatePool(2)`), on 7 binary factors over 60 cases at full order
(pathway ``Ab+cD+BEf``, 3 confounded cases), the shape of the benchmark's
`resample` workload, and 20 binary factors over 200 cases at `max_order` 4
(``ab+CD+ace+BDF``), the largest pool anything in the repository builds.
Columns:

- pool nodes: the nodes the pool keeps;
- walk and build: the fastest of three untraced pool builds, in milliseconds;
- take selection: the median of ten selections, each on a `CaseTable.take`
  of 90 % of the cases, in milliseconds;
- marked: the share of the pool's nodes it marks as never picked by greedy;
- peak/retained: the tracemalloc peak of a fresh pool's first selection
  (its walk, build and own-table selection) over what the pool and the
  selection retain.

Each pool then selects on its own table and on a `take` of every case but
each tenth; each selection must come from the pool (share its prefix tree)
and equal a pool-free walk of the same table: the same conjunctions in the
same order, over the same matched and positive cases.

The third table is greedy over the rules of each row whose bounds name
its peak (the 22-factor walk, both selections of the 20-factor pool), at
floors 2 and 8: the share of the rules marked (a selection carries its
pool's marks, which greedy's first pass leaves out; a walk's rules carry
none), picks, and peak B/rule, its tracemalloc peak over its input in bytes
per rule. Its picks must equal those of a plain scan that recounts every
live rule each pass, marked or not.

A row's bounds sit beside its shape in `WALKS` and `POOLS`. The script
prints each failed bound or check, naming the row and the figure, and
then exits 1.

Uses only the standard library. Run from the repository root:

    PYTHONPATH=src python3 scripts/walk_memory.py
"""

from __future__ import annotations

import operator
import random
import statistics
import sys
import time
import tracemalloc
from fractions import Fraction
from typing import Callable, NamedTuple

from scpqca import (
    AnalysisParams,
    CandidatePool,
    CandidateRules,
    CaseTable,
    ExperimentSpec,
    enumerate_candidates,
    generate_experiment_table,
    greedy_cover,
    parse_pathway,
    synth_schema,
)
from scpqca.model import bits_of, ids_of

# A bound is (figure, comparison, limit). A figure is named as its column in
# the tables, or `selection rules`, how many rules a pool selection holds.
Bounds = tuple[tuple[str, str, float], ...]
COMPARE = {"<": operator.lt, ">": operator.gt, "==": operator.eq}


class Row(NamedTuple):
    factors: int
    levels: int
    cases: int
    pathway: str
    max_order: int | None = None
    confounds: int = 0
    seed: int = 1
    bounds: Bounds = ()


# Measured: 1.06 peak/retained on 16 × 2 (1.33 with each parent held in its
# frontier until its level ends); on 22 × 2 1.015 and 72 B/rule; greedy
# about 4 to 5 peak B/rule.
WALKS = (
    Row(12, 2, 30, "ab+CD"),
    Row(14, 2, 30, "ab+CD"),
    Row(16, 2, 30, "ab+CD", bounds=(("rules", ">", 70_000), ("peak/retained", "<", 1.2))),
    Row(18, 2, 30, "ab+CD"),
    Row(12, 3, 200, "A1*B2+C0*D1"),
    Row(10, 4, 200, "A1*B2+C0*D3"),
    Row(22, 2, 200, "ab+CD+ace+BDF", max_order=5, seed=2, bounds=(
        ("rules", ">", 200_000), ("peak/retained", "<", 1.05), ("B/rule", "<", 79), ("peak B/rule", "<", 8))),
)
POOLS = (
    Row(7, 2, 60, "Ab+cD+BEf", confounds=3),
    Row(20, 2, 200, "ab+CD+ace+BDF", 4, bounds=(
        ("pool nodes", "==", 86_570), ("selection rules", ">", 5_000), ("peak B/rule", "<", 8))),
)
GREEDY_FLOORS = (2, 8)  # for each row whose bounds name greedy's peak B/rule


def check(failures: list[str], row: str, figures: dict[str, float], bounds: Bounds) -> None:
    """Add to `failures` each of `figures` that misses its bound in `bounds`."""
    for figure, comparison, limit in bounds:
        if figure in figures and not COMPARE[comparison](figures[figure], limit):
            failures.append(f"{row}: {figure} is {figures[figure]:g}, not {comparison} {limit:g}")


def spaced(n: int) -> str:
    return f"{n:,}".replace(",", " ")


def setup(row: Row) -> tuple[CaseTable, AnalysisParams, tuple[int, ...]]:
    """`row`'s table, with its bitsets cached so that no figure below
    includes packing them, its parameters and its factor set."""
    schema = synth_schema(row.factors, row.levels)
    spec = ExperimentSpec(schema, parse_pathway(row.pathway, schema), row.cases, row.confounds, row.seed)
    table = generate_experiment_table(spec)
    for j in range(row.factors):
        for v in range(row.levels):
            table.literal_bits(j, v)
    table.positive_bits(1)
    return table, AnalysisParams(1, cutoff=2, max_order=row.max_order), tuple(range(row.factors))


def timed(call: Callable[[], object]) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def traced(call: Callable[[], object]) -> tuple[object, int, int]:
    """What `call()` returns, the bytes it retained and its tracemalloc peak,
    both over what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, after - before, peak - before


def plain_scan(rules: CandidateRules, uncovered: int, floor: int) -> list[int]:
    """Greedy's picks by a scan that recounts every live rule each pass."""

    def tie_key(i):
        bits = rules.matched_bits[i]
        return Fraction((bits & rules.positives).bit_count(), bits.bit_count()), -len(rules[i].conjunction), -i

    live, picks = range(len(rules)), []
    while uncovered:
        gains = {i: (rules.matched_bits[i] & uncovered).bit_count() for i in live}
        best = max(gains.values(), default=0)
        if best < floor:
            break
        at = max((i for i in live if gains[i] == best), key=tie_key)
        picks.append(at)
        uncovered &= ~rules.matched_bits[at]
        live = [i for i in live if i != at and gains[i] >= floor]
    return picks


def cover(failures: list[str], row: str, rules: CandidateRules, table: CaseTable, bounds: Bounds) -> list[str]:
    """The greedy table's lines for `rules` over `table`'s positives, one
    per floor, each failed check added to `failures`; none if `bounds` leave
    greedy out."""
    uncovered = bits_of(table.positive_ids(1), rules.ids) & rules.positives
    lines = []
    marked = 0 if rules._marks is None else sum(map(rules._marks.__getitem__, rules._nodes)) / len(rules)
    for floor in GREEDY_FLOORS if any(figure == "peak B/rule" for figure, _, _ in bounds) else ():
        rules._greedy = None  # no recorded run answers, so greedy scans the rules and their marks
        params = AnalysisParams(1, unique_cover=floor)
        picks, _, peak = traced(lambda: greedy_cover(rules, table.positive_ids(1), params))
        check(failures, f"{row}, floor {floor}", {"peak B/rule": peak / len(rules)}, bounds)
        if picks != [rules[i] for i in plain_scan(rules, uncovered, floor)]:
            failures.append(f"{row}, floor {floor}: greedy's picks differ from the plain scan's")
        lines.append(f"| {row} | {spaced(len(rules))} | {marked:.0%} | {floor} | {len(picks)} | {peak / len(rules):.1f} |")
    return lines


def case_sets(rules: CandidateRules) -> list[tuple]:
    return [(r.conjunction, ids_of(r.matched_bits, r.ids), ids_of(r.positive_bits, r.ids)) for r in rules]


def walk_row(failures: list[str], row: Row) -> list[str]:
    """Print `row`'s line of the first table; return its greedy lines."""
    table, params, everything = setup(row)
    walk = min(timed(lambda: enumerate_candidates(table, everything, params)) for _ in range(3))
    rules, retained, peak = traced(lambda: enumerate_candidates(table, everything, params))
    inner = len(rules._tree.parents) - 1 - len(rules)
    print(
        f"| {row.factors} × {row.levels} | {row.cases} | {row.max_order or 'full'} | {spaced(len(rules))}"
        f" | {spaced(inner)} | {walk:.3f} s | {peak / 2**20:.1f} MiB | {peak / retained:.2f}"
        f" | {retained / len(rules):.0f} |"
    )
    name = f"walk {row.factors} × {row.levels} × {row.cases}"
    figures = {"rules": len(rules), "peak/retained": peak / retained, "B/rule": retained / len(rules)}
    check(failures, name, figures, row.bounds)
    return cover(failures, name, rules, table, row.bounds)


def pool_row(failures: list[str], row: Row) -> list[str]:
    """Print `row`'s line of the second table, check its selections against
    pool-free walks, and return its greedy lines."""
    table, params, everything = setup(row)
    # The walk and build alone: every public call also selects.
    build = min(timed(lambda: CandidatePool(2)._build(table, everything, params)) for _ in range(3))
    # The pool and the selection are held, so both count as retained.
    pool = CandidatePool(2)
    _, retained, peak = traced(lambda: enumerate_candidates(table, everything, params, pool=pool))
    draw = random.Random(1)
    takes = [table.take(sorted(draw.sample(range(row.cases), row.cases * 9 // 10))) for _ in range(10)]
    take = statistics.median(timed(lambda: enumerate_candidates(sub, everything, params, pool=pool)) for sub in takes)
    nodes = len(pool._nodes)  # no public call counts what the pool keeps, only what a selection passes
    marked = sum(map(pool._marks.__getitem__, pool._nodes._nodes)) / nodes
    print(
        f"| {row.factors} × {row.cases} | {row.max_order or 'full'} | {spaced(nodes)} | {build * 1e3:.2f} ms"
        f" | {take * 1e3:.2f} ms | {marked:.0%} | {peak / retained:.3f} |"
    )
    name = f"pool {row.factors} × {row.cases}"
    check(failures, name, {"pool nodes": nodes}, row.bounds)
    lines = []
    sub = table.take([i for i in range(row.cases) if i % 10])
    for cases, selection in ((table, "own-table selection"), (sub, f"take of {len(sub)}")):
        at = f"{name}, {selection}"
        rules = enumerate_candidates(cases, everything, params, pool=pool)
        check(failures, at, {"selection rules": len(rules)}, row.bounds)
        if rules._tree is not pool._nodes._tree:  # a walk builds its own tree: only this tells the pool answered
            failures.append(f"{at}: the pool did not answer")
        if case_sets(rules) != case_sets(enumerate_candidates(cases, everything, params)):
            failures.append(f"{at}: the rules differ from the pool-free walk's")
        lines += cover(failures, at, rules, cases, row.bounds)
    return lines


def main() -> None:
    failures: list[str] = []
    print("| factors × levels | cases | max_order | rules | inner nodes | walk | peak | peak/retained | B/rule |")
    print("|---|---|---|---|---|---|---|---|---|")
    greedy = [line for row in WALKS for line in walk_row(failures, row)]
    print()
    print("| factors × cases | max_order | pool nodes | walk and build | take selection | marked | peak/retained |")
    print("|---|---|---|---|---|---|---|")
    greedy += [line for row in POOLS for line in pool_row(failures, row)]
    print()
    print("| greedy over | rules | marked | floor | picks | peak B/rule |")
    print("|---|---|---|---|---|---|")
    print("\n".join(greedy))
    if failures:
        sys.exit("\n".join(failures))


if __name__ == "__main__":
    main()
