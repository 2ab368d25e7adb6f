#!/usr/bin/env python3
"""Print the lattice walk's factor- and value-tolerance table, then the candidate pool's.

Each row is one synthetic table (`synth_schema(k, levels)`, no confounds,
seed 1) walked by `enumerate_candidates` at cutoff 2, the default
consistency and no `max_order`: 12, 14, 16 and 18 binary factors over 30
cases (pathway ``ab+CD``), then 12 factors of 3 levels (pathway
``A1*B2+C0*D1``) and 10 factors of 4 levels (``A1*B2+C0*D3``) over 200
cases. The table's bitsets are cached first, so each figure is the walk's
own. Columns:

- rules: how many rules the walk returns;
- inner nodes: the nodes of the walk's prefix tree that are not rules;
- walk: the fastest of three untraced walks, in seconds;
- peak: the tracemalloc peak of one more walk, over what was traced before it;
- peak/retained: that peak over what the returned rules retain;
- B/rule: what the returned rules retain, in bytes per rule.

The second table is the jackknife's candidate pool, as `xval` builds it
(`CandidatePool(2)`, consistency 0.8), on two synthetic tables: 7 binary
factors over 60 cases at full order (pathway ``Ab+cD+BEf``, 3 confounded
cases), the shape of the benchmark's `resample` workload, and 20 binary
factors over 200 cases at `max_order` 4 (``ab+CD+ace+BDF``), the largest pool
anything in the repository builds. Columns:

- pool nodes: the nodes the pool keeps;
- walk and build: the fastest of three untraced pool builds, in milliseconds;
- take selection: the median of ten selections, each on a `CaseTable.take`
  of 90 % of the cases, in milliseconds;
- peak/retained: the tracemalloc peak of a fresh pool's first selection
  (its walk, build and own-table selection) over what the pool and the
  selection retain.

Uses only the standard library. Run from the repository root:

    PYTHONPATH=src python3 scripts/walk_memory.py
"""

from __future__ import annotations

import random
import statistics
import time
import tracemalloc

from scpqca import (
    AnalysisParams,
    CandidatePool,
    CaseTable,
    ExperimentSpec,
    enumerate_candidates,
    generate_experiment_table,
    parse_pathway,
    synth_schema,
)

# (factors, levels, cases, pathway), one row each.
TABLES = (
    (12, 2, 30, "ab+CD"),
    (14, 2, 30, "ab+CD"),
    (16, 2, 30, "ab+CD"),
    (18, 2, 30, "ab+CD"),
    (12, 3, 200, "A1*B2+C0*D1"),
    (10, 4, 200, "A1*B2+C0*D3"),
)
PARAMS = AnalysisParams(1, cutoff=2)
# (factors, cases, confounds, pathway, max_order), one pool row each.
POOLS = (
    (7, 60, 3, "Ab+cD+BEf", None),
    (20, 200, 0, "ab+CD+ace+BDF", 4),
)


def cached_table(factors: int, levels: int, cases: int, confounds: int, pathway: str) -> CaseTable:
    """A synthetic table (seed 1) with its bitsets cached, so that no figure
    below includes packing them."""
    schema = synth_schema(factors, levels)
    table = generate_experiment_table(ExperimentSpec(schema, parse_pathway(pathway, schema), cases, confounds, 1))
    for j in range(factors):
        for v in range(levels):
            table.literal_bits(j, v)
    table.positive_bits(1)
    return table


def measure(factors: int, levels: int, cases: int, pathway: str) -> tuple[int, int, float, int, int]:
    """(rules, inner nodes, fastest walk in seconds, peak bytes, retained bytes) on one table."""
    table = cached_table(factors, levels, cases, 0, pathway)
    walks = []
    for _ in range(3):
        start = time.perf_counter()
        enumerate_candidates(table, range(factors), PARAMS)
        walks.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        rules = enumerate_candidates(table, range(factors), PARAMS)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    inner = len(rules._tree.parents) - 1 - len(rules)
    return len(rules), inner, min(walks), peak - before, after - before


def measure_pool(
    factors: int, cases: int, confounds: int, pathway: str, max_order: int | None
) -> tuple[int, float, float, float]:
    """(pool nodes, fastest build and median take selection in seconds,
    first selection's peak over retained) on one table."""
    table = cached_table(factors, 2, cases, confounds, pathway)
    params = AnalysisParams(1, "0.8", cutoff=2, max_order=max_order)
    everything = tuple(range(factors))
    builds = []
    for _ in range(3):
        pool = CandidatePool(2)
        start = time.perf_counter()
        pool._build(table, everything, params)
        builds.append(time.perf_counter() - start)
    draw = random.Random(1)
    takes = [table.take(sorted(draw.sample(range(cases), cases * 9 // 10))) for _ in range(10)]
    selections = []
    for sub in takes:
        start = time.perf_counter()
        enumerate_candidates(sub, everything, params, pool=pool)
        selections.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fresh = CandidatePool(2)
        rules = enumerate_candidates(table, everything, params, pool=fresh)  # held, so counted as retained
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return len(pool._nodes), min(builds), statistics.median(selections), (peak - before) / (after - before)


def main() -> None:
    print("| factors × levels | cases | rules | inner nodes | walk | peak | peak/retained | B/rule |")
    print("|---|---|---|---|---|---|---|---|")
    for factors, levels, cases, pathway in TABLES:
        rules, inner, walk, peak, retained = measure(factors, levels, cases, pathway)
        count, inner_count = (f"{n:,}".replace(",", " ") for n in (rules, inner))
        print(
            f"| {factors} × {levels} | {cases} | {count} | {inner_count} | {walk:.3f} s | {peak / 2**20:.1f} MiB"
            f" | {peak / retained:.2f} | {retained / rules:.0f} |"
        )
    print()
    print("| factors × cases | max_order | pool nodes | walk and build | take selection | peak/retained |")
    print("|---|---|---|---|---|---|")
    for factors, cases, confounds, pathway, max_order in POOLS:
        nodes, build, take, ratio = measure_pool(factors, cases, confounds, pathway, max_order)
        count = f"{nodes:,}".replace(",", " ")
        print(
            f"| {factors} × {cases} | {max_order or 'full'} | {count} | {build * 1e3:.2f} ms"
            f" | {take * 1e3:.2f} ms | {ratio:.3f} |"
        )


if __name__ == "__main__":
    main()
