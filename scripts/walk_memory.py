#!/usr/bin/env python3
"""Print the lattice walk's factor- and value-tolerance table: rules, time and memory.

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

Uses only the standard library. Run from the repository root:

    PYTHONPATH=src python3 scripts/walk_memory.py
"""

from __future__ import annotations

import time
import tracemalloc

from scpqca import (
    AnalysisParams,
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


def measure(factors: int, levels: int, cases: int, pathway: str) -> tuple[int, int, float, int, int]:
    """(rules, inner nodes, fastest walk in seconds, peak bytes, retained bytes) on one table."""
    schema = synth_schema(factors, levels)
    table = generate_experiment_table(ExperimentSpec(schema, parse_pathway(pathway, schema), cases, 0, 1))
    for j in range(factors):
        for v in range(levels):
            table.literal_bits(j, v)
    table.positive_bits(1)
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


if __name__ == "__main__":
    main()
