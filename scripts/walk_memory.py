#!/usr/bin/env python3
"""Print the lattice walk's factor-tolerance table: rules, time and memory.

For 12, 14, 16 and 18 binary factors, one synthetic table of 30 cases
(`synth_schema(k)`, pathway ``ab+CD``, no confounds, seed 1) is walked by
`enumerate_candidates` at cutoff 2, the default consistency and no
`max_order`. The table's bitsets are cached first, so each figure is the
walk's own. Columns:

- rules: how many rules the walk returns;
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

FACTORS = (12, 14, 16, 18)
CASES = 30
PATHWAY = "ab+CD"
PARAMS = AnalysisParams(1, cutoff=2)


def measure(factors: int) -> tuple[int, float, int, int]:
    """(rules, fastest walk in seconds, peak bytes, retained bytes) on `factors` factors."""
    schema = synth_schema(factors)
    table = generate_experiment_table(ExperimentSpec(schema, parse_pathway(PATHWAY, schema), CASES, 0, 1))
    for j in range(factors):
        table.literal_bits(j, 0), table.literal_bits(j, 1)
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
    return len(rules), min(walks), peak - before, after - before


def main() -> None:
    print("| factors | rules | walk | peak | peak/retained | B/rule |")
    print("|---|---|---|---|---|---|")
    for factors in FACTORS:
        rules, walk, peak, retained = measure(factors)
        count = f"{rules:,}".replace(",", " ")
        ratio = peak / retained
        print(f"| {factors} | {count} | {walk:.2f} s | {peak / 2**20:.1f} MiB | {ratio:.2f} | {retained / rules:.0f} |")


if __name__ == "__main__":
    main()
