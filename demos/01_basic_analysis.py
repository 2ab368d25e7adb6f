#!/usr/bin/env python3
"""Walk through the two-step analysis on a six-case toy dataset.

The dataset has two binary factors A, B and a binary outcome O. Three cases
are positive; all of them have A=1, so A=1 is a necessary condition, and
among the remaining factors only B=1 is sufficiency-consistent enough to
survive the candidate filter at a loose threshold.
"""

from pathlib import Path

from scpqca import (
    AnalysisParams,
    Conjunction,
    conjunction_expr,
    enumerate_candidates,
    load_csv,
    necessary_conditions,
    solve,
)

DATA = Path(__file__).resolve().parent.parent / "data" / "m1.csv"

table = load_csv(DATA, outcome_column="O")
print(f"Loaded {len(table)} cases, factors: {[f.name for f in table.schema.factors]}")

# Step 1: necessity. A=1 holds in all three positive cases.
print("\nNecessity consistencies above 0.9:")
for lit, cons in necessary_conditions(table, AnalysisParams(decision_label=1)):
    print(f"  {conjunction_expr(Conjunction((lit,)), table.schema)}  ->  {float(cons):.4f}")

# Step 2: sufficiency over the non-necessary factors. With the default 0.8
# threshold nothing passes; at 0.6 the B=1 rule appears. Enumeration reads
# the same parameter object as the full pipeline; building it checks it.
for threshold in ("0.8", "0.6"):
    rules = enumerate_candidates(
        table, [1], AnalysisParams(decision_label=1, consistency_threshold=threshold, cutoff=2)
    )
    names = [conjunction_expr(r.conjunction, table.schema) for r in rules]
    print(f"\nCandidate rules at consistency >= {threshold}: {names or 'none'}")

# The full pipeline conjoins the necessary literal with whatever survives.
result = solve(table, AnalysisParams(decision_label=1, unique_cover=1))
sol = result.solution
print("\nFull pipeline:")
print(f"  necessary: {[conjunction_expr(Conjunction((l,)), table.schema) for l in sol.necessary]}")
print(f"  solution consistency {float(sol.solution_consistency):.4f}, "
      f"coverage {float(sol.solution_coverage):.4f}")
for w in result.warnings:
    print(f"  note: {w}")
