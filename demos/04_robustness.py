#!/usr/bin/env python3
"""Internal and external validity on the bundled remote-conditions fixture.

Internal validity: sweep the consistency threshold downward and the
frequency cutoff upward and watch the candidate-rule count move
monotonically (anti-monotone filtering). External validity: jackknife 10%
of the cases ten times and classify each subsample's configurations against
the full-data solution.
"""

from pathlib import Path

from scpqca import (
    AnalysisParams,
    conjunction_shorthand,
    external_validity,
    internal_sweep,
    load_csv,
)

DATA = Path(__file__).resolve().parent.parent / "data" / "remote_conditions.csv"

table = load_csv(DATA, outcome_column="LC")
params = AnalysisParams(decision_label=1, cutoff=4, unique_cover=2)

# Each cell keeps its grid point (consistency_threshold, cutoff, unique_cover)
# beside its result, so a cell whose values are invalid still shows them next
# to its error.
print("internal validity: consistency threshold 0.8 -> 0.7 (cutoff fixed at 4)")
for cell in internal_sweep(table, [("0.8", 4, 2), ("0.75", 4, 2), ("0.7", 4, 2)], params):
    print(f"  threshold {float(cell.consistency_threshold):.2f}: {cell.candidate_count} rules")

print("\ninternal validity: cutoff 2 -> 5 (threshold fixed at 0.8)")
for cell in internal_sweep(table, [("0.8", k, 2) for k in (2, 3, 4, 5)], params):
    print(f"  cutoff {cell.cutoff}: {cell.candidate_count} rules")

print("\nexternal validity: drop 10% of cases, 10 repetitions")
report = external_validity(table, params, fraction=0.10, reps=10, seed=7)
for i, (orig, acc) in enumerate(zip(report.originals, report.per_original_accuracy()), start=1):
    print(f"  configuration {i} {conjunction_shorthand(orig, table.schema):<18} accuracy {float(acc):.2f}")
totals = report.class_totals()
print("  totals:", {k.value: v for k, v in totals.items()})
print(f"  overall accuracy (except not identified): {float(report.overall_accuracy()):.4f}")
