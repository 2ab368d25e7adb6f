"""Metamorphic relations of the pipeline (Chen et al., metamorphic testing).

Permuting a table's rows and relabelling its case ids must leave what
`solve` reports unchanged: the configurations, the solution's consistency,
coverage and per-rule unique coverage, the warnings and the number of
candidate rules; a solve that fails must fail with the same error. The
original configurations of `external_validity`, whose full solve selects
from a candidate pool, must not change either. Relabelling levels is not
such a relation: greedy's last tie-break orders rules by level value.

Two more relations hold exactly by the definitions, and they also run
through the harnesses, where a shared candidate pool and greedy's recorded
run answer:
- multiplicity: every case repeated `k` times under fresh ids, with
  `cutoff` and `unique_cover` times `k`, leaves every ratio and the
  candidate count as they were and multiplies each rule's unique coverage
  by `k` (`solve`, `internal_sweep`);
- label complement: on a binary outcome, decision label 0 on a table
  reports what label 1 reports on the table with every outcome flipped,
  and an error differs only in the label it names (`solve`,
  `internal_sweep`, and `external_validity`, whose repetitions drop the
  same cases, since both tables have the same length).
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpqca import (
    AnalysisParams,
    CaseTable,
    Factor,
    FactorSchema,
    ScpqcaError,
    binary_schema,
    external_validity,
    internal_sweep,
    replace,
    solve,
)

from conftest import random_table


def permuted(table: CaseTable, rng: random.Random) -> CaseTable:
    """`table`'s rows in a shuffled order, under fresh ids in another order."""
    order = list(range(len(table)))
    rng.shuffle(order)
    moved = table.take(order)
    ids = [f"r{k}" for k in rng.sample(range(10 * len(table)), len(table))]
    return CaseTable(moved.schema, ids, moved.values, moved.outcomes)


def reported(result):
    solution = result.solution
    return (
        solution.configurations(),
        solution.solution_consistency,
        solution.solution_coverage,
        solution.per_rule_unique_coverage,
        result.warnings,
        len(result.candidates),
    )


def solved(table: CaseTable, params: AnalysisParams):
    try:
        result = solve(table, params)
    except ScpqcaError as exc:
        return type(exc), str(exc)
    return reported(result)


def originals(table: CaseTable, params: AnalysisParams):
    try:
        return external_validity(table, params, fraction=0.1, reps=2, seed=3).originals
    except ScpqcaError as exc:
        return type(exc), str(exc)


def check_relation(table: CaseTable, params: AnalysisParams, rng: random.Random, shuffles: int) -> None:
    expected_solve, expected_originals = solved(table, params), originals(table, params)
    for _ in range(shuffles):
        other = permuted(table, rng)
        assert solved(other, params) == expected_solve
        assert originals(other, params) == expected_originals


def resample_table() -> CaseTable:
    """60 cases x 7 binary factors with three planted paths and three flipped
    outcomes, the shape of the `resample` benchmark table."""
    design = random.Random("metamorphic-resample")
    rows = [[design.randrange(2) for _ in range(7)] for _ in range(60)]
    outcomes = [
        int((r[0] and not r[1]) or (not r[2] and r[3]) or (r[1] and r[4] and not r[5])) for r in rows
    ]
    for i in design.sample(range(60), 3):
        outcomes[i] = 1 - outcomes[i]
    return CaseTable(binary_schema("ABCDEFG", "Y"), [f"c{i:02d}" for i in range(60)], rows, outcomes)


REMOTE_PARAMS = [
    AnalysisParams(decision_label=1, cutoff=4),
    AnalysisParams(decision_label=1, consistency_threshold="0.7", cutoff=2, unique_cover=1),
    AnalysisParams(decision_label=0, consistency_threshold="0.6", cutoff=1, unique_cover=1),
    AnalysisParams(decision_label=1, consistency_threshold="0.5", cutoff=1, unique_cover=1, max_order=2),
]


@pytest.mark.parametrize("params", REMOTE_PARAMS)
def test_remote_conditions(remote_table, params):
    check_relation(remote_table, params, random.Random(1), shuffles=5)


@pytest.mark.parametrize(
    "consistency, cutoff, unique", [("0.7", 1, 1), ("0.8", 2, 2), ("0.9", 4, 1), ("0.75", 3, 2)]
)
def test_resample_shaped_table(consistency, cutoff, unique):
    params = AnalysisParams(decision_label=1, consistency_threshold=consistency, cutoff=cutoff, unique_cover=unique)
    check_relation(resample_table(), params, random.Random(2), shuffles=5)


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["1/2", "2/3", "4/5", "1"]),
    st.integers(1, 3),
    st.integers(1, 2),
    st.sampled_from([None, 1, 2]),
)
def test_random_tables(seed, consistency, cutoff, unique, max_order):
    rng = random.Random(seed)
    table = random_table(rng, max_factors=5, max_cases=30)
    params = AnalysisParams(
        decision_label=seed % table.schema.outcome_levels,
        consistency_threshold=consistency,
        cutoff=cutoff,
        unique_cover=unique,
        max_order=max_order,
    )
    check_relation(table, params, rng, shuffles=2)


# ---------------------------------------------------------------------------
# Multiplicity and label complement


def repeated(table: CaseTable, k: int) -> CaseTable:
    """Every case of `table` `k` times in a row, under fresh ids."""
    moved = table.take([i for i in range(len(table)) for _ in range(k)])
    return CaseTable(moved.schema, [f"k{i}" for i in range(len(moved))], moved.values, moved.outcomes)


def binary_outcome(table: CaseTable) -> CaseTable:
    """`table` with its outcome levels folded onto 0 and 1."""
    schema = FactorSchema(table.schema.factors, Factor("O", 2))
    return CaseTable(schema, table.ids, table.values, [o % 2 for o in table.outcomes])


def flipped(table: CaseTable) -> CaseTable:
    """A binary-outcome `table` with every outcome flipped."""
    return CaseTable(table.schema, table.ids, table.values, [1 - o for o in table.outcomes])


def scaled(report, k: int):
    """A `reported` tuple with each rule's unique coverage times `k`; an error as it is."""
    if len(report) == 2:
        return report
    configurations, consistency, coverage, unique, warnings, count = report
    return configurations, consistency, coverage, tuple(k * u for u in unique), warnings, count


def unnamed(text: str | None, label: int) -> str | None:
    """An error text with the decision label it names taken out."""
    return None if text is None else text.replace(f"outcome {label}", "outcome <label>")


def swept(table: CaseTable, grid, base: AnalysisParams):
    return [
        (
            cell.consistency_threshold,
            cell.cutoff,
            cell.unique_cover,
            cell.candidate_count,
            unnamed(cell.error, base.decision_label),
            None if cell.result is None else reported(cell.result),
        )
        for cell in internal_sweep(table, grid, base)
    ]


def jackknifed(table: CaseTable, params: AnalysisParams, seed: int):
    label = params.decision_label
    try:
        report = external_validity(table, params, fraction=0.2, reps=4, seed=seed)
    except ScpqcaError as exc:
        return type(exc), unnamed(str(exc), label)
    reps = [
        (rep.removed_ids, rep.configurations, rep.classes, rep.degenerate, unnamed(rep.error, label))
        for rep in report.repetitions
    ]
    return report.originals, reps


THRESHOLDS = st.sampled_from(["1/2", "2/3", "4/5", "1"])
GRIDS = st.lists(st.tuples(THRESHOLDS, st.integers(1, 3), st.integers(1, 2)), min_size=1, max_size=4)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), THRESHOLDS, st.integers(1, 3), st.integers(1, 2), st.sampled_from([None, 1, 2]),
       st.integers(2, 3))
def test_multiplicity_through_solve(seed, consistency, cutoff, unique, max_order, k):
    rng = random.Random(seed)
    table = random_table(rng, max_factors=5, max_cases=30)
    params = AnalysisParams(
        decision_label=seed % table.schema.outcome_levels,
        consistency_threshold=consistency,
        cutoff=cutoff,
        unique_cover=unique,
        max_order=max_order,
    )
    many = replace(params, cutoff=k * cutoff, unique_cover=k * unique)
    assert solved(repeated(table, k), many) == scaled(solved(table, params), k)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), GRIDS, st.sampled_from([None, 2]), st.integers(2, 3))
def test_multiplicity_through_the_sweep(seed, grid, max_order, k):
    rng = random.Random(seed)
    table = random_table(rng, max_factors=5, max_cases=30)
    base = AnalysisParams(decision_label=seed % table.schema.outcome_levels, max_order=max_order)
    many = [(consistency, k * cutoff, k * unique) for consistency, cutoff, unique in grid]
    expected = [
        (consistency, k * cutoff, k * unique, count, error, None if report is None else scaled(report, k))
        for consistency, cutoff, unique, count, error, report in swept(table, grid, base)
    ]
    assert swept(repeated(table, k), many, base) == expected


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), THRESHOLDS, st.integers(1, 3), st.integers(1, 2), st.sampled_from([None, 1, 2]))
def test_label_complement_through_solve(seed, consistency, cutoff, unique, max_order):
    table = binary_outcome(random_table(random.Random(seed), max_factors=5, max_cases=30))
    zero = AnalysisParams(0, consistency, cutoff=cutoff, unique_cover=unique, max_order=max_order)
    one = replace(zero, decision_label=1)
    got, want = solved(table, zero), solved(flipped(table), one)
    if len(want) == 2:  # an error, which names its label
        got, want = (got[0], unnamed(got[1], 0)), (want[0], unnamed(want[1], 1))
    assert got == want


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), GRIDS, st.sampled_from([None, 2]))
def test_label_complement_through_the_sweep(seed, grid, max_order):
    table = binary_outcome(random_table(random.Random(seed), max_factors=5, max_cases=30))
    zero = AnalysisParams(0, max_order=max_order)
    assert swept(table, grid, zero) == swept(flipped(table), grid, replace(zero, decision_label=1))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), THRESHOLDS, st.integers(1, 3), st.integers(1, 2))
def test_label_complement_through_the_jackknife(seed, consistency, cutoff, unique):
    table = binary_outcome(random_table(random.Random(seed), max_factors=5, max_cases=30))
    zero = AnalysisParams(0, consistency, cutoff=cutoff, unique_cover=unique)
    one = replace(zero, decision_label=1)
    assert jackknifed(table, zero, seed) == jackknifed(flipped(table), one, seed)
