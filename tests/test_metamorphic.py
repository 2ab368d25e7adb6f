"""Metamorphic relations of the pipeline (Chen et al., metamorphic testing).

Permuting a table's rows and relabelling its case ids must leave what
`solve` reports unchanged: the configurations, the solution's consistency,
coverage and per-rule unique coverage, the warnings and the number of
candidate rules; a solve that fails must fail with the same error. The
original configurations of `external_validity`, whose full solve selects
from a candidate pool, must not change either. Relabelling levels is not
such a relation: greedy's last tie-break orders rules by level value.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpqca import AnalysisParams, CaseTable, ScpqcaError, binary_schema, external_validity, solve

from conftest import random_table


def permuted(table: CaseTable, rng: random.Random) -> CaseTable:
    """`table`'s rows in a shuffled order, under fresh ids in another order."""
    order = list(range(len(table)))
    rng.shuffle(order)
    moved = table.take(order)
    ids = [f"r{k}" for k in rng.sample(range(10 * len(table)), len(table))]
    return CaseTable(moved.schema, ids, moved.values, moved.outcomes)


def solved(table: CaseTable, params: AnalysisParams):
    try:
        result = solve(table, params)
    except ScpqcaError as exc:
        return type(exc), str(exc)
    solution = result.solution
    return (
        solution.configurations(),
        solution.solution_consistency,
        solution.solution_coverage,
        solution.per_rule_unique_coverage,
        result.warnings,
        len(result.candidates),
    )


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
