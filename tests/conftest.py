import random
import tracemalloc
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest

from scpqca import (
    AnalysisParams,
    Case,
    CaseTable,
    Conjunction,
    Factor,
    FactorSchema,
    Literal,
    binary_schema,
    load_csv,
    match_bits,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture()
def m1_table() -> CaseTable:
    """Six binary cases used throughout: A is necessary, only A*B is sufficient."""
    schema = binary_schema(["A", "B"])
    cases = [
        Case("c1", (1, 1), 1),
        Case("c2", (1, 0), 1),
        Case("c3", (1, 1), 1),
        Case("c4", (0, 1), 0),
        Case("c5", (0, 0), 0),
        Case("c6", (1, 0), 0),
    ]
    return CaseTable.from_cases(schema, cases)


@pytest.fixture(scope="session")
def remote_table() -> CaseTable:
    return load_csv(DATA_DIR / "remote_conditions.csv", outcome_column="LC")


def random_table(rng: random.Random, max_factors: int = 4, max_levels: int = 3, max_cases: int = 25) -> CaseTable:
    nf = rng.randint(1, max_factors)
    levels = [rng.randint(2, max_levels) for _ in range(nf)]
    out_levels = rng.randint(2, max_levels)
    schema = FactorSchema(
        factors=tuple(Factor(chr(ord("A") + i), lv) for i, lv in enumerate(levels)),
        outcome=Factor("O", out_levels),
    )
    n = rng.randint(1, max_cases)
    values = [[rng.randrange(lv) for lv in levels] for _ in range(n)]
    outcomes = [rng.randrange(out_levels) for _ in range(n)]
    ids = tuple(f"x{i}" for i in range(n))
    return CaseTable(schema=schema, ids=ids, values=values, outcomes=outcomes)


def traced(call):
    """What `call()` returns, the bytes it retained and its tracemalloc peak,
    both over what was traced before it. If tracing is already on (a
    profiling run), only the call is measured and tracing stays on."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = call()
        after, peak = tracemalloc.get_traced_memory()
    finally:
        if not tracing:
            tracemalloc.stop()
    return result, after - before, peak - before


def emit_order(conjunction: Conjunction) -> tuple:
    """The order enumeration emits rules in: size first, then literals lexicographically."""
    return len(conjunction.literals), tuple((lit.factor_index, lit.value) for lit in conjunction.literals)


def brute_force_candidates(table: CaseTable, factor_set, params: AnalysisParams):
    """Independent oracle: materialize every conjunction via itertools and
    filter by the popcounts of its matched and matched-positive bitsets."""
    factor_set = sorted(factor_set)
    max_order = params.max_order or len(factor_set)
    positives = table.positive_bits(params.decision_label)
    out = []
    for k in range(1, min(max_order, len(factor_set)) + 1):
        for idxs in combinations(factor_set, k):
            for values in product(*[range(table.schema.factors[i].levels) for i in idxs]):
                conj = Conjunction(tuple(Literal(i, v) for i, v in zip(idxs, values)))
                matched = match_bits(conj, table)
                if matched.bit_count() < params.cutoff:
                    continue
                if Fraction((matched & positives).bit_count(), matched.bit_count()) < params.consistency_threshold:
                    continue
                out.append(conj)
    out.sort(key=emit_order)
    return out
