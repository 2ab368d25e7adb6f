import random
from pathlib import Path

import pytest

from scpqca import Case, CaseTable, Factor, FactorSchema, binary_schema, load_csv

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
