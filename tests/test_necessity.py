import random
from fractions import Fraction

import pytest

from scpqca import (
    Case,
    CaseTable,
    Factor,
    FactorSchema,
    InputError,
    Literal,
    UndefinedRatioError,
    binary_schema,
    exclude_necessary,
    necessary_conditions,
    necessity_consistency,
)
from scpqca.necessity import conflicting_factors


class TestNecessaryConditions:
    def test_m1_default_threshold(self, m1_table):
        assert necessary_conditions(m1_table, 1) == [(Literal(0, 1), Fraction(1))]

    def test_m1_threshold_06(self, m1_table):
        got = necessary_conditions(m1_table, 1, "0.6")
        assert got == [(Literal(0, 1), Fraction(1)), (Literal(1, 1), Fraction(2, 3))]

    def test_decision_label_must_be_an_integer(self, m1_table):
        # 1.0 == 1 and hashes alike, so a cached label-1 bitset must not
        # let the float through either.
        with pytest.raises(InputError, match="decision_label must be an integer, got 1.0"):
            necessary_conditions(m1_table, 1.0)
        necessary_conditions(m1_table, 1)
        with pytest.raises(InputError, match="decision_label must be an integer, got 1.0"):
            necessary_conditions(m1_table, 1.0)

    def test_split_positives_yield_nothing(self):
        schema = binary_schema(["A"])
        t = CaseTable.from_cases(
            schema, [Case("a", (0,), 1), Case("b", (1,), 1), Case("c", (0,), 0)]
        )
        assert necessary_conditions(t, 1) == []

    def test_strictly_greater_comparison(self):
        # 9 of 10 positives carry A=1: consistency exactly 0.9 is NOT above 0.9
        schema = binary_schema(["A"])
        cases = [Case(f"p{i}", (1,), 1) for i in range(9)] + [Case("p9", (0,), 1)]
        t = CaseTable.from_cases(schema, cases)
        assert necessity_consistency(Literal(0, 1), t, 1) == Fraction(9, 10)
        assert necessary_conditions(t, 1, "0.9") == []

    def test_every_returned_literal_rechecks(self, remote_table):
        for lit, cons in necessary_conditions(remote_table, 1):
            assert necessity_consistency(lit, remote_table, 1) == cons
            assert cons > Fraction(9, 10)

    def test_raising_threshold_never_adds(self, m1_table):
        lo = {lit for lit, _ in necessary_conditions(m1_table, 1, "0.5")}
        hi = {lit for lit, _ in necessary_conditions(m1_table, 1, "0.9")}
        assert hi <= lo

    def test_no_positives_is_an_error(self, m1_table):
        sub = CaseTable.from_cases(m1_table.schema, [m1_table.case(4)])
        with pytest.raises(UndefinedRatioError):
            necessary_conditions(sub, 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_unheld_levels_match_the_scan_of_every_level(self, seed):
        # The scan skips levels no case holds; checking every level must agree.
        rng = random.Random(5000 + seed)
        levels = [rng.randint(2, 300) for _ in range(rng.randint(1, 3))]
        schema = FactorSchema(tuple(Factor(f"F{j}", lv) for j, lv in enumerate(levels)), Factor("O", 2))
        n = rng.randint(1, 12)
        cases = [Case(f"c{i}", tuple(rng.randrange(min(lv, 4)) for lv in levels), rng.randrange(2)) for i in range(n)]
        t = CaseTable.from_cases(schema, cases)
        threshold = Fraction(rng.randint(1, 10), 10)
        if not t.positive_bits(1):
            with pytest.raises(UndefinedRatioError):
                necessary_conditions(t, 1, threshold)
            return
        every = [
            (Literal(j, v), necessity_consistency(Literal(j, v), t, 1))
            for j, lv in enumerate(levels)
            for v in range(lv)
        ]
        want = sorted(
            ((lit, c) for lit, c in every if c > threshold),
            key=lambda item: (-item[1], item[0].factor_index, item[0].value),
        )
        assert necessary_conditions(t, 1, threshold) == want

    def test_threshold_validation(self, m1_table):
        with pytest.raises(InputError):
            necessary_conditions(m1_table, 1, "0")
        with pytest.raises(InputError):
            necessary_conditions(m1_table, 1, "1.5")


class TestExcludeNecessary:
    def test_eight_factor_example(self):
        schema = binary_schema([f"F{i}" for i in range(8)])
        remaining = exclude_necessary(schema, [Literal(3, 1), Literal(6, 1)])
        assert len(remaining) == 6
        assert 3 not in remaining and 6 not in remaining

    def test_empty_is_identity(self, m1_table):
        assert exclude_necessary(m1_table.schema, []) == (0, 1)

    def test_all_factors_necessary(self, m1_table):
        assert exclude_necessary(m1_table.schema, [Literal(0, 1), Literal(1, 1)]) == ()

    def test_out_of_range(self, m1_table):
        with pytest.raises(InputError):
            exclude_necessary(m1_table.schema, [Literal(5, 0)])


def test_conflicting_factors():
    rows = [
        (Literal(0, 1), Fraction(3, 5)),
        (Literal(0, 0), Fraction(3, 5)),
        (Literal(1, 1), Fraction(4, 5)),
    ]
    assert conflicting_factors(rows) == (0,)
    assert conflicting_factors(rows[2:]) == ()
