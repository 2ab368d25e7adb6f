import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpqca import (
    CandidateRule,
    Case,
    CaseTable,
    Conjunction,
    Factor,
    FactorSchema,
    InputError,
    Literal,
    UndefinedRatioError,
    as_fraction,
    binary_schema,
    conjunction_expr,
    conjunction_shorthand,
    matched_ids,
    matches,
    necessity_consistency,
    rule_from_conjunction,
    solution_metrics,
    sufficiency_consistency,
)
from scpqca.model import bits_of, ids_of
from conftest import random_table


def brute_sufficiency(conj: Conjunction, table: CaseTable, label: int) -> Fraction:
    """Independent oracle: per-case loop over Case objects."""
    matched = [c for c in table if matches(conj, c)]
    return Fraction(sum(1 for c in matched if c.outcome == label), len(matched))


def brute_necessity(lit: Literal, table: CaseTable, label: int) -> Fraction:
    positives = [c for c in table if c.outcome == label]
    return Fraction(
        sum(1 for c in positives if c.values[lit.factor_index] == lit.value), len(positives)
    )


class TestMatches:
    def test_exact_match(self):
        conj = Conjunction.of((0, 1), (1, 1))
        assert matches(conj, Case("x", (1, 1), 0)) is True

    def test_violated_literal(self):
        conj = Conjunction.of((0, 1), (1, 1))
        assert matches(conj, Case("x", (1, 0), 0)) is False

    def test_m1_single_literal(self, m1_table):
        assert matched_ids(Conjunction.of((0, 1)), m1_table) == {"c1", "c2", "c3", "c6"}

    def test_empty_conjunction_matches_everything(self, m1_table):
        assert matched_ids(Conjunction(()), m1_table) == set(m1_table.ids)

    def test_out_of_range_factor_index(self, m1_table):
        with pytest.raises(InputError):
            matches(Conjunction.of((7, 0)), m1_table.case(0))
        with pytest.raises(InputError):
            matched_ids(Conjunction.of((7, 0)), m1_table)

    def test_out_of_range_value(self, m1_table):
        with pytest.raises(InputError):
            matched_ids(Conjunction.of((0, 5)), m1_table)


class TestSufficiencyConsistency:
    @pytest.mark.parametrize(
        "pairs,expected",
        [
            ([(0, 1)], Fraction(3, 4)),
            ([(0, 1), (1, 1)], Fraction(1)),
            ([(0, 0)], Fraction(0)),
        ],
    )
    def test_m1_values(self, m1_table, pairs, expected):
        conj = Conjunction.of(*pairs)
        assert sufficiency_consistency(conj, m1_table, 1) == expected
        assert brute_sufficiency(conj, m1_table, 1) == expected

    def test_zero_matches_is_an_error(self, m1_table):
        # no case has A=1, B=1 and outcome column is irrelevant; use an
        # unmatched combination instead: there is no (A=0, B=0) with ... c5 is.
        empty = Conjunction.of((0, 1), (1, 1))
        # restrict to a table without matching cases
        sub = CaseTable.from_cases(m1_table.schema, [m1_table.case(4)])  # only c5 (0,0)
        with pytest.raises(UndefinedRatioError):
            sufficiency_consistency(empty, sub, 1)


class TestNecessityConsistency:
    def test_m1_values(self, m1_table):
        assert necessity_consistency(Literal(0, 1), m1_table, 1) == 1
        assert necessity_consistency(Literal(1, 1), m1_table, 1) == Fraction(2, 3)
        assert brute_necessity(Literal(1, 1), m1_table, 1) == Fraction(2, 3)

    def test_full_overlap(self):
        schema = binary_schema(["A"])
        t = CaseTable.from_cases(schema, [Case("a", (1,), 1), Case("b", (1,), 1)])
        assert necessity_consistency(Literal(0, 1), t, 1) == 1

    def test_no_positives_is_an_error(self, m1_table):
        sub = CaseTable.from_cases(m1_table.schema, [m1_table.case(4)])
        with pytest.raises(UndefinedRatioError):
            necessity_consistency(Literal(0, 1), sub, 1)


class TestSolutionMetrics:
    def test_single_pure_rule(self, m1_table):
        rule = rule_from_conjunction(Conjunction.of((0, 1), (1, 1)), m1_table, 1)
        assert solution_metrics([rule], m1_table, 1) == (Fraction(1), Fraction(2, 3))

    def test_single_impure_rule(self, m1_table):
        rule = rule_from_conjunction(Conjunction.of((0, 1)), m1_table, 1)
        assert solution_metrics([rule], m1_table, 1) == (Fraction(3, 4), Fraction(1))

    def test_union_of_two_rules(self, m1_table):
        r1 = rule_from_conjunction(Conjunction.of((0, 1), (1, 1)), m1_table, 1)
        r2 = rule_from_conjunction(Conjunction.of((0, 1), (1, 0)), m1_table, 1)
        assert solution_metrics([r1, r2], m1_table, 1) == (Fraction(3, 4), Fraction(1))

    def test_single_rule_equals_its_own_stats(self, m1_table):
        positives = m1_table.positive_ids(1)
        for pairs in ([(0, 1)], [(1, 0)], [(0, 1), (1, 1)]):
            rule = rule_from_conjunction(Conjunction.of(*pairs), m1_table, 1)
            cons, cov = solution_metrics([rule], m1_table, 1)
            assert cons == rule.consistency
            assert cov == Fraction(len(rule.positives_matched), len(positives))

    def test_no_rules_is_an_error(self, m1_table):
        with pytest.raises(InputError):
            solution_metrics([], m1_table, 1)


class TestDuplicateWeighting:
    def test_duplicating_a_case_shifts_metrics_as_weighted_counts(self, m1_table):
        # duplicate c6 (A=1,B=0 -> 0) under a fresh id: {A=1} now matches 5
        # cases of which 3 are positive
        dup = CaseTable.from_cases(
            m1_table.schema, list(m1_table.cases) + [Case("c6bis", (1, 0), 0)]
        )
        assert sufficiency_consistency(Conjunction.of((0, 1)), dup, 1) == Fraction(3, 5)
        # necessity unchanged: the duplicate is not a positive case
        assert necessity_consistency(Literal(0, 1), dup, 1) == 1
        # duplicating a positive raises the weight of its literals
        dup2 = CaseTable.from_cases(
            m1_table.schema, list(m1_table.cases) + [Case("c1bis", (1, 1), 1)]
        )
        assert necessity_consistency(Literal(1, 1), dup2, 1) == Fraction(3, 4)


class TestMetricProperties:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_ratios_lie_in_unit_interval_and_cross_check(self, seed):
        rng = random.Random(seed)
        table = random_table(rng)
        label = rng.randrange(table.schema.outcome_levels)
        nf = len(table.schema.factors)
        lit = Literal(rng.randrange(nf), rng.randrange(table.schema.factors[0].levels))
        if table.positive_mask(label).any():
            nec = necessity_consistency(Literal(0, lit.value % table.schema.factors[0].levels), table, label)
            assert 0 <= nec <= 1
            conj = Conjunction((Literal(0, lit.value % table.schema.factors[0].levels),))
            try:
                suf = sufficiency_consistency(conj, table, label)
            except UndefinedRatioError:
                return
            assert 0 <= suf <= 1
            # shared numerator: |matched ∩ positives| both ways
            matched = matched_ids(conj, table)
            positives = table.positive_ids(label)
            overlap = len(matched & positives)
            assert suf * len(matched) == overlap
            assert nec * len(positives) == overlap

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_adding_literals_never_enlarges_matched_set(self, seed):
        rng = random.Random(seed)
        table = random_table(rng)
        nf = len(table.schema.factors)
        base_lits = []
        prev = matched_ids(Conjunction(()), table)
        for i in rng.sample(range(nf), k=rng.randint(1, nf)):
            base_lits.append(Literal(i, rng.randrange(table.schema.factors[i].levels)))
            cur = matched_ids(Conjunction(tuple(base_lits)), table)
            assert cur <= prev
            prev = cur


class TestIdsAndBits:
    @staticmethod
    def reference(bits, ids):
        return [cid for cid, bit in zip(ids, reversed(bin(bits))) if bit == "1"]

    @staticmethod
    def reference_bits(members, ids):
        members = frozenset(members)
        return int("0" + "".join("1" if cid in members else "0" for cid in reversed(ids)), 2)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 70).flatmap(lambda n: st.tuples(st.integers(0, (1 << n) - 1), st.just(n))))
    def test_matches_the_per_bit_comprehension(self, case):
        bits, n = case
        ids = tuple(f"c{i}" for i in range(n))
        assert ids_of(bits, ids) == self.reference(bits, ids)
        members = ids_of(bits, ids) + ["stranger"]
        assert bits_of(members, ids) == self.reference_bits(members, ids) == bits

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 9, 64, 200])
    def test_empty_and_full_masks(self, n):
        ids = tuple(f"c{i}" for i in range(n))
        assert ids_of(0, ids) == self.reference(0, ids) == []
        assert ids_of((1 << n) - 1, ids) == self.reference((1 << n) - 1, ids) == list(ids)
        assert bits_of((), ids) == self.reference_bits((), ids) == 0
        assert bits_of(ids, ids) == self.reference_bits(ids, ids) == (1 << n) - 1

    def test_bits_past_the_ids_are_ignored(self):
        ids = ("a", "b", "c")
        assert ids_of(0b11010, ids) == self.reference(0b11010, ids) == ["b"]


class TestUniqueIds:
    def test_answer_is_cached_on_the_table(self, m1_table):
        assert m1_table.has_unique_ids() is True
        assert m1_table.__dict__["_unique_ids"] is True
        dup = CaseTable(m1_table.schema, ("a", "a", "b", "c", "d", "e"), m1_table.values, m1_table.outcomes)
        assert dup.has_unique_ids() is False
        with pytest.raises(InputError, match="duplicate case id 'a'"):
            dup.require_unique_ids()


class TestTypes:
    def test_conjunction_rejects_duplicate_factor(self):
        with pytest.raises(InputError):
            Conjunction.of((0, 1), (0, 0))

    def test_conjunction_merge(self):
        a = Conjunction.of((0, 1))
        b = Conjunction.of((1, 2))
        assert a.merge(b) == Conjunction.of((0, 1), (1, 2))
        with pytest.raises(InputError):
            a.merge(Conjunction.of((0, 0)))

    def test_literals_sorted_and_hashable(self):
        c = Conjunction.of((2, 0), (0, 1))
        assert c.factor_indices() == (0, 2)
        assert len({c, Conjunction.of((0, 1), (2, 0))}) == 1

    def test_candidate_rule_invariants(self):
        conj = Conjunction.of((0, 1))
        with pytest.raises(InputError):
            CandidateRule.from_sets(conj, frozenset(), frozenset(), ("a", "b"))
        with pytest.raises(InputError):
            CandidateRule.from_sets(conj, frozenset({"a"}), frozenset({"a", "b"}), ("a", "b"))
        rule = CandidateRule.from_sets(conj, {"a", "b"}, {"a"}, ("a", "b"))
        assert rule.consistency == Fraction(1, 2)

    def test_schema_validation(self):
        with pytest.raises(InputError):
            Factor("A", 1)
        with pytest.raises(InputError):
            FactorSchema(factors=(Factor("A", 2), Factor("A", 2)), outcome=Factor("O", 2))
        with pytest.raises(InputError):
            FactorSchema(factors=(Factor("O", 2),), outcome=Factor("O", 2))

    def test_table_value_range_checked(self):
        schema = binary_schema(["A"])
        with pytest.raises(InputError):
            CaseTable.from_cases(schema, [Case("x", (2,), 0)])
        with pytest.raises(InputError):
            CaseTable.from_cases(schema, [Case("x", (1,), 3)])


class TestAsFraction:
    def test_decimal_strings_and_floats_are_exact(self):
        assert as_fraction("0.8") == Fraction(4, 5)
        assert as_fraction(0.8) == Fraction(4, 5)
        assert as_fraction("4/5") == Fraction(4, 5)
        assert as_fraction(1) == 1
        with pytest.raises(InputError):
            as_fraction("eighty percent")
        with pytest.raises(InputError):
            as_fraction(float("nan"))


class TestRendering:
    def test_case_shorthand_for_binary_factors(self, remote_table):
        conj = Conjunction.of((0, 0), (2, 1), (4, 1))  # MS=0, PI=1, LP=1
        assert conjunction_shorthand(conj, remote_table.schema) == "ms*PI*LP"
        assert conjunction_expr(conj, remote_table.schema) == "MS=0*PI=1*LP=1"

    def test_digit_shorthand_for_multi_value(self):
        schema = FactorSchema(
            factors=(Factor("A", 3), Factor("B", 3)), outcome=Factor("O", 2)
        )
        assert conjunction_shorthand(Conjunction.of((0, 0), (1, 2)), schema) == "A0*B2"

    def test_fallback_for_non_alpha_names(self):
        schema = FactorSchema(
            factors=(Factor("f1", 2), Factor("f2", 2)), outcome=Factor("O", 2)
        )
        assert conjunction_shorthand(Conjunction.of((0, 1)), schema) == "f1=1"
