import io
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations

import pytest

from scpqca import (
    CandidateParams,
    Case,
    CaseTable,
    Conjunction,
    Factor,
    FactorSchema,
    InputError,
    binary_schema,
    candidate_count_bound,
    conjunction_shorthand,
    CandidateRule,
    CandidateRules,
    enumerate_candidates,
    exclude_necessary,
    match_bits,
    necessary_conditions,
    sufficiency_consistency,
)
from scpqca.cli import main
from conftest import brute_force_candidates, random_table


class Index:
    """An integer-like value that is not an int: usable only through __index__."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value


class TestM1Enumeration:
    def test_consistency_08_cutoff_2(self, m1_table):
        params = CandidateParams(1, "0.8", cutoff=2)
        rules = enumerate_candidates(m1_table, [0, 1], params)
        assert [r.conjunction for r in rules] == [Conjunction.of((0, 1), (1, 1))]
        assert rules[0].consistency == 1
        assert rules[0].matched == {"c1", "c3"}

    def test_consistency_07_adds_single_literal(self, m1_table):
        params = CandidateParams(1, "0.7", cutoff=2)
        rules = enumerate_candidates(m1_table, [0, 1], params)
        assert [r.conjunction for r in rules] == [
            Conjunction.of((0, 1)),
            Conjunction.of((0, 1), (1, 1)),
        ]
        assert rules[0].consistency == Fraction(3, 4)
        assert len(rules[0].matched) == 4

    def test_cutoff_above_table_size(self, m1_table):
        params = CandidateParams(1, "0.5", cutoff=10)
        assert enumerate_candidates(m1_table, [0, 1], params) == []


class TestThresholdSemantics:
    def test_rule_at_exactly_the_threshold_is_kept(self):
        # five matched cases, four positive: consistency exactly 4/5
        schema = binary_schema(["A"])
        cases = [Case(f"c{i}", (1,), 1) for i in range(4)] + [Case("c4", (1,), 0)]
        t = CaseTable.from_cases(schema, cases)
        rules = enumerate_candidates(t, [0], CandidateParams(1, "0.8", cutoff=1))
        assert any(r.conjunction == Conjunction.of((0, 1)) and r.consistency == Fraction(4, 5) for r in rules)

    def test_emitted_rules_recheck_both_filters(self, remote_table):
        params = CandidateParams(1, "0.8", cutoff=4)
        for rule in enumerate_candidates(remote_table, range(7), params):
            assert len(rule.matched) >= 4
            assert sufficiency_consistency(rule.conjunction, remote_table, 1) == rule.consistency
            assert rule.consistency >= Fraction(4, 5)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_on_small_tables(self, seed):
        rng = random.Random(seed)
        table = random_table(rng, max_factors=4, max_levels=2, max_cases=20)
        label = rng.randrange(table.schema.outcome_levels)
        if not table.positive_bits(label):
            label = int(table.outcomes[0])
        params = CandidateParams(
            label,
            Fraction(rng.randint(5, 10), 10),
            cutoff=rng.randint(1, 3),
            max_order=rng.choice([None, 1, 2, 3]),
        )
        factor_set = range(len(table.schema.factors))
        got = [r.conjunction for r in enumerate_candidates(table, factor_set, params)]
        assert got == brute_force_candidates(table, factor_set, params)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force_multivalue(self, seed):
        rng = random.Random(1000 + seed)
        table = random_table(rng, max_factors=3, max_levels=4, max_cases=30)
        label = int(table.outcomes[0])
        params = CandidateParams(label, "0.6", cutoff=2)
        factor_set = range(len(table.schema.factors))
        got = [r.conjunction for r in enumerate_candidates(table, factor_set, params)]
        assert got == brute_force_candidates(table, factor_set, params)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_with_absent_levels(self, seed):
        # Levels no case holds, and rare levels below the cutoff, are dropped
        # before the walk; the oracle still visits them all.
        rng = random.Random(4000 + seed)
        nf = rng.randint(1, 4)
        levels = [rng.randint(2, 6) for _ in range(nf)]
        schema = FactorSchema(
            factors=tuple(Factor(chr(ord("A") + j), lv) for j, lv in enumerate(levels)),
            outcome=Factor("O", 2),
        )
        held = [rng.sample(range(lv), rng.randint(1, lv)) for lv in levels]
        n = rng.randint(1, 25)
        table = CaseTable(
            schema,
            tuple(f"x{i}" for i in range(n)),
            [[rng.choice(h) for h in held] for _ in range(n)],
            [rng.randrange(2) for _ in range(n)],
        )
        params = CandidateParams(
            int(table.outcomes[0]),
            Fraction(rng.randint(3, 10), 10),
            cutoff=rng.randint(1, 4),
            max_order=rng.choice([None, 1, 2]),
        )
        factor_set = range(nf)
        got = [r.conjunction for r in enumerate_candidates(table, factor_set, params)]
        assert got == brute_force_candidates(table, factor_set, params)

    # Edges of the walk's last level, which is counted and never extended.
    # Columns: factor values then the outcome; i runs over the cases.
    @pytest.mark.parametrize(
        "levels, rows, cutoff, consistency, max_order",
        [
            # The first level is the last: no frontier is built.
            ([2, 3, 2], [(i % 2, i % 3, i // 2 % 2, int(i % 5 < 3)) for i in range(12)], 2, "0.5", 1),
            # max_order above the factor count.
            ([2, 3, 2], [(i % 2, i % 3, i // 2 % 2, int(i % 5 < 3)) for i in range(12)], 1, "0.5", 5),
            # Every level of B (middle) or of C (last) is below the cutoff, so
            # that factor adds nothing to any tail; with C, a node ending in B
            # has an empty tail.
            ([2, 6, 2], [(i % 2, i % 6, i // 6 % 2, int(i % 3 > 0)) for i in range(12)], 3, "0.6", 3),
            ([2, 2, 6], [(i % 2, i // 6 % 2, i % 6, int(i % 3 > 0)) for i in range(12)], 3, "0.6", 3),
            # No last-level node meets the cutoff, then none is consistent enough.
            ([2, 2], [(int(i < 4), int(i < 2 or i > 3), int(i < 3)) for i in range(6)], 3, "0.5", 2),
            ([2, 2], [(1, 1, 1), (1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 1, 0), (0, 0, 0), (0, 0, 0)], 2, "0.6", 2),
        ],
        ids=[
            "max_order_1",
            "max_order_above_factor_count",
            "middle_factor_below_cutoff",
            "last_factor_below_cutoff",
            "no_last_level_node_meets_cutoff",
            "no_last_level_node_consistent",
        ],
    )
    def test_matches_brute_force_at_the_last_level(self, levels, rows, cutoff, consistency, max_order):
        schema = FactorSchema(
            factors=tuple(Factor(chr(ord("A") + j), lv) for j, lv in enumerate(levels)),
            outcome=Factor("O", 2),
        )
        table = CaseTable(
            schema, tuple(f"x{i}" for i in range(len(rows))), [r[:-1] for r in rows], [r[-1] for r in rows]
        )
        params = CandidateParams(1, consistency, cutoff=cutoff, max_order=max_order)
        factor_set = range(len(levels))
        got = [r.conjunction for r in enumerate_candidates(table, factor_set, params)]
        assert got and got == brute_force_candidates(table, factor_set, params)


class TestAbsentLevels:
    def test_many_unheld_levels_stay_fast(self):
        # 3 factors of 32 768 levels and 200 cases: all but a few hundred
        # levels are held by no case, and the walk and the necessity scan
        # must not visit them one by one for every frontier node.
        args = ["experiment", "--factors", "3", "--levels", "32768", "--pathway", "A1*B2+C3",
                "--samples", "200", "--confounds", "50", "--max-order", "2", "--consistency", "0.3",
                "--cutoff", "1", "--unique-cover", "1"]
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()) as out:
            code = main(args)
        elapsed = time.perf_counter() - start
        assert code == 0 and out.getvalue()
        assert elapsed < 1.0, f"{elapsed:.2f} s"


class TestUncheckedRulesAreValid:
    """Emitted rules skip the public constructors' checks; they must still pass them."""

    @pytest.mark.parametrize("seed", range(40))
    def test_rules_rebuild_through_the_public_constructors(self, seed):
        rng = random.Random(3000 + seed)
        table = random_table(rng, max_factors=5, max_levels=4, max_cases=30)
        label = int(table.outcomes[rng.randrange(len(table))])
        params = CandidateParams(
            label,
            Fraction(rng.randint(3, 10), 10),
            cutoff=rng.randint(1, 3),
            max_order=rng.choice([None, 1, 2, 3]),
        )
        nf = len(table.schema.factors)
        necessary = [lit for lit, _ in necessary_conditions(table, label, Fraction(rng.randint(5, 9), 10))]
        factor_sets = [
            range(nf),
            rng.sample(range(nf), rng.randint(0, nf)),
            exclude_necessary(table.schema, necessary),
        ]
        positives = table.positive_bits(label)
        for factor_set in factor_sets:
            for r in enumerate_candidates(table, factor_set, params):
                rebuilt = CandidateRule(r.conjunction, r.matched_bits, r.positive_bits, r.ids)
                assert rebuilt == r and hash(rebuilt) == hash(r)
                assert Conjunction(r.conjunction.literals).literals == r.conjunction.literals
                assert {lit.factor_index for lit in r.conjunction.literals} <= set(factor_set)
                assert r.ids is table.ids
                assert r.matched_bits == match_bits(r.conjunction, table)
                assert r.positive_bits == r.matched_bits & positives


class TestDeterminismAndOrdering:
    def test_order_is_size_then_lexicographic(self, remote_table):
        rules = enumerate_candidates(remote_table, range(7), CandidateParams(1, "0.8", cutoff=4))
        keys = [r.conjunction.sort_key() for r in rules]
        assert keys == sorted(keys)

    def test_byte_identical_across_runs(self, remote_table):
        params = CandidateParams(1, "0.8", cutoff=4)
        a = enumerate_candidates(remote_table, range(7), params)
        b = enumerate_candidates(remote_table, range(7), params)
        assert a == b

    def test_rule_and_specialization_coexist(self, remote_table):
        rules = enumerate_candidates(remote_table, range(7), CandidateParams(1, "0.8", cutoff=4))
        exprs = {conjunction_shorthand(r.conjunction, remote_table.schema) for r in rules}
        assert "ms*PI" in exprs and "ms*PI*LP" in exprs


class TestAntiMonotoneFiltering:
    @pytest.mark.parametrize("seed", range(8))
    def test_lowering_thresholds_never_removes_rules(self, seed):
        rng = random.Random(2000 + seed)
        table = random_table(rng, max_factors=4, max_levels=3, max_cases=25)
        label = int(table.outcomes[0])
        tight = CandidateParams(label, "0.8", cutoff=3)
        loose_consistency = CandidateParams(label, "0.6", cutoff=3)
        loose_cutoff = CandidateParams(label, "0.8", cutoff=1)
        factor_set = range(len(table.schema.factors))
        base = {r.conjunction for r in enumerate_candidates(table, factor_set, tight)}
        assert base <= {r.conjunction for r in enumerate_candidates(table, factor_set, loose_consistency)}
        assert base <= {r.conjunction for r in enumerate_candidates(table, factor_set, loose_cutoff)}


class TestCountBound:
    def test_full_order_formulas(self):
        assert candidate_count_bound(binary_schema(list("ABCDEF"))) == 3**6 - 1
        from scpqca import Factor, FactorSchema

        schema = FactorSchema(factors=(Factor("A", 3), Factor("B", 3)), outcome=Factor("O", 2))
        assert candidate_count_bound(schema) == 4 * 4 - 1
        assert candidate_count_bound(binary_schema(["A"])) == 2

    def test_truncated_order_matches_subset_sum(self):
        levels = [2, 3, 2, 4]
        from scpqca import Factor, FactorSchema

        schema = FactorSchema(
            factors=tuple(Factor(chr(65 + i), lv) for i, lv in enumerate(levels)),
            outcome=Factor("O", 2),
        )
        for max_order in range(1, 5):
            expected = 0
            for k in range(1, max_order + 1):
                for idxs in combinations(range(4), k):
                    p = 1
                    for i in idxs:
                        p *= levels[i]
                    expected += p
            assert candidate_count_bound(schema, None, max_order) == expected

    def test_bound_caps_enumeration(self, remote_table):
        params = CandidateParams(1, "0.8", cutoff=1, max_order=2)
        rules = enumerate_candidates(remote_table, range(7), params)
        assert all(len(r.conjunction) <= 2 for r in rules)
        assert len(rules) <= candidate_count_bound(remote_table.schema, range(7), 2)


class TestValidation:
    def test_factor_set_out_of_range(self, m1_table):
        with pytest.raises(InputError):
            enumerate_candidates(m1_table, [7], CandidateParams(1))

    def test_empty_factor_set_yields_nothing(self, m1_table):
        assert enumerate_candidates(m1_table, [], CandidateParams(1)) == []

    def test_param_validation(self):
        with pytest.raises(InputError):
            CandidateParams(1, "0.0")
        with pytest.raises(InputError):
            CandidateParams(1, "0.8", cutoff=0)
        with pytest.raises(InputError):
            CandidateParams(1, "0.8", max_order=0)

    def test_integer_params_are_never_truncated(self):
        with pytest.raises(InputError, match="cutoff must be an integer, got 2.5"):
            CandidateParams(1, "0.8", cutoff=2.5)
        with pytest.raises(InputError, match="cutoff must be an integer, got '2'"):
            CandidateParams(1, "0.8", cutoff="2")
        with pytest.raises(InputError, match="max_order must be an integer, got 2.0"):
            CandidateParams(1, "0.8", max_order=2.0)
        for label in (1.0, "1"):
            with pytest.raises(InputError, match=f"decision_label must be an integer, got {label!r}"):
                CandidateParams(label)
        # Anything with __index__ is read through it, as table levels are.
        params = CandidateParams(Index(1), "0.8", cutoff=Index(3), max_order=Index(2))
        assert (params.decision_label, params.cutoff, params.max_order) == (1, 3, 2)
        assert all(type(v) is int for v in (params.decision_label, params.cutoff, params.max_order))

    @pytest.mark.parametrize("factor_set", [[0, 1.7], [1.7, 2.2], ["0", "1"]])
    def test_non_integer_factor_indices_rejected(self, m1_table, factor_set):
        with pytest.raises(InputError, match="factor index must be an integer"):
            enumerate_candidates(m1_table, factor_set, CandidateParams(1))

    def test_count_bound_validates_factor_indices_and_order(self, m1_table):
        with pytest.raises(InputError, match="factor index must be an integer, got 1.7"):
            candidate_count_bound(m1_table.schema, [1.7])
        with pytest.raises(InputError, match="max_order must be an integer, got 1.5"):
            candidate_count_bound(m1_table.schema, [0, 1], 1.5)
        for out_of_range in (-1, 2):
            with pytest.raises(InputError, match=f"factor index {out_of_range} out of range"):
                candidate_count_bound(m1_table.schema, [out_of_range])
        assert candidate_count_bound(m1_table.schema, [Index(0), Index(1)], Index(1)) == 4

    def test_duplicate_ids_rejected(self, m1_table):
        t = CaseTable(
            schema=m1_table.schema,
            ids=("a", "a", "b", "c", "d", "e"),
            values=m1_table.values,
            outcomes=m1_table.outcomes,
        )
        with pytest.raises(InputError, match="duplicate case id"):
            enumerate_candidates(t, [0, 1], CandidateParams(1))


class TestCandidateRules:
    """The rules come back as a read-only list that builds each rule on access."""

    @pytest.fixture()
    def rules(self, remote_table):
        rules = enumerate_candidates(remote_table, range(7), CandidateParams(1, "0.8", cutoff=3))
        assert isinstance(rules, CandidateRules) and len(rules) >= 6
        return rules

    def test_iteration_equals_indexing(self, rules):
        listed = list(rules)
        assert listed == [rules[i] for i in range(len(rules))]
        assert [r.conjunction.literals for r in listed] == rules.literals
        assert [r.matched_bits for r in listed] == rules.matched_bits
        assert [r.positive_bits for r in listed] == rules.positive_bits
        assert all(r.ids is rules.ids for r in listed)

    def test_built_rules_equal_checked_ones(self, rules):
        for r in rules:
            checked = CandidateRule(Conjunction(r.conjunction.literals), r.matched_bits, r.positive_bits, r.ids)
            assert r == checked and hash(r) == hash(checked)
            assert r.consistency == checked.consistency and r.matched == checked.matched

    def test_negative_indices(self, rules):
        listed = list(rules)
        assert [rules[-i] for i in range(1, len(rules) + 1)] == [listed[-i] for i in range(1, len(listed) + 1)]

    def test_index_past_the_end(self, rules):
        for i in (len(rules), -len(rules) - 1):
            with pytest.raises(IndexError):
                rules[i]

    @pytest.mark.parametrize(
        "cut", [slice(None), slice(1, 3), slice(None, None, -1), slice(0, None, 2), slice(-2, None), slice(4, 1), slice(99, None)]
    )
    def test_slices_are_rule_lists(self, rules, cut):
        part = rules[cut]
        assert isinstance(part, CandidateRules) and part.ids is rules.ids
        assert len(part) == len(list(rules)[cut])
        assert list(part) == list(rules)[cut]

    def test_equality_with_lists_and_tuples(self, rules):
        listed = list(rules)
        assert rules == listed and listed == rules
        assert rules == tuple(listed) and tuple(listed) == rules
        assert rules == rules[:] and rules[:0] == [] and rules[:0] == ()
        assert rules != listed[:-1] and rules != listed[::-1] and rules != []
        assert rules != set(listed)

    def test_read_only_and_unhashable(self, rules):
        with pytest.raises(TypeError):
            rules[0] = rules[1]
        with pytest.raises(TypeError):
            del rules[0]
        with pytest.raises(TypeError):
            hash(rules)

    def test_sequence_methods(self, rules):
        listed = list(rules)
        assert listed[2] in rules and rules.index(listed[2]) == 2 and rules.count(listed[0]) == 1
        assert list(reversed(rules)) == listed[::-1]

    def test_of_plain_rules(self, rules):
        listed = list(rules)
        assert CandidateRules.of(rules) is rules
        columns = CandidateRules.of(listed)
        assert columns == rules and columns.ids is rules.ids
        assert CandidateRules.of([]) == []
