import copy
import io
import pickle
import random
import time
from contextlib import redirect_stdout
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpqca import (
    AnalysisParams,
    CandidatePool,
    Case,
    CaseTable,
    Conjunction,
    Factor,
    FactorSchema,
    InputError,
    Literal,
    binary_schema,
    candidate_count_bound,
    candidates,
    conjunction_shorthand,
    CandidateRule,
    CandidateRules,
    ExperimentSpec,
    enumerate_candidates,
    exclude_necessary,
    generate_experiment_table,
    match_bits,
    necessary_conditions,
    parse_pathway,
    rule_from_conjunction,
    synth_schema,
)
from scpqca import cover, model
from scpqca.cli import main
from conftest import brute_force_candidates, emit_order, random_table, traced


class Index:
    """An integer-like value that is not an int: usable only through __index__."""

    def __init__(self, value: int) -> None:
        self.value = value

    def __index__(self) -> int:
        return self.value


class TestM1Enumeration:
    def test_consistency_08_cutoff_2(self, m1_table):
        params = AnalysisParams(1, "0.8", cutoff=2)
        rules = enumerate_candidates(m1_table, [0, 1], params)
        assert [r.conjunction for r in rules] == [Conjunction.of((0, 1), (1, 1))]
        assert rules[0].consistency == 1
        assert rules[0].matched == {"c1", "c3"}

    def test_consistency_07_adds_single_literal(self, m1_table):
        params = AnalysisParams(1, "0.7", cutoff=2)
        rules = enumerate_candidates(m1_table, [0, 1], params)
        assert [r.conjunction for r in rules] == [
            Conjunction.of((0, 1)),
            Conjunction.of((0, 1), (1, 1)),
        ]
        assert rules[0].consistency == Fraction(3, 4)
        assert len(rules[0].matched) == 4

    def test_cutoff_above_table_size(self, m1_table):
        params = AnalysisParams(1, "0.5", cutoff=10)
        assert enumerate_candidates(m1_table, [0, 1], params) == []


class TestThresholdSemantics:
    def test_rule_at_exactly_the_threshold_is_kept(self):
        # five matched cases, four positive: consistency exactly 4/5
        schema = binary_schema(["A"])
        cases = [Case(f"c{i}", (1,), 1) for i in range(4)] + [Case("c4", (1,), 0)]
        t = CaseTable.from_cases(schema, cases)
        rules = enumerate_candidates(t, [0], AnalysisParams(1, "0.8", cutoff=1))
        assert any(r.conjunction == Conjunction.of((0, 1)) and r.consistency == Fraction(4, 5) for r in rules)

    def test_emitted_rules_recheck_both_filters(self, remote_table):
        params = AnalysisParams(1, "0.8", cutoff=4)
        for rule in enumerate_candidates(remote_table, range(7), params):
            assert len(rule.matched) >= 4
            assert rule_from_conjunction(rule.conjunction, remote_table, 1).consistency == rule.consistency
            assert rule.consistency >= Fraction(4, 5)


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_brute_force_on_small_tables(self, seed):
        rng = random.Random(seed)
        table = random_table(rng, max_factors=4, max_levels=2, max_cases=20)
        label = rng.randrange(table.schema.outcome_levels)
        if not table.positive_bits(label):
            label = int(table.outcomes[0])
        params = AnalysisParams(
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
        params = AnalysisParams(label, "0.6", cutoff=2)
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
        params = AnalysisParams(
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
            # The root is the one parent of the last two levels, and its
            # children (level 1) are the batch.
            ([2, 3, 2], [(i % 2, i % 3, i // 3 % 2, int(i % 4 < 2)) for i in range(12)], 2, "0.5", 2),
            # Parents of level 1 whose batch is empty: every child of A1 (two
            # cases that differ on B and C) fails the cutoff, and no child of
            # B0 or B1 has a literal to extend by.
            ([2, 2, 2], [(0, i // 2, i % 2, int(i % 3 > 0)) for i in range(4)] * 2 + [(1, 0, 0, 1), (1, 1, 1, 0)],
             2, "0.5", 3),
            # Level 2 of D is held by one case, below the cutoff, so D's group
            # is incomplete and the batches' last level over D is walked level
            # by level.
            ([2, 2, 2, 3, 2], [(i % 2, i // 2 % 2, i // 4 % 2, 2 if i == 23 else i // 8 % 2, i * 7 // 5 % 2,
                               int(i % 5 < 3)) for i in range(24)], 2, "0.6", 4),
        ],
        ids=[
            "max_order_1",
            "max_order_above_factor_count",
            "middle_factor_below_cutoff",
            "last_factor_below_cutoff",
            "no_last_level_node_meets_cutoff",
            "no_last_level_node_consistent",
            "max_order_2",
            "empty_batches",
            "incomplete_group_in_a_batch",
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
        params = AnalysisParams(1, consistency, cutoff=cutoff, max_order=max_order)
        factor_set = range(len(levels))
        got = [r.conjunction for r in enumerate_candidates(table, factor_set, params)]
        assert got and got == brute_force_candidates(table, factor_set, params)

    @pytest.mark.parametrize("max_order", [None, 1, 2, 3])
    @pytest.mark.parametrize("threshold", [Fraction(0), Fraction(4, 5)])
    def test_walk_over_no_factors(self, m1_table, max_order, threshold):
        # Every factor necessary leaves none to walk: the walk emits nothing.
        params = AnalysisParams(1, threshold or 1, cutoff=1, max_order=max_order)
        rules = candidates._walk(m1_table, (), params, 1, threshold)
        assert ([r.conjunction.literals for r in rules], rules.matched_bits) == ([], [])
        assert rules.positives == m1_table.positive_bits(1)
        assert list(rules) == brute_force_candidates(m1_table, (), params)


@st.composite
def mixed_level_tables(draw):
    """A table whose factors are complete (every level meets the cutoff), or
    have one level below the cutoff, or one level no case holds; a cutoff."""
    nf = draw(st.integers(1, 4))
    cutoff = draw(st.integers(1, 3))
    n = draw(st.integers(4 * cutoff, 30))
    levels, columns = [], []
    for _ in range(nf):
        lv = draw(st.integers(2, 4))
        kind = draw(st.sampled_from(["complete", "rare", "absent"]))
        odd = draw(st.integers(0, lv - 1))
        common = [v for v in range(lv) if v != odd] if kind != "complete" else list(range(lv))
        # Every common level meets the cutoff; a rare one falls short of it.
        column = [v for v in common for _ in range(cutoff)]
        if kind == "rare":
            column += [odd] * draw(st.integers(0, cutoff - 1))
        column += draw(st.lists(st.sampled_from(common), min_size=n - len(column), max_size=n - len(column)))
        levels.append(lv)
        columns.append(draw(st.permutations(column)))
    schema = FactorSchema(
        factors=tuple(Factor(chr(ord("A") + j), lv) for j, lv in enumerate(levels)),
        outcome=Factor("O", 2),
    )
    outcomes = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    table = CaseTable.from_columns(schema, tuple(f"x{i}" for i in range(n)), columns, outcomes)
    return table, cutoff


def itertools_columns(table, factors, label, cutoff, threshold, max_order):
    """Literals, matched bits and positive bits of every passing conjunction,
    from every conjunction itertools lists, in emit order."""
    positives = table.positive_bits(label)
    rows = []
    for k in range(1, min(max_order, len(factors)) + 1):
        for idxs in combinations(factors, k):
            for values in product(*(range(table.schema.factors[i].levels) for i in idxs)):
                conj = Conjunction(tuple(Literal(i, v) for i, v in zip(idxs, values)))
                matched = match_bits(conj, table)
                count, pos = matched.bit_count(), (matched & positives).bit_count()
                if count >= cutoff and pos >= threshold * count:
                    rows.append((emit_order(conj), conj.literals, matched, matched & positives))
    rows.sort(key=lambda row: row[0])
    return [row[1] for row in rows], [row[2] for row in rows], [row[3] for row in rows]


class TestWalkAgainstItertools:
    # The last level counts a complete factor's last level as the node minus
    # its siblings; a factor with a dropped level is walked level by level.
    @settings(max_examples=300, deadline=None)
    @given(mixed_level_tables(), st.data())
    def test_columns_equal_the_reference(self, drawn, data):
        table, cutoff = drawn
        nf = len(table.schema.factors)
        factors = tuple(sorted(data.draw(st.sets(st.integers(0, nf - 1), min_size=1))))
        label = data.draw(st.integers(0, 1))
        max_order = data.draw(st.integers(1, nf + 1))
        threshold = data.draw(st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(4, 5), Fraction(1)]))
        want = itertools_columns(table, factors, label, cutoff, threshold, max_order)
        params = AnalysisParams(label, threshold or 1, cutoff=cutoff, max_order=max_order)
        if threshold:
            got = enumerate_candidates(table, factors, params)
        else:  # no `AnalysisParams` holds 0; a candidate pool walks at it
            got = candidates._walk(table, factors, params, cutoff, threshold)
        literals, matched, positive = want
        assert ([r.conjunction.literals for r in got], got.matched_bits) == (literals, matched)
        assert got.positives == table.positive_bits(label)
        assert [r.positive_bits for r in got] == positive


class TestAbsentLevels:
    # 3 factors of 32 768 levels and 200 cases: all but a few hundred
    # levels are held by no case, and the walk and the necessity scan
    # must not visit them one by one for every frontier node.
    ARGS = ["experiment", "--factors", "3", "--levels", "32768", "--pathway", "A1*B2+C3",
            "--samples", "200", "--confounds", "50", "--max-order", "2", "--consistency", "0.3",
            "--cutoff", "1", "--unique-cover", "1"]

    def test_many_unheld_levels_stay_fast(self):
        args = self.ARGS
        start = time.perf_counter()
        with redirect_stdout(io.StringIO()) as out:
            code = main(args)
        elapsed = time.perf_counter() - start
        assert code == 0 and out.getvalue()
        assert elapsed < 1.0, f"{elapsed:.2f} s"

    def test_only_held_levels_are_packed(self, monkeypatch):
        # The same run, counted instead of timed: a level's bitset is packed
        # from its column only when some case holds it, and once, so the
        # 200 cases bound the packs (at most one level per factor each, plus
        # the outcome labels) whatever the speed of the host.
        packs = []
        real = model._bits_where
        monkeypatch.setattr(model, "_bits_where", lambda col, v: packs.append((id(col), v, v in col)) or real(col, v))
        with redirect_stdout(io.StringIO()) as out:
            assert main(self.ARGS) == 0 and out.getvalue()
        assert all(held for _, _, held in packs)
        assert len(set(packs)) == len(packs) <= 3 * 200 + 2


class TestWalkMemory:
    # 20 binary factors, 200 cases, max_order 4: the frontier of level 3
    # would hold 7 752 nodes, while the walk holds the frontier of level 1,
    # what is left of level 2 and one level-2 parent's batch of at most 34.
    # Against what its rules retain, the walk peaks at 1.03 times at
    # consistency 0.8 (1.08 while every level-2 parent was held to the end)
    # and at 1.02 times with no consistency filter, its rules held as nodes
    # of a prefix tree. With a literal tuple per rule it peaked at 1.08 and
    # 1.06, and the level-wise walk at 1.83 times at consistency 0.8.
    @pytest.fixture(scope="class")
    def wide(self):
        schema = synth_schema(20)
        return generate_experiment_table(ExperimentSpec(schema, parse_pathway("ab+CD+ace+BDF", schema), 200, 0, 1))

    @staticmethod
    def peak_over_retained(table, factors, params, threshold):
        candidates._walk(table, factors, params, 2, threshold)  # the table's bitset caches stay out of the figures
        rules, retained, peak = traced(lambda: candidates._walk(table, factors, params, 2, threshold))
        return rules, peak / retained

    @pytest.mark.parametrize(
        "threshold, bound, size", [(Fraction(4, 5), 1.15, 11_502), (Fraction(0), 1.10, 87_440)], ids=["0.8", "0"]
    )
    def test_peak_stays_near_what_the_rules_retain(self, wide, threshold, bound, size):
        factors, params = tuple(range(20)), AnalysisParams(1, threshold or 1, cutoff=2, max_order=4)
        rules, ratio = self.peak_over_retained(wide, factors, params, threshold)
        assert len(rules) == size
        assert ratio < bound, f"peak {ratio:.3f} times what the rules retain"

    def test_peak_without_max_order(self):
        # 14 binary factors, 30 cases, no max_order: every level is walked
        # level by level but the last two, so the walk's frontiers set its
        # peak. Each level's frontier is consumed as the next one grows: the
        # walk peaks at 1.28 times what its rules retain, against 1.92 while
        # a level's frontier was held until the next one was complete.
        schema = synth_schema(14)
        table = generate_experiment_table(ExperimentSpec(schema, parse_pathway("ab+CD", schema), 30, 0, 1))
        params = AnalysisParams(1, cutoff=2)
        rules, ratio = self.peak_over_retained(table, tuple(range(14)), params, params.consistency_threshold)
        assert len(rules) == 28_494
        assert ratio < 1.5, f"peak {ratio:.3f} times what the rules retain"

    def test_peak_over_three_levels_without_max_order(self):
        # 12 factors of 3 levels, 200 cases, no max_order: each literal splits
        # a matched set three ways, so most deep nodes hold one positive or
        # none. The walk keeps and extends no node below ceil(0.8 * 2)
        # positives: it peaks at 1.07 times what its rules retain, with 4 600
        # inner nodes, against 4.78 times and 56 185 while it kept them.
        schema = synth_schema(12, 3)
        table = generate_experiment_table(ExperimentSpec(schema, parse_pathway("A1*B2+C0*D1", schema), 200, 0, 1))
        params = AnalysisParams(1, cutoff=2)
        rules, ratio = self.peak_over_retained(table, tuple(range(12)), params, params.consistency_threshold)
        assert len(rules) == 6_201
        assert ratio < 1.3, f"peak {ratio:.3f} times what the rules retain"


class TestUncheckedRulesAreValid:
    """Emitted rules skip the public constructors' checks; they must still pass them."""

    @pytest.mark.parametrize("seed", range(40))
    def test_rules_rebuild_through_the_public_constructors(self, seed):
        rng = random.Random(3000 + seed)
        table = random_table(rng, max_factors=5, max_levels=4, max_cases=30)
        label = int(table.outcomes[rng.randrange(len(table))])
        params = AnalysisParams(
            label,
            Fraction(rng.randint(3, 10), 10),
            cutoff=rng.randint(1, 3),
            max_order=rng.choice([None, 1, 2, 3]),
        )
        nf = len(table.schema.factors)
        nec_params = AnalysisParams(label, necessity_threshold=Fraction(rng.randint(5, 9), 10))
        necessary = [lit for lit, _ in necessary_conditions(table, nec_params)]
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
        rules = enumerate_candidates(remote_table, range(7), AnalysisParams(1, "0.8", cutoff=4))
        keys = [emit_order(r.conjunction) for r in rules]
        assert keys == sorted(keys)

    def test_byte_identical_across_runs(self, remote_table):
        params = AnalysisParams(1, "0.8", cutoff=4)
        a = enumerate_candidates(remote_table, range(7), params)
        b = enumerate_candidates(remote_table, range(7), params)
        assert a == b

    def test_rule_and_specialization_coexist(self, remote_table):
        rules = enumerate_candidates(remote_table, range(7), AnalysisParams(1, "0.8", cutoff=4))
        exprs = {conjunction_shorthand(r.conjunction, remote_table.schema) for r in rules}
        assert "ms*PI" in exprs and "ms*PI*LP" in exprs


class TestAntiMonotoneFiltering:
    @pytest.mark.parametrize("seed", range(8))
    def test_lowering_thresholds_never_removes_rules(self, seed):
        rng = random.Random(2000 + seed)
        table = random_table(rng, max_factors=4, max_levels=3, max_cases=25)
        label = int(table.outcomes[0])
        tight = AnalysisParams(label, "0.8", cutoff=3)
        loose_consistency = AnalysisParams(label, "0.6", cutoff=3)
        loose_cutoff = AnalysisParams(label, "0.8", cutoff=1)
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

    def test_negative_max_order_is_refused(self):
        with pytest.raises(InputError, match="max_order must be >= 0, got -1"):
            candidate_count_bound(binary_schema(["A", "B"]), None, -1)

    def test_bound_caps_enumeration(self, remote_table):
        params = AnalysisParams(1, "0.8", cutoff=1, max_order=2)
        rules = enumerate_candidates(remote_table, range(7), params)
        assert all(len(r.conjunction) <= 2 for r in rules)
        assert len(rules) <= candidate_count_bound(remote_table.schema, range(7), 2)


class TestValidation:
    def test_factor_set_out_of_range(self, m1_table):
        with pytest.raises(InputError):
            enumerate_candidates(m1_table, [7], AnalysisParams(1))

    def test_empty_factor_set_yields_nothing(self, m1_table):
        assert enumerate_candidates(m1_table, [], AnalysisParams(1)) == []

    def test_param_validation(self):
        with pytest.raises(InputError):
            AnalysisParams(1, "0.0")
        with pytest.raises(InputError):
            AnalysisParams(1, "0.8", cutoff=0)
        with pytest.raises(InputError):
            AnalysisParams(1, "0.8", max_order=0)

    def test_integer_params_are_never_truncated(self):
        with pytest.raises(InputError, match="cutoff must be an integer, got 2.5"):
            AnalysisParams(1, "0.8", cutoff=2.5)
        with pytest.raises(InputError, match="cutoff must be an integer, got '2'"):
            AnalysisParams(1, "0.8", cutoff="2")
        with pytest.raises(InputError, match="max_order must be an integer, got 2.0"):
            AnalysisParams(1, "0.8", max_order=2.0)
        for label in (1.0, "1"):
            with pytest.raises(InputError, match=f"decision_label must be an integer, got {label!r}"):
                AnalysisParams(label)
        # Anything with __index__ is read through it, as table levels are.
        params = AnalysisParams(Index(1), "0.8", cutoff=Index(3), max_order=Index(2))
        assert (params.decision_label, params.cutoff, params.max_order) == (1, 3, 2)
        assert all(type(v) is int for v in (params.decision_label, params.cutoff, params.max_order))

    @pytest.mark.parametrize("factor_set", [[0, 1.7], [1.7, 2.2], ["0", "1"]])
    def test_non_integer_factor_indices_rejected(self, m1_table, factor_set):
        with pytest.raises(InputError, match="factor index must be an integer"):
            enumerate_candidates(m1_table, factor_set, AnalysisParams(1))

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
            enumerate_candidates(t, [0, 1], AnalysisParams(1))


class TestCandidateRules:
    """The rules come back as a read-only list that builds each rule on access."""

    @pytest.fixture()
    def rules(self, remote_table):
        rules = enumerate_candidates(remote_table, range(7), AnalysisParams(1, "0.8", cutoff=3))
        assert isinstance(rules, CandidateRules) and len(rules) >= 6
        return rules

    def test_iteration_equals_indexing(self, rules, remote_table):
        listed = list(rules)
        assert listed == [rules[i] for i in range(len(rules))]
        assert [r.conjunction.literals for r in listed] == list(map(rules._tree.conjunction, rules._nodes))
        assert [r.matched_bits for r in listed] == rules.matched_bits
        assert rules.positives == remote_table.positive_bits(1)
        assert [r.positive_bits for r in listed] == [m & rules.positives for m in rules.matched_bits]
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

    def test_of_takes_the_union_of_agreeing_positives(self):
        ids = ("a", "b", "c", "d")
        one = CandidateRule.from_sets(Conjunction.of((0, 1)), {"a", "b"}, {"a"}, ids)
        two = CandidateRule.from_sets(Conjunction.of((1, 1)), {"b", "c"}, {"c"}, ids)
        columns = CandidateRules.of([one, two])
        assert columns.positives == 0b101 and columns == [one, two]

    def test_of_refuses_rules_that_disagree_on_positives(self):
        ids = ("a", "b", "c")
        one = CandidateRule.from_sets(Conjunction.of((0, 1)), {"a", "b"}, {"a", "b"}, ids)
        other = CandidateRule.from_sets(Conjunction.of((1, 1)), {"b", "c"}, {"c"}, ids)  # b is not positive here
        with pytest.raises(InputError, match="^candidate rules disagree on which cases are positive$"):
            CandidateRules.of([one, other])


def store_cases(kind: str):
    """A `CandidateRules` of one kind and the plain list of the same rules,
    the list built independently of the store (by itertools, or given)."""
    schema = synth_schema(6)
    table = generate_experiment_table(ExperimentSpec(schema, parse_pathway("ab+CD", schema), 40, 4, 3))
    params = AnalysisParams(1, "0.7", cutoff=2)
    positives = table.positive_bits(1)

    def plain(on: CaseTable, keep: int) -> list[CandidateRule]:
        # The rules of `on`, over `table`'s ids with their bits masked to `keep`.
        return [
            CandidateRule(conj, match_bits(conj, table) & keep, match_bits(conj, table) & keep & positives, table.ids)
            for conj in brute_force_candidates(on, range(6), params)
        ]

    everything = (1 << len(table)) - 1
    if kind == "walk":
        return enumerate_candidates(table, range(6), params), plain(table, everything)
    if kind.startswith("pool"):
        pool = CandidatePool(2)
        enumerate_candidates(table, range(6), params, pool=pool)
        if kind == "pool-own-table":
            return enumerate_candidates(table, range(6), params, pool=pool), plain(table, everything)
        kept = [i for i in range(len(table)) if i % 5]
        sub = table.take(kept)
        return enumerate_candidates(sub, range(6), params, pool=pool), plain(sub, sum(1 << i for i in kept))
    # An unsorted list with one rule twice, a rule whose proper prefixes are
    # not rules of the list: they become inner nodes of its tree.
    rules = plain(table, everything)
    twice = next(r for r in rules if len(r.conjunction.literals) == 3)
    prefixes = {twice.conjunction.literals[:k] for k in (1, 2)}
    listed = [r for r in rules if r.conjunction.literals not in prefixes]
    random.Random(7).shuffle(listed)
    listed.insert(len(listed) // 3, twice)
    return CandidateRules.of(listed), listed


class TestTreeStore:
    """A walk, a pool's selections and `CandidateRules.of` all hold rules as
    nodes of one prefix tree; each must read as the plain list of its rules."""

    CUTS = [slice(None), slice(1, None, 2), slice(None, None, -1), slice(-3, None), slice(9, 1, -3), slice(99, None)]

    @pytest.fixture(params=["walk", "pool-own-table", "pool-take", "of-unsorted"], scope="class")
    def stored(self, request):
        rules, want = store_cases(request.param)
        assert isinstance(rules, CandidateRules) and len(want) >= 20
        return rules, want

    def test_the_store_is_a_tree_with_inner_nodes(self, stored):
        rules, want = stored
        nodes = range(len(rules._tree.parents))
        assert set(map(rules._tree.conjunction, nodes)) >= {r.conjunction.literals for r in want}
        # Besides the root, some node is no rule of the list: a parent that
        # fails a filter, a pool node not selected, or a prefix not listed.
        assert len(set(nodes) - set(rules._nodes)) > 1

    def test_iteration_and_indexing(self, stored):
        rules, want = stored
        assert list(rules) == want
        assert [rules[i] for i in range(len(rules))] == want
        assert [rules[-i] for i in range(1, len(rules) + 1)] == [want[-i] for i in range(1, len(want) + 1)]
        assert [rules._length(i) for i in range(len(rules))] == [len(r.conjunction.literals) for r in want]

    @pytest.mark.parametrize("cut", CUTS)
    def test_slices(self, stored, cut):
        rules, want = stored
        part = rules[cut]
        assert isinstance(part, CandidateRules) and part.ids is rules.ids
        assert len(part) == len(want[cut]) and list(part) == want[cut] and part == want[cut]

    def test_equality_and_repr(self, stored):
        rules, want = stored
        assert rules == want and want == rules and rules == tuple(want) and rules == rules[:]
        assert rules != want[:-1] and rules != want[::-1]
        assert repr(rules) == f"CandidateRules({want!r})"

    def test_copies_and_pickles(self, stored):
        rules, want = stored
        for copied in (copy.copy(rules), copy.deepcopy(rules), pickle.loads(pickle.dumps(rules))):
            assert copied == want and list(copied) == want and repr(copied) == repr(rules)
            assert copied._greedy is None

    def test_len_builds_no_rule(self, stored, monkeypatch):
        rules, want = stored

        def built(*args):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(CandidateRules, "_rule", built)
        monkeypatch.setattr(candidates._Tree, "conjunction", built)
        assert len(rules) == len(want) and len(rules[1::2]) == len(want[1::2])

    def test_fewer_literals_break_a_tie_of_gain_and_consistency(self, stored):
        # Two rules of different length and equal consistency, taken as tied
        # on gain: the tie-break takes the shorter, read from the tree, also
        # when it comes later, as in the reversed list.
        rules, want = stored
        rules, want = rules[::-1], want[::-1]
        by_consistency = {}
        for i, r in enumerate(want):
            by_consistency.setdefault(r.consistency, []).append(i)
        pairs = [
            (i, j) for tied in by_consistency.values() for i in tied for j in tied
            if i < j and len(want[i].conjunction.literals) > len(want[j].conjunction.literals)
        ]
        assert pairs
        for i, j in pairs:
            assert cover._tie_break(rules, [i, j]) == 1
