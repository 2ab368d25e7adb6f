import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpqca import (
    AnalysisParams,
    CandidateRule,
    Case,
    CaseTable,
    Conjunction,
    Factor,
    FactorSchema,
    InputError,
    Literal,
    Solution,
    UndefinedRatioError,
    as_fraction,
    binary_schema,
    conjunction_expr,
    conjunction_shorthand,
    match_bits,
    necessity_consistency,
    rule_from_conjunction,
    solution_metrics,
    solve,
)
from scpqca import model
from scpqca.model import bits_of, ids_of
from conftest import random_table


def brute_sufficiency(conj: Conjunction, table: CaseTable, label: int) -> Fraction:
    """Independent oracle: per-case loop over Case objects."""
    matched = [c for c in table if conj.matches_values(c.values)]
    return Fraction(sum(1 for c in matched if c.outcome == label), len(matched))


def brute_necessity(lit: Literal, table: CaseTable, label: int) -> Fraction:
    positives = [c for c in table if c.outcome == label]
    return Fraction(
        sum(1 for c in positives if c.values[lit.factor_index] == lit.value), len(positives)
    )


class TestMatches:
    def test_exact_match(self):
        conj = Conjunction.of((0, 1), (1, 1))
        assert conj.matches_values((1, 1)) is True

    def test_violated_literal(self):
        conj = Conjunction.of((0, 1), (1, 1))
        assert conj.matches_values((1, 0)) is False

    def test_m1_single_literal(self, m1_table):
        assert ids_of(match_bits(Conjunction.of((0, 1)), m1_table), m1_table.ids) == ["c1", "c2", "c3", "c6"]

    def test_empty_conjunction_matches_everything(self, m1_table):
        assert ids_of(match_bits(Conjunction(()), m1_table), m1_table.ids) == list(m1_table.ids)

    def test_out_of_range_factor_index(self, m1_table):
        with pytest.raises(InputError):
            Conjunction.of((7, 0)).matches_values(m1_table.case(0).values)
        with pytest.raises(InputError):
            match_bits(Conjunction.of((7, 0)), m1_table)

    def test_out_of_range_value(self, m1_table):
        with pytest.raises(InputError):
            match_bits(Conjunction.of((0, 5)), m1_table)


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
        assert rule_from_conjunction(conj, m1_table, 1).consistency == expected
        assert brute_sufficiency(conj, m1_table, 1) == expected

    def test_zero_matches_is_an_error(self, m1_table):
        # no case has A=1, B=1 and outcome column is irrelevant; use an
        # unmatched combination instead: there is no (A=0, B=0) with ... c5 is.
        empty = Conjunction.of((0, 1), (1, 1))
        # restrict to a table without matching cases
        sub = CaseTable.from_cases(m1_table.schema, [m1_table.case(4)])  # only c5 (0,0)
        with pytest.raises(UndefinedRatioError, match="^conjunction matches no cases$"):
            rule_from_conjunction(empty, sub, 1)


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

    def test_rules_over_other_ids_are_an_error(self, m1_table):
        rule = rule_from_conjunction(Conjunction.of((0, 1)), m1_table, 1)
        other = CandidateRule(rule.conjunction, rule.matched_bits, rule.positive_bits, ("z",) + m1_table.ids[1:])
        with pytest.raises(InputError, match="indexed over different case ids"):
            solution_metrics([rule, other], m1_table, 1)

    def test_rules_over_equal_ids_pass(self, m1_table):
        rule = rule_from_conjunction(Conjunction.of((0, 1)), m1_table, 1)
        copied = tuple(list(m1_table.ids))
        assert copied == m1_table.ids and copied is not m1_table.ids
        other = CandidateRule(rule.conjunction, rule.matched_bits, rule.positive_bits, copied)
        assert solution_metrics([other], m1_table, 1) == solution_metrics([rule], m1_table, 1)


class TestDuplicateWeighting:
    def test_duplicating_a_case_shifts_metrics_as_weighted_counts(self, m1_table):
        # duplicate c6 (A=1,B=0 -> 0) under a fresh id: {A=1} now matches 5
        # cases of which 3 are positive
        dup = CaseTable.from_cases(
            m1_table.schema, list(m1_table) + [Case("c6bis", (1, 0), 0)]
        )
        assert rule_from_conjunction(Conjunction.of((0, 1)), dup, 1).consistency == Fraction(3, 5)
        # necessity unchanged: the duplicate is not a positive case
        assert necessity_consistency(Literal(0, 1), dup, 1) == 1
        # duplicating a positive raises the weight of its literals
        dup2 = CaseTable.from_cases(
            m1_table.schema, list(m1_table) + [Case("c1bis", (1, 1), 1)]
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
        if table.positive_bits(label):
            nec = necessity_consistency(Literal(0, lit.value % table.schema.factors[0].levels), table, label)
            assert 0 <= nec <= 1
            conj = Conjunction((Literal(0, lit.value % table.schema.factors[0].levels),))
            try:
                suf = rule_from_conjunction(conj, table, label).consistency
            except UndefinedRatioError:
                return
            assert 0 <= suf <= 1
            # shared numerator: |matched ∩ positives| both ways
            matched = match_bits(conj, table)
            positives = table.positive_bits(label)
            overlap = (matched & positives).bit_count()
            assert suf * matched.bit_count() == overlap
            assert nec * positives.bit_count() == overlap

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**9))
    def test_adding_literals_never_enlarges_matched_set(self, seed):
        rng = random.Random(seed)
        table = random_table(rng)
        nf = len(table.schema.factors)
        base_lits = []
        prev = match_bits(Conjunction(()), table)
        for i in rng.sample(range(nf), k=rng.randint(1, nf)):
            base_lits.append(Literal(i, rng.randrange(table.schema.factors[i].levels)))
            cur = match_bits(Conjunction(tuple(base_lits)), table)
            assert cur & ~prev == 0
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
        assert m1_table.require_unique_ids() is None
        assert m1_table.__dict__["_unique_ids"] is True
        dup = CaseTable(m1_table.schema, ("a", "a", "b", "c", "d", "e"), m1_table.values, m1_table.outcomes)
        with pytest.raises(InputError, match="duplicate case id 'a'"):
            dup.require_unique_ids()
        assert dup.__dict__["_unique_ids"] is False


class TestPositiveIds:
    def test_ids_per_label(self, m1_table):
        positives = m1_table.positive_ids(1)
        assert positives == {"c1", "c2", "c3"}
        assert m1_table.positive_ids(1) == positives
        assert m1_table.positive_ids(0) == {"c4", "c5", "c6"}
        with pytest.raises(InputError, match="decision label 2 out of range"):
            m1_table.positive_ids(2)

    def test_the_table_holds_no_id_set(self):
        # On 20 000 cases, about half of them positive, a held frozenset of
        # their ids would be about 0.5 MB.
        rng = random.Random(0)
        n = 20_000
        table = CaseTable.from_columns(
            binary_schema(["A", "B"]), [f"case{i}" for i in range(n)],
            [bytes(rng.randrange(2) for _ in range(n)) for _ in range(2)], bytes(rng.randrange(2) for _ in range(n)),
        )
        table.positive_bits(1)  # the bitset is the table's to cache
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            assert len(table.positive_ids(1)) > n // 3
            after, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert after - before < 32 * 1024


class TestColumnBits:
    """A column's bitsets are packed together on its first read, and once."""

    def test_one_read_packs_every_level_of_a_byte_column(self, monkeypatch):
        packs = []
        real = model._bits_where
        monkeypatch.setattr(model, "_bits_where", lambda col, v: packs.append(v) or real(col, v))
        schema = FactorSchema((Factor("A", 4), Factor("B", 2)), Factor("O", 2))
        cases = [Case("a", (0, 1), 1), Case("b", (2, 1), 1), Case("c", (2, 0), 0), Case("d", (0, 0), 1)]
        table = CaseTable.from_cases(schema, cases)
        assert table.literal_bits(0, 2) == 0b0110
        assert packs == [0, 1, 2, 3]  # level 1 and 3 are held by no case, but A can hold them
        assert table.literal_bits(0, 3) == 0 and table.literal_bits(0, 9) == 0 and len(packs) == 4
        solve(table, AnalysisParams(1, "0.5", cutoff=1, unique_cover=1))
        assert packs == [0, 1, 2, 3, 0, 1, 0, 1]  # then B and the outcome, and nothing more
        solve(table, AnalysisParams(0, "0.5", cutoff=1, unique_cover=1))
        assert len(packs) == 8

    def test_a_wide_column_packs_only_its_held_levels(self, monkeypatch):
        packs = []
        real = model._bits_where
        monkeypatch.setattr(model, "_bits_where", lambda col, v: packs.append(v) or real(col, v))
        schema = FactorSchema((Factor("A", 1000),), Factor("O", 2))
        table = CaseTable.from_cases(schema, [Case("a", (700,), 1), Case("b", (3,), 0), Case("c", (700,), 0)])
        assert table.literal_bits(0, 700) == 0b101 and table.literal_bits(0, 4) == 0
        assert sorted(packs) == [3, 700]


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

    def test_conjunction_merge_builds_no_literal(self, monkeypatch):
        a, b, conflict = Conjunction.of((2, 0), (0, 1)), Conjunction.of((1, 3), (0, 1)), Conjunction.of((0, 0))
        expected = Conjunction.of((0, 1), (1, 3), (2, 0))
        built = []
        init = Literal.__init__
        monkeypatch.setattr(Literal, "__init__", lambda lit, *args: (built.append(lit), init(lit, *args))[1])
        assert a.merge(b) == expected
        with pytest.raises(InputError, match="^conflicting values for factor index 0: 1 vs 0$"):
            a.merge(conflict)
        assert built == []

    def test_literals_sorted_and_hashable(self):
        c = Conjunction.of((2, 0), (0, 1))
        assert [lit.factor_index for lit in c.literals] == [0, 2]
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

    @pytest.mark.parametrize(
        "build, message",
        [(lambda: Factor("A", 40000), "factor 'A': level count must be <= 32768, got 40000"),
         (lambda: Factor("A", 10**5000), "factor 'A': level count must be <= 32768, got 100000000000..."),
         (lambda: binary_schema(["A"]).factor_index("B" * 40), f"unknown factor {'B' * 40!r}"),
         (lambda: binary_schema(["A"]).factor_index("B" * 41), "unknown factor 'BBBBBBBBBBBB...'"),
         (lambda: as_fraction("x" * 40), f"not a valid ratio: {'x' * 40!r}"),
         (lambda: as_fraction("x" * 41), "not a valid ratio: 'xxxxxxxxxxxx...'")],
    )
    def test_a_long_value_is_echoed_cut(self, build, message):
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "name, shown", [("F" * 5000, "FFFFFFFFFFFF..."), ("F" * 41, "FFFFFFFFFFFF..."), ("F" * 40, "F" * 40)],
        ids=["5000", "41", "40"],
    )
    @pytest.mark.parametrize(
        "levels, labels, message",
        [(1, None, "level count must be >= 2, got 1"),
         (40000, None, "level count must be <= 32768, got 40000"),
         (2, ("a",), "1 labels for 2 levels")],
        ids=["one-level", "too-many-levels", "labels"],
    )
    def test_a_long_factor_name_is_echoed_cut(self, name, shown, levels, labels, message):
        with pytest.raises(InputError) as err:
            Factor(name, levels, labels)
        assert str(err.value) == f"factor {shown!r}: {message}"

    def test_table_value_range_checked(self):
        schema = binary_schema(["A"])
        with pytest.raises(InputError):
            CaseTable.from_cases(schema, [Case("x", (2,), 0)])
        with pytest.raises(InputError):
            CaseTable.from_cases(schema, [Case("x", (1,), 3)])


class TestConstructorChecks:
    """Each check that a construction runs, with the text it raises."""

    RULE = CandidateRule.from_sets(Conjunction.of((0, 1)), {"a"}, {"a"}, ("a", "b"))

    @pytest.mark.parametrize(
        "build, message",
        [(lambda: CandidateRule(Conjunction.of((0, 1)), 0b100, 0, ("a", "b")), "matched bits reach past the case ids"),
         (lambda: CandidateRule.from_sets(Conjunction.of((0, 1)), {"a", "z"}, {"a"}, ("a", "b")),
          "rule case ids missing from the shared ids"),
         (lambda: Solution((), (TestConstructorChecks.RULE,), 1, Fraction(3, 2), Fraction(1), (1,)),
          "solution metrics must lie in [0,1]"),
         (lambda: Solution((), (TestConstructorChecks.RULE,), 1, Fraction(1), Fraction(-1), (1,)),
          "solution metrics must lie in [0,1]"),
         (lambda: Solution((), (TestConstructorChecks.RULE,), 1, Fraction(1), Fraction(1), ()),
          "one unique-coverage count per rule required"),
         (lambda: Solution((), (TestConstructorChecks.RULE,) * 2, 1, Fraction(1), Fraction(1), (1, 0)),
          "selected rules must be pairwise distinct"),
         (lambda: as_fraction(object()), "cannot interpret object as a ratio"),
         (lambda: Factor("", 2), "factor name must be non-empty"),
         (lambda: CaseTable.from_cases(binary_schema(["A", "B"]), [Case("x", (1,), 0)]),
          "case 'x': 1 values for 2 factors")],
        ids=["bits-past-ids", "unknown-ids", "consistency", "coverage", "unique-coverage", "distinct-rules",
             "ratio-type", "factor-name", "short-row"],
    )
    def test_check(self, build, message):
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == message


class TestCellChecks:
    """Every cell is an integer level of its column, or an InputError names it."""

    def test_value_past_16_bits_is_an_input_error(self):
        cases = [Case("x", (40000,), 0), Case("y", (0,), 1)]
        with pytest.raises(InputError, match=r"^case 'x': value 40000 out of range for factor 'A' \(levels 0\.\.1\)$"):
            CaseTable.from_cases(binary_schema(["A"]), cases)

    def test_outcome_past_16_bits_is_an_input_error(self):
        cases = [Case("x", (0,), 70000), Case("y", (0,), 1)]
        with pytest.raises(InputError, match=r"^case 'x': outcome 70000 out of range \(levels 0\.\.1\)$"):
            CaseTable.from_cases(binary_schema(["A"]), cases)

    @pytest.mark.parametrize("value", [1.5, 1.0, "1", None])
    def test_value_without_index_is_rejected(self, value):
        with pytest.raises(InputError) as err:
            CaseTable.from_cases(binary_schema(["A"]), [Case("y", (0,), 1), Case("x", (value,), 0)])
        assert str(err.value) == f"case 'x': value {value!r} for factor 'A' is not an integer level"

    def test_outcome_without_index_is_rejected(self):
        with pytest.raises(InputError, match=r"^case 'x': outcome 0\.5 is not an integer level$"):
            CaseTable.from_cases(binary_schema(["A"]), [Case("x", (0,), 0.5)])

    def test_bools_are_levels(self):
        table = CaseTable.from_cases(binary_schema(["A"]), [Case("x", (True,), False), Case("y", (False,), True)])
        assert table.values.tolist() == [[1], [0]]
        assert table.outcomes.tolist() == [0, 1]

    def test_numpy_rows_and_integers_are_accepted(self):
        np = pytest.importorskip("numpy")
        schema = FactorSchema((Factor("A", 2), Factor("B", 300)), Factor("O", 3))
        values = np.array([[1, 299], [0, 7]], dtype=np.int16)
        table = CaseTable(schema, ("x", "y"), values, np.array([2, 0], dtype=np.int64))
        assert table == CaseTable(schema, ("x", "y"), [[1, 299], [0, 7]], [2, 0])
        assert CaseTable.from_cases(schema, [Case("x", (np.int64(1), np.uint8(5)), np.int32(2))]).case(0) == Case(
            "x", (1, 5), 2
        )
        with pytest.raises(InputError, match="value 0.5 for factor 'A' is not an integer level"):
            CaseTable(schema, ("x",), np.array([[0.5, 1.0]]), [0])

    def test_columns_move_between_one_and_two_bytes(self):
        wide = FactorSchema((Factor("A", 300),), Factor("O", 300))
        narrow = FactorSchema((Factor("A", 256),), Factor("O", 2))
        rows, outcomes = [[1], [0], [255]], [1, 0, 1]
        for source, target in [(wide, narrow), (narrow, wide)]:
            table = CaseTable(source, ("x", "y", "z"), rows, outcomes)
            moved = CaseTable(target, table.ids, table.values, table.outcomes)
            assert moved.values.tolist() == rows and moved.outcomes.tolist() == outcomes
            assert moved.literal_bits(0, 255) == 0b100
        with pytest.raises(InputError, match="case 'x': value 299 out of range for factor 'A'"):
            CaseTable(narrow, ("x",), CaseTable(wide, ("x",), [[299]], [0]).values, [0])

    def test_shape_is_checked(self):
        schema = binary_schema(["A", "B"])
        for values, outcomes in [([[0, 1]], [0, 1]), ([[0]], [0]), ([[0, 1, 1]], [0]), ([0], [0]), ([], [0])]:
            with pytest.raises(InputError):
                CaseTable(schema, ("x",), values, outcomes)


def cut(text: str) -> str:
    """`text` as errors echo it: whole up to 40 characters, else its first 12 and '...'."""
    return text if len(text) <= 40 else text[:12] + "..."


@pytest.mark.parametrize("n", [5000, 41, 40], ids=["5000", "41", "40"])
class TestLongValuesInModelErrors:
    """A long factor name, outcome name, case id or cell is echoed cut."""

    def test_factor_name_in_a_cell_error(self, n):
        schema = FactorSchema((Factor("F" * n, 2),), Factor("O", 2))
        with pytest.raises(InputError) as err:
            CaseTable(schema, ("a", "b"), ((0,), (5,)), (1, 0))
        assert str(err.value) == f"case 'b': value 5 out of range for factor {cut('F' * n)!r} (levels 0..1)"
        with pytest.raises(InputError) as err:
            CaseTable(schema, ("a", "b"), ((0,), (0.5,)), (1, 0))
        assert str(err.value) == f"case 'b': value 0.5 for factor {cut('F' * n)!r} is not an integer level"

    def test_case_id_and_cell(self, n):
        schema = binary_schema(["A"])
        with pytest.raises(InputError) as err:
            CaseTable(schema, ("a", "i" * n), ((0,), (1,)), (1, 7))
        assert str(err.value) == f"case {cut('i' * n)!r}: outcome 7 out of range (levels 0..1)"
        with pytest.raises(InputError) as err:
            CaseTable(schema, ("a", "b"), ((0,), ("x" * n,)), (1, 0))
        assert str(err.value) == f"case 'b': value {cut('x' * n)!r} for factor 'A' is not an integer level"
        with pytest.raises(InputError) as err:
            CaseTable(schema, ("a", "b"), ((0,), (10**5000,)), (1, 0))
        assert str(err.value) == "case 'b': value 100000000000... out of range for factor 'A' (levels 0..1)"

    def test_outcome_name_collision(self, n):
        with pytest.raises(InputError) as err:
            FactorSchema((Factor("A", 2), Factor("N" * n, 2)), Factor("N" * n, 2))
        assert str(err.value) == f"outcome name {cut('N' * n)!r} collides with a factor"

    def test_factor_name_in_match_bits(self, n):
        table = CaseTable(FactorSchema((Factor("F" * n, 2),), Factor("O", 2)), ("a", "b"), ((0,), (1,)), (1, 0))
        for value, shown in [(2, "2"), (10**5000, "100000000000...")]:
            with pytest.raises(InputError) as err:
                match_bits(Conjunction((Literal(0, value),)), table)
            assert str(err.value) == f"value {shown} out of range for factor {cut('F' * n)!r}"


LEVEL_CHOICES = st.sampled_from([2, 3, 255, 256, 257, 300])


@st.composite
def stored_tables(draw, max_cases=24):
    """Schema, ids, rows and outcomes of a valid table; levels straddle the 1-byte limit."""
    levels = draw(st.lists(LEVEL_CHOICES, max_size=4))
    out_levels = draw(LEVEL_CHOICES)
    schema = FactorSchema(tuple(Factor(f"F{j}", lv) for j, lv in enumerate(levels)), Factor("O", out_levels))
    n = draw(st.integers(0, max_cases))
    # Mostly the ends of each range, where a 1- or 2-byte column would break.
    def cell(lv):
        return st.one_of(st.sampled_from([0, 1, lv - 2, lv - 1]), st.integers(0, lv - 1))

    rows = [draw(st.tuples(*map(cell, levels))) for _ in range(n)]
    outcomes = [draw(cell(out_levels)) for _ in range(n)]
    return schema, tuple(f"c{i}" for i in range(n)), rows, outcomes


def first_bad_cell(schema, rows, outcomes):
    """Reference scan: factors in order, then the outcome, each in row order."""
    for j, f in enumerate(schema.factors):
        for i, row in enumerate(rows):
            if not 0 <= row[j] < f.levels:
                return i
    for i, o in enumerate(outcomes):
        if not 0 <= o < schema.outcome_levels:
            return i
    return None


class TestColumnStorage:
    """The byte/short columns behind `CaseTable` against per-case comprehensions."""

    @settings(max_examples=100, deadline=None)
    @given(stored_tables(), st.data())
    def test_matches_per_case_reference(self, drawn, data):
        schema, ids, rows, outcomes = drawn
        table = CaseTable(schema, ids, rows, outcomes)
        assert len(table) == len(table.values) == len(ids)
        assert table.values.tolist() == [list(r) for r in rows]
        assert list(table.values) == rows
        assert [table.values[i] for i in range(len(rows))] == rows
        assert table.outcomes.tolist() == list(outcomes)
        if rows:
            assert table.case(-1) == Case(ids[-1], rows[-1], outcomes[-1])
        for j, f in enumerate(schema.factors):
            column = [r[j] for r in rows]
            assert table.values.column(j).tolist() == column
            for v in {0, f.levels - 1, *column, data.draw(st.integers(0, f.levels - 1))}:
                expected = sum(1 << i for i, c in enumerate(column) if c == v)
                assert table.literal_bits(j, v) == expected
        for label in {0, schema.outcome_levels - 1, *outcomes}:
            assert table.positive_bits(label) == sum(1 << i for i, o in enumerate(outcomes) if o == label)

        picks = data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=30)) if rows else []
        sub = table.take(picks)
        expected = CaseTable(schema, [ids[i] for i in picks], [rows[i] for i in picks], [outcomes[i] for i in picks])
        assert sub == expected
        assert sub.values.tolist() == expected.values.tolist()
        assert sub.outcomes.tolist() == expected.outcomes.tolist()
        assert CaseTable(schema, ids, table.values, table.outcomes) == table
        columns = [[r[j] for r in rows] for j in range(len(schema.factors))]
        assert CaseTable.from_columns(schema, ids, columns, outcomes) == table

    @settings(max_examples=100, deadline=None)
    @given(stored_tables(), st.data())
    def test_bad_cell_names_the_first_case(self, drawn, data):
        schema, ids, rows, outcomes = drawn
        if not rows:
            return
        rows = [list(r) for r in rows]
        outcomes = list(outcomes)
        for _ in range(data.draw(st.integers(1, 3))):
            i = data.draw(st.integers(0, len(rows) - 1))
            j = data.draw(st.integers(0, len(schema.factors)))
            levels = (*schema.level_counts(), schema.outcome_levels)[j]
            bad = data.draw(st.sampled_from([-1, levels, levels + 1, 256, 40000, 70000]) | st.integers(-5, 400))
            if j == len(schema.factors):
                outcomes[i] = bad
            else:
                rows[i][j] = bad
        bad = first_bad_cell(schema, rows, outcomes)
        if bad is None:
            assert CaseTable(schema, ids, rows, outcomes).values.tolist() == rows
            return
        with pytest.raises(InputError, match=f"^case {ids[bad]!r}: "):
            CaseTable(schema, ids, rows, outcomes)


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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_a_float_and_its_text_are_echoed_alike(self, value):
        # Both branches echo through `_echo` and quote the result.
        for x in (float(value), value):
            with pytest.raises(InputError) as err:
                as_fraction(x)
            assert str(err.value) == f"not a valid ratio: {value!r}"


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
