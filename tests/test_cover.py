import copy
import gc
import pickle
import random
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpqca import (
    AnalysisParams,
    CandidatePool,
    CandidateRule,
    CandidateRules,
    Case,
    CaseTable,
    Conjunction,
    ExperimentSpec,
    Factor,
    FactorSchema,
    InputError,
    Literal,
    UndefinedRatioError,
    VacuousSolutionError,
    assemble_solution,
    binary_schema,
    enumerate_candidates,
    exhaustive_cover_oracle,
    generate_experiment_table,
    greedy_cover,
    parse_pathway,
    replace,
    rule_from_conjunction,
    solve,
    synth_schema,
)
from scpqca import cover
from scpqca.cover import unique_coverage
from conftest import random_table, traced


# Shared case ids of the synthetic rules below.
INDEX = tuple("12345678abcn") + tuple(f"p{i}" for i in range(21))


def pure_rule(idx: int, positive_ids) -> CandidateRule:
    """Synthetic rule matching exactly the given ids, all positive."""
    ids = frozenset(positive_ids)
    return CandidateRule.from_sets(Conjunction.of((idx, 0)), ids, ids, INDEX)


def covered(selection, positives) -> int:
    got = set()
    for r in selection:
        got |= r.positives_matched
    return len(got & set(positives))


class TestGreedy:
    def test_unique_cover_must_be_an_integer(self):
        for bad in (1.5, "2"):
            with pytest.raises(InputError, match="unique_cover must be an integer"):
                AnalysisParams(1, unique_cover=bad)
        with pytest.raises(InputError, match="unique_cover must be >= 1, got 0"):
            AnalysisParams(1, unique_cover=0)
        with pytest.raises(InputError, match="decision_label must be an integer, got 1.0"):
            AnalysisParams(1.0)

    def test_chain_example_unique_cover_1(self):
        r1, r2, r3 = pure_rule(0, "123"), pure_rule(1, "34"), pure_rule(2, "45")
        sel = greedy_cover([r1, r2, r3], set("12345"), AnalysisParams(1, unique_cover=1))
        assert sel == [r1, r3]

    def test_chain_example_unique_cover_3(self):
        r1, r2, r3 = pure_rule(0, "123"), pure_rule(1, "34"), pure_rule(2, "45")
        sel = greedy_cover([r1, r2, r3], set("12345"), AnalysisParams(1, unique_cover=3))
        assert sel == [r1]

    def test_empty_positives(self):
        assert greedy_cover([pure_rule(0, "12")], set(), AnalysisParams(1, unique_cover=1)) == []

    def test_empty_candidates(self):
        assert greedy_cover([], {"1"}, AnalysisParams(1, unique_cover=1)) == []

    def test_gain_ties_break_by_consistency(self):
        impure = CandidateRule.from_sets(Conjunction.of((0, 0)), {"1", "2", "n"}, {"1", "2"}, INDEX)
        pure = pure_rule(1, {"3", "4"})
        sel = greedy_cover([impure, pure], set("1234"), AnalysisParams(1, unique_cover=2))
        assert sel[0] == pure

    def test_a_case_the_rules_hold_negative_is_never_a_gain(self):
        # "n" is named in `positives` but is no rule's positive: it would
        # give `impure` a gain of 2 and the first pick.
        impure = CandidateRule.from_sets(Conjunction.of((0, 0)), {"1", "n"}, {"1"}, INDEX)
        pure = pure_rule(1, {"3"})
        sel = greedy_cover([impure, pure], {"1", "3", "n"}, AnalysisParams(1, unique_cover=1))
        assert sel == [pure, impure]

    def test_consistency_ties_break_by_fewer_literals(self):
        wide = CandidateRule.from_sets(Conjunction.of((0, 0)), {"1", "2"}, {"1", "2"}, INDEX)
        narrow = CandidateRule.from_sets(Conjunction.of((1, 0), (2, 0)), {"3", "4"}, {"3", "4"}, INDEX)
        sel = greedy_cover([narrow, wide], set("1234"), AnalysisParams(1, unique_cover=2))
        assert sel[0] == wide

    @pytest.mark.parametrize("fewer, more", [((2, 4), (3, 6)), ((3, 6), (2, 4))], ids=["2/4-shorter", "3/6-shorter"])
    def test_equal_consistencies_over_other_counts_break_by_fewer_literals(self, fewer, more, monkeypatch):
        # `first` covers one positive of the 3/6 rule, so both others then
        # gain 2 at equal consistency: the shorter rule wins, whichever of the
        # two it is, although the longer one comes first. Comparing positive
        # counts alone, or matched counts alone, picks the wrong one in a case.
        ids = ("x1", "x2", "x3", "x4", "s", "t1", "t2", "u1", "u2", "u3", "v1", "v2", "w1", "w2")
        positives = {"x1", "x2", "x3", "x4", "s", "t1", "t2", "v1", "v2"}
        first = CandidateRule.from_sets(Conjunction.of((0, 0)), set(ids[:5]), set(ids[:5]), ids)
        cases = {(3, 6): (set(ids[4:10]), {"s", "t1", "t2"}), (2, 4): (set(ids[10:]), {"v1", "v2"})}
        short = CandidateRule.from_sets(Conjunction.of((1, 0)), *cases[fewer], ids)
        long = CandidateRule.from_sets(Conjunction.of((2, 0), (3, 0)), *cases[more], ids)
        assert (short.consistency, long.consistency) == (Fraction(1, 2), Fraction(1, 2))
        monkeypatch.setattr(cover, "Fraction", None)  # the tie-break builds none
        sel = greedy_cover([first, long, short], positives, AnalysisParams(1, unique_cover=2))
        assert sel == [first, short, long]

    def test_final_tie_breaks_by_candidate_order(self):
        a = pure_rule(0, {"1", "2"})
        b = pure_rule(1, {"3", "4"})
        sel = greedy_cover([a, b], set("1234"), AnalysisParams(1, unique_cover=2))
        assert sel[0] == a

    def test_selection_time_gain_always_at_least_unique_cover(self):
        rng = random.Random(5)
        universe = [f"p{i}" for i in range(20)]
        for _ in range(50):
            rules = [
                pure_rule(i, rng.sample(universe, rng.randint(1, 10))) for i in range(rng.randint(1, 8))
            ]
            u = rng.randint(1, 3)
            sel = greedy_cover(rules, universe, AnalysisParams(1, unique_cover=u))
            seen: set[str] = set()
            for rule in sel:
                gain = len(rule.positives_matched - seen)
                assert gain >= u
                seen |= rule.positives_matched

    def test_greedy_at_least_single_best_rule(self):
        rng = random.Random(6)
        universe = [f"p{i}" for i in range(15)]
        for _ in range(50):
            rules = [
                pure_rule(i, rng.sample(universe, rng.randint(1, 12))) for i in range(rng.randint(1, 6))
            ]
            sel = greedy_cover(rules, universe, AnalysisParams(1, unique_cover=1))
            best_single = max(len(r.positives_matched) for r in rules)
            assert covered(sel, universe) >= best_single


class TestCandidatesOverOneIds:
    """Rules read as columns must index one ids tuple: a bit of a rule over
    other ids names another case, so the cover would claim cases no rule matches."""

    def rules(self):
        a = CandidateRule.from_sets(Conjunction.of((0, 0)), {"x"}, {"x"}, ("x", "y", "z"))
        b = CandidateRule.from_sets(Conjunction.of((1, 0)), {"x"}, {"x"}, ("z", "y", "x"))
        return a, b

    @pytest.mark.parametrize(
        "run",
        [greedy_cover, exhaustive_cover_oracle, lambda rules, *_: CandidateRules.of(rules)],
        ids=["greedy", "oracle", "columns"],
    )
    def test_rules_over_different_ids_are_refused(self, run):
        with pytest.raises(InputError, match="^candidate rules index different case ids$"):
            run(list(self.rules()), {"x", "y", "z"}, AnalysisParams(1, unique_cover=1))

    def test_equal_ids_built_apart_are_one_index(self):
        a, _ = self.rules()
        c = CandidateRule.from_sets(Conjunction.of((1, 0)), {"z"}, {"z"}, tuple("xyz"))
        assert c.ids is not a.ids
        params = AnalysisParams(1, unique_cover=1)
        assert greedy_cover([a, c], {"x", "y", "z"}, params) == [a, c]
        assert exhaustive_cover_oracle([a, c], {"x", "y", "z"}, params) == [a, c]


def full_key_greedy(candidates, positives, params):
    """The greedy scan as it was before gains-then-ties: one full key per rule per pass."""
    if not candidates:
        return []
    positives = set(positives)
    uncovered = {i for i, case in enumerate(candidates[0].ids) if case in positives}
    remaining = list(enumerate(candidates))
    selected = []
    while uncovered and remaining:
        best_key, best_at = None, -1
        for at, (idx, rule) in enumerate(remaining):
            gain = sum(1 for i in uncovered if rule.positive_bits >> i & 1)
            if gain < params.unique_cover:
                continue
            key = (gain, rule.consistency, -len(rule.conjunction.literals), -idx)
            if best_key is None or key > best_key:
                best_key, best_at = key, at
        if best_key is None:
            break
        _, rule = remaining.pop(best_at)
        selected.append(rule)
        uncovered = {i for i in uncovered if not rule.positive_bits >> i & 1}
    return selected


# Eight positive and four negative case ids. Rules draw their positive bits
# from a small pool and their negative bits from a few patterns, so gains,
# consistencies (2/3 against 4/6 too) and literal counts tie often, and
# whole rules repeat.
TIE_IDS = tuple(f"p{i}" for i in range(8)) + tuple(f"n{i}" for i in range(4))
NEGATIVE_PATTERNS = (0, 0b0001, 0b0011, 0b0001, 0b1111)


@st.composite
def tied_rule_lists(draw):
    pool = draw(st.lists(st.integers(1, 255), min_size=1, max_size=4))
    rules = []
    for _ in range(draw(st.integers(0, 12))):
        positive = draw(st.sampled_from(pool))
        negative = draw(st.sampled_from(NEGATIVE_PATTERNS)) << 8
        order = draw(st.integers(1, 3))
        value = draw(st.integers(0, 1))
        conjunction = Conjunction.of(*((j, value) for j in range(order)))
        rules.append(CandidateRule(conjunction, positive | negative, positive, TIE_IDS))
    mask = draw(st.integers(0, 255)) | 0b11
    positives = [TIE_IDS[i] for i in range(8) if mask >> i & 1]
    return rules, positives


class TestGreedyAgainstFullKeyScan:
    @settings(max_examples=400, deadline=None)
    @given(tied_rule_lists(), st.integers(1, 3))
    def test_same_picks_in_the_same_order(self, drawn, unique_cover):
        rules, positives = drawn
        params = AnalysisParams(1, unique_cover=unique_cover)
        got = greedy_cover(rules, positives, params)
        want = full_key_greedy(rules, positives, params)
        assert [id(r) for r in got] == [id(r) for r in want]


RATIOS = [Fraction(1, 10), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1)]


@st.composite
def pool_selections(draw):
    """A pool's selection: a table of few distinct rows, repeated so that
    gains and consistencies tie, a pool with or without a consistency floor,
    a call on its own table or (no floor) on a take of it, over every
    factor or fewer, and the positives greedy is asked for, all or some."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nf = rng.randint(2, 5)
    levels = [rng.randint(2, 3) for _ in range(nf)]
    schema = FactorSchema(
        factors=tuple(Factor(chr(ord("A") + j), lv) for j, lv in enumerate(levels)),
        outcome=Factor("O", 2),
    )
    # Each distinct row has an outcome, which a few of its repeats flip.
    distinct = [tuple(rng.randrange(lv) for lv in levels) for _ in range(rng.randint(2, 10))]
    outcome = {row: rng.randint(0, 1) for row in distinct}
    rows = [rng.choice(distinct) for _ in range(rng.randint(4, 30))]
    flipped = set(rng.sample(range(len(rows)), rng.randint(0, 2)))
    outcomes = [outcome[row] ^ (i in flipped) for i, row in enumerate(rows)]
    table = CaseTable(schema, tuple(f"c{i}" for i in range(len(rows))), [list(row) for row in rows], outcomes)
    label = draw(st.integers(0, 1))
    max_order = draw(st.sampled_from([None, 1, 2, 3]))
    base_cutoff = draw(st.integers(1, 2))
    # A floored pool on its own table, an unfloored one on its own table or on a take.
    mode = draw(st.sampled_from(["floor", "own", "take"]))
    floor = draw(st.sampled_from([Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)])) if mode == "floor" else None
    consistency = draw(st.sampled_from([c for c in RATIOS if floor is None or c >= floor]))
    cutoff = draw(st.integers(base_cutoff, base_cutoff + 1))
    params = AnalysisParams(label, consistency, cutoff=cutoff, max_order=max_order)
    pool = CandidatePool(base_cutoff, floor)
    everything = tuple(range(nf))
    enumerate_candidates(table, everything, replace(params, cutoff=base_cutoff), pool=pool)
    sub = table
    if mode == "take":
        dropped = draw(st.sets(st.integers(0, len(table) - 1), min_size=1, max_size=3))
        sub = table.take([i for i in range(len(table)) if i not in dropped])
    factors = draw(st.sets(st.integers(0, nf - 1), min_size=1)) if draw(st.booleans()) else everything
    selection = enumerate_candidates(sub, factors, params, pool=pool)
    positives = sub.positive_ids(label)
    if draw(st.booleans()):
        positives = [case for case in positives if draw(st.booleans())]
    return selection, positives


class TestGreedyOnPoolSelections:
    """Greedy covers a pool's selection with the scan it runs on a walk's
    rules; it must pick what a copy of the same columns and the full-key
    reference pick, and record the same run."""

    @settings(max_examples=400, deadline=None)
    @given(pool_selections(), st.permutations([1, 2, 3]))
    def test_same_picks_and_record_as_the_scan_and_the_reference(self, drawn, floors):
        selection, positives = drawn
        scanned = selection[:]  # the same columns, with a record of their own
        for floor in floors:
            params = AnalysisParams(1, unique_cover=floor)
            got = greedy_cover(selection, positives, params)
            assert got == greedy_cover(scanned, positives, params)
            assert selection._greedy == scanned._greedy
            assert got == greedy_cover(list(selection), positives, params)
            assert got == full_key_greedy(selection, positives, params)

    @pytest.mark.parametrize("subset", [False, True], ids=["own-table", "take"])
    def test_a_selection_covered_keeps_no_pool_alive(self, remote_table, subset):
        # With the garbage collector off, only reference counts free the pool:
        # a selection that referred to it back would keep it alive.
        params = AnalysisParams(1, "0.7", cutoff=2)
        gc.disable()
        try:
            pool = CandidatePool(2)
            table = remote_table.take(range(1, len(remote_table))) if subset else remote_table
            enumerate_candidates(remote_table, range(7), params, pool=pool)
            selection = enumerate_candidates(table, range(7), params, pool=pool)
            picks = greedy_cover(selection, table.positive_ids(1), params)
            assert picks
            dead = weakref.ref(pool)
            del pool
            assert dead() is None
            assert greedy_cover(selection[:], table.positive_ids(1), params) == picks
        finally:
            gc.enable()


class TestGreedyRecord:
    """A `CandidateRules` keeps its last greedy run; a floor at or above the
    recorded one on the same uncovered cases is answered from it."""

    @settings(max_examples=300, deadline=None)
    @given(tied_rule_lists(), st.lists(st.sampled_from(TIE_IDS[:8]), unique=True))
    def test_floors_in_any_order_equal_a_fresh_list_and_the_reference(self, drawn, others):
        rules, positives = drawn
        columns = CandidateRules.of(rules)
        # 3, 1, 2, 2 records, replaces, then answers twice; other cases at
        # floor 2 must not be answered from the record made at floor 1.
        for floor, cases in [(3, positives), (1, positives), (2, positives), (2, positives), (2, others), (1, positives)]:
            params = AnalysisParams(1, unique_cover=floor)
            got = greedy_cover(columns, cases, params)
            assert got == greedy_cover(list(rules), cases, params) == full_key_greedy(rules, cases, params)

    def test_a_higher_floor_on_the_same_rules_runs_no_pass(self, remote_table, monkeypatch):
        # A wrapper round the scan counts its runs: a call answered from the
        # record makes none.
        calls = []
        real = cover._scan
        monkeypatch.setattr(cover, "_scan", lambda *args: (calls.append(args), real(*args))[1])
        candidates = enumerate_candidates(remote_table, (1, 2, 4, 5), AnalysisParams(1, "0.7", cutoff=2))
        positives = remote_table.positive_ids(1)

        def cover_counted(rules, floor):
            calls.clear()
            return greedy_cover(rules, positives, AnalysisParams(1, unique_cover=floor)), len(calls)

        assert cover_counted(candidates, 1)[1] > 0
        fresh, passes = cover_counted(list(candidates), 2)
        assert passes > 0
        assert cover_counted(candidates, 2) == (fresh, 0)
        assert cover_counted(candidates, 1)[1] == 0

    def test_equality_repr_copies_and_pickles_leave_the_record_out(self, remote_table):
        candidates = enumerate_candidates(remote_table, (1, 2, 4, 5), AnalysisParams(1, "0.7", cutoff=2))
        before = repr(candidates)
        greedy_cover(candidates, remote_table.positive_ids(1), AnalysisParams(1, unique_cover=1))
        assert candidates._greedy is not None
        assert repr(candidates) == before and candidates == list(candidates)
        for copied in (copy.copy(candidates), copy.deepcopy(candidates), pickle.loads(pickle.dumps(candidates))):
            assert copied == candidates and copied._greedy is None



# 24 positive and 4 negative case ids. A rule's positives are a run of
# blocks that partition the positives, so first gains spread from 1 to 24, a
# pick lowers many gains at once, some by several levels, and rules from
# different buckets meet on a new best gain. Most rules match no negative and
# literal counts are 1 or 2, so ties often fall through to the rule order.
SPREAD_IDS = tuple(f"p{i}" for i in range(24)) + tuple(f"n{i}" for i in range(4))


@st.composite
def spread_rule_lists(draw):
    # Blocks of one size, `step`, make rules of equal gains, and a few
    # other cuts make blocks of other sizes.
    step = draw(st.integers(1, 8))
    cuts = set(range(step, 24, step)) | draw(st.sets(st.integers(1, 23), max_size=3))
    edges = [0, *sorted(cuts), 24]
    blocks = [(1 << b) - (1 << a) for a, b in zip(edges, edges[1:])]
    # Rules draw their positives from a few runs of blocks, so whole
    # positive sets repeat too.
    starts = draw(st.lists(st.integers(0, len(blocks) - 1), min_size=1, max_size=8))
    runs = [sum(blocks[a : draw(st.integers(a + 1, len(blocks)))]) for a in starts]
    rules = []
    for _ in range(draw(st.integers(0, 16))):
        positive = draw(st.sampled_from(runs))
        negative = draw(st.sampled_from((0, 0, 0, 0b0001, 0b0011, 0b1111))) << 24
        conjunction = Conjunction.of(*((j, 0) for j in range(draw(st.integers(1, 2)))))
        rules.append(CandidateRule(conjunction, positive | negative, positive, SPREAD_IDS))
    mask = draw(st.one_of(st.just(2**24 - 1), st.integers(1, 2**24 - 1)))
    return rules, [SPREAD_IDS[i] for i in range(24) if mask >> i & 1]


def replayed_gains(picks, positives):
    """Each pick's gain: its positives among `positives` not covered before it."""
    gains, seen = [], set()
    for rule in picks:
        gains.append(len((rule.positives_matched & set(positives)) - seen))
        seen |= rule.positives_matched
    return gains


class TestScanDescent:
    """The scan recounts a rule only from the bucket of its last gain; its
    picks and record must equal the full-key reference and a plain list's."""

    def check(self, rules, positives, floor):
        params = AnalysisParams(1, unique_cover=floor)
        columns = CandidateRules.of(rules)
        got = greedy_cover(columns, positives, params)
        want = full_key_greedy(rules, positives, params)
        assert got == want
        _, recorded_floor, picks, gains = columns._greedy
        assert recorded_floor == floor
        assert picks == [next(i for i, rule in enumerate(rules) if rule is pick) for pick in want]
        assert gains == replayed_gains(want, positives)
        plain = CandidateRules.of(list(columns))
        assert greedy_cover(plain, positives, params) == got and plain._greedy == columns._greedy
        return got

    # Floors run past the top gain of 24; low ones, drawn more often, keep
    # most rules live down many levels.
    @settings(max_examples=400, deadline=None)
    @given(spread_rule_lists(), st.one_of(st.integers(1, 4), st.integers(1, 26)))
    def test_picks_and_record_equal_the_reference(self, drawn, floor):
        self.check(*drawn, floor)

    @pytest.mark.parametrize("floor", [1, 3, 4])
    def test_no_rule_and_one_rule(self, floor):
        positives = SPREAD_IDS[:24]
        assert self.check([], positives, floor) == []
        rule = CandidateRule(Conjunction.of((0, 0)), 0b111 | 1 << 24, 0b111, SPREAD_IDS)
        assert self.check([rule], positives, floor) == ([rule] if floor <= 3 else [])

    @staticmethod
    def spread_rule(code, positives, negatives=0):
        """A one-literal rule over SPREAD_IDS matching positives p{i} for i in
        `positives` and negatives n{i} for the bits of `negatives`."""
        bits = sum(1 << i for i in positives)
        return CandidateRule(Conjunction.of((code, 0)), bits | negatives << 24, bits, SPREAD_IDS)

    @pytest.mark.parametrize("floor", [1, 2, 4, 6, 7])
    def test_positives_a_strict_subset_of_the_tables(self, floor):
        # 12 of the 24 positives are asked for. Rule 0 matches none of them
        # and 12 others, the most of any rule on the table's positives; the
        # last rule matches all 12, a gain as high as a gain can be.
        positives = [SPREAD_IDS[i] for i in (*range(8), *range(16, 20))]
        rule = self.spread_rule
        rules = [
            rule(0, [*range(8, 16), *range(20, 24)]),
            rule(1, [*range(4), *range(8, 16)]),
            rule(2, [4, 5, 6, 7, 16, 17]),
            rule(3, range(6)),
            rule(4, range(16, 20), 0b1),
            rule(5, [7, 19, 20, 21]),
        ]
        picks = self.check(rules, positives, floor)
        assert rules[0] not in picks and (picks[:1] == [rules[2]] if floor <= 6 else picks == [])
        whole = rule(6, [*range(8), *range(16, 24)], 0b1111)
        assert self.check([*rules, whole], positives, floor) == [whole]

    @pytest.mark.parametrize("floor", [4, 5, 25])
    def test_a_floor_above_the_uncovered_positives(self, floor):
        # 3 positives are asked for and every rule's gain is at most 3, while
        # on the table's 24 positives the rules' counts reach 24.
        rule = self.spread_rule
        rules = [rule(0, range(24)), rule(1, range(2, 20), 0b11), rule(2, range(3)), rule(3, [0, 5, 6, 7])]
        assert self.check(rules, SPREAD_IDS[:3], floor) == []
        assert self.check(rules, SPREAD_IDS[:3], 3) == [rules[0]]


class TestScanMemory:
    # The scan links its live rules into buckets through one array slot per
    # rule, counting and linking each rule in one first pass: on top of its
    # input it peaks at about 4 bytes per rule here, at both floors, where a
    # first pass that kept a list of every rule's gain peaked at about 12.
    BOUND = 8  # bytes per rule

    @pytest.fixture(scope="class")
    def rules(self):
        # TestWalkMemory's table at consistency 0.8: 11 502 rules.
        schema = synth_schema(20)
        table = generate_experiment_table(ExperimentSpec(schema, parse_pathway("ab+CD+ace+BDF", schema), 200, 0, 1))
        params = AnalysisParams(1, "0.8", cutoff=2, max_order=4)
        return table, enumerate_candidates(table, range(20), params)

    @pytest.mark.parametrize("floor, survive", [(2, True), (8, False)], ids=["every-rule-survives", "most-leave"])
    def test_peak_over_the_input_per_rule(self, rules, floor, survive):
        table, candidates = rules
        positives, params = table.positive_ids(1), AnalysisParams(1, unique_cover=floor)
        # At floor 2 every rule's first gain meets the floor, so every rule but
        # the pick survives the first pass; at floor 8 most leave in it.
        starting = [(m & candidates.positives).bit_count() for m in candidates.matched_bits]
        assert len(candidates) == 11_502
        assert all(gain >= floor for gain in starting) == survive
        candidates._greedy = None
        picks, _, peak = traced(lambda: greedy_cover(candidates, positives, params))
        assert picks == full_key_greedy(candidates, positives, params)
        assert peak < self.BOUND * len(candidates), f"{peak / len(candidates):.1f} bytes per rule"


class TestOracle:
    def test_chain_instance_matches_greedy(self):
        r1, r2, r3 = pure_rule(0, "123"), pure_rule(1, "34"), pure_rule(2, "45")
        params = AnalysisParams(1, unique_cover=1)
        oracle = exhaustive_cover_oracle([r1, r2, r3], set("12345"), params)
        assert covered(oracle, set("12345")) == 5
        greedy = greedy_cover([r1, r2, r3], set("12345"), params)
        assert covered(greedy, set("12345")) == 5

    def test_overlap_instance_prefers_fewer_rules(self):
        # R1 overlaps both others; the oracle finds the two-rule cover of all 8
        r1, r2, r3 = pure_rule(0, "1234"), pure_rule(1, "1256"), pure_rule(2, "3478")
        params = AnalysisParams(1, unique_cover=2)
        positives = set("12345678")
        oracle = exhaustive_cover_oracle([r1, r2, r3], positives, params)
        assert oracle == [r2, r3]
        assert covered(oracle, positives) == 8
        greedy = greedy_cover([r1, r2, r3], positives, params)
        assert covered(greedy, positives) <= covered(oracle, positives)

    def test_empty_positives(self):
        assert exhaustive_cover_oracle([pure_rule(0, "12")], set(), AnalysisParams(1, unique_cover=1)) == []

    def test_order_infeasible_pair_rejected(self):
        # {ab} and {bc} under unique_cover=2: whichever goes second gains
        # only one new positive, so the pair is inadmissible in any order
        r1, r2 = pure_rule(0, {"a", "b"}), pure_rule(1, {"b", "c"})
        sel = exhaustive_cover_oracle([r1, r2], {"a", "b", "c"}, AnalysisParams(1, unique_cover=2))
        assert len(sel) == 1
        assert covered(sel, {"a", "b", "c"}) == 2

    def test_candidate_limit_enforced(self):
        rules = [pure_rule(i, {f"p{i}"}) for i in range(21)]
        with pytest.raises(InputError, match="oracle limit"):
            exhaustive_cover_oracle(rules, {"p0"}, AnalysisParams(1, unique_cover=1))

    @pytest.mark.parametrize("seed", range(20))
    def test_oracle_never_below_greedy(self, seed):
        rng = random.Random(seed)
        n_pos = rng.randint(1, 16)
        universe = [f"p{i}" for i in range(n_pos)]
        index = universe + [f"n{i}{j}" for i in range(10) for j in range(2)]
        rules = []
        for i in range(rng.randint(1, 10)):
            ids = set(rng.sample(universe, rng.randint(1, n_pos)))
            extra = {f"n{i}{j}" for j in range(rng.randint(0, 2))}
            rules.append(CandidateRule.from_sets(Conjunction.of((i, 0)), ids | extra, ids, index))
        params = AnalysisParams(1, unique_cover=rng.randint(1, 3))
        greedy = greedy_cover(rules, universe, params)
        oracle = exhaustive_cover_oracle(rules, universe, params)
        assert covered(oracle, universe) >= covered(greedy, universe)


class TestUniqueCoverage:
    def test_counts(self):
        r1, r2 = pure_rule(0, "123"), pure_rule(1, "34")
        assert unique_coverage([r1, r2]) == (2, 1)

    def test_single_rule_owns_everything(self):
        r = pure_rule(0, "12")
        assert unique_coverage([r]) == (2,)


class TestAssembleSolution:
    def test_requires_something(self, m1_table):
        with pytest.raises(VacuousSolutionError):
            assemble_solution([], [], m1_table, AnalysisParams(1, unique_cover=1))

    def test_necessary_only_solution(self, m1_table):
        sol = assemble_solution([Literal(0, 1)], [], m1_table, AnalysisParams(1, unique_cover=1))
        assert sol.rules == ()
        assert sol.solution_consistency == Fraction(3, 4)
        assert sol.solution_coverage == 1
        assert sol.configurations() == (Conjunction.of((0, 1)),)

    def test_single_rule_metrics_on_m1(self, m1_table):
        rule = rule_from_conjunction(Conjunction.of((0, 1), (1, 1)), m1_table, 1)
        sol = assemble_solution([], [rule], m1_table, AnalysisParams(1, unique_cover=1))
        assert sol.solution_consistency == 1
        assert sol.solution_coverage == Fraction(2, 3)
        assert sol.per_rule_unique_coverage == (2,)

    def test_necessary_literals_are_conjoined_into_metrics(self, m1_table):
        # rule {B=1} alone matches c1,c3,c4; conjoined with A=1 it loses c4
        rule = rule_from_conjunction(Conjunction.of((1, 1)), m1_table, 1)
        assert rule.consistency == Fraction(2, 3)
        sol = assemble_solution([Literal(0, 1)], [rule], m1_table, AnalysisParams(1, unique_cover=1))
        assert sol.rules[0].matched == {"c1", "c3"}
        assert sol.rules[0].consistency == 1
        assert sol.solution_consistency == 1
        assert sol.configurations() == (Conjunction.of((0, 1), (1, 1)),)

    def test_conflicting_rule_and_necessary(self, m1_table):
        rule = rule_from_conjunction(Conjunction.of((0, 0)), m1_table, 1)
        with pytest.raises(InputError):
            assemble_solution([Literal(0, 1)], [rule], m1_table, AnalysisParams(1, unique_cover=1))

    def test_rule_with_no_effective_matches(self):
        schema = binary_schema(["A", "B"])
        t = CaseTable.from_cases(
            schema,
            [Case("a", (1, 0), 1), Case("b", (0, 1), 0), Case("c", (1, 0), 1)],
        )
        rule = rule_from_conjunction(Conjunction.of((1, 1)), t, 1)  # matches only b
        with pytest.raises(UndefinedRatioError):
            assemble_solution([Literal(0, 1)], [rule], t, AnalysisParams(1, unique_cover=1))


    def test_no_positive_case(self):
        # `solve` refuses such a table first, so only a direct call gets here.
        t = CaseTable.from_cases(binary_schema(["A"]), [Case("a", (1,), 0), Case("b", (0,), 0)])
        with pytest.raises(UndefinedRatioError, match="^no cases with outcome 1$"):
            assemble_solution([Literal(0, 1)], [], t, AnalysisParams(1, unique_cover=1))


class TestPipelineGainInvariant:
    def test_recorded_pick_order_respects_unique_cover(self, remote_table):
        params = AnalysisParams(decision_label=1, consistency_threshold="0.8", cutoff=4, unique_cover=2)
        result = solve(remote_table, params)
        positives = remote_table.positive_ids(1)
        # replay the greedy picks against the candidate list
        seen: set[str] = set()
        by_conj = {r.conjunction: r for r in result.candidates}
        for rule in result.solution.rules:
            original = by_conj[rule.conjunction]
            gain = len((original.positives_matched & positives) - seen)
            assert gain >= params.unique_cover
            seen |= original.positives_matched



class TestGreedyOnColumns:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from(["1/3", "1/2", "2/3", "1"]),
        st.integers(1, 3),
        st.integers(1, 3),
    )
    def test_plain_list_and_columns_pick_the_same_rules(self, seed, consistency, cutoff, unique):
        table = random_table(random.Random(seed), max_factors=5, max_cases=30)
        label = seed % table.schema.outcome_levels
        factors = range(len(table.schema.factors))
        columns = enumerate_candidates(table, factors, AnalysisParams(label, consistency, cutoff=cutoff))
        assert isinstance(columns, CandidateRules)
        listed = list(columns)
        positives = table.positive_ids(label)
        params = AnalysisParams(label, unique_cover=unique)
        from_columns = greedy_cover(columns, positives, params)
        from_list = greedy_cover(listed, positives, params)
        assert from_columns == from_list
        # A plain list's picks are its own rule objects.
        assert all(any(pick is rule for rule in listed) for pick in from_list)
