"""The candidate pool against a pool-free call and the itertools oracle, and
the harnesses that share one pool.

A pool is walked once at a loose cutoff and filtered per call. Every call
below must return what a pool-free `enumerate_candidates` returns on the same
table and factor set: the same conjunctions in the same order, over the same
matched and positive cases. A pool-free call selects from a fresh pool that
shares the walk, so the conjunctions are also checked against
`brute_force_candidates`, which shares no code with it. Pooled rules index
the pool table's ids, also on a subset taken from that table, which is how
these tests see that the shared pool (not a fresh one) answered.

A pool filters its nodes through bit-sliced counts, so the slice arithmetic
is checked on its own against plain per-position integers, and the pool on
tables large enough that its counts reach past one byte, and on more than
256 literals, where its tree codes no longer fit in a byte.
"""

import gc
import math
import random
import re
import tracemalloc
from array import array
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpqca import (
    AnalysisParams,
    CandidatePool,
    Case,
    CaseTable,
    ExperimentSpec,
    Factor,
    FactorSchema,
    InputError,
    ScpqcaError,
    as_fraction,
    binary_schema,
    candidates,
    derive_seed,
    enumerate_candidates,
    external_validity,
    generate_experiment_table,
    internal_sweep,
    parse_pathway,
    replace,
    robustness,
    solve,
    synth_schema,
)
from scpqca.model import bits_of, ids_of
from scpqca.robustness import Repetition, SweepCell, ValidityReport, classify_with_match

from conftest import brute_force_candidates, random_table


@st.composite
def pooled_runs(draw):
    """A multi-value table whose columns may leave levels unheld, a pool
    cutoff, a grid at or above it, case subsets and factor subsets."""
    nf = draw(st.integers(1, 4))
    levels = [draw(st.integers(2, 4)) for _ in range(nf)]
    schema = FactorSchema(
        factors=tuple(Factor(chr(ord("A") + j), lv) for j, lv in enumerate(levels)),
        outcome=Factor("O", 2),
    )
    n = draw(st.integers(1, 24))
    # Each column draws from a prefix of its levels, so higher levels can be absent.
    held = [draw(st.integers(1, lv)) for lv in levels]
    values = [[draw(st.integers(0, h - 1)) for h in held] for _ in range(n)]
    outcomes = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    table = CaseTable(schema, tuple(f"c{i}" for i in range(n)), values, outcomes)
    label = draw(st.integers(0, 1))
    max_order = draw(st.sampled_from([None, 1, 2, 3]))
    base_cutoff = draw(st.integers(1, 3))
    grid = draw(
        st.lists(
            st.tuples(st.fractions(Fraction(1, 10), 1, max_denominator=10), st.integers(base_cutoff, base_cutoff + 3)),
            min_size=1,
            max_size=4,
        )
    )
    subsets = draw(st.lists(st.lists(st.booleans(), min_size=n, max_size=n), max_size=3))
    factor_sets = draw(st.lists(st.sets(st.integers(0, nf - 1)), max_size=3))
    return table, label, max_order, base_cutoff, grid, subsets, factor_sets


def case_sets(rules):
    return [(r.conjunction, ids_of(r.matched_bits, r.ids), ids_of(r.positive_bits, r.ids)) for r in rules]


def values(slices, n):
    """The count each of `n` positions holds in `slices`."""
    return [sum((bits >> t & 1) << b for b, bits in enumerate(slices)) for t in range(n)]


def slices_of(counts):
    """The slices holding `counts`, position t's at index t, ending in a
    non-empty slice: the reference `values` reads back."""
    slices = [0] * max(counts, default=0).bit_length()
    for t, count in enumerate(counts):
        for b in range(count.bit_length()):
            if count >> b & 1:
                slices[b] |= 1 << t
    return slices


COUNTS = st.lists(st.integers(0, 2**17), max_size=40)
PAIRS = st.lists(st.tuples(st.integers(0, 2**17), st.integers(0, 2**17)), max_size=40)
# 0, 1, a 64-bit constant, and any other small one.
CONSTANTS = st.sampled_from([0, 1, 2**64 - 59]) | st.integers(0, 2**20)


class TestBitSlicedArithmetic:
    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 40).flatmap(lambda n: st.tuples(st.just(n), st.lists(st.integers(0, 2**n - 1)))))
    def test_count_is_how_many_bitsets_hold_each_position(self, drawn):
        n, bitsets = drawn
        assert values(candidates._count(bitsets), n) == [sum(b >> t & 1 for b in bitsets) for t in range(n)]

    @settings(max_examples=200, deadline=None)
    @given(PAIRS)
    def test_add(self, pairs):
        a, b = [x for x, _ in pairs], [y for _, y in pairs]
        total = candidates._add(slices_of(a), slices_of(b))
        assert values(total, len(pairs)) == [x + y for x, y in pairs]

    @settings(max_examples=200, deadline=None)
    @given(PAIRS)
    def test_subtract_with_borrow(self, pairs):
        a, b = slices_of([x for x, _ in pairs]), slices_of([y for _, y in pairs])
        diff, borrow = candidates._sub(a, b)
        width = max(len(a), len(b))
        assert values(diff, len(pairs)) == [(x - y) % 2**width for x, y in pairs]
        assert borrow == sum(1 << t for t, (x, y) in enumerate(pairs) if x < y)

    @settings(max_examples=200, deadline=None)
    @given(COUNTS, CONSTANTS)
    def test_scale(self, counts, k):
        scaled = candidates._scale(slices_of(counts), k)
        assert values(scaled, len(counts)) == [k * x for x in counts]

    @settings(max_examples=100, deadline=None)
    @given(COUNTS, CONSTANTS, CONSTANTS)
    def test_a_filter_is_the_borrow_of_scaled_counts(self, counts, den, num):
        # den * p < num * m, as the pool tests consistency, with p the count
        # and m the count plus its position.
        positives, matched = counts, [x + t for t, x in enumerate(counts)]
        p, m = slices_of(positives), slices_of(matched)
        failing = candidates._sub(candidates._scale(p, den), candidates._scale(m, num))[1]
        assert failing == sum(1 << t for t, (x, y) in enumerate(zip(positives, matched)) if den * x < num * y)


@st.composite
def plane_crossing_runs(draw):
    """A table of 256-600 cases whose counts reach past one byte, a
    threshold with a large denominator or 20 decimal digits, and subsets
    that drop no case, one case, and all cases but one."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    levels = [rng.randint(2, 3) for _ in range(rng.randint(1, 3))]
    schema = FactorSchema(
        factors=tuple(Factor(chr(ord("A") + j), lv) for j, lv in enumerate(levels)),
        outcome=Factor("O", 2),
    )
    n = rng.randint(256, 600)
    share = rng.random()
    rows = [[rng.randrange(lv) for lv in levels] for _ in range(n)]
    for i in rng.sample(range(n), 256):  # A=0 matches at least 256 cases
        rows[i][0] = 0
    table = CaseTable(schema, tuple(f"c{i}" for i in range(n)), rows, [int(rng.random() < share) for _ in range(n)])
    threshold = draw(
        st.fractions(Fraction(1, 10**6), 1, max_denominator=10**6)
        | st.sampled_from(["0.66666666666666666667", "0.12345678901234567891", "0.99999999999999999999"])
    )
    base_cutoff = draw(st.integers(1, 3))
    cutoff = draw(st.sampled_from([base_cutoff, base_cutoff + 1, 255, 256, 300]))
    one = rng.randrange(n)
    subsets = [list(range(n)), [i for i in range(n) if i != one], [one]]
    return table, base_cutoff, AnalysisParams(1, threshold, cutoff=cutoff), subsets


class TestPoolAgainstWalk:
    @settings(max_examples=300, deadline=None)
    @given(pooled_runs())
    def test_pooled_candidates_equal_the_walk(self, drawn):
        table, label, max_order, base_cutoff, grid, subsets, factor_sets = drawn
        everything = tuple(range(len(table.schema.factors)))
        pool = CandidatePool(base_cutoff)
        # The first call builds the pool over the full table and factor set.
        first = AnalysisParams(label, grid[0][0], cutoff=grid[0][1], max_order=max_order)
        enumerate_candidates(table, everything, first, pool=pool)

        # The pool keeps the nodes with at least ceil(t * c) positives, t the
        # first call's consistency and c its own cutoff; a call below that
        # floor walks its own table.
        floor = math.ceil(grid[0][0] * base_cutoff)
        tables = [table] + [table.take([i for i, kept in enumerate(mask) if kept]) for mask in subsets]
        for consistency, cutoff in grid:
            params = AnalysisParams(label, consistency, cutoff=cutoff, max_order=max_order)
            answered = math.ceil(consistency * cutoff) >= floor
            for sub in tables:
                for factors in [everything, *factor_sets]:
                    pooled = enumerate_candidates(sub, factors, params, pool=pool)
                    plain = enumerate_candidates(sub, factors, params)
                    assert case_sets(pooled) == case_sets(plain)
                    assert [r.conjunction for r in plain] == brute_force_candidates(sub, factors, params)
                    assert all(r.ids is (table.ids if answered else sub.ids) for r in pooled)
                    if sub is table:
                        assert pooled == plain

    @settings(max_examples=150, deadline=None)
    @given(pooled_runs(), st.fractions(Fraction(1, 10), 1, max_denominator=10))
    def test_consistency_floor_on_the_own_table(self, drawn, floor):
        # A floored pool answers its own table at or above the floor, and
        # walks for a subset or a looser consistency.
        table, label, max_order, base_cutoff, grid, subsets, factor_sets = drawn
        everything = tuple(range(len(table.schema.factors)))
        pool = CandidatePool(base_cutoff, floor)
        tables = [table] + [table.take([i for i, kept in enumerate(mask) if kept]) for mask in subsets]
        for consistency, cutoff in grid:
            params = AnalysisParams(label, consistency, cutoff=cutoff, max_order=max_order)
            for sub in tables:
                for factors in [everything, *factor_sets]:
                    pooled = enumerate_candidates(sub, factors, params, pool=pool)
                    plain = enumerate_candidates(sub, factors, params)
                    assert case_sets(pooled) == case_sets(plain)
                    assert [r.conjunction for r in plain] == brute_force_candidates(sub, factors, params)
                    assert all(r.ids is sub.ids for r in pooled)

    @settings(max_examples=100, deadline=None)
    @given(pooled_runs())
    def test_selections_hold_the_pool_positives_under_keep(self, drawn):
        table, label, max_order, base_cutoff, grid, subsets, factor_sets = drawn
        everything = tuple(range(len(table.schema.factors)))
        pool = CandidatePool(base_cutoff)
        consistency, cutoff = grid[0]
        params = AnalysisParams(label, consistency, cutoff=cutoff, max_order=max_order)
        for sub in [table] + [table.take([i for i, kept in enumerate(mask) if kept]) for mask in subsets]:
            got = enumerate_candidates(sub, everything, params, pool=pool)
            assert got.positives == table.positive_bits(label) & bits_of(sub.ids, table.ids)
            assert all(r.positive_bits == r.matched_bits & got.positives for r in got)

    @settings(max_examples=25, deadline=None)
    @given(plane_crossing_runs())
    def test_counts_past_one_byte(self, drawn):
        table, base_cutoff, params, subsets = drawn
        everything = tuple(range(len(table.schema.factors)))
        pool = CandidatePool(base_cutoff)
        enumerate_candidates(table, everything, replace(params, cutoff=base_cutoff), pool=pool)
        nodes = pool._nodes
        assert max(map(int.bit_count, nodes.matched_bits)) > 255
        # The counts the pool built from its case node sets are the popcounts.
        assert values(pool._matched, len(nodes)) == [bits.bit_count() for bits in nodes.matched_bits]
        assert values(pool._positive, len(nodes)) == [(bits & nodes.positives).bit_count() for bits in nodes.matched_bits]
        for sub in [table, *(table.take(kept) for kept in subsets)]:
            for factors in [everything, everything[1:]]:
                pooled = enumerate_candidates(sub, factors, params, pool=pool)
                assert case_sets(pooled) == case_sets(enumerate_candidates(sub, factors, params))
                assert pooled.ids is table.ids

    @settings(max_examples=100, deadline=None)
    @given(pooled_runs(), st.sampled_from([1, 2, 3, 4096]))
    def test_case_nodes_are_the_nodes_matching_the_case(self, drawn, chunk):
        # The literal index reads the nodes in chunks; small ones split every
        # run. The pool's build makes the index, with its nodes.
        table, label, max_order, base_cutoff, grid, _, _ = drawn
        pool = CandidatePool(base_cutoff)
        params = AnalysisParams(label, grid[0][0], cutoff=grid[0][1], max_order=max_order)
        with mock.patch.object(candidates, "_CHUNK", chunk):
            enumerate_candidates(table, range(len(table.schema.factors)), params, pool=pool)
        matched = pool._nodes.matched_bits
        for case in range(len(table)):
            assert pool._case_nodes(case) == sum(1 << t for t, bits in enumerate(matched) if bits >> case & 1)

    def test_tree_codes_past_one_byte(self):
        # 305 literals: the tree's codes are an "I" array, and so is each
        # column the node index packs.
        rng = random.Random(39)
        schema = FactorSchema(factors=(Factor("A", 300), Factor("B", 2), Factor("C", 3)), outcome=Factor("O", 2))
        rows = [[i % 300, rng.randrange(2), rng.randrange(3)] for i in range(700)]
        table = CaseTable(schema, tuple(f"c{i}" for i in range(700)), rows, [rng.randrange(2) for _ in range(700)])
        pool, params = CandidatePool(1), AnalysisParams(1, "0.5", cutoff=1)
        assert enumerate_candidates(table, range(3), params, pool=pool) == enumerate_candidates(table, range(3), params)
        assert isinstance(pool._nodes._tree.codes, array)
        matched = pool._nodes.matched_bits
        for case in range(len(table)):
            assert pool._case_nodes(case) == sum(1 << t for t, bits in enumerate(matched) if bits >> case & 1)
        sub = table.take([i for i in range(len(table)) if i % 10])
        pooled = enumerate_candidates(sub, range(3), params, pool=pool)
        assert pooled.ids is table.ids
        assert case_sets(pooled) == case_sets(enumerate_candidates(sub, range(3), params))

    def test_node_sets_are_built_for_the_dropped_cases_only(self, monkeypatch, remote_table):
        built, case_nodes = [], candidates._nodes_matching

        def counted(index, every, case):
            built.append(case)
            return case_nodes(index, every, case)

        monkeypatch.setattr(candidates, "_nodes_matching", counted)
        pool = CandidatePool(1)
        params = AnalysisParams(1, "0.7", cutoff=1)
        n = len(remote_table)
        # The first call builds the pool, whose counts take each case's node set once.
        enumerate_candidates(remote_table, range(7), params, pool=pool)
        assert sorted(built) == list(range(n))
        built.clear()
        for call in [params, replace(params, cutoff=2), replace(params, consistency_threshold="0.9")]:
            enumerate_candidates(remote_table, range(7), call, pool=pool)
        enumerate_candidates(remote_table, range(1, 7), params, pool=pool)  # own table, a narrower factor set
        assert built == []
        for dropped in [[0], [2, 5], list(range(1, n))]:
            built.clear()
            sub = remote_table.take([i for i in range(n) if i not in dropped])
            got = enumerate_candidates(sub, range(7), params, pool=pool)
            assert sorted(built) == dropped
            assert case_sets(got) == case_sets(enumerate_candidates(sub, range(7), params))

    def test_own_table_calls_share_one_walk(self, monkeypatch, remote_table):
        walks, walk = [], candidates._walk

        def counted(*args):
            walks.append(args[3])  # the walk's cutoff
            return walk(*args)

        monkeypatch.setattr(candidates, "_walk", counted)
        pool = CandidatePool(2)
        loose = enumerate_candidates(remote_table, range(7), AnalysisParams(1, "0.7", cutoff=2), pool=pool)
        tight = enumerate_candidates(remote_table, range(7), AnalysisParams(1, "0.8", cutoff=4), pool=pool)
        assert walks == [2]
        assert tight and {r.conjunction.literals for r in tight} <= {r.conjunction.literals for r in loose}
        assert tight.ids is loose.ids is remote_table.ids

    def test_unanswerable_calls_walk(self, remote_table):
        pool = CandidatePool(3)
        params = AnalysisParams(1, "0.8", cutoff=3, max_order=3)
        enumerate_candidates(remote_table, range(1, 7), params, pool=pool)
        other = load_other(remote_table)
        for table, factors, call in [
            (remote_table, range(7), params),  # a factor outside the pool's
            (remote_table, range(7), replace(params, cutoff=2)),  # below the pool's cutoff
            (remote_table, range(1, 7), replace(params, max_order=2)),
            (remote_table, range(1, 7), replace(params, decision_label=0)),
            (other, range(1, 7), params),  # same ids, other values
        ]:
            got = enumerate_candidates(table, factors, call, pool=pool)
            assert case_sets(got) == case_sets(enumerate_candidates(table, factors, call))
            assert all(r.ids is table.ids for r in got)

    def test_a_call_below_the_floor_walks(self, monkeypatch):
        # The first call sets the pool's positive floor, ceil(0.8 * 2) = 2. A
        # later call at ceil(0.4 * 2) = 1 keeps rules with one positive,
        # which the pool does not hold: it walks the subset, and gets the
        # walk's rules over the subset's ids. A call at the floor is answered.
        schema = synth_schema(5)
        table = generate_experiment_table(ExperimentSpec(schema, parse_pathway("ab+CD", schema), 40, 0, 1))
        walks, walk = [], candidates._walk

        def counted(*args):
            walks.append(args[0])  # the walked table
            return walk(*args)

        pool = CandidatePool(2)
        enumerate_candidates(table, range(5), AnalysisParams(1, "0.8", cutoff=2), pool=pool)
        sub = table.take([i for i in range(len(table)) if i % 8])
        monkeypatch.setattr(candidates, "_walk", counted)
        below = AnalysisParams(1, "0.4", cutoff=2)
        got = enumerate_candidates(sub, range(5), below, pool=pool)
        assert walks == [sub]
        assert got == enumerate_candidates(sub, range(5), below) and all(r.ids is sub.ids for r in got)
        assert any(r.positive_bits.bit_count() < 2 for r in got)
        walks.clear()
        at = enumerate_candidates(sub, range(5), AnalysisParams(1, "0.5", cutoff=4), pool=pool)
        assert walks == [] and at and all(r.ids is table.ids for r in at)

    def test_only_a_take_of_the_pool_table_is_answered(self, remote_table):
        pool = CandidatePool(3)
        params = AnalysisParams(1, "0.8", cutoff=3, max_order=3)
        enumerate_candidates(remote_table, range(1, 7), params, pool=pool)
        kept = [i for i in range(len(remote_table)) if i % 4]
        taken = remote_table.take(kept)
        equal = CaseTable(taken.schema, taken.ids, taken.values, taken.outcomes)  # the same cases, built anew
        again = taken.take(range(len(taken)))  # taken from a take, not from the pool's table
        assert equal == taken == again
        plain = case_sets(enumerate_candidates(taken, range(1, 7), params))
        for table, ids in [(taken, remote_table.ids), (equal, equal.ids), (again, again.ids)]:
            got = enumerate_candidates(table, range(1, 7), params, pool=pool)
            assert case_sets(got) == plain
            assert all(r.ids is ids for r in got)

    def test_a_take_keeps_no_table_alive(self, remote_table):
        source = CaseTable(remote_table.schema, remote_table.ids, remote_table.values, remote_table.outcomes)
        taken = source.take([0, 1, 2])
        assert taken._taken_from() is source
        del source
        gc.collect()
        assert taken._taken_from() is None

    def test_pool_cutoff_validated(self):
        with pytest.raises(InputError, match="cutoff must be >= 1, got 0"):
            CandidatePool(0)
        with pytest.raises(InputError, match="cutoff must be an integer, got 1.5"):
            CandidatePool(1.5)


class TestPoolMemory:
    # 20 binary factors, 200 cases, max_order 4, no consistency floor: the
    # pool keeps the 86 570 of the 87 440 nodes meeting the cutoff whose
    # positives reach the first call's floor, ceil(0.8 * 2). Its node index reads
    # the nodes' literals up their tree a chunk at a time (`_literal_nodes`),
    # so the first selection, which walks and builds the index, peaks near
    # what the pool and the selection retain: 1.01 times (9.94 against 9.85
    # MiB), against 1.04 (10.22 MiB) with every node read in one chunk. With
    # a literal tuple per node it peaked at 1.01 times (12.64 against 12.54
    # MiB), and at 1.20 with every run of equal-length nodes read at once.
    def test_first_selection_peaks_near_what_it_retains(self):
        schema = synth_schema(20)
        table = generate_experiment_table(ExperimentSpec(schema, parse_pathway("ab+CD+ace+BDF", schema), 200, 0, 1))
        for j in range(20):  # the table's bitset caches stay out of the figures
            table.literal_bits(j, 0), table.literal_bits(j, 1)
        table.positive_bits(1)
        pool, params = CandidatePool(2), AnalysisParams(1, "0.8", cutoff=2, max_order=4)
        tracing = tracemalloc.is_tracing()  # if so, only the call is measured, and tracing stays on
        if not tracing:
            tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rules = enumerate_candidates(table, range(20), params, pool=pool)
            after, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        retained, peak = after - before, peak - before
        assert len(pool._nodes) == 86_570 and rules
        assert peak < 1.10 * retained, f"peak {peak / retained:.3f} times the retained {retained} bytes"


def load_other(table: CaseTable) -> CaseTable:
    """`table` with the first case's outcome flipped: same ids, not a subset."""
    outcomes = list(table.outcomes)
    outcomes[0] = 1 - outcomes[0]
    return CaseTable(table.schema, table.ids, table.values, outcomes)


def plain_sweep(table, grid, base):
    cells = []
    for consistency, cutoff, unique in grid:
        point = (as_fraction(consistency), cutoff, unique)
        try:
            params = replace(base, consistency_threshold=consistency, cutoff=cutoff, unique_cover=unique)
            result = solve(table, params)
            cells.append(SweepCell(*point, result, len(result.candidates)))
        except ScpqcaError as exc:
            cells.append(SweepCell(*point, None, 0, error=str(exc)))
    return cells


def plain_external_validity(table, params, fraction, reps, seed):
    originals = solve(table, params).solution.configurations()
    n = len(table)
    k = math.ceil(as_fraction(fraction) * n)
    repetitions = []
    for rep in range(reps):
        removed = sorted(random.Random(derive_seed(seed, rep)).sample(range(n), k))
        dropped = set(removed)
        sub = table.take([i for i in range(n) if i not in dropped])
        removed_ids = tuple(table.ids[i] for i in removed)
        try:
            result = solve(sub, params)
        except ScpqcaError as exc:
            repetitions.append(Repetition(removed_ids, (), (), degenerate=True, error=str(exc)))
            continue
        configs = result.solution.configurations()
        repetitions.append(Repetition(removed_ids, configs, tuple(classify_with_match(c, originals) for c in configs)))
    return ValidityReport(originals, tuple(repetitions), fraction, seed)


class TestHarnessesAgainstPlainSolves:
    @pytest.mark.parametrize("seed", range(16))
    def test_sweep_equals_a_loop_of_solves(self, seed):
        rng = random.Random(7000 + seed)
        table = random_table(rng, max_factors=5, max_levels=3, max_cases=30)
        base = AnalysisParams(decision_label=int(table.outcomes[0]), max_order=rng.choice([None, 2, 3]))
        grid = [
            (rng.choice(["0", "0.5", "0.7", "0.8", "1", "1.5"]), rng.randint(0, 4), rng.randint(0, 3))
            for _ in range(rng.randint(1, 8))
        ]
        assert internal_sweep(table, grid, base) == plain_sweep(table, grid, base)

    @settings(max_examples=200, deadline=None)
    @given(pooled_runs(), st.data())
    def test_a_sweep_over_repeated_keys_equals_pool_free_solves(self, drawn, data):
        # Every (consistency, cutoff) pair comes back with unique covers that
        # rise, fall or repeat, in any order. A repeat reuses its selection
        # and its greedy run, and must still give what a fresh solve gives:
        # solution, candidate count, warnings or error text.
        table, label, max_order, _, pairs, _, _ = drawn
        covers = st.lists(st.integers(1, 3), min_size=2, max_size=4)
        grid = data.draw(st.permutations([(c, k, u) for c, k in pairs for u in data.draw(covers)]))
        base = AnalysisParams(label, max_order=max_order)
        assert internal_sweep(table, grid, base) == plain_sweep(table, grid, base)

    @pytest.mark.parametrize("seed", range(16))
    def test_jackknife_equals_a_loop_of_solves(self, seed):
        rng = random.Random(8000 + seed)
        table = random_table(rng, max_factors=5, max_levels=3, max_cases=30)
        while len(table) < 4:
            table = random_table(rng, max_factors=5, max_levels=3, max_cases=30)
        params = AnalysisParams(
            decision_label=int(table.outcomes[0]),
            consistency_threshold=rng.choice(["0.6", "0.8"]),
            cutoff=rng.randint(1, 3),
            unique_cover=rng.randint(1, 2),
            necessity_threshold=rng.choice(["0.7", "0.9"]),
        )
        fraction = rng.choice([0.1, 0.25, 0.5])
        try:
            want = plain_external_validity(table, params, fraction, 6, seed)
        except ScpqcaError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                external_validity(table, params, fraction=fraction, reps=6, seed=seed)
            return
        assert external_validity(table, params, fraction=fraction, reps=6, seed=seed) == want

    def test_jackknife_rep_that_loses_a_necessary_literal(self, monkeypatch):
        # A=1 holds for 4 of the 5 positives: 4/5 > 0.75 makes it necessary on
        # the full table, so the pool is walked over B and C only. A rep that
        # drops one of those four leaves 3/4, not above 0.75, so its factor
        # set takes A back and it selects from a pool of its own.
        rows = [
            (1, 1, 0, 1), (1, 1, 1, 1), (1, 0, 0, 1), (1, 0, 1, 1), (0, 1, 1, 1),
            (0, 0, 0, 0), (0, 0, 1, 0), (1, 0, 0, 0), (1, 0, 1, 0), (0, 0, 1, 0),
            (0, 0, 0, 0), (1, 0, 1, 0), (0, 0, 1, 0), (1, 0, 0, 0), (0, 0, 0, 0),
            (0, 1, 0, 0), (1, 0, 0, 0), (0, 0, 1, 0), (1, 0, 1, 0), (0, 0, 0, 0),
        ]
        table = CaseTable.from_cases(
            binary_schema(["A", "B", "C"]), [Case(f"c{i}", row[:3], row[3]) for i, row in enumerate(rows)]
        )
        params = AnalysisParams(decision_label=1, necessity_threshold="0.75", unique_cover=1)
        solved = []

        def recorded(sub, sub_params, *, pool=None):
            solved.append(solve(sub, sub_params, pool=pool))
            return solved[-1]

        monkeypatch.setattr(robustness, "solve", recorded)
        report = external_validity(table, params, fraction=0.1, reps=6, seed=1)
        monkeypatch.undo()
        assert report == plain_external_validity(table, params, 0.1, 6, 1)

        full, reps = solved[0], solved[1:]
        assert full.factor_set == (1, 2)
        shifted = [r for r in reps if r.factor_set == (0, 1, 2)]
        assert len(shifted) == 1 and len(reps) == 6
        for result in reps:
            ids = result.table.ids if 0 in result.factor_set else table.ids
            assert result.candidates and all(r.ids is ids for r in result.candidates)


class TestSweepPoolCutoff:
    """Invalid cells fail as before and do not loosen the shared pool."""

    def record_pools(self, monkeypatch):
        made = []

        class Recorded(CandidatePool):
            def __init__(self, cutoff, consistency=None):
                super().__init__(cutoff, consistency)
                made.append((cutoff, consistency))

        monkeypatch.setattr(robustness, "CandidatePool", Recorded)
        return made

    def test_invalid_cells_do_not_set_the_pool_cutoff(self, monkeypatch, remote_table):
        made = self.record_pools(monkeypatch)
        base = AnalysisParams(decision_label=1)
        grid = [("0.8", 0, 2), ("0", 1, 2), ("1.5", 2, 2), ("0.8", 2.5, 2), ("0.8", 4, 2), ("0.7", 3, 1)]
        cells = internal_sweep(remote_table, grid, base)
        assert made == [(3, Fraction(7, 10))]
        assert [c.error for c in cells[:4]] == [
            "cutoff must be >= 1, got 0",
            "consistency threshold must be in (0,1], got 0",
            "consistency threshold must be in (0,1], got 3/2",
            "cutoff must be an integer, got 2.5",
        ]
        assert cells == plain_sweep(remote_table, grid, base)

    def test_no_valid_cell_gives_cutoff_one(self, monkeypatch, m1_table):
        made = self.record_pools(monkeypatch)
        cells = internal_sweep(m1_table, [("0", 5, 1), ("0.8", 0, 1)], AnalysisParams(decision_label=1))
        assert made == [(1, None)]
        assert all(c.result is None for c in cells)
