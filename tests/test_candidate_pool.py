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
"""

import gc
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpqca import (
    AnalysisParams,
    CandidatePool,
    Case,
    CaseTable,
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
    internal_sweep,
    replace,
    robustness,
    solve,
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

        tables = [table] + [table.take([i for i, kept in enumerate(mask) if kept]) for mask in subsets]
        for consistency, cutoff in grid:
            params = AnalysisParams(label, consistency, cutoff=cutoff, max_order=max_order)
            for sub in tables:
                for factors in [everything, *factor_sets]:
                    pooled = enumerate_candidates(sub, factors, params, pool=pool)
                    plain = enumerate_candidates(sub, factors, params)
                    assert case_sets(pooled) == case_sets(plain)
                    assert [r.conjunction for r in plain] == brute_force_candidates(sub, factors, params)
                    assert all(r.ids is table.ids for r in pooled)
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
        assert tight and set(tight.literals) <= set(loose.literals)
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
