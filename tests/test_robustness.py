from fractions import Fraction

import pytest

from scpqca import (
    AnalysisParams,
    Case,
    CaseTable,
    Conjunction,
    ExperimentSpec,
    InputError,
    ValidityClass,
    ValidityReport,
    binary_schema,
    classify_configuration,
    derive_seed,
    external_validity,
    generate_experiment_table,
    internal_sweep,
    parse_pathway,
    synth_schema,
)
from scpqca import robustness
from scpqca.robustness import MAX_REPS, Repetition, check_reps, classify_with_match


class TestClassify:
    def test_exact_match_is_replicated(self):
        orig = [Conjunction.of((0, 1), (1, 1)), Conjunction.of((2, 0))]
        assert classify_configuration(Conjunction.of((0, 1), (1, 1)), orig) is ValidityClass.REPLICATED

    def test_missing_factor_is_superset(self):
        orig = [Conjunction.of((0, 1), (1, 0))]
        assert classify_configuration(Conjunction.of((0, 1)), orig) is ValidityClass.SUPERSET

    def test_additional_factor_is_subset(self):
        orig = [Conjunction.of((0, 1), (1, 0))]
        test = Conjunction.of((0, 1), (1, 0), (2, 0))
        assert classify_configuration(test, orig) is ValidityClass.SUBSET

    def test_unrelated_is_not_identified(self):
        orig = [Conjunction.of((0, 1), (1, 0))]
        assert classify_configuration(Conjunction.of((2, 1)), orig) is ValidityClass.NOT_IDENTIFIED
        # same factor, different value: no containment either
        assert classify_configuration(Conjunction.of((0, 0)), orig) is ValidityClass.NOT_IDENTIFIED

    def test_precedence_replicated_over_superset_over_subset(self):
        originals = [Conjunction.of((0, 1), (1, 1)), Conjunction.of((0, 1))]
        # equals the second and is a subset of the first: replicated wins
        cls, match = classify_with_match(Conjunction.of((0, 1)), originals)
        assert cls is ValidityClass.REPLICATED and match == 1
        # proper subset of first, proper superset of second -> superset wins
        originals2 = [Conjunction.of((0, 1), (1, 1), (2, 1)), Conjunction.of((0, 1))]
        cls, match = classify_with_match(Conjunction.of((0, 1), (1, 1)), originals2)
        assert cls is ValidityClass.SUPERSET and match == 0


class TestInternalSweep:
    def test_consistency_direction_on_remote_fixture(self, remote_table):
        base = AnalysisParams(decision_label=1, cutoff=4)
        grid = [("0.8", 4, 2), ("0.75", 4, 2), ("0.7", 4, 2)]
        cells = internal_sweep(remote_table, grid, base)
        counts = [c.candidate_count for c in cells]
        assert counts == sorted(counts)  # lowering the threshold never removes rules

    def test_cutoff_direction_on_remote_fixture(self, remote_table):
        base = AnalysisParams(decision_label=1)
        grid = [("0.8", k, 2) for k in (2, 3, 4, 5)]
        cells = internal_sweep(remote_table, grid, base)
        counts = [c.candidate_count for c in cells]
        assert counts == sorted(counts, reverse=True)

    def test_single_point_equals_plain_solve(self, m1_table):
        from scpqca import solve

        base = AnalysisParams(decision_label=1, unique_cover=1)
        cells = internal_sweep(m1_table, [("0.8", 2, 1)], base)
        assert len(cells) == 1
        direct = solve(m1_table, AnalysisParams(decision_label=1, consistency_threshold="0.8",
                                                cutoff=2, unique_cover=1))
        assert cells[0].result.solution == direct.solution

    def test_failed_cell_recorded_and_sweep_continues(self):
        schema = binary_schema(["A"])
        # no positive cases: every cell fails but the sweep completes
        t = CaseTable.from_cases(schema, [Case("a", (0,), 0), Case("b", (1,), 0)])
        cells = internal_sweep(t, [("0.8", 1, 1), ("0.7", 1, 1)], AnalysisParams(decision_label=1))
        assert len(cells) == 2
        assert all(c.result is None and c.error for c in cells)

    def test_cells_that_share_a_key_share_their_candidates(self, remote_table):
        grid = [("0.8", 2, 1), ("0.8", 2, 2), ("0.7", 2, 1), ("0.8", 2, 1), ("0.8", 3, 2)]
        held = [cell.result.candidates for cell in internal_sweep(remote_table, grid, AnalysisParams(decision_label=1))]
        assert held[0] is held[1] is held[3]
        assert len({id(candidates) for candidates in held}) == 3

    def test_empty_grid_rejected(self, m1_table):
        with pytest.raises(InputError):
            internal_sweep(m1_table, [], AnalysisParams(decision_label=1))

    @pytest.mark.parametrize("point", [(0.8, 4), (0.8, 4, 2, 1), "0.8", 0.8])
    def test_grid_entry_must_be_a_triple(self, m1_table, point):
        with pytest.raises(InputError, match="must be a \\(consistency, cutoff, unique_cover\\) triple"):
            internal_sweep(m1_table, [("0.8", 2, 1), point], AnalysisParams(decision_label=1))


    def test_grid_rule(self, monkeypatch, remote_table):
        # A consistency that is not a ratio stops the sweep before any solve;
        # an out-of-range or non-integer value fails only its own cell.
        from scpqca import robustness

        solves = []
        real_solve = robustness.solve
        monkeypatch.setattr(robustness, "solve", lambda *a, **k: solves.append(a) or real_solve(*a, **k))
        base = AnalysisParams(decision_label=1)
        with pytest.raises(InputError, match="not a valid ratio: 'abc'"):
            internal_sweep(remote_table, [("0.8", 4, 2), ("abc", 4, 2)], base)
        assert solves == []
        grid = [("1.5", 4, 2), ("0.8", 2.5, 2), ("0.8", 4, 0), ("0.8", 4, "2"), (0.8, 4, 2)]
        cells = internal_sweep(remote_table, grid, base)
        assert [c.error for c in cells] == [
            "consistency threshold must be in (0,1], got 3/2",
            "cutoff must be an integer, got 2.5",
            "unique_cover must be >= 1, got 0",
            "unique_cover must be an integer, got '2'",
            None,
        ]
        assert [(c.consistency_threshold, c.cutoff, c.unique_cover) for c in cells] == [
            (Fraction(3, 2), 4, 2), (Fraction(4, 5), 2.5, 2), (Fraction(4, 5), 4, 0),
            (Fraction(4, 5), 4, "2"), (Fraction(4, 5), 4, 2),
        ]
        assert len(solves) == 1 and cells[-1].result.params.cutoff == 4

    @pytest.mark.parametrize(
        "consistency, echo",
        [("1e999", "'1e999'"), ("-1e999", "'-1e999'"), ("0" * 35 + "1e999", f"'{'0' * 35}1e999'"),
         ("0" * 36 + "1e999", "'000000000000...'"), (Fraction(10**400), "'100000000000...'"),
         # past the interpreter's 4300-digit limit on int-to-str conversion
         pytest.param(10**5000, "'100000000000...'", id="int-5001-digits"),
         pytest.param(Fraction(10**5000), "'100000000000...'", id="fraction-5001-digits"),
         pytest.param(Fraction(-(10**5000), 3), "'-10000000000...'", id="negative-fraction-5001-digits")],
    )
    def test_consistency_beyond_the_float_range_stops_the_sweep(self, monkeypatch, remote_table, consistency, echo):
        # A cell's row shows its consistency as a float, so one too large for
        # a float is refused before any solve, named as given, cut when long.
        from scpqca import robustness

        solves = []
        monkeypatch.setattr(robustness, "solve", lambda *a, **k: solves.append(a))
        with pytest.raises(InputError) as exc:
            internal_sweep(remote_table, [("0.8", 4, 2), (consistency, 4, 2)], AnalysisParams(decision_label=1))
        assert str(exc.value) == f"consistency too large for a float: {echo}"
        assert solves == []


class TestDeriveSeed:
    def test_stable_values(self):
        assert derive_seed(0, 0) != derive_seed(0, 1)
        # frozen: platform-independent sha256 derivation
        assert derive_seed(42, 0) == 6085284259181818738
        assert derive_seed(0, 0) == 12426054289685354689


def _clean_table() -> CaseTable:
    schema = synth_schema(6)
    pathway = parse_pathway("ab+CD+ace+BDF", schema)
    return generate_experiment_table(ExperimentSpec(schema, pathway, 200, 0, seed=20))


class TestValidityReport:
    ORIGINALS = (Conjunction.of((0, 1)), Conjunction.of((1, 1)))

    def test_a_not_identified_configuration_counts_for_no_original(self):
        test = Conjunction.of((2, 1))
        classes = tuple(classify_with_match(c, self.ORIGINALS) for c in (test, self.ORIGINALS[1]))
        assert classes == ((ValidityClass.NOT_IDENTIFIED, None), (ValidityClass.REPLICATED, 1))
        rep = Repetition(("a",), (test, self.ORIGINALS[1]), classes)
        report = ValidityReport(self.ORIGINALS, (rep, rep), 0.1, 0)
        tallies = report.per_original_tallies()
        assert [sum(t.values()) for t in tallies] == [0, 2]
        assert tallies[1][ValidityClass.REPLICATED] == 2
        assert report.overall_accuracy() == Fraction(1, 2)

    def test_no_configuration_gives_zero_accuracy(self):
        degenerate = Repetition(("a",), (), (), degenerate=True, error="no cases with outcome 1")
        for repetitions in ((), (degenerate,)):
            report = ValidityReport(self.ORIGINALS, repetitions, 0.1, 0)
            assert report.overall_accuracy() == Fraction(0)
            assert report.per_original_accuracy() == [Fraction(0), Fraction(0)]


class TestExternalValidity:
    def test_deterministic(self):
        table = _clean_table()
        params = AnalysisParams(decision_label=1)
        a = external_validity(table, params, fraction=0.1, reps=3, seed=5)
        b = external_validity(table, params, fraction=0.1, reps=3, seed=5)
        assert a == b

    def test_report_shape_and_ranges(self):
        table = _clean_table()
        params = AnalysisParams(decision_label=1)
        report = external_validity(table, params, fraction=0.1, reps=4, seed=5)
        assert len(report.repetitions) == 4
        for rep in report.repetitions:
            assert len(rep.removed_ids) == 20  # ceil(0.1 * 200)
            assert len(rep.classes) == len(rep.configurations)
        for acc in report.per_original_accuracy():
            assert 0 <= acc <= 1
        assert 0 <= report.overall_accuracy() <= 1
        totals = report.class_totals()
        assert sum(totals.values()) == sum(len(r.classes) for r in report.repetitions)

    @pytest.mark.parametrize("fraction, removed", [(0.07, 7), (0.28, 28)])
    def test_removed_count_uses_the_exact_fraction(self, fraction, removed):
        # 0.07 * 100 and 0.28 * 100 are just above 7 and 28 in floats, so
        # rounding the float product up would remove one case too many.
        table = generate_experiment_table(
            ExperimentSpec(synth_schema(6), parse_pathway("ab+CD+ace+BDF", synth_schema(6)), 100, 0, seed=20)
        )
        report = external_validity(table, AnalysisParams(decision_label=1), fraction=fraction, reps=2, seed=5)
        assert [len(rep.removed_ids) for rep in report.repetitions] == [removed, removed]

    def test_fraction_validated(self, m1_table):
        params = AnalysisParams(decision_label=1)
        for bad in (0.0, 1.0, "1.5", "0", "x"):
            with pytest.raises(InputError):
                external_validity(m1_table, params, fraction=bad)

    @pytest.mark.parametrize("cutoff", [2.5, "2"])
    def test_non_integer_cutoff_rejected(self, m1_table, cutoff):
        with pytest.raises(InputError, match=f"cutoff must be an integer, got {cutoff!r}"):
            external_validity(m1_table, AnalysisParams(decision_label=1, cutoff=cutoff))

    def test_non_integer_reps_rejected(self, m1_table):
        with pytest.raises(InputError, match="reps must be an integer, got 2.5"):
            external_validity(m1_table, AnalysisParams(decision_label=1), reps=2.5)

    @pytest.mark.parametrize(
        "reps, message",
        [(0, "reps must be >= 1, got 0"),
         (-(10**3000), "reps must be >= 1, got -10000000000..."),
         (MAX_REPS + 1, "reps must be <= 100000, got 100001"),
         (10**60, "reps must be <= 100000, got 100000000000...")],
    )
    def test_reps_out_of_bounds_rejected_before_any_solve(self, m1_table, monkeypatch, reps, message):
        monkeypatch.setattr(robustness, "solve", None)  # a solve would raise TypeError
        with pytest.raises(InputError) as err:
            external_validity(m1_table, AnalysisParams(decision_label=1), reps=reps)
        assert str(err.value) == message

    def test_a_fraction_that_removes_every_case_is_rejected_before_any_solve(self, remote_table, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solved before the fraction was checked")

        monkeypatch.setattr(robustness, "solve", solve)
        with pytest.raises(InputError) as err:
            external_validity(remote_table, AnalysisParams(decision_label=1), fraction=0.95)
        assert str(err.value) == "removing 8 of 8 cases leaves nothing to analyse"

    def test_the_reps_bound_is_inclusive(self):
        assert check_reps(1) == 1 and check_reps(MAX_REPS) == MAX_REPS

    def test_string_fraction_read_as_its_decimal(self):
        table = _clean_table()
        params = AnalysisParams(decision_label=1)
        as_text = external_validity(table, params, fraction="0.1", reps=2, seed=5)
        assert as_text == external_validity(table, params, fraction=0.1, reps=2, seed=5)
        assert type(as_text.fraction) is float

    def test_degenerate_repetition_counted(self):
        # tiny table where dropping cases can erase all positives
        schema = binary_schema(["A", "B"])
        cases = [
            Case("p", (1, 1), 1),
            Case("n1", (0, 0), 0),
            Case("n2", (0, 1), 0),
            Case("n3", (1, 0), 0),
        ]
        t = CaseTable.from_cases(schema, cases)
        params = AnalysisParams(decision_label=1, cutoff=1, unique_cover=1)
        report = external_validity(t, params, fraction=0.25, reps=12, seed=0)
        assert len(report.repetitions) == 12
        degenerate = [r for r in report.repetitions if r.degenerate]
        assert degenerate, "at least one repetition should lose the only positive"
        for rep in degenerate:
            assert rep.configurations == ()

    def test_necessity_fold_makes_shift_visible(self):
        # full data: A=1 necessary and B=1 the rule; a test run that loses
        # necessity must not silently replicate
        orig = [Conjunction.of((0, 1), (1, 1))]
        assert classify_configuration(Conjunction.of((1, 1)), orig) is ValidityClass.SUPERSET
