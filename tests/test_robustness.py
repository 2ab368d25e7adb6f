import pytest

from scpqca import (
    AnalysisParams,
    Case,
    CaseTable,
    Conjunction,
    ExperimentSpec,
    InputError,
    ValidityClass,
    binary_schema,
    classify_configuration,
    derive_seed,
    external_validity,
    generate_experiment_table,
    internal_sweep,
    parse_pathway,
    synth_schema,
)
from scpqca.robustness import classify_with_match


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

    def test_empty_grid_rejected(self, m1_table):
        with pytest.raises(InputError):
            internal_sweep(m1_table, [], AnalysisParams(decision_label=1))

    @pytest.mark.parametrize("point", [(0.8, 4), (0.8, 4, 2, 1), "0.8", 0.8])
    def test_grid_entry_must_be_a_triple(self, m1_table, point):
        with pytest.raises(InputError, match="must be a \\(consistency, cutoff, unique_cover\\) triple"):
            internal_sweep(m1_table, [("0.8", 2, 1), point], AnalysisParams(decision_label=1))


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
        params = AnalysisParams(decision_label=1, cutoff=cutoff)
        with pytest.raises(InputError, match=f"cutoff must be an integer, got {cutoff!r}"):
            external_validity(m1_table, params)

    def test_non_integer_reps_rejected(self, m1_table):
        with pytest.raises(InputError, match="reps must be an integer, got 2.5"):
            external_validity(m1_table, AnalysisParams(decision_label=1), reps=2.5)

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
