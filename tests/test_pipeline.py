from fractions import Fraction

import pytest

from scpqca import (
    AnalysisParams,
    Case,
    CaseTable,
    InputError,
    Literal,
    VacuousSolutionError,
    binary_schema,
    solve,
)


class TestTwoStepPipeline:
    def test_m1_full_run(self, m1_table):
        params = AnalysisParams(decision_label=1, consistency_threshold="0.8", cutoff=2, unique_cover=1)
        result = solve(m1_table, params)
        assert result.conjoined_necessary == (Literal(0, 1),)
        assert result.factor_set == (1,)  # only B remains for enumeration
        assert result.candidates == ()
        assert result.solution.rules == ()
        assert result.solution.solution_coverage == 1
        assert result.solution.solution_consistency == Fraction(3, 4)
        assert any("below the candidate threshold" in w for w in result.warnings)

    def test_remote_fixture_excludes_necessary_factors(self, remote_table):
        params = AnalysisParams(decision_label=1, cutoff=4)
        result = solve(remote_table, params)
        necessary_factors = {l.factor_index for l in result.conjoined_necessary}
        # MS=0, LE=1 and ED=1 hold in every positive case of the fixture
        names = {remote_table.schema.factors[i].name for i in necessary_factors}
        assert names == {"MS", "LE", "ED"}
        assert all(i not in necessary_factors for i in result.factor_set)
        for rule in result.solution.rules:
            assert not any(l.factor_index in necessary_factors for l in rule.conjunction.literals)

    def test_decision_label_must_be_an_integer(self, remote_table):
        with pytest.raises(InputError, match="decision_label must be an integer, got 1.0"):
            solve(remote_table, AnalysisParams(decision_label=1.0, cutoff=4))

    def test_configurations_fold_necessary_literals(self, remote_table):
        params = AnalysisParams(decision_label=1, cutoff=4)
        result = solve(remote_table, params)
        for config in result.solution.configurations():
            literal_factors = set(config.factor_indices())
            assert {l.factor_index for l in result.conjoined_necessary} <= literal_factors

    def test_vacuous_solution_raises(self):
        schema = binary_schema(["A"])
        t = CaseTable.from_cases(
            schema,
            [Case("a", (1,), 1), Case("b", (0,), 1), Case("c", (1,), 0), Case("d", (0,), 0)],
        )
        with pytest.raises(VacuousSolutionError):
            solve(t, AnalysisParams(decision_label=1, cutoff=5))

    def test_conflicting_necessity_warns_and_keeps_factor(self):
        # both levels of A exceed a 0.4 threshold: neither is conjoined and
        # A stays available for enumeration
        schema = binary_schema(["A", "B"])
        cases = [
            Case("a", (1, 1), 1),
            Case("b", (0, 1), 1),
            Case("c", (1, 1), 1),
            Case("d", (0, 1), 1),
            Case("e", (0, 0), 0),
        ]
        t = CaseTable.from_cases(schema, cases)
        params = AnalysisParams(
            decision_label=1, necessity_threshold="0.4", cutoff=1, unique_cover=1,
            consistency_threshold="0.8",
        )
        result = solve(t, params)
        assert any("multiple levels" in w for w in result.warnings)
        assert 0 in result.factor_set
        assert all(l.factor_index != 0 for l in result.conjoined_necessary)

    def test_assume_necessary_override(self):
        schema = binary_schema(["A", "B"])
        cases = [
            Case("a", (1, 1), 1),
            Case("b", (0, 1), 1),
            Case("c", (1, 1), 1),
            Case("d", (0, 1), 1),
            Case("e", (0, 0), 0),
        ]
        t = CaseTable.from_cases(schema, cases)
        params = AnalysisParams(
            decision_label=1, necessity_threshold="0.4", cutoff=1, unique_cover=1,
            consistency_threshold="0.8", assume_necessary=(Literal(1, 1),),
        )
        result = solve(t, params)
        assert result.conjoined_necessary == (Literal(1, 1),)
        assert result.factor_set == (0,)
        assert not any("multiple levels" in w for w in result.warnings)

    def test_necessity_report_includes_unconjoined_literals(self):
        schema = binary_schema(["A", "B"])
        cases = [
            Case("a", (1, 1), 1),
            Case("b", (0, 1), 1),
            Case("c", (0, 0), 0),
        ]
        t = CaseTable.from_cases(schema, cases)
        params = AnalysisParams(decision_label=1, necessity_threshold="0.4", cutoff=1, unique_cover=1)
        result = solve(t, params)
        reported = {lit for lit, _ in result.necessity}
        assert Literal(0, 1) in reported and Literal(0, 0) in reported
        assert Literal(1, 1) in {l for l in result.conjoined_necessary}
