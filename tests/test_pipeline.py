import re
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
        assert result.solution.necessary == (Literal(0, 1),)
        assert result.factor_set == (1,)  # only B remains for enumeration
        assert result.candidates == ()
        assert result.solution.rules == ()
        assert result.solution.solution_coverage == 1
        assert result.solution.solution_consistency == Fraction(3, 4)
        assert any("below the candidate threshold" in w for w in result.warnings)

    def test_remote_fixture_excludes_necessary_factors(self, remote_table):
        params = AnalysisParams(decision_label=1, cutoff=4)
        result = solve(remote_table, params)
        necessary_factors = {l.factor_index for l in result.solution.necessary}
        # MS=0, LE=1 and ED=1 hold in every positive case of the fixture
        names = {remote_table.schema.factors[i].name for i in necessary_factors}
        assert names == {"MS", "LE", "ED"}
        assert all(i not in necessary_factors for i in result.factor_set)
        for rule in result.solution.rules:
            assert not any(l.factor_index in necessary_factors for l in rule.conjunction.literals)

    def test_decision_label_must_be_an_integer(self, remote_table):
        with pytest.raises(InputError, match="decision_label must be an integer, got 1.0"):
            solve(remote_table, AnalysisParams(decision_label=1.0, cutoff=4))

    def test_rule_matching_nothing_under_the_necessary_conditions_is_dropped(self):
        # B=1 covers b1 and b2, which the assumed A=1 excludes.
        schema = binary_schema(["A", "B"])
        t = CaseTable.from_cases(
            schema,
            [Case("a1", (1, 0), 1), Case("a2", (1, 0), 1), Case("b1", (0, 1), 1), Case("b2", (0, 1), 1),
             Case("c", (1, 0), 0)],
        )
        result = solve(t, AnalysisParams(1, cutoff=2, unique_cover=2, assume_necessary=(Literal(0, 1),)))
        assert result.warnings == (
            "rule B=1 matches no cases under the necessary conditions and was dropped",
            "solution consistency 0.6667 fell below the candidate threshold 0.8000",
        )
        assert result.solution.necessary == (Literal(0, 1),) and result.solution.rules == ()

    def test_configurations_fold_necessary_literals(self, remote_table):
        params = AnalysisParams(decision_label=1, cutoff=4)
        result = solve(remote_table, params)
        for config in result.solution.configurations():
            literal_factors = {lit.factor_index for lit in config.literals}
            assert {l.factor_index for l in result.solution.necessary} <= literal_factors

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
        assert all(l.factor_index != 0 for l in result.solution.necessary)

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
        assert result.solution.necessary == (Literal(1, 1),)
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
        assert Literal(1, 1) in {l for l in result.solution.necessary}


class TestAnalysisParams:
    def test_one_class_under_every_name(self):
        import scpqca
        from scpqca import model, pipeline

        assert scpqca.AnalysisParams is pipeline.AnalysisParams is model.AnalysisParams
        for gone in ("CandidateParams", "CoverParams"):
            assert not hasattr(scpqca, gone) and gone not in scpqca.__all__

    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"consistency_threshold": "0", "cutoff": 0, "max_order": 0, "unique_cover": 0},
             "consistency threshold must be in (0,1], got 0"),
            ({"cutoff": 0, "max_order": 0, "unique_cover": 0}, "cutoff must be >= 1, got 0"),
            ({"max_order": 0, "unique_cover": 0}, "max_order must be >= 1, got 0"),
            ({"unique_cover": 0}, "unique_cover must be >= 1, got 0"),
            ({"unique_cover": 0, "necessity_threshold": "2"}, "unique_cover must be >= 1, got 0"),
            ({"necessity_threshold": "2", "assume_necessary": (Literal(0, 0), Literal(0, 1))},
             "necessity threshold must be in (0,1], got 2"),
            ({"assume_necessary": (Literal(0, 0), Literal(0, 1))}, "conjunction assigns factor index 0 twice"),
        ],
    )
    def test_checks_run_in_order(self, fields, message):
        with pytest.raises(InputError, match=re.escape(message)):
            AnalysisParams(1, **fields)

    @pytest.mark.parametrize(
        "name, value, shown",
        [
            ("necessity", "0", "0"),
            ("necessity", "1.5", "3/2"),
            ("necessity", "1e39", "1" + "0" * 39),  # 40 characters: shown whole
            ("necessity", "1e40", "100000000000..."),
            ("necessity", "1e5000", "100000000000..."),
            ("consistency", "1e999", "100000000000..."),
            ("consistency", "-1e-5000", "-1/100000000..."),
            ("consistency", "-7/1" + "0" * 50, "-7/100000000..."),
        ],
    )
    def test_an_out_of_range_threshold_is_echoed_cut(self, name, value, shown):
        # The parsed fraction is shown whole up to 40 characters; past that,
        # its first 12 and "...", never converting all of a huge integer.
        with pytest.raises(InputError) as err:
            AnalysisParams(1, **{f"{name}_threshold": value})
        assert str(err.value) == f"{name} threshold must be in (0,1], got {shown}"

    def test_decision_label_is_read_as_an_index(self, m1_table):
        # 1.0 == 1 and hashes alike, so a cached label-1 bitset must not let
        # the float through either.
        with pytest.raises(InputError, match="decision_label must be an integer, got 1.0"):
            AnalysisParams(1.0)
        m1_table.positive_bits(1)
        with pytest.raises(InputError, match="decision_label must be an integer, got 1.0"):
            m1_table.positive_bits(1.0)

    def test_solve_checks_what_needs_the_table(self, m1_table):
        with pytest.raises(InputError, match=re.escape("necessity threshold must be in (0,1], got 2")):
            AnalysisParams(1, necessity_threshold="2")
        with pytest.raises(InputError, match=re.escape("conjunction assigns factor index 0 twice")):
            AnalysisParams(1, assume_necessary=(Literal(0, 0), Literal(0, 1)))
        params = AnalysisParams(1, assume_necessary=(Literal(9, 0),))  # m1 has two factors
        with pytest.raises(InputError, match=re.escape("factor index 9 out of range")):
            solve(m1_table, params)

    def test_an_assumed_level_out_of_range_is_refused_before_enumeration(self, monkeypatch, m1_table):
        from scpqca import pipeline

        def enumerate_candidates(*args, **kwargs):
            raise AssertionError("enumeration ran")

        monkeypatch.setattr(pipeline, "enumerate_candidates", enumerate_candidates)
        params = AnalysisParams(1, assume_necessary=(Literal(0, 5),))
        with pytest.raises(InputError) as err:
            solve(m1_table, params)
        assert str(err.value) == "value 5 out of range for factor 'A'"

    def test_no_positive_case_is_refused_before_enumeration(self, monkeypatch):
        # With nothing assumed necessary no necessity step reads the
        # positives, so solve must refuse the table before it walks the lattice.
        from scpqca import UndefinedRatioError, pipeline

        def enumerate_candidates(*args, **kwargs):
            raise AssertionError("enumeration ran")

        monkeypatch.setattr(pipeline, "enumerate_candidates", enumerate_candidates)
        table = CaseTable.from_cases(binary_schema(["A", "B"]), [Case("a", (1, 0), 0), Case("b", (0, 1), 0)])
        with pytest.raises(UndefinedRatioError) as err:
            solve(table, AnalysisParams(1, assume_necessary=()))
        assert str(err.value) == "no cases with outcome 1"

    def test_solve_passes_the_object_through_unchecked(self, monkeypatch, remote_table):
        from scpqca import pipeline

        params = AnalysisParams(decision_label=1, cutoff=4)
        seen, built = [], []
        for name in ("necessary_conditions", "enumerate_candidates", "greedy_cover", "assemble_solution"):
            real = getattr(pipeline, name)
            monkeypatch.setattr(pipeline, name, lambda *a, _real=real, **k: seen.append(a[-1]) or _real(*a, **k))
        real_check = AnalysisParams.__post_init__
        monkeypatch.setattr(AnalysisParams, "__post_init__", lambda self: built.append(self) or real_check(self))
        solve(remote_table, params)
        assert len(seen) == 4 and all(p is params for p in seen)
        assert built == []


class TestSolveReusesWhatItHolds:
    """Work counts: `solve` builds no value it already holds."""

    def test_an_assumed_necessity_runs_no_scan(self, remote_table, monkeypatch):
        from scpqca import pipeline
        from scpqca.report import render_json, solve_payload

        params = AnalysisParams(1, cutoff=4, assume_necessary=(Literal(remote_table.schema.factor_index("PI"), 1),))
        expected = solve(remote_table, params)

        def scan(*args):
            raise AssertionError("necessary_conditions called under assume_necessary")

        monkeypatch.setattr(pipeline, "necessary_conditions", scan)
        result = solve(remote_table, params)
        assert result == expected
        assert render_json(solve_payload(result)) == render_json(solve_payload(expected))
        assert result.necessity == ((Literal(2, 1), Fraction(1, 2)),)

    @pytest.mark.parametrize(
        "factors, cases",
        [
            # B=1 covers b1 and b2, which the assumed A=1 excludes: one pick, dropped.
            (["A", "B"], [("a1", (1, 0), 1), ("a2", (1, 0), 1), ("b1", (0, 1), 1), ("b2", (0, 1), 1),
                          ("c", (1, 0), 0)]),
            # A pick over p1 and p2 is kept, one over q1 and q2 dropped.
            (["A", "B", "C"], [("p1", (1, 1, 0), 1), ("p2", (1, 1, 0), 1), ("q1", (0, 0, 1), 1),
                               ("q2", (0, 0, 1), 1), ("n1", (1, 0, 0), 0), ("n2", (0, 0, 0), 0)]),
        ],
        ids=["dropped", "kept-and-dropped"],
    )
    def test_merge_runs_once_per_kept_pick(self, factors, cases, monkeypatch):
        from scpqca.model import Conjunction

        t = CaseTable.from_cases(binary_schema(factors), [Case(*c) for c in cases])
        merges = []
        merge = Conjunction.merge
        monkeypatch.setattr(Conjunction, "merge", lambda self, other: (merges.append(other), merge(self, other))[1])
        result = solve(t, AnalysisParams(1, cutoff=2, unique_cover=2, assume_necessary=(Literal(0, 1),)))
        assert any(w.endswith("was dropped") for w in result.warnings)
        assert merges == [rule.conjunction for rule in result.solution.rules]
