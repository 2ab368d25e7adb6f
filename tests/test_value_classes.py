"""The contract of the package's frozen value classes.

Each class is built from a sample instance, and its equality, hash,
frozenness, `repr`, construction and `replace` are checked against the
behaviour they have always had. The reprs are pinned as text, memory
addresses masked.
"""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from scpqca import (
    AnalysisParams,
    CalibrationSpec,
    CandidateRule,
    Case,
    CaseTable,
    Conjunction,
    Cutpoints,
    ExperimentReport,
    ExperimentSpec,
    Factor,
    FactorSchema,
    InputError,
    Literal,
    PathwaySpec,
    Solution,
    SolveResult,
    binary_schema,
    replace,
    solve,
)
from scpqca.robustness import Repetition, SweepCell, ValidityClass, ValidityReport

SCHEMA = binary_schema(["A"])
SCHEMA_REPR = (
    "FactorSchema(factors=(Factor(name='A', levels=2, labels=None, cutpoints=None),), "
    "outcome=Factor(name='O', levels=2, labels=None, cutpoints=None))"
)
A1 = "Literal(factor_index=0, value=1)"
PATHWAY = PathwaySpec((Conjunction.of((0, 1)),), SCHEMA)
PATHWAY_REPR = f"PathwaySpec(terms=(Conjunction(literals=({A1},)),), schema={SCHEMA_REPR})"

# (class, field names, sample args, the count of them without a default, repr)
SAMPLES = [
    (
        AnalysisParams,
        ("decision_label", "consistency_threshold", "cutoff", "unique_cover", "necessity_threshold", "max_order",
         "assume_necessary"),
        (1, Fraction(3, 4), 3, 1, Fraction(9, 10), 2, (Literal(0, 1),)),
        1,
        "AnalysisParams(decision_label=1, consistency_threshold=Fraction(3, 4), cutoff=3, unique_cover=1, "
        f"necessity_threshold=Fraction(9, 10), max_order=2, assume_necessary=({A1},))",
    ),
    (
        Factor,
        ("name", "levels", "labels", "cutpoints"),
        ("A", 3, ("lo", "mid", "hi"), (0.5, 1.5)),
        2,
        "Factor(name='A', levels=3, labels=('lo', 'mid', 'hi'), cutpoints=(0.5, 1.5))",
    ),
    (FactorSchema, ("factors", "outcome"), ((Factor("A", 2),), Factor("O", 2)), 2, SCHEMA_REPR),
    (Case, ("id", "values", "outcome"), ("c1", (0, 1), 1), 3, "Case(id='c1', values=(0, 1), outcome=1)"),
    (
        CaseTable,
        ("schema", "ids", "values", "outcomes"),
        (SCHEMA, ("a", "b"), [[0], [1]], [1, 0]),
        4,
        f"CaseTable(schema={SCHEMA_REPR}, ids=('a', 'b'), values=<scpqca.model.Rows object at 0x...>, "
        "outcomes=<memory at 0x...>)",
    ),
    (Literal, ("factor_index", "value"), (0, 1), 2, A1),
    (
        Conjunction,
        ("literals",),
        ((Literal(1, 0), Literal(0, 1)),),
        1,
        f"Conjunction(literals=({A1}, Literal(factor_index=1, value=0)))",
    ),
    (
        CandidateRule,
        ("conjunction", "matched_bits", "positive_bits", "ids"),
        (Conjunction.of((0, 1)), 0b11, 0b01, ("a", "b")),
        4,
        f"CandidateRule(conjunction=Conjunction(literals=({A1},)))",
    ),
    (
        Solution,
        ("necessary", "rules", "decision_label", "solution_consistency", "solution_coverage",
         "per_rule_unique_coverage"),
        ((Literal(0, 1),), (CandidateRule(Conjunction.of((1, 0)), 1, 1, ("a",)),), 1, Fraction(1), Fraction(1, 2),
         (1,)),
        6,
        f"Solution(necessary=({A1},), rules=(CandidateRule(conjunction=Conjunction(literals="
        "(Literal(factor_index=1, value=0),))),), decision_label=1, solution_consistency=Fraction(1, 1), "
        "solution_coverage=Fraction(1, 2), per_rule_unique_coverage=(1,))",
    ),
    (Cutpoints, ("points",), ((0.5, 1.5),), 1, "Cutpoints(points=(0.5, 1.5))"),
    (
        CalibrationSpec,
        ("columns",),
        ({"x": Cutpoints((0.5,))},),
        0,
        "CalibrationSpec(columns={'x': Cutpoints(points=(0.5,))})",
    ),
    (PathwaySpec, ("terms", "schema"), ((Conjunction.of((0, 1)),), SCHEMA), 2, PATHWAY_REPR),
    (
        ExperimentSpec,
        ("schema", "pathway", "sample_size", "confound_count", "seed"),
        (SCHEMA, PATHWAY, 10, 1, 7),
        2,
        f"ExperimentSpec(schema={SCHEMA_REPR}, pathway={PATHWAY_REPR}, sample_size=10, confound_count=1, seed=7)",
    ),
    (
        ExperimentReport,
        ("spec", "params", "result", "expression", "consistency", "coverage", "candidate_count"),
        ("spec", "params", None, "A", Fraction(1), Fraction(1, 2), 3),
        7,
        "ExperimentReport(spec='spec', params='params', result=None, expression='A', consistency=Fraction(1, 1), "
        "coverage=Fraction(1, 2), candidate_count=3)",
    ),
    (
        SolveResult,
        ("table", "params", "necessity", "factor_set", "candidates", "solution", "warnings"),
        (None, None, (), (0,), (), None, ("w",)),
        7,
        "SolveResult(table=None, params=None, necessity=(), factor_set=(0,), "
        "candidates=(), solution=None, warnings=('w',))",
    ),
    (
        SweepCell,
        ("consistency_threshold", "cutoff", "unique_cover", "result", "candidate_count", "error"),
        (Fraction(4, 5), 2, 2, None, 0, "boom"),
        5,
        "SweepCell(consistency_threshold=Fraction(4, 5), cutoff=2, unique_cover=2, result=None, "
        "candidate_count=0, error='boom')",
    ),
    (
        Repetition,
        ("removed_ids", "configurations", "classes", "degenerate", "error"),
        (("a",), (Conjunction.of((0, 1)),), ((ValidityClass.SUBSET, 0),), True, "err"),
        3,
        f"Repetition(removed_ids=('a',), configurations=(Conjunction(literals=({A1},)),), "
        "classes=((<ValidityClass.SUBSET: 'subset'>, 0),), degenerate=True, error='err')",
    ),
    (
        ValidityReport,
        ("originals", "repetitions", "fraction", "seed"),
        ((Conjunction.of((0, 1)),), (), 0.25, 7),
        4,
        f"ValidityReport(originals=(Conjunction(literals=({A1},)),), repetitions=(), fraction=0.25, seed=7)",
    ),
]

# The defaults of the fields after the required ones.
DEFAULTS = {
    AnalysisParams: (Fraction(4, 5), 2, 2, Fraction(9, 10), None, None),
    Factor: (None, None),
    CalibrationSpec: ({},),
    ExperimentSpec: (200, 0, 0),
    SweepCell: (None,),
    Repetition: (False, None),
}

# A table and a dict-holding spec are unhashable; every other hash is that of
# the tuple of its fields (a rule's without its ids), so a set of them
# iterates in the same order on every run and on every release.
UNHASHABLE = {CaseTable, CalibrationSpec}
samples = pytest.mark.parametrize(
    "cls, names, args, required, text", [pytest.param(*s, id=s[0].__name__) for s in SAMPLES]
)


def field_values(obj, names) -> tuple:
    return tuple(getattr(obj, name) for name in names)


class TestValueClasses:
    def test_every_former_dataclass_is_sampled(self):
        assert len(SAMPLES) == len({s[0] for s in SAMPLES}) == 18

    @samples
    def test_equal_fields_are_equal_and_hash_alike(self, cls, names, args, required, text):
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b and a is not b
        if cls in UNHASHABLE:
            with pytest.raises(TypeError, match="unhashable"):
                hash(a)
        else:
            hashed = names[:3] if cls is CandidateRule else names
            assert hash(a) == hash(b) == hash(field_values(a, hashed))

    @samples
    def test_other_types_are_not_equal(self, cls, names, args, required, text):
        a = cls(*args)
        assert a.__eq__(field_values(a, names)) is NotImplemented
        assert a != field_values(a, names) and a != object()

    def test_a_literal_is_not_its_pair(self):
        assert Literal(0, 1) != (0, 1) and (0, 1) != Literal(0, 1)

    @samples
    def test_fields_cannot_be_assigned_or_deleted(self, cls, names, args, required, text):
        a = cls(*args)
        before = repr(a)
        for name in (*names, "extra"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(a, name, 0)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(a, name)
        assert repr(a) == before

    @samples
    def test_repr(self, cls, names, args, required, text):
        assert re.sub(r"0x[0-9a-f]+", "0x...", repr(cls(*args))) == text

    @samples
    def test_positional_keyword_and_default_construction(self, cls, names, args, required, text):
        a = cls(*args)
        assert cls(**dict(zip(names, args))) == a
        assert cls(*args[:1], **dict(zip(names[1:], args[1:]))) == a
        if required < len(names):
            assert field_values(cls(*args[:required]), names[required:]) == DEFAULTS[cls]
            assert cls(*args[:required], **dict(zip(names[required:], args[required:]))) == a

    @samples
    def test_missing_unknown_duplicated_or_extra_arguments(self, cls, names, args, required, text):
        if required:
            with pytest.raises(TypeError, match=f"missing .*'{names[0]}'"):
                cls()
        with pytest.raises(TypeError, match="unexpected keyword argument 'bogus'"):
            cls(*args, bogus=1)
        with pytest.raises(TypeError, match=f"multiple values for argument '{names[0]}'"):
            cls(*args[:1], **{names[0]: args[0]})
        with pytest.raises(TypeError, match="positional argument"):
            cls(*args, None)

    @samples
    def test_replace(self, cls, names, args, required, text):
        a = cls(*args)
        copy = replace(a)
        assert copy == a and copy is not a and type(copy) is cls
        with pytest.raises(TypeError, match="'bogus'"):
            replace(a, bogus=1)

    @samples
    def test_copies_and_pickles_are_equal(self, cls, names, args, required, text):
        a = cls(*args)
        assert copy.copy(a) == a
        assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a

    def test_a_solve_result_copies_and_pickles(self, remote_table):
        result = solve(remote_table, AnalysisParams(1, "0.8", cutoff=3))
        for again in [copy.deepcopy(result), pickle.loads(pickle.dumps(result))]:
            assert again == result and again.candidates == result.candidates
            assert again.table._taken_from is None

    def test_a_copied_take_is_taken_from_no_table(self, remote_table):
        taken = remote_table.take([3, 1, 2])
        for again in [copy.copy(taken), copy.deepcopy(taken), pickle.loads(pickle.dumps(taken))]:
            assert again == taken and again._taken_from is None
            assert again.positive_bits(1) == taken.positive_bits(1)

    def test_replace_takes_the_changes_and_keeps_the_rest(self):
        params = AnalysisParams(1, cutoff=3)
        assert replace(params, unique_cover=4) == AnalysisParams(1, cutoff=3, unique_cover=4)
        assert replace(Literal(0, 1), value=2) == Literal(0, 2)

    def test_replace_runs_the_checks_again(self):
        params = AnalysisParams(1)
        with pytest.raises(InputError, match="^cutoff must be >= 1, got 0$"):
            replace(params, cutoff=0)
        with pytest.raises(InputError, match="^literal value must be >= 0, got -1$"):
            replace(Literal(0, 1), value=-1)
        assert replace(params, consistency_threshold="0.75").consistency_threshold == Fraction(3, 4)

    def test_default_calibrations_share_no_dict(self):
        a, b = CalibrationSpec(), CalibrationSpec()
        assert a.columns == b.columns == {} and a.columns is not b.columns

    def test_literals_order_by_factor_then_value(self):
        lits = [Literal(1, 0), Literal(0, 2), Literal(0, 1)]
        assert sorted(lits) == [Literal(0, 1), Literal(0, 2), Literal(1, 0)]
        assert Literal(0, 1) < Literal(0, 2) <= Literal(0, 2) < Literal(1, 0)
        assert Literal(1, 0) > Literal(0, 2) >= Literal(0, 2) > Literal(0, 1)
        with pytest.raises(TypeError):
            Literal(0, 1) < (0, 2)
