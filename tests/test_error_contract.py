"""The library's error contract on huge values.

Every entry point given an integer of 41 to 6 000 digits, of either sign, or
a string of 41 to 5 000 characters where it expects an integer, raises
`InputError` (never a bare `ValueError` from int-to-text conversion, nor a
`TypeError`) with a message short enough to read, because each value the
message names is echoed cut.

Every integer intake reads its value through `model.as_index`: a float, a
numeric string or a list raises `InputError`, a numpy integer is stored as
an `int`, and a value just outside a range raises the one range wording.

A container that holds an int past any int-to-text limit is echoed item by
item up to the cut, never converted whole (a container of another type, by
its type name), and a seed past the current limit
is refused by `derive_seed` before any solve. Run this file under
``python -X int_max_str_digits=640`` (the lowest limit) to check that no
echo converts a large int whole.
"""

import sys
from collections import deque
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpqca import (
    AnalysisParams,
    CandidatePool,
    Case,
    CaseTable,
    Conjunction,
    ExperimentSpec,
    Factor,
    InputError,
    Literal,
    PathwaySpec,
    binary_schema,
    candidate_count_bound,
    derive_seed,
    enumerate_candidates,
    exclude_necessary,
    external_validity,
    match_bits,
    matches,
    solve,
    synth_schema,
)
from scpqca.pathways import MAX_SAMPLE_SIZE
from scpqca.robustness import MAX_REPS, check_reps, internal_sweep

MAX_MESSAGE = 200
# Filters under which the 8-case table below has a solution.
SOLVABLE = AnalysisParams(1, "0.5", cutoff=1, unique_cover=1)


def one(i: int, v: int) -> Conjunction:
    """The conjunction of the single literal `i`=`v`."""
    return Conjunction((Literal(i, v),))


def spec(**fields) -> ExperimentSpec:
    """An experiment on two binary factors with the pathway A=1, and `fields`."""
    return ExperimentSpec(synth_schema(2), PathwaySpec((one(0, 1),), synth_schema(2)), **fields)


# Each probe takes the table and a huge int; `n` is its absolute value.
INT_PROBES = {
    "solve decision label": lambda t, big, n: solve(t, AnalysisParams(big)),
    "params cutoff": lambda t, big, n: AnalysisParams(1, cutoff=-n),
    "params max_order": lambda t, big, n: AnalysisParams(1, max_order=-n),
    "params unique_cover": lambda t, big, n: AnalysisParams(1, unique_cover=-n),
    "Literal": lambda t, big, n: Literal(0, -n),
    "Conjunction index twice": lambda t, big, n: Conjunction((Literal(n, 0), Literal(n, 1))),
    "merge index conflict": lambda t, big, n: one(n, 0).merge(one(n, 1)),
    "merge value conflict": lambda t, big, n: one(0, n).merge(one(0, n + 1)),
    "match_bits index": lambda t, big, n: match_bits(one(n, 0), t),
    "match_bits level": lambda t, big, n: match_bits(one(0, n), t),
    "matches index": lambda t, big, n: matches(one(n, 0), t.case(0)),
    "exclude_necessary index": lambda t, big, n: exclude_necessary(t.schema, [Literal(n, 0)]),
    "exclude_necessary level": lambda t, big, n: exclude_necessary(t.schema, [Literal(0, n)]),
    "enumerate_candidates": lambda t, big, n: enumerate_candidates(t, [0, big], AnalysisParams(1)),
    "candidate_count_bound": lambda t, big, n: candidate_count_bound(t.schema, [big]),
    "positive_bits": lambda t, big, n: t.positive_bits(big),
    "external_validity fraction": lambda t, big, n: external_validity(t, AnalysisParams(1), fraction=big),
    "CandidatePool": lambda t, big, n: CandidatePool(-n),
    "PathwaySpec level": lambda t, big, n: PathwaySpec((one(0, n),), t.schema),
    "ExperimentSpec sample_size": lambda t, big, n: spec(sample_size=big),
    "Factor levels": lambda t, big, n: Factor("A", big),
    "Literal factor_index": lambda t, big, n: Literal(-n, 0),
    "ExperimentSpec confound_count": lambda t, big, n: spec(confound_count=big),
    "external_validity reps": lambda t, big, n: external_validity(t, SOLVABLE, reps=big),
    "synth_schema n_factors": lambda t, big, n: synth_schema(big),
    "synth_schema levels": lambda t, big, n: synth_schema(2, big),
    "candidate_count_bound max_order": lambda t, big, n: candidate_count_bound(t.schema, None, -n),
}

# Each probe takes the table and a long string given where an integer belongs.
TEXT_PROBES = {
    "params decision label": lambda t, s: AnalysisParams(s),
    "params cutoff": lambda t, s: AnalysisParams(1, cutoff=s),
    "params max_order": lambda t, s: AnalysisParams(1, max_order=s),
    "params unique_cover": lambda t, s: AnalysisParams(1, unique_cover=s),
    "positive_bits": lambda t, s: t.positive_bits(s),
    "CandidatePool": lambda t, s: CandidatePool(s),
    "enumerate_candidates": lambda t, s: enumerate_candidates(t, [s], AnalysisParams(1)),
    "ExperimentSpec sample_size": lambda t, s: spec(sample_size=s),
    "Factor levels": lambda t, s: Factor("A", s),
    "Literal factor_index": lambda t, s: Literal(s, 0),
    "Literal value": lambda t, s: Literal(0, s),
    "ExperimentSpec confound_count": lambda t, s: spec(confound_count=s),
    "ExperimentSpec seed": lambda t, s: spec(seed=s),
    "external_validity reps": lambda t, s: external_validity(t, SOLVABLE, reps=s),
    "external_validity seed": lambda t, s: external_validity(t, SOLVABLE, seed=s),
    "derive_seed seed": lambda t, s: derive_seed(s, 0),
    "derive_seed repetition": lambda t, s: derive_seed(0, s),
    "synth_schema n_factors": lambda t, s: synth_schema(s),
    "synth_schema levels": lambda t, s: synth_schema(2, s),
    "candidate_count_bound max_order": lambda t, s: candidate_count_bound(t.schema, None, s),
}

# Every integer intake: a call on the table that returns the integer as
# stored (or the result it gives), and an integer it accepts.
INTAKES = {
    "params decision_label": (lambda t, x: AnalysisParams(x).decision_label, 1),
    "params cutoff": (lambda t, x: AnalysisParams(1, cutoff=x).cutoff, 2),
    "params max_order": (lambda t, x: AnalysisParams(1, max_order=x).max_order, 2),
    "params unique_cover": (lambda t, x: AnalysisParams(1, unique_cover=x).unique_cover, 2),
    "positive_bits": (lambda t, x: t.positive_bits(x), 1),
    "CandidatePool cutoff": (lambda t, x: CandidatePool(x).cutoff, 2),
    "enumerate_candidates factor index": (lambda t, x: enumerate_candidates(t, [x], SOLVABLE), 1),
    "candidate_count_bound factor index": (lambda t, x: candidate_count_bound(t.schema, [x]), 1),
    "candidate_count_bound max_order": (lambda t, x: candidate_count_bound(t.schema, None, x), 1),
    "Factor levels": (lambda t, x: Factor("A", x).levels, 3),
    "Literal factor_index": (lambda t, x: Literal(x, 0).factor_index, 1),
    "Literal value": (lambda t, x: Literal(0, x).value, 1),
    "ExperimentSpec sample_size": (lambda t, x: spec(sample_size=x).sample_size, 5),
    "ExperimentSpec confound_count": (lambda t, x: spec(confound_count=x).confound_count, 5),
    "ExperimentSpec seed": (lambda t, x: spec(seed=x).seed, 7),
    "external_validity reps": (lambda t, x: len(external_validity(t, SOLVABLE, reps=x).repetitions), 2),
    "external_validity seed": (lambda t, x: external_validity(t, SOLVABLE, reps=1, seed=x).seed, 7),
    "check_reps": (lambda t, x: check_reps(x), 2),
    "derive_seed seed": (lambda t, x: derive_seed(x, 0), 7),
    "derive_seed repetition": (lambda t, x: derive_seed(0, x), 3),
    "synth_schema n_factors": (lambda t, x: synth_schema(x).level_counts(), 3),
    "synth_schema levels": (lambda t, x: synth_schema(2, x).factors[0].levels, 3),
    "synth_schema level list": (lambda t, x: synth_schema(2, [x, 2]).factors[0].levels, 3),
}

# Every folded range: a call taking the integer, its bounds (None: open)
# and the `what` its error names.
RANGES = {
    "Factor levels": (lambda x: Factor("A", x), 2, 32768, "factor 'A': level count"),
    "Literal factor_index": (lambda x: Literal(x, 0), 0, None, "literal factor_index"),
    "Literal value": (lambda x: Literal(0, x), 0, None, "literal value"),
    "params cutoff": (lambda x: AnalysisParams(1, cutoff=x), 1, None, "cutoff"),
    "params max_order": (lambda x: AnalysisParams(1, max_order=x), 1, None, "max_order"),
    "params unique_cover": (lambda x: AnalysisParams(1, unique_cover=x), 1, None, "unique_cover"),
    "CandidatePool cutoff": (lambda x: CandidatePool(x), 1, None, "cutoff"),
    "candidate_count_bound max_order": (
        lambda x: candidate_count_bound(binary_schema(["A"]), None, x), 0, None, "max_order"
    ),
    "ExperimentSpec sample_size": (lambda x: spec(sample_size=x), 1, MAX_SAMPLE_SIZE, "sample_size"),
    "ExperimentSpec confound_count": (lambda x: spec(sample_size=3, confound_count=x), 0, 3, "confound_count"),
    "reps": (check_reps, 1, MAX_REPS, "reps"),
}


def assert_input_error(call) -> None:
    with pytest.raises(InputError) as err:
        call()
    assert len(str(err.value)) <= MAX_MESSAGE, str(err.value)[:300]


@pytest.fixture(scope="module")
def table():
    cases = [Case(f"c{i}", (i % 2, i // 2 % 2), i % 3 % 2) for i in range(8)]
    return CaseTable.from_cases(binary_schema(["A", "B"]), cases)


@pytest.mark.parametrize("probe", INT_PROBES, ids=list(INT_PROBES))
@settings(max_examples=12, deadline=None)
@given(digits=st.integers(41, 6000), negative=st.booleans())
def test_huge_int_raises_short_input_error(table, probe, digits, negative):
    n = 10 ** (digits - 1) + 7
    assert_input_error(lambda: INT_PROBES[probe](table, -n if negative else n, n))


@pytest.mark.parametrize("probe", TEXT_PROBES, ids=list(TEXT_PROBES))
@settings(max_examples=12, deadline=None)
@given(length=st.integers(41, 5000), char=st.sampled_from("9x-"))
def test_long_text_raises_short_input_error(table, probe, length, char):
    assert_input_error(lambda: TEXT_PROBES[probe](table, char * length))


def test_cutoff_text_is_echoed_cut():
    with pytest.raises(InputError) as err:
        AnalysisParams(1, cutoff="9" * 5000)
    assert str(err.value) == "cutoff must be an integer, got '999999999999...'"


@pytest.mark.parametrize("value", [2.5, "3", [1]], ids=["float", "str", "list"])
@pytest.mark.parametrize("intake", INTAKES, ids=list(INTAKES))
def test_a_non_integer_raises_short_input_error(table, intake, value):
    assert_input_error(lambda: INTAKES[intake][0](table, value))


@pytest.mark.parametrize("intake", RANGES, ids=list(RANGES))
def test_both_edges_of_a_range(intake):
    build, low, high, what = RANGES[intake]
    outside = {low - 1: f"{what} must be >= {low}, got {low - 1}"}
    build(low)
    if high is not None:
        build(high)
        outside[high + 1] = f"{what} must be <= {high}, got {high + 1}"
    for x, message in outside.items():
        with pytest.raises(InputError) as err:
            build(x)
        assert str(err.value) == message


@pytest.mark.parametrize("intake", INTAKES, ids=list(INTAKES))
def test_a_numpy_integer_is_read_as_an_int_and_a_numpy_float_refused(table, intake):
    np = pytest.importorskip("numpy")
    call, valid = INTAKES[intake]
    got, want = call(table, np.int64(valid)), call(table, valid)
    assert type(got) is type(want) and got == want
    assert_input_error(lambda: call(table, np.float64(valid)))


# Past every int-to-text limit: the highest default is 4300 digits.
HUGE = 10**5000

# Each probe takes the table and gives a container, or a Fraction, that
# holds HUGE where an integer or a sweep grid entry belongs.
CONTAINER_PROBES = {
    "params cutoff list": lambda t: AnalysisParams(1, cutoff=[HUGE]),
    "params cutoff dict": lambda t: AnalysisParams(1, cutoff={HUGE: [HUGE]}),
    "Literal factor_index": lambda t: Literal([HUGE], 0),
    "Literal value Fraction": lambda t: Literal(0, Fraction(HUGE, 3)),
    "Factor levels": lambda t: Factor("A", (HUGE,)),
    "CandidatePool": lambda t: CandidatePool({HUGE}),
    "Literal value deque": lambda t: Literal(0, deque([HUGE])),
    "params cutoff range": lambda t: AnalysisParams(1, cutoff=range(HUGE)),
    "CaseTable cell": lambda t: CaseTable(binary_schema(["A"]), ("a",), [[[HUGE]]], [0]),
    "sweep grid long tuple": lambda t: internal_sweep(t, [tuple(range(3000))], SOLVABLE),
    "sweep grid long text": lambda t: internal_sweep(t, ["x" * 5000], SOLVABLE),
    "sweep grid huge int": lambda t: internal_sweep(t, [(1, HUGE)], SOLVABLE),
}


@pytest.mark.parametrize("probe", CONTAINER_PROBES, ids=list(CONTAINER_PROBES))
def test_a_container_holding_a_huge_int_raises_short_input_error(table, probe):
    assert_input_error(lambda: CONTAINER_PROBES[probe](table))


@pytest.mark.parametrize(
    "value", [[1], ["x"], (1,), (), {2}, frozenset({3}), {1: "a"}, [True, None, 1.5], [Fraction(1, 3)],
              [1] * 13, [1] * 14, [10**39], {"k": (10**60, "v")}, [[[[[[[[1]]]]]]]]],
)
def test_a_container_is_echoed_as_repr_shows_it(value):
    text = repr(value)
    with pytest.raises(InputError) as err:
        AnalysisParams(1, cutoff=value)
    assert str(err.value) == f"cutoff must be an integer, got {text if len(text) <= 40 else text[:12] + '...'}"


def test_a_huge_int_in_a_container_is_echoed_from_its_leading_digits():
    with pytest.raises(InputError) as err:
        AnalysisParams(1, cutoff=[-HUGE])
    assert str(err.value) == "cutoff must be an integer, got [-1000000000..."


# The interpreter's int-to-text limit in digits; 0 (or an interpreter
# without one) converts any int.
LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
SEED_PROBES = {
    "derive_seed seed": lambda t, big: derive_seed(big, 0),
    "derive_seed repetition": lambda t, big: derive_seed(0, -big),
    "external_validity seed": lambda t, big: external_validity(t, SOLVABLE, reps=1, seed=big),
}


@pytest.mark.skipif(not LIMIT, reason="no int-to-text limit")
@pytest.mark.parametrize("probe", SEED_PROBES, ids=list(SEED_PROBES))
def test_a_seed_past_the_int_to_text_limit_raises_short_input_error_before_any_solve(table, probe, monkeypatch):
    import scpqca.robustness

    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the seed was checked")

    monkeypatch.setattr(scpqca.robustness, "solve", no_solve)
    assert_input_error(lambda: SEED_PROBES[probe](table, 10**LIMIT))
