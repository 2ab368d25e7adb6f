"""The library's error contract on huge values.

Every entry point given an integer of 41 to 6 000 digits, of either sign, or
a string of 41 to 5 000 characters where it expects an integer, raises
`InputError` (never a bare `ValueError` from int-to-text conversion, nor a
`TypeError`) with a message short enough to read, because each value the
message names is echoed cut.
"""

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
    InputError,
    Literal,
    PathwaySpec,
    binary_schema,
    candidate_count_bound,
    enumerate_candidates,
    exclude_necessary,
    external_validity,
    match_bits,
    matches,
    solve,
    synth_schema,
)

MAX_MESSAGE = 200


def one(i: int, v: int) -> Conjunction:
    """The conjunction of the single literal `i`=`v`."""
    return Conjunction((Literal(i, v),))


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
    "ExperimentSpec sample_size": lambda t, big, n: ExperimentSpec(
        synth_schema(2), PathwaySpec((one(0, 1),), synth_schema(2)), sample_size=big
    ),
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
    "ExperimentSpec sample_size": lambda t, s: ExperimentSpec(
        synth_schema(2), PathwaySpec((one(0, 1),), synth_schema(2)), sample_size=s
    ),
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
