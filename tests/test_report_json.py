"""`report.render_json` writes the bytes of `json.dumps(indent=2, ensure_ascii=False)`.

The writer is the package's own indent-2 encoder, so it is checked against
the json module over payload-shaped values: nested dicts with str keys,
lists and tuples of every leaf type, and lists of strings only. The writer
joins such a list in one call when its text is ASCII with nothing to
escape, and writes it as any other container otherwise.
"""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpqca import AnalysisParams, solve
from scpqca.pathways import ExperimentSpec, generate_experiment_table, parse_pathway, synth_schema
from scpqca.report import render_json, solve_payload


def dumps(value) -> str:
    return json.dumps(value, indent=2, ensure_ascii=False) + "\n"


SPECIAL_TEXT = ["", "é ü ß", "日本", "\x00\x1f\x7f", "tab\there", 'quote " back \\', "\ud800", "a\udfffb", " "]
TEXT = st.one_of(
    st.text(max_size=8),
    st.text(st.characters(exclude_categories=["Cn"]), max_size=8),  # control characters and lone surrogates
    st.sampled_from(SPECIAL_TEXT),
)
SPECIAL_NUMBERS = [0, -1, 2**64, -(2**64) - 1, 3**90, 1e16, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
                   math.nan, math.inf, -math.inf, 0.1, 1 / 3]
LEAF = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.sampled_from(SPECIAL_NUMBERS),
    TEXT,
)


def containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.lists(TEXT, max_size=6),  # the writer's all-string fast path
        st.lists(TEXT, max_size=6).map(tuple),
        st.dictionaries(TEXT, children, max_size=4),
    )


PAYLOAD = st.recursive(LEAF, containers, max_leaves=30)


class TestAgainstJsonModule:
    @settings(max_examples=400, deadline=None)
    @given(PAYLOAD)
    def test_same_text_as_json_dumps(self, value):
        assert render_json(value) == dumps(value)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            (),
            {"a": {}, "b": [], "c": [[]], "d": [{}], "e": {"f": {"g": []}}},
            [["x", "y"], [], ("z",)],
            {"flags": [True, False, None], "big": [2**64, -(2**70)], "floats": [1e16, -0.0, 5e-324]},
            {"odd": [math.nan, math.inf, -math.inf]},
            {"ids": ["c1", "ü", "\x07", "\ud800", ""]},
            ["mixed", 1, "list"],
            # At the edge of the one-join path: one item needs an escape, or is not ASCII.
            *(["c1", f"a{text}b", "c2"] for text in ['"', "\\", "\x00", "\x1f", "\x7f", " ", "é", "日本", "\ud800"]),
            ["c1", 'q"q', "b\\s", "\x07", "é", "\ud800"],  # every kind of item that leaves the one-join path
            [""],
            ["", "c1", ""],
            ["c1"],
            ("c1", "c2"),
            [f"t{n:05d}" for n in range(20_000)],
        ],
    )
    def test_named_values(self, value):
        assert render_json(value) == dumps(value)

    def test_a_solve_payload_of_20000_cases(self):
        # Its covered-case id lists run to thousands of ids each.
        schema = synth_schema(6)
        spec = ExperimentSpec(schema, parse_pathway("ab+CD", schema), sample_size=20_000, confound_count=1000, seed=0)
        payload = solve_payload(solve(generate_experiment_table(spec), AnalysisParams(decision_label=1)))
        assert max(len(c["covered_cases"]) for c in payload["configurations"]) > 1000
        assert render_json(payload) == dumps(payload)

    def test_keys_that_json_converts(self):
        value = {1: "int", 2.5: "float", True: "true", None: "none", -0.0: [1, {False: 2}]}
        assert render_json(value) == dumps(value)

    @pytest.mark.parametrize("value", [{"a": {1, 2}}, [object()], {(1, 2): 3}, b"bytes"])
    def test_unserializable_values_raise_type_error(self, value):
        with pytest.raises(TypeError) as expected:
            dumps(value)
        with pytest.raises(TypeError) as got:
            render_json(value)
        assert str(got.value) == str(expected.value)
