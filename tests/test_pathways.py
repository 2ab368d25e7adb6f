import json
import random
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpqca import (
    CaseTable,
    Conjunction,
    ExperimentSpec,
    Factor,
    FactorSchema,
    InputError,
    PathwaySpec,
    generate_experiment_table,
    parse_pathway,
    run_experiment,
    synth_schema,
    AnalysisParams,
)
from scpqca._base import _ECHO_LIMIT
from scpqca.pathways import full_truth_table, plant_outcome, sample_and_confound


def brute_dnf_eval(terms, row) -> bool:
    """Independent per-row evaluator: plain dict comparison, no shared code."""
    for term in terms:
        if all(row[i] == v for i, v in term.items()):
            return True
    return False


class TestParse:
    def test_boolean_form(self):
        schema = synth_schema(4)
        spec = parse_pathway("ab+CD", schema)
        assert spec.terms == (Conjunction.of((0, 0), (1, 0)), Conjunction.of((2, 1), (3, 1)))

    def test_six_factor_pathway_orders(self):
        schema = synth_schema(6)
        spec = parse_pathway("ab+CD+ace+BDF", schema)
        assert [len(t) for t in spec.terms] == [2, 2, 3, 3]
        assert spec.terms[2] == Conjunction.of((0, 0), (2, 0), (4, 0))
        assert spec.terms[3] == Conjunction.of((1, 1), (3, 1), (5, 1))

    def test_multivalue_form(self):
        schema = synth_schema(5, 3)
        spec = parse_pathway("A0*B0+B1*C1+C2*D2+D0*E0", schema)
        assert len(spec.terms) == 4
        assert spec.terms[0] == Conjunction.of((0, 0), (1, 0))
        assert spec.terms[2] == Conjunction.of((2, 2), (3, 2))

    def test_whitespace_ignored(self):
        schema = synth_schema(5, 3)
        a = parse_pathway("A0*B0 + B1 * C1", schema)
        b = parse_pathway("A0*B0+B1*C1", schema)
        assert a.terms == b.terms
        # even between name and level, as extracted tables sometimes have
        c = parse_pathway("B 2* C 2", schema)
        assert c.terms == (Conjunction.of((1, 2), (2, 2)),)

    def test_star_in_boolean_form(self):
        schema = synth_schema(4)
        assert parse_pathway("a*b+C*D", schema).terms == parse_pathway("ab+CD", schema).terms

    def test_unknown_factor(self):
        schema = synth_schema(3)
        with pytest.raises(InputError, match="unknown factor"):
            parse_pathway("ab+XY", schema)

    def test_level_out_of_range(self):
        schema = synth_schema(3, 3)
        with pytest.raises(InputError, match="out of range"):
            parse_pathway("A5*B1", schema)

    def test_empty_term(self):
        schema = synth_schema(3)
        with pytest.raises(InputError, match="empty term"):
            parse_pathway("ab++bc", schema)

    def test_dangling_plus(self):
        schema = synth_schema(3)
        with pytest.raises(InputError, match="dangling '\\+'"):
            parse_pathway("ab+", schema)

    def test_dangling_star(self):
        schema = synth_schema(3)
        with pytest.raises(InputError, match="dangling"):
            parse_pathway("a*", schema)
        with pytest.raises(InputError, match="dangling"):
            parse_pathway("A0*", synth_schema(3, 3))

    def test_duplicate_factor_in_term(self):
        schema = synth_schema(3)
        with pytest.raises(InputError, match="twice"):
            parse_pathway("aA", schema)

    def test_boolean_needs_single_letter_names(self):
        schema = FactorSchema(
            factors=(Factor("MS", 2), Factor("MC", 2)), outcome=Factor("O", 2)
        )
        with pytest.raises(InputError, match="single letter"):
            parse_pathway("ms+MC", schema)
        # the multi-value syntax still works for such schemas
        spec = parse_pathway("MS0*MC1", schema)
        assert spec.terms == (Conjunction.of((0, 0), (1, 1)),)

    def test_empty_expression(self):
        with pytest.raises(InputError, match="empty pathway"):
            parse_pathway("   ", synth_schema(2))

    def test_multivalue_requires_star_between_atoms(self):
        with pytest.raises(InputError, match="expected '\\*'"):
            parse_pathway("A0B1", synth_schema(3, 3))

    def test_error_echoes_a_term_up_to_the_limit_whole(self):
        term = "A1*" * 13 + "B9"
        assert len(term) == _ECHO_LIMIT + 1
        with pytest.raises(InputError) as short:
            parse_pathway(term[3:], synth_schema(3))
        assert str(short.value).endswith(f"(term {term[3:]!r})")
        with pytest.raises(InputError) as long:
            parse_pathway("c+" + term, synth_schema(3))
        assert str(long.value).endswith("(term 'A1*A1*A1*A1*...')")


# Binary, 3-level and mixed schemas. A pathway text is atoms (a schema
# letter in either case, then maybe level digits) between separators; the
# digits may be non-ASCII or run past the interpreter's 4300-digit limit.
FUZZ_SCHEMAS = [synth_schema(3), synth_schema(3, 3), synth_schema(4, [2, 3, 2, 5])]
LEVEL_DIGITS = st.one_of(
    st.just(""),
    st.text("0123456789", min_size=1, max_size=3),
    st.sampled_from(["²", "٣", "０"]),
    st.builds(lambda d, n: d * n, st.sampled_from("019"), st.integers(4290, 4400)),
)
ATOM = st.builds(lambda letter, digits: letter + digits, st.sampled_from("ABCDabcd"), LEVEL_DIGITS)
SEPARATOR = st.sampled_from(["*", "*", "+", "+", " * ", " + ", "", "\t", "**", "++"])
EDGE = st.sampled_from(["", "", "", " ", "\t", "*", "+"])


@st.composite
def pathway_texts(draw) -> str:
    atoms = draw(st.lists(ATOM, min_size=1, max_size=6))
    seps = draw(st.lists(SEPARATOR, min_size=len(atoms) - 1, max_size=len(atoms) - 1))
    body = atoms[0] + "".join(sep + atom for sep, atom in zip(seps, atoms[1:]))
    return draw(EDGE) + body + draw(EDGE)


class TestParseFuzz:
    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(FUZZ_SCHEMAS), pathway_texts())
    def test_spec_or_input_error(self, schema, text):
        try:
            spec = parse_pathway(text, schema)
        except InputError:
            return
        assert isinstance(spec, PathwaySpec)

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(FUZZ_SCHEMAS), pathway_texts())
    def test_error_line_stays_short(self, schema, text):
        try:
            parse_pathway(text, schema)
        except InputError as exc:
            assert len(str(exc)) < 200


class TestTruthTable:
    def test_sizes(self):
        assert len(full_truth_table(synth_schema(6))) == 64
        assert len(full_truth_table(synth_schema(5, 3))) == 243

    def test_odometer_order(self):
        schema = synth_schema(2, [2, 3])
        t = full_truth_table(schema)
        rows = [tuple(int(v) for v in t.values[i]) for i in range(len(t))]
        assert rows == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2)]
        assert t.ids == ("r0", "r1", "r2", "r3", "r4", "r5")

    def test_bound_refused(self):
        with pytest.raises(InputError, match="bound"):
            full_truth_table(synth_schema(25))


class TestPlantOutcome:
    def test_agrees_with_independent_evaluator(self):
        schema = synth_schema(6)
        pathway = parse_pathway("ab+CD+ace+BDF", schema)
        planted = plant_outcome(full_truth_table(schema), pathway)
        terms = [{0: 0, 1: 0}, {2: 1, 3: 1}, {0: 0, 2: 0, 4: 0}, {1: 1, 3: 1, 5: 1}]
        expected = [
            1 if brute_dnf_eval(terms, row) else 0 for row in product(range(2), repeat=6)
        ]
        assert [int(o) for o in planted.outcomes] == expected
        # 35 of the 64 rows satisfy the pathway (oracle-computed constant)
        assert int(sum(planted.outcomes)) == 35

    def test_first_term_fires(self):
        schema = synth_schema(6)
        pathway = parse_pathway("ab+CD+ace+BDF", schema)
        planted = plant_outcome(full_truth_table(schema), pathway)
        # row r0 is all zeros: matches 'ab' (and 'ace')
        assert int(planted.outcomes[0]) == 1

    def test_schema_mismatch(self):
        pathway = parse_pathway("ab", synth_schema(2))
        with pytest.raises(InputError):
            plant_outcome(full_truth_table(synth_schema(3)), pathway)


class TestSpecChecks:
    """Each check that a spec, a synthetic schema or a sample runs, with its text."""

    SCHEMA = synth_schema(2)
    PATHWAY = PathwaySpec((Conjunction.of((0, 1)),), SCHEMA)

    @pytest.mark.parametrize(
        "build, message",
        [(lambda: PathwaySpec((), TestSpecChecks.SCHEMA), "pathway needs at least one term"),
         (lambda: PathwaySpec((Conjunction(()),), TestSpecChecks.SCHEMA), "pathway terms must not be empty"),
         (lambda: PathwaySpec((Conjunction.of((2, 0)),), TestSpecChecks.SCHEMA),
          "factor index 2 out of range for 2 factors"),
         (lambda: PathwaySpec((Conjunction.of((1, 2)),), TestSpecChecks.SCHEMA),
          "value 2 out of range for factor 'B'"),
         (lambda: ExperimentSpec(synth_schema(3), TestSpecChecks.PATHWAY), "pathway is bound to a different schema"),
         (lambda: synth_schema(0), "synthetic schemas support 1..26 factors (single-letter names)"),
         (lambda: synth_schema(27), "synthetic schemas support 1..26 factors (single-letter names)"),
         (lambda: synth_schema(2, [2, 3, 2]), "3 level counts for 2 factors"),
         (lambda: sample_and_confound(full_truth_table(synth_schema(3)), ExperimentSpec(
             TestSpecChecks.SCHEMA, TestSpecChecks.PATHWAY)), "experiment spec is bound to a different schema"),
         (lambda: sample_and_confound(CaseTable(TestSpecChecks.SCHEMA, (), [], []), ExperimentSpec(
             TestSpecChecks.SCHEMA, TestSpecChecks.PATHWAY)), "cannot sample from an empty table")],
        ids=["no-term", "empty-term", "factor-index", "level", "spec-schema", "0-factors", "27-factors",
             "level-list", "sample-schema", "empty-table"],
    )
    def test_check(self, build, message):
        with pytest.raises(InputError) as err:
            build()
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "fields, message",
        [({"sample_size": 2.5}, "sample_size must be an integer, got 2.5"),
         ({"sample_size": "5"}, "sample_size must be an integer, got '5'"),
         ({"confound_count": 1.5}, "confound_count must be an integer, got 1.5"),
         ({"sample_size": 0}, "sample_size must be >= 1, got 0"),
         ({"sample_size": 3, "confound_count": 4}, "confound_count must be <= 3, got 4")],
    )
    def test_sizes_are_read_as_indices(self, fields, message):
        # A float or numeric string is refused when the spec is built, not
        # as a bare TypeError when its table is generated.
        with pytest.raises(InputError) as err:
            ExperimentSpec(self.SCHEMA, self.PATHWAY, **fields)
        assert str(err.value) == message

    def test_an_index_size_is_stored_as_an_int(self):
        class Count:
            def __index__(self):
                return 4

        spec = ExperimentSpec(self.SCHEMA, self.PATHWAY, sample_size=Count(), confound_count=Count())
        assert (type(spec.sample_size), spec.sample_size, spec.confound_count) == (int, 4, 4)
        assert len(generate_experiment_table(spec)) == 4


class TestSampling:
    def _planted(self):
        schema = synth_schema(4)
        pathway = parse_pathway("ab+CD", schema)
        return schema, pathway, plant_outcome(full_truth_table(schema), pathway)

    def test_reproducible(self):
        schema, pathway, table = self._planted()
        spec = ExperimentSpec(schema, pathway, 50, 5, seed=99)
        assert sample_and_confound(table, spec) == sample_and_confound(table, spec)

    def test_zero_confounds_agree_with_pathway(self):
        schema, pathway, table = self._planted()
        spec = ExperimentSpec(schema, pathway, 80, 0, seed=3)
        sampled = sample_and_confound(table, spec)
        for i in range(len(sampled)):
            row = tuple(int(v) for v in sampled.values[i])
            assert int(sampled.outcomes[i]) == (1 if pathway.evaluate(row) else 0)

    @pytest.mark.parametrize("k", [0, 1, 7, 25])
    def test_exactly_k_rows_disagree(self, k):
        schema, pathway, table = self._planted()
        sampled = sample_and_confound(table, ExperimentSpec(schema, pathway, 60, k, seed=11))
        disagreements = sum(
            1
            for i in range(len(sampled))
            if int(sampled.outcomes[i]) != (1 if pathway.evaluate(tuple(int(v) for v in sampled.values[i])) else 0)
        )
        assert disagreements == k

    def test_fresh_ids(self):
        schema, pathway, table = self._planted()
        sampled = sample_and_confound(table, ExperimentSpec(schema, pathway, 10, 0, seed=1))
        assert sampled.ids == tuple(f"s{i}" for i in range(10))

    def test_confound_bounds_validated(self):
        schema, pathway, _ = self._planted()
        with pytest.raises(InputError):
            ExperimentSpec(schema, pathway, 10, 11, seed=0)

    def test_sample_size_is_bounded_before_any_draw(self):
        schema, pathway, _ = self._planted()
        assert ExperimentSpec(schema, pathway, 10**7).sample_size == 10**7  # builds no draw
        with pytest.raises(InputError) as err:
            ExperimentSpec(schema, pathway, 10**7 + 1)
        assert str(err.value) == "sample_size must be <= 10000000, got 10000001"
        with pytest.raises(InputError) as err:
            ExperimentSpec(schema, pathway, int("9" * 4000))
        assert str(err.value) == "sample_size must be <= 10000000, got 999999999999..."

    def test_direct_generation_equals_composed_route(self):
        schema, pathway, table = self._planted()
        for seed, k in [(0, 0), (5, 3), (123, 10)]:
            spec = ExperimentSpec(schema, pathway, 40, k, seed=seed)
            assert generate_experiment_table(spec) == sample_and_confound(table, spec)

    def test_multilevel_confound_changes_level(self):
        schema = FactorSchema(factors=(Factor("A", 2),), outcome=Factor("O", 3))
        # hand-built table with outcome level 2 everywhere
        from scpqca import CaseTable

        base = CaseTable(
            schema=schema,
            ids=tuple(f"r{i}" for i in range(4)),
            values=[[0], [1], [0], [1]],
            outcomes=[2, 2, 2, 2],
        )
        pathway = parse_pathway("A0", schema)
        spec = ExperimentSpec(schema, pathway, 20, 20, seed=7)
        sampled = sample_and_confound(base, spec)
        assert all(int(o) in (0, 1) for o in sampled.outcomes)


class TestPrngContract:
    def test_mersenne_twister_reference_draws(self):
        # frozen reference vector for the documented generator
        rng = random.Random(12345)
        assert [rng.randrange(64) for _ in range(6)] == [53, 1, 38, 47, 24, 34]
        rng = random.Random(0)
        assert rng.sample(range(10), 4) == [6, 9, 0, 2]

    def test_same_seed_same_experiment(self):
        schema = synth_schema(6)
        pathway = parse_pathway("ab+CD+ace+BDF", schema)
        a = generate_experiment_table(ExperimentSpec(schema, pathway, 200, 20, seed=42))
        b = generate_experiment_table(ExperimentSpec(schema, pathway, 200, 20, seed=42))
        assert a == b


class TestRunExperiment:
    def test_clean_run_reports_solution(self):
        schema = synth_schema(4)
        pathway = parse_pathway("ab+CD", schema)
        params = AnalysisParams(decision_label=1, consistency_threshold="0.8", cutoff=2, unique_cover=2)
        report = run_experiment(ExperimentSpec(schema, pathway, 100, 0, seed=8), params)
        assert report.coverage == 1
        assert report.consistency <= 1
        assert report.candidate_count > 0

    def test_planted_terms_pass_filter_at_full_consistency(self):
        schema = synth_schema(6)
        pathway = parse_pathway("ab+CD+ace+BDF", schema)
        params = AnalysisParams(decision_label=1, consistency_threshold="0.8", cutoff=2, unique_cover=2)
        report = run_experiment(ExperimentSpec(schema, pathway, 200, 0, seed=20), params)
        cands = {r.conjunction: r.consistency for r in report.result.candidates}
        for term in pathway.terms:
            assert cands.get(term) == 1


# ---------------------------------------------------------------------------
# Golden parses: `tests/golden/pathways.json` holds, for a seeded corpus of
# texts over the fuzz alphabet and a few more schemas, the parsed terms as
# (factor, level) lists or the exact error text. Rewrite it after an intended
# change with `PYTHONPATH=src python tests/test_pathways.py`.

GOLDEN_PATHWAYS = Path(__file__).resolve().parent / "golden" / "pathways.json"
GOLDEN_SCHEMAS = {
    "binary": FUZZ_SCHEMAS[0],
    "three_level": FUZZ_SCHEMAS[1],
    "mixed": FUZZ_SCHEMAS[2],
    # single-letter names that collide by case: no boolean shorthand
    "case_pair": FactorSchema(factors=(Factor("a", 2), Factor("A", 3)), outcome=Factor("O", 2)),
    # a name that is the other two run together: the longest name wins
    "prefixes": FactorSchema(factors=(Factor("MS", 3), Factor("M", 2), Factor("S", 2)), outcome=Factor("O", 2)),
}
GOLDEN_HAND_TEXTS = ["B 2* C 2", "aA", "A0B1", "ms+MC", "MS0*MC1", "MS2", "M S1", "a1A2", "  ", ""]
# one digit past the interpreter's 4300-digit limit, leading zeros, and a
# level at the limit, which parses and is out of range
GOLDEN_LONG_TEXTS = ["A" + "1" * 4301, "B1*C" + "0" * 4400 + "*D1", "c+A1*B" + "9" * 4300]
RAW_ALPHABET = "ABCDMSabcdms0129²٣０+* \t-("


def _golden_text(rng: random.Random, schema: FactorSchema) -> str:
    if rng.random() < 0.15:
        return "".join(rng.choice(RAW_ALPHABET) for _ in range(rng.randrange(13)))
    boolean = rng.random() < 0.4
    names = [f.name for f in schema.factors]
    if boolean:
        names += [name.swapcase() for name in names]
    atoms = []
    for _ in range(rng.randint(1, 4)):
        name = rng.choice("ABCDabcd") if rng.random() < 0.1 else rng.choice(names)
        r = rng.random()
        if boolean or r < 0.1:
            digits = ""
        elif r < 0.7:
            digits = rng.choice("012")
        elif r < 0.9:
            digits = "".join(rng.choice("0123456789") for _ in range(rng.randint(1, 3)))
        elif r < 0.997:
            digits = rng.choice(["²", "٣", "０"])
        else:
            digits = rng.choice("019") * rng.randint(4290, 4400)
        atoms.append(name + digits)
    seps = ["*", "*", "+", "+", " * ", " + ", "", "\t", "**", "++"]
    edges = ["", "", "", " ", "\t", "*", "+"]
    body = atoms[0] + "".join(rng.choice(seps) + atom for atom in atoms[1:])
    return rng.choice(edges) + body + rng.choice(edges)


def golden_pathway_cases() -> list[dict]:
    rng = random.Random(20241018)
    cases = []
    for key, schema in GOLDEN_SCHEMAS.items():
        texts = GOLDEN_HAND_TEXTS + (GOLDEN_LONG_TEXTS if key == "mixed" else [])
        texts += [_golden_text(rng, schema) for _ in range(240)]
        for text in texts:
            try:
                spec = parse_pathway(text, schema)
            except InputError as exc:
                cases.append({"schema": key, "text": text, "error": str(exc)})
                continue
            terms = [[[schema.factors[lit.factor_index].name, lit.value] for lit in t.literals] for t in spec.terms]
            cases.append({"schema": key, "text": text, "terms": terms})
    return cases


def render_golden_pathways() -> str:
    return "[\n" + ",\n".join(json.dumps(case) for case in golden_pathway_cases()) + "\n]\n"


def test_parses_match_golden():
    assert render_golden_pathways() == GOLDEN_PATHWAYS.read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN_PATHWAYS.write_text(render_golden_pathways(), encoding="utf-8")
