"""Acceptance suite: one test per release criterion, tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Synthetic criteria use fixed, documented seeds; the greedy
selection is sensitive to sampling noise near the consistency threshold,
so the seeds are part of the reproducible setup rather than free choices.
"""

import io
import json
import random
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from statistics import median

import pytest

from scpqca import (
    AnalysisParams,
    CandidateRule,
    Conjunction,
    ExperimentSpec,
    ValidityClass,
    classify_configuration,
    enumerate_candidates,
    exhaustive_cover_oracle,
    external_validity,
    generate_experiment_table,
    greedy_cover,
    load_csv,
    match_bits,
    necessity_consistency,
    parse_pathway,
    rule_from_conjunction,
    run_experiment,
    solve,
    synth_schema,
)
from scpqca.cli import main as cli_main
from scpqca.model import Literal, UndefinedRatioError
from conftest import random_table

DATA = Path(__file__).resolve().parent.parent / "data"
PBAN = DATA / "pban.csv"

# Fixed seeds for the synthetic criteria (see module docstring).
RECOVERY_SEED = 20
CONFOUND_SEED_BASE = 42

SIX_FACTOR_PATHWAY = "ab+CD+ace+BDF"
DEFAULT_PARAMS = AnalysisParams(
    decision_label=1, consistency_threshold="0.8", cutoff=2, unique_cover=2
)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number:02d} [{name}]: {'PASS' if ok else 'FAIL'}")


def run_cli(*args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(list(args))
    return code, out.getvalue(), err.getvalue()


def test_criterion_01_clean_recovery():
    schema = synth_schema(6)
    pathway = parse_pathway(SIX_FACTOR_PATHWAY, schema)
    t0 = time.perf_counter()
    report = run_experiment(
        ExperimentSpec(schema, pathway, 200, 0, RECOVERY_SEED), DEFAULT_PARAMS
    )
    runtime = time.perf_counter() - t0
    configs = report.result.solution.configurations()
    classes = [classify_configuration(c, pathway.terms) for c in configs]
    all_related = all(c is not ValidityClass.NOT_IDENTIFIED for c in classes)
    ok = (
        report.consistency == 1
        and report.coverage >= Fraction(98, 100)
        and all_related
        and runtime < 5.0
    )
    _report(1, "clean planted-pathway recovery", ok)
    assert report.consistency == 1
    assert report.coverage >= Fraction(98, 100)
    assert all_related, [str(c) for c in classes]
    assert runtime < 5.0


def test_criterion_02_confounding_degradation():
    from scpqca import derive_seed

    schema = synth_schema(6)
    pathway = parse_pathway(SIX_FACTOR_PATHWAY, schema)
    t0 = time.perf_counter()
    cons, cov = [], []
    for i in range(10):
        rep = run_experiment(
            ExperimentSpec(schema, pathway, 200, 20, derive_seed(CONFOUND_SEED_BASE, i)),
            DEFAULT_PARAMS,
        )
        cons.append(rep.consistency)
        cov.append(rep.coverage)
    runtime = time.perf_counter() - t0
    med_cons, med_cov = median(cons), median(cov)
    ok = (
        Fraction(84, 100) <= med_cons <= Fraction(94, 100)
        and Fraction(83, 100) <= med_cov <= Fraction(93, 100)
        and runtime < 60.0
    )
    _report(2, "confounding degradation medians", ok)
    assert Fraction(84, 100) <= med_cons <= Fraction(94, 100), float(med_cons)
    assert Fraction(83, 100) <= med_cov <= Fraction(93, 100), float(med_cov)
    assert runtime < 60.0


def test_criterion_03_multifactor_scalability():
    schema = synth_schema(20)
    pathway = parse_pathway(SIX_FACTOR_PATHWAY, schema)
    params = AnalysisParams(
        decision_label=1, consistency_threshold="0.8", cutoff=2, unique_cover=2, max_order=4
    )
    tracemalloc.start()
    t0 = time.perf_counter()
    report = run_experiment(ExperimentSpec(schema, pathway, 200, 0, RECOVERY_SEED), params)
    runtime = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    peak_mb = peak / 2**20
    ok = (
        runtime < 600.0
        and report.consistency >= Fraction(95, 100)
        and report.coverage >= Fraction(95, 100)
        and peak_mb < 512
    )
    _report(3, "20-factor scalability (streaming)", ok)
    assert runtime < 600.0
    assert report.consistency >= Fraction(95, 100), float(report.consistency)
    assert report.coverage >= Fraction(95, 100), float(report.coverage)
    assert peak_mb < 512, f"peak {peak_mb:.0f} MiB"


def test_criterion_04_multivalue_recovery():
    schema = synth_schema(5, 3)
    pathway = parse_pathway("A0*B0+B1*C1+C2*D2+D0*E0", schema)
    report = run_experiment(
        ExperimentSpec(schema, pathway, 200, 0, RECOVERY_SEED), DEFAULT_PARAMS
    )
    cands = {r.conjunction: r.consistency for r in report.result.candidates}
    terms_present = all(cands.get(term) == 1 for term in pathway.terms)
    ok = report.consistency == 1 and report.coverage >= Fraction(90, 100) and terms_present
    _report(4, "multi-value recovery", ok)
    assert report.consistency == 1
    assert report.coverage >= Fraction(90, 100)
    assert terms_present


@pytest.mark.skipif(not PBAN.exists(), reason="pban dataset absent; run scripts/fetch_pban.py")
def test_criterion_05_pban_reproduction():
    table = load_csv(PBAN, outcome_column="PB")
    result = solve(table, DEFAULT_PARAMS)
    solution = result.solution
    by_expr = {}
    for rule, uniq in zip(solution.rules, solution.per_rule_unique_coverage):
        name = "*".join(
            f"{table.schema.factors[l.factor_index].name}={l.value}"
            for l in rule.conjunction.literals
        )
        by_expr[name] = (rule, uniq)
    expected_cov = {"C=1": 17, "F=2": 26, "T=2": 34, "V=0": 7}
    got_all = set(by_expr) == set(expected_cov)
    cov_ok = got_all and all(len(by_expr[k][0].matched) == v for k, v in expected_cov.items())
    t_cons_ok = got_all and abs(float(by_expr["T=2"][0].consistency) - 0.94) <= 0.005
    sol_ok = (
        solution.solution_coverage == 1
        and abs(float(solution.solution_consistency) - 0.9545) <= 0.001
    )
    ok = got_all and cov_ok and t_cons_ok and sol_ok
    _report(5, "pban reproduction", ok)
    assert got_all, sorted(by_expr)
    assert cov_ok
    assert t_cons_ok
    assert sol_ok, (float(solution.solution_coverage), float(solution.solution_consistency))


def test_criterion_06_candidate_list_reproduction(remote_table):
    params = AnalysisParams(1, "0.8", cutoff=4)
    rules = enumerate_candidates(remote_table, range(7), params)
    from scpqca import conjunction_shorthand

    by_expr = {conjunction_shorthand(r.conjunction, remote_table.schema): r for r in rules}
    expected = {"ms*PI*LP": 4, "ms*MC*pv": 6, "MC*LP": 6}
    ok = all(
        expr in by_expr and by_expr[expr].consistency == 1 and len(by_expr[expr].matched) == n
        for expr, n in expected.items()
    )
    # the CLI surface agrees
    code, out, _ = run_cli(
        "candidates", "--data", str(DATA / "remote_conditions.csv"), "--outcome", "LC",
        "--label", "1", "--consistency", "0.8", "--cutoff", "4", "--format", "json",
    )
    payload = json.loads(out)
    cli_exprs = {r["expression"]: r for r in payload["rules"]}
    ok = ok and code == 0 and all(
        cli_exprs[e]["consistency"] == 1.0 and cli_exprs[e]["matched_count"] == n
        for e, n in expected.items()
    )
    _report(6, "candidate-list reproduction", ok)
    assert ok


def test_criterion_07_oracle_equivalence():
    rng = random.Random(777)
    equal = 0
    for _ in range(200):
        n_pos = rng.randint(1, 30)
        universe = [f"p{i}" for i in range(n_pos)]
        index = universe + [f"n{i}_{j}" for i in range(12) for j in range(3)]
        rules = []
        for i in range(rng.randint(1, 12)):
            ids = frozenset(rng.sample(universe, rng.randint(1, n_pos)))
            extra = frozenset(f"n{i}_{j}" for j in range(rng.randint(0, 3)))
            rules.append(CandidateRule.from_sets(Conjunction.of((i, 0)), ids | extra, ids, index))
        params = AnalysisParams(1, unique_cover=rng.randint(1, 3))
        greedy = greedy_cover(rules, universe, params)
        oracle = exhaustive_cover_oracle(rules, universe, params)

        def cov(sel):
            seen = set()
            for r in sel:
                seen |= r.positives_matched
            return len(seen & set(universe))

        g, o = cov(greedy), cov(oracle)
        assert o >= g, "oracle found less coverage than greedy"
        if o == g:
            equal += 1
    ok = equal >= 120
    _report(7, "greedy vs exact oracle", ok)
    assert equal >= 120, f"greedy optimal on only {equal}/200"


def test_criterion_08_metric_property_suite(remote_table, m1_table):
    rng = random.Random(4242)
    draws = 0
    while draws < 10_000:
        table = random_table(rng, max_factors=3, max_levels=3, max_cases=12)
        nf = len(table.schema.factors)
        for _ in range(20):
            draws += 1
            label = rng.randrange(table.schema.outcome_levels)
            k = rng.randint(1, nf)
            idxs = rng.sample(range(nf), k)
            conj = Conjunction(
                tuple(Literal(i, rng.randrange(table.schema.factors[i].levels)) for i in idxs)
            )
            try:
                suf = rule_from_conjunction(conj, table, label).consistency
                assert 0 <= suf <= 1
            except UndefinedRatioError:
                pass
            if table.positive_bits(label):
                lit = Literal(idxs[0], rng.randrange(table.schema.factors[idxs[0]].levels))
                nec = necessity_consistency(lit, table, label)
                assert 0 <= nec <= 1
            # anti-monotone matching: dropping a literal never shrinks the set
            if len(conj.literals) > 1:
                sub = Conjunction(conj.literals[:-1])
                assert match_bits(conj, table) & ~match_bits(sub, table) == 0

    # threshold directions on the repo fixtures
    counts_cons = [
        len(enumerate_candidates(remote_table, range(7), AnalysisParams(1, c, cutoff=4)))
        for c in ("0.8", "0.75", "0.7")
    ]
    counts_cut = [
        len(enumerate_candidates(remote_table, range(7), AnalysisParams(1, "0.8", cutoff=k)))
        for k in (2, 3, 4, 5)
    ]
    m1_counts = [
        len(enumerate_candidates(m1_table, [0, 1], AnalysisParams(1, c, cutoff=1)))
        for c in ("0.9", "0.7", "0.5")
    ]
    directions_ok = (
        counts_cons == sorted(counts_cons)
        and counts_cut == sorted(counts_cut, reverse=True)
        and m1_counts == sorted(m1_counts)
    )
    _report(8, "metric property suite (10k draws)", directions_ok)
    assert directions_ok, (counts_cons, counts_cut, m1_counts)


def test_criterion_09_determinism():
    remote = ["--data", str(DATA / "remote_conditions.csv"), "--outcome", "LC", "--label", "1"]
    commands = {
        "necessity": ["necessity", *remote],
        "candidates": ["candidates", *remote, "--cutoff", "4"],
        "solve": ["solve", *remote, "--cutoff", "4", "--format", "json"],
        "synth": ["synth", "--factors", "6", "--pathway", SIX_FACTOR_PATHWAY,
                  "--samples", "50", "--seed", str(RECOVERY_SEED)],
        "experiment": ["experiment", "--factors", "6", "--pathway", SIX_FACTOR_PATHWAY,
                       "--samples", "100", "--confounds", "0,5", "--seed", str(RECOVERY_SEED)],
        "sweep": ["sweep", *remote, "--cutoff", "4", "--consistency-list", "0.8,0.7"],
        "xval": ["xval", *remote, "--cutoff", "4", "--reps", "3", "--seed", "11"],
    }
    ok = True
    for name, args in commands.items():
        first = run_cli(*args)
        second = run_cli(*args)
        same = first == second and first[0] == 0
        ok = ok and same
        assert first == second, f"{name}: outputs differ between runs"
        assert first[0] == 0, f"{name}: exit {first[0]}"
    _report(9, "byte-identical determinism", ok)


def test_criterion_10_external_validity_protocol():
    schema = synth_schema(6)
    pathway = parse_pathway(SIX_FACTOR_PATHWAY, schema)
    table = generate_experiment_table(ExperimentSpec(schema, pathway, 200, 0, RECOVERY_SEED))
    report = external_validity(table, DEFAULT_PARAMS, fraction=0.10, reps=10, seed=RECOVERY_SEED)
    totals = report.class_totals()
    classified = sum(totals.values())
    good = totals[ValidityClass.REPLICATED] + totals[ValidityClass.SUPERSET]
    share_ok = classified > 0 and Fraction(good, classified) >= Fraction(80, 100)

    # the three footnote examples, verbatim semantics
    orig_eq = [Conjunction.of((0, 1), (1, 1))]
    ex1 = classify_configuration(Conjunction.of((0, 1), (1, 1)), orig_eq) is ValidityClass.REPLICATED
    orig = [Conjunction.of((0, 1), (1, 0))]
    ex2 = classify_configuration(Conjunction.of((0, 1)), orig) is ValidityClass.SUPERSET
    ex3 = (
        classify_configuration(Conjunction.of((0, 1), (1, 0), (2, 0)), orig)
        is ValidityClass.SUBSET
    )
    ok = share_ok and ex1 and ex2 and ex3
    _report(10, "external-validity protocol", ok)
    assert share_ok, {k.value: v for k, v in totals.items()}
    assert ex1 and ex2 and ex3
