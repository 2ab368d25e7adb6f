import io
import json
import os
import random
import re
import tempfile
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scpqca import load_csv
from scpqca.cli import build_parser, main

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


def run_cli(*args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


M1 = ["--data", str(DATA / "m1.csv"), "--outcome", "O", "--label", "1"]
REMOTE = ["--data", str(DATA / "remote_conditions.csv"), "--outcome", "LC", "--label", "1"]


class TestSolve:
    def test_m1_necessary_only_solution(self):
        code, out, err = run_cli(
            "solve", *M1, "--consistency", "0.8", "--cutoff", "2", "--unique-cover", "1"
        )
        assert code == 0
        assert "A=1 (1.0)" in out
        assert "Solution coverage     1.0" in out
        assert "Solution consistency  0.75" in out

    def test_json_round_trips_and_carries_the_numbers(self):
        code, out, _ = run_cli("solve", *M1, "--unique-cover", "1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["solution"]["coverage"] == 1.0
        assert payload["solution"]["consistency"] == 0.75
        assert payload["necessity"][0]["factor"] == "A"
        assert payload["candidate_count"] == 0

    def test_csv_format(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,B,O\na,1,1,1\nb,1,0,1\nc,0,1,0\nd,1,1,1\n")
        code, out, _ = run_cli(
            "solve", "--data", str(p), "--outcome", "O", "--label", "1",
            "--necessity-threshold", "1.0", "--cutoff", "2", "--unique-cover", "1",
            "--format", "csv",
        )
        assert code == 0
        header = out.splitlines()[0].split(",")
        assert header[:3] == ["configuration", "A", "B"]
        assert "solution_coverage" in header

    def test_csv_for_necessary_only_solution(self):
        code, out, _ = run_cli("solve", *M1, "--unique-cover", "1", "--format", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].startswith("necessary,1,")  # A=1 conjoined, B blank
        assert lines[1].endswith("1.0,0.75")

    def test_oracle_flag(self):
        code, out, _ = run_cli("solve", *REMOTE, "--cutoff", "7", "--oracle")
        assert code == 0
        assert "Oracle selection" in out

    def test_vacuous_solution_exits_2(self, tmp_path):
        p = tmp_path / "t.csv"
        # half/half outcomes, nothing necessary, nothing passes cutoff 5
        p.write_text("id,A,O\na,1,1\nb,0,1\nc,1,0\nd,0,0\n")
        code, _, err = run_cli(
            "solve", "--data", str(p), "--outcome", "O", "--label", "1", "--cutoff", "5"
        )
        assert code == 2
        assert "no admissible cover" in err

    def test_emit_schema_sidecar(self, tmp_path):
        sidecar = tmp_path / "schema.json"
        code, _, _ = run_cli("solve", *M1, "--unique-cover", "1", "--emit-schema", str(sidecar))
        assert code == 0
        meta = json.loads(sidecar.read_text())
        assert [f["name"] for f in meta["factors"]] == ["A", "B"]


class TestErrors:
    def test_oracle_limit_exits_1(self):
        code, out, err = run_cli("solve", *REMOTE, "--cutoff", "1", "--consistency", "0.5", "--oracle")
        assert code == 1
        assert "49 candidate rules exceed the oracle limit of 20" in err
        assert "Traceback" not in out + err

    def test_unknown_flag_exits_1_with_usage(self):
        code, _, err = run_cli("solve", "--no-such-flag")
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_subcommand_exits_1(self):
        code, _, err = run_cli("florble")
        assert code == 1
        assert "usage" in err.lower()

    def test_missing_file_exits_1(self):
        code, _, err = run_cli("solve", "--data", "/nonexistent.csv", "--outcome", "O")
        assert code == 1
        assert "error" in err.lower()

    def test_bad_label_names_the_flag(self):
        code, _, err = run_cli("solve", *M1[:-2], "--label", "7")
        assert code == 1
        assert "--label" in err

    def test_no_positive_cases_exits_1(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,O\na,1,0\nb,0,0\n")
        code, _, err = run_cli("solve", "--data", str(p), "--outcome", "O", "--label", "1")
        assert code == 1
        assert "no cases with outcome" in err

    def test_no_stack_traces_on_bad_input(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,O\na,oops,1\n")
        code, out, err = run_cli(
            "solve", "--data", str(p), "--outcome", "O",
            "--cutpoints", "A:0.5",
        )
        assert code == 1
        assert "Traceback" not in out + err
        assert "row 2" in err

    def test_non_ascii_digit_cell_is_a_label(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,B,O\na,1,²,1\nb,1,0,1\nc,0,1,0\nd,1,1,1\n", encoding="utf-8")
        code, out, err = run_cli(
            "necessity", "--data", str(p), "--outcome", "O", "--label", "1", "--format", "json"
        )
        assert code == 0
        assert "internal error" not in err
        assert json.loads(out)["necessary"] == [{"factor": "A", "level": 1, "consistency": 1.0}]
        assert load_csv(p, outcome_column="O").schema.factors[1].labels == ("0", "1", "²")

    def test_non_ascii_digit_in_pathway_level(self):
        code, _, err = run_cli("synth", "--factors", "3", "--pathway", "A1*B²")
        assert code == 1
        assert "expected level digits" in err
        assert "internal error" not in err

    def test_csv_level_past_int16_storage(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,O\na,32768,1\nb,0,0\nc,1,1\n")
        code, _, err = run_cli("solve", "--data", str(p), "--outcome", "O", "--label", "1")
        assert code == 1
        assert err.startswith("error:") and "'A'" in err
        assert "internal error" not in err

    def test_synth_levels_past_int16_storage(self):
        code, _, err = run_cli("synth", "--factors", "2", "--levels", "40000", "--pathway", "A1")
        assert code == 1
        assert err.startswith("error:") and "'A'" in err
        assert "internal error" not in err

    def test_utf8_bom_is_ignored(self, tmp_path):
        text = "id,A,B,O\n1,1,1,1\n2,1,0,1\n3,0,1,0\n40,1,1,1\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        args = ["--outcome", "O", "--label", "1", "--unique-cover", "1", "--format", "json"]
        expected = run_cli("solve", "--data", str(plain), *args)
        assert expected[0] == 0
        assert run_cli("solve", "--data", str(bom), *args) == expected


    def test_invalid_utf8_is_an_input_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_bytes(b"id,A,O\na,1,1\nb,\xff,0\n")
        code, _, err = run_cli("necessity", "--data", str(p), "--outcome", "O")
        assert code == 1
        assert err == f"error: {p}: not UTF-8 text (byte 0xff: invalid start byte)\n"

    def test_oversized_field_is_an_input_error(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,O\na,1,1\nb," + "x" * 200_000 + ",0\n")
        code, _, err = run_cli("necessity", "--data", str(p), "--outcome", "O")
        assert code == 1
        assert err.startswith(f"error: {p}: line 3: field larger than field limit")

    def test_integer_cell_past_the_digit_limit(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,O\na," + "1" * 5000 + ",1\nb,0,0\n")
        code, _, err = run_cli("necessity", "--data", str(p), "--outcome", "O")
        assert code == 1
        assert err == "error: integer cell 111111111111... has 5000 digits, too many for a level\n"

    @pytest.mark.parametrize("command", ["synth", "experiment"])
    def test_pathway_level_past_the_digit_limit(self, command):
        code, out, err = run_cli(command, "--factors", "3", "--pathway", "A" + "1" * 5000)
        assert code == 1
        assert out == ""
        assert err.startswith(
            "error: level 111111111111... has 5000 digits, too many for factor 'A' at position 1"
        )

    @pytest.mark.parametrize("command", ["synth", "experiment"])
    def test_long_pathway_term_is_cut_in_the_error(self, command):
        code, out, err = run_cli(command, "--factors", "3", "--pathway", "A" + "1" * 5000)
        assert code == 1
        assert out == ""
        assert err == (
            "error: level 111111111111... has 5000 digits, too many for factor 'A' at position 1 "
            "(term 'A11111111111...')\n"
        )

    @pytest.mark.parametrize("command", ["synth", "experiment"])
    def test_long_out_of_range_level_is_cut_in_the_error(self, command):
        code, out, err = run_cli(command, "--factors", "3", "--pathway", "B" + "1" * 4290)
        assert code == 1
        assert out == ""
        assert err == (
            "error: level 111111111111... out of range for factor 'B' (levels 0..1) at position 1 "
            "(term 'B11111111111...')\n"
        )

    @pytest.mark.parametrize("command", ["synth", "experiment"])
    def test_short_pathway_term_is_echoed_whole(self, command):
        code, out, err = run_cli(command, "--factors", "3", "--pathway", "A1 * B0 * C1 + A1*B9*C0")
        assert code == 1
        assert out == ""
        assert err == (
            "error: level 9 out of range for factor 'B' (levels 0..1) at position 19 (term 'A1*B9*C0')\n"
        )

    @pytest.mark.parametrize(
        "args, env, flag",
        [
            (["synth", "--factors", "3", "--pathway", "A1"], "x", "SCPQCA_SEED"),
            (["solve", *M1, "--cutpoints", "A"], None, "--cutpoints"),
            (["solve", *REMOTE, "--assume-necessary", "MS"], None, "--assume-necessary"),
            (["solve", *REMOTE, "--assume-necessary", "MS=x"], None, "--assume-necessary"),
            (["solve", *M1[:-2], "--label", "xyz"], None, "--label"),
            (["synth", "--factors", "3", "--levels", "x", "--pathway", "A1"], None, "--levels"),
        ],
    )
    def test_malformed_value_names_the_flag(self, monkeypatch, args, env, flag):
        if env is None:
            monkeypatch.delenv("SCPQCA_SEED", raising=False)
        else:
            monkeypatch.setenv("SCPQCA_SEED", env)
        code, out, err = run_cli(*args)
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and flag in err
        assert "Traceback" not in err

    def test_threads_flag_is_gone(self):
        code, out, err = run_cli("solve", *REMOTE, "--cutoff", "4", "--threads", "2")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --threads 2" in err


class TestEnumerationBoundWarning:
    # Four cases and a cutoff of 5: no literal meets the cutoff, so the walk
    # is empty however large the bound.
    @pytest.mark.parametrize(
        "factors, warning",
        [
            (26, "warning: enumeration will visit up to 2541865828328 conjunctions; "
                 "consider --max-order to bound the run\n"),
            (40, "warning: enumeration bound > 2^63 conjunctions; set --max-order\n"),
        ],
    )
    def test_warns_above_the_bound(self, tmp_path, factors, warning):
        names = [f"F{j}" for j in range(factors)]
        rows = [[str((r + j) % 2) for j in range(factors)] for r in range(4)]
        p = tmp_path / "wide.csv"
        p.write_text(
            "id," + ",".join(names) + ",O\n"
            + "".join(f"c{r},{','.join(row)},{r % 2}\n" for r, row in enumerate(rows))
        )
        code, out, err = run_cli(
            "candidates", "--data", str(p), "--outcome", "O", "--cutoff", "5", "--format", "json"
        )
        assert code == 0
        assert err == warning
        assert json.loads(out)["count"] == 0


class TestFloatColumnWarning:
    @staticmethod
    def float_csv(tmp_path):
        rng = random.Random(3)
        rows = [f"c{i},{rng.random():.4f},{rng.randrange(2)},{rng.randrange(2)}" for i in range(300)]
        p = tmp_path / "floats.csv"
        p.write_text("\n".join(["id,X,B,O", *rows]) + "\n")
        return p

    def test_uncalibrated_float_column_warns_once(self, tmp_path):
        p = self.float_csv(tmp_path)
        code, out, err = run_cli(
            "solve", "--data", str(p), "--outcome", "O", "--cutoff", "1", "--unique-cover", "1"
        )
        assert code == 0
        assert out.startswith("scpQCA solution for O=1")
        levels = len(load_csv(p, outcome_column="O").schema.factors[0].labels)
        assert err == (
            f"warning: column 'X' has {levels} levels, one per distinct number; "
            "calibrate it with --cutpoints X:p1,p2,...\n"
        )

    def test_cutpoint_columns_do_not_warn(self, tmp_path):
        p = self.float_csv(tmp_path)
        code, _, err = run_cli("necessity", "--data", str(p), "--outcome", "O", "--cutpoints", "X:0.5")
        assert (code, err) == (0, "")

    def test_integer_and_label_columns_do_not_warn(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,K,O\na,1,low,yes\nb,0,high,no\nc,3,1.5,yes\n")
        code, _, err = run_cli("necessity", "--data", str(p), "--outcome", "O", "--label", "yes")
        assert (code, err) == (0, "")


class TestNecessity:
    def test_text_table(self):
        code, out, _ = run_cli("necessity", *REMOTE)
        assert code == 0
        assert "MS" in out and "LE" in out and "ED" in out

    def test_csv(self):
        code, out, _ = run_cli("necessity", *M1, "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "factor,level,consistency"
        assert "A,1,1.0" in out

    def test_warns_when_multiple_levels_qualify(self, tmp_path):
        p = tmp_path / "t.csv"
        # positives split across both levels of A: both exceed threshold 0.4
        p.write_text("id,A,B,O\na,1,1,1\nb,0,1,1\nc,1,1,1\nd,0,1,1\ne,0,0,0\n")
        code, out, err = run_cli(
            "necessity", "--data", str(p), "--outcome", "O", "--label", "1",
            "--necessity-threshold", "0.4",
        )
        assert code == 0
        assert "multiple levels" in err


class TestAssumeNecessary:
    def test_override_is_conjoined(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,B,O\na,1,1,1\nb,0,1,1\nc,1,1,1\nd,0,1,1\ne,0,0,0\n")
        args = ["solve", "--data", str(p), "--outcome", "O", "--label", "1",
                "--necessity-threshold", "0.4", "--cutoff", "1", "--unique-cover", "1"]
        code, out, _ = run_cli(*args, "--assume-necessary", "B=1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        conjoined = [n for n in payload["necessity"] if n["conjoined"]]
        assert [(n["factor"], n["level"]) for n in conjoined] == [("B", 1)]

    def test_out_of_range_level_names_the_flag(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,O\na,1,1\nb,0,0\n")
        code, _, err = run_cli(
            "solve", "--data", str(p), "--outcome", "O", "--assume-necessary", "A=5"
        )
        assert code == 1
        assert "--assume-necessary" in err and "out of range" in err


class TestCandidates:
    def test_remote_fixture_contains_table2_rows(self):
        code, out, _ = run_cli(
            "candidates", *REMOTE, "--consistency", "0.8", "--cutoff", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        by_expr = {r["expression"]: r for r in payload["rules"]}
        assert by_expr["ms*PI*LP"]["consistency"] == 1.0
        assert by_expr["ms*PI*LP"]["matched_count"] == 4
        assert by_expr["ms*MC*pv"]["matched_count"] == 6
        assert by_expr["MC*LP"]["matched_count"] == 6

    def test_text_has_dont_care_marks(self):
        code, out, _ = run_cli("candidates", *REMOTE, "--cutoff", "4")
        assert code == 0
        assert "-" in out


class TestSynth:
    def test_csv_deterministic(self):
        args = ["synth", "--factors", "4", "--pathway", "ab+CD", "--samples", "30", "--seed", "9"]
        a = run_cli(*args)
        b = run_cli(*args)
        assert a == b
        assert a[0] == 0
        lines = a[1].splitlines()
        assert lines[0] == "id,A,B,C,D,OUTCOME"
        assert len(lines) == 31

    def test_json_emission(self):
        code, out, _ = run_cli(
            "synth", "--factors", "3", "--levels", "3", "--pathway", "A0*B0",
            "--samples", "5", "--seed", "1", "--emit", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["cases"]) == 5
        assert payload["pathway"] == "A0*B0"

    def test_out_file(self, tmp_path):
        dest = tmp_path / "synth.csv"
        code, out, _ = run_cli(
            "synth", "--factors", "2", "--pathway", "ab", "--samples", "4",
            "--seed", "0", "--out", str(dest),
        )
        assert code == 0
        assert out == ""
        assert dest.read_text().startswith("id,A,B,OUTCOME")

    def test_env_seed_fallback(self, monkeypatch):
        args = ["synth", "--factors", "2", "--pathway", "ab", "--samples", "5"]
        monkeypatch.setenv("SCPQCA_SEED", "7")
        with_env = run_cli(*args)
        explicit = run_cli(*args, "--seed", "7")
        assert with_env == explicit


class TestExperiment:
    def test_clean_row(self):
        code, out, _ = run_cli(
            "experiment", "--factors", "6", "--pathway", "ab+CD+ace+BDF",
            "--samples", "200", "--confounds", "0", "--seed", "20",
        )
        assert code == 0
        assert "1.0" in out

    def test_median_rows_with_reps(self):
        code, out, _ = run_cli(
            "experiment", "--factors", "4", "--pathway", "ab+CD", "--samples", "60",
            "--confounds", "0,5", "--reps", "3", "--seed", "1", "--format", "csv",
        )
        assert code == 0
        assert out.count("median") == 2


class TestMultiValueRoundTrip:
    def test_synth_then_solve_recovers_planted_terms(self, tmp_path):
        dest = tmp_path / "mv.csv"
        code, _, _ = run_cli(
            "synth", "--factors", "5", "--levels", "3",
            "--pathway", "A0*B0+B1*C1+C2*D2+D0*E0",
            "--samples", "200", "--seed", "20", "--out", str(dest),
        )
        assert code == 0
        code, out, _ = run_cli(
            "solve", "--data", str(dest), "--outcome", "OUTCOME", "--label", "1",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["solution"]["consistency"] == 1.0
        exprs = {c["expression"] for c in payload["configurations"]}
        assert exprs == {"A0*B0", "B1*C1", "C2*D2", "D0*E0"}


class TestSweepAndXval:
    def test_sweep_counts_monotone(self):
        code, out, _ = run_cli(
            "sweep", *REMOTE, "--cutoff", "4",
            "--consistency-list", "0.8,0.75,0.7", "--format", "json",
        )
        assert code == 0
        counts = [c["candidates"] for c in json.loads(out)["cells"]]
        assert counts == sorted(counts)

    def test_xval_runs_and_reports(self, tmp_path):
        code, out, _ = run_cli(
            "xval", *REMOTE, "--cutoff", "4", "--reps", "3", "--seed", "4", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["reps"] == 3
        assert set(payload["totals"]) == {"replicated", "superset", "subset", "not_identified"}


class TestDeterminism:
    SUBCOMMANDS = {
        "necessity": ["necessity", *REMOTE],
        "candidates": ["candidates", *REMOTE, "--cutoff", "4"],
        "solve": ["solve", *REMOTE, "--cutoff", "4"],
        "synth": ["synth", "--factors", "4", "--pathway", "ab+CD", "--samples", "20", "--seed", "3"],
        "experiment": [
            "experiment", "--factors", "4", "--pathway", "ab+CD",
            "--samples", "40", "--confounds", "0,2", "--seed", "3",
        ],
        "sweep": ["sweep", *REMOTE, "--cutoff", "4", "--consistency-list", "0.8,0.7"],
        "xval": ["xval", *REMOTE, "--cutoff", "4", "--reps", "2", "--seed", "5"],
    }

    @pytest.mark.parametrize("name", sorted(SUBCOMMANDS))
    def test_identical_runs_identical_bytes(self, name):
        args = self.SUBCOMMANDS[name]
        assert run_cli(*args) == run_cli(*args)

    @pytest.mark.parametrize("name", sorted(set(SUBCOMMANDS) - {"synth"}))
    def test_timing_adds_one_stderr_line(self, name):
        args = self.SUBCOMMANDS[name]
        code, out, err = run_cli(*args)
        timed = run_cli(*args, "--timing")
        assert timed[:2] == (code, out)
        assert timed[2].startswith(err)
        assert re.fullmatch(r"total runtime: \d+\.\d\ds\n", timed[2][len(err):])

    def test_real_process_solve(self):
        cmd = [sys.executable, "-m", "scpqca.cli", "solve", *REMOTE, "--cutoff", "4"]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == 0
        assert (a.returncode, a.stdout) == (b.returncode, b.stdout)


# ---------------------------------------------------------------------------
# Fuzz: small CSV files and flag combinations for the subcommands that read
# data, and generator flags for synth and experiment. The CLI promises exit
# codes 0/1/2 and an error line, never an internal error.

FUZZ_CELLS = ["0", "1", "1", "2", "3", "-1", " 1 ", "a", "b", "0.5", "2.75", "nan", "", " ", "40000", "²", "x,y"]
# Mostly valid values, so that most runs reach the analysis, plus bad ones.
FUZZ_FLAGS = {
    "--label": ["1", "1", "0", "2", "-1", "a"],
    "--consistency": ["0.8", "0.5", "1", "0", "2/3", "1.5", "-1", "abc", "1/0", "nan"],
    "--cutoff": ["1", "2", "0", "-1", "100"],
    "--unique-cover": ["1", "2", "0", "-3"],
    "--necessity-threshold": ["0.9", "0.5", "0", "1", "2", "x"],
    "--max-order": ["1", "2", "3", "0", "-1"],
    "--assume-necessary": ["A=1", "A=0", "A=9", "Q=1", "A", "A=x", "A=1,A=0", ","],
    "--format": ["text", "json", "csv"],
}
SWEEP_LISTS = {
    "--consistency-list": ["0.8", "0.8", "0.5", "1", "2/3", "0", "1.5", "x", "", " "],
    "--cutoff-list": ["1", "2", "2", "3", "0", "-1", "a", ""],
    "--unique-cover-list": ["1", "1", "2", "0", "x", ""],
}
XVAL_FRACTIONS = ["1e-9", "0.01", "0.1", "0.5", "0.9", "0.99", "0.999999", "0", "1", "-0.1", "nan", "inf", "x"]
RARELY = st.sampled_from([False] * 9 + [True])
SOMETIMES = st.sampled_from([False, False, True])
BIT = st.sampled_from(["0", "1"])
FUZZ_CELL = st.one_of(BIT, st.sampled_from(FUZZ_CELLS), st.text(max_size=3))


@st.composite
def cli_inputs(draw, commands):
    header = draw(st.lists(st.sampled_from(["id", "A", "B", "C", "x y"]), min_size=0, max_size=4, unique=True))
    header.insert(draw(st.integers(0, len(header))), "O")
    numbered_ids = draw(st.booleans())
    tame = draw(SOMETIMES)  # clean bits and no bad flags, so that most runs reach the analysis
    cell_strategy = BIT if tame else draw(st.sampled_from([BIT, FUZZ_CELL]))  # a clean 0/1 file or a messy one
    follow_a = "A" in header and draw(st.booleans())  # the outcome copies A, so solve often finds a cover
    rows = []
    for i in range(draw(st.integers(0, 12))):
        cells = draw(st.tuples(*(cell_strategy for _ in header)))
        row = [f"c{i}" if name == "id" and numbered_ids else cell for name, cell in zip(header, cells)]
        if follow_a:
            row[header.index("O")] = row[header.index("A")]
        rows.append(row)
    data = "\n".join(",".join(row) for row in [header, *rows]).encode() + b"\n"
    if draw(RARELY):  # now and then a byte that is not UTF-8 text
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.binary(min_size=1, max_size=2)) + data[at:]
    command = draw(st.sampled_from(commands))
    args = [command, "--outcome", "O" if tame else draw(st.sampled_from(["O", "O", *header, "Z"]))]
    for flag, entries in (SWEEP_LISTS if command == "sweep" else {}).items():
        if draw(st.booleans()):  # empty, blank and repeated entries included
            args += [flag, ",".join(draw(st.lists(st.sampled_from(entries), max_size=4)))]
    if command == "xval":
        args += ["--fraction", draw(st.sampled_from(XVAL_FRACTIONS)), "--reps", draw(st.sampled_from("123"))]
    if not tame and draw(SOMETIMES):
        points = draw(st.sampled_from(["0.5", "0,1", "0.5,2", "1,0", "", "a", "1e400"]))
        args += ["--cutpoints", f"{draw(st.sampled_from([*header, 'Z']))}:{points}"]
    if draw(st.booleans()):
        args.append("--dedup")
    if not tame and draw(SOMETIMES):
        args += ["--id-column", draw(st.sampled_from([*header, "Z"]))]
    for flag, values in FUZZ_FLAGS.items():
        if (flag == "--format" or not tame) and draw(SOMETIMES):
            args += [flag, draw(st.sampled_from(values))]
    return data, args


# Level counts on both sides of the 1-byte column limit and of the factor limit.
SYNTH_LEVELS = ["2", "2", "256", "257", "32768", "32769"]


@st.composite
def synth_inputs(draw):
    """Mostly valid generator runs, sometimes with one bad level, term or count."""
    command = draw(st.sampled_from(["synth", "experiment"]))
    factors = draw(st.integers(1, 3))
    levels = draw(st.lists(st.sampled_from(SYNTH_LEVELS), min_size=factors, max_size=factors))
    if draw(RARELY):
        levels.append("2")  # one count too many
    args = [command, "--factors", str(factors)]
    args += ["--levels", levels[0] if len(set(levels)) == 1 else ",".join(levels)]
    terms = []
    for _ in range(draw(st.integers(1, 2))):
        picked = sorted(draw(st.sets(st.integers(0, factors - 1), min_size=1)))
        atoms = []
        for j in picked:
            top = int(levels[j]) - 1
            level = draw(st.sampled_from([0, 1, top, top] + [top + 1] * draw(RARELY)))
            atoms.append(f"{'ABC'[j]}{level}{'x' * draw(RARELY)}")
        terms.append("*".join(atoms))
    args += ["--pathway", "+".join(terms)]
    samples = draw(st.sampled_from([1, 5, 20, 20] + [0] * draw(RARELY)))
    confounds = draw(st.sampled_from([0, 0, 1, samples, samples + 1]))
    args += ["--samples", str(samples), "--seed", draw(st.sampled_from("0123"))]
    if command == "synth":
        args += ["--confound", str(confounds), "--emit", draw(st.sampled_from(["csv", "json"]))]
    else:
        args += ["--confounds", draw(st.sampled_from(["0", f"0,{confounds}", str(confounds), ""]))]
        args += ["--reps", draw(st.sampled_from("12")), "--format", draw(st.sampled_from(["text", "json", "csv"]))]
        args += ["--cutoff", draw(st.sampled_from("12")), "--unique-cover", "1", "--consistency", "0.5"]
    return args


def check_data_run(case) -> None:
    data, args = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.csv"
        path.write_bytes(data)
        code, _, err = run_cli(args[0], "--data", str(path), *args[1:])
    assert code in (0, 1, 2)
    assert "internal error" not in err


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(cli_inputs(["necessity", "solve"]))
    def test_exit_code_and_no_internal_error(self, case):
        check_data_run(case)

    @settings(max_examples=150, deadline=None)
    @given(cli_inputs(["candidates", "sweep", "xval"]))
    def test_candidates_sweep_xval_exit_code_and_no_internal_error(self, case):
        check_data_run(case)

    @settings(max_examples=60, deadline=None)
    @given(synth_inputs(), st.booleans())
    def test_generators_exit_code_and_no_internal_error(self, args, to_file):
        with tempfile.TemporaryDirectory() as tmp:
            out = ["--out", str(Path(tmp) / "out.txt")] if to_file and args[0] == "synth" else []
            code, _, err = run_cli(*args, *out)
        assert code in (0, 1, 2)
        assert "internal error" not in err


class TestStartup:
    def test_cli_import_leaves_numpy_unloaded(self):
        code = "import sys, scpqca.cli; print('numpy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert (run.returncode, run.stdout) == (0, "False\n")


# ---------------------------------------------------------------------------
# The README's command-line section documents exactly the parser's flags.


def parser_flags() -> set[str]:
    parser = build_parser()
    flags = set()
    for action in parser._subparsers._group_actions:
        for sub in action.choices.values():
            flags.update(o for a in sub._actions for o in a.option_strings if o.startswith("--"))
    return flags - {"--help"}


def readme_cli_flags() -> set[str]:
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    lines = [line for line in section.splitlines() if "scripts/fetch_pban.py" not in line]
    return set(re.findall(r"--[a-z][a-z-]*[a-z]", "\n".join(lines)))


class TestReadmeFlags:
    def test_every_parser_flag_is_documented(self):
        assert parser_flags() - readme_cli_flags() == set()

    def test_readme_names_no_unknown_flag(self):
        assert readme_cli_flags() - parser_flags() == set()
