import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from scpqca import load_csv
from scpqca.cli import main

DATA = Path(__file__).resolve().parent.parent / "data"


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

    @pytest.mark.parametrize("name", ["candidates", "solve", "xval"])
    def test_thread_count_does_not_change_output(self, name):
        args = self.SUBCOMMANDS[name]
        one = run_cli(*args, "--threads", "1")
        many = run_cli(*args, "--threads", "8")
        assert one == many

    def test_real_process_solve(self):
        cmd = [sys.executable, "-m", "scpqca.cli", "solve", *REMOTE, "--cutoff", "4"]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.returncode == 0
        assert (a.returncode, a.stdout) == (b.returncode, b.stdout)
