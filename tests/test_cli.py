import errno
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

from scpqca import load_csv, pathways, robustness
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
        p.write_text("id,A,B,O\na,1,1,1\nb,1,0,1\nc,0,1,0\nd,1,1,1\n", encoding="utf-8")
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

    def test_dropped_rule_is_printed_as_a_warning(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,B,O\na1,1,0,1\na2,1,0,1\nb1,0,1,1\nb2,0,1,1\nc,1,0,0\n", encoding="utf-8")
        code, out, _ = run_cli(
            "solve", "--data", str(p), "--outcome", "O", "--label", "1",
            "--cutoff", "2", "--unique-cover", "2", "--assume-necessary", "A=1",
        )
        assert code == 0
        assert [line for line in out.splitlines() if line.startswith("warning:")] == [
            "warning: rule B=1 matches no cases under the necessary conditions and was dropped",
            "warning: solution consistency 0.6667 fell below the candidate threshold 0.8000",
        ]

    def test_oracle_flag(self):
        code, out, _ = run_cli("solve", *REMOTE, "--cutoff", "7", "--oracle")
        assert code == 0
        assert "Oracle selection" in out

    def test_vacuous_solution_exits_2(self, tmp_path):
        p = tmp_path / "t.csv"
        # half/half outcomes, nothing necessary, nothing passes cutoff 5
        p.write_text("id,A,O\na,1,1\nb,0,1\nc,1,0\nd,0,0\n", encoding="utf-8")
        code, _, err = run_cli(
            "solve", "--data", str(p), "--outcome", "O", "--label", "1", "--cutoff", "5"
        )
        assert code == 2
        assert "no admissible cover" in err

    def test_emit_schema_sidecar(self, tmp_path):
        sidecar = tmp_path / "schema.json"
        code, _, _ = run_cli("solve", *M1, "--unique-cover", "1", "--emit-schema", str(sidecar))
        assert code == 0
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        assert [f["name"] for f in meta["factors"]] == ["A", "B"]

    def test_emit_schema_records_labels_and_cutpoints(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,K,X,O\na,low,0.2,yes\nb,high,0.7,no\nc,low,0.9,yes\nd,high,0.1,no\n", encoding="utf-8")
        sidecar = tmp_path / "schema.json"
        code, _, _ = run_cli(
            "solve", "--data", str(p), "--outcome", "O", "--label", "yes", "--cutpoints", "X:0.5",
            "--unique-cover", "1", "--emit-schema", str(sidecar),
        )
        assert code == 0
        meta = json.loads(sidecar.read_text(encoding="utf-8"))
        assert meta["factors"] == [
            {"name": "K", "levels": 2, "labels": {"high": 0, "low": 1}},
            {"name": "X", "levels": 2, "cutpoints": [0.5]},
        ]
        assert meta["outcome"] == {"name": "O", "levels": 2, "labels": {"no": 0, "yes": 1}}


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

    # "#" stands for 5 000 nines, past the interpreter's digit limit, and "@"
    # for 4 000 nines, an integer that converts but is out of range.
    @pytest.mark.parametrize(
        "args",
        [["solve", *M1, flag, value] for flag, value in [
            ("--assume-necessary", "A=#"), ("--assume-necessary", "A=@"), ("--assume-necessary", "A#"),
            ("--assume-necessary", "X#=1"), ("--label", "#"), ("--label", "@"), ("--label", "x#"),
            ("--cutpoints", "A:#,x"), ("--cutpoints", "A#"), ("--consistency", "x#"), ("--outcome", "O#"),
            ("--id-column", "O#")]]
        + [["synth", "--factors", "3", "--pathway", "ab", "--levels", "#x"],
           ["synth", "--factors", "3", "--pathway", "ab", "--levels", "@"],
           ["experiment", "--factors", "3", "--pathway", "ab", "--confounds", "#"],
           ["sweep", *M1, "--cutoff-list", "#"]],
        ids=lambda args: "-".join(args[:1] + args[-2:]),
    )
    def test_a_long_value_is_echoed_cut(self, args):
        code, out, err = run_cli(*[a.replace("#", "9" * 5000).replace("@", "9" * 4000) for a in args])
        assert code == 1 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and len(err) < 200

    def test_a_long_seed_variable_is_echoed_cut(self, monkeypatch):
        monkeypatch.setenv("SCPQCA_SEED", "9" * 5000 + "x")
        code, _, err = run_cli("synth", "--factors", "3", "--pathway", "ab")
        assert code == 1
        assert err == "error: SCPQCA_SEED must be an integer, got '999999999999...'\n"

    def test_a_long_data_path_is_echoed_cut(self):
        code, out, err = run_cli("solve", "--data", "d" * 5000, "--outcome", "O")
        assert (code, out) == (1, "")
        too_long = f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}"
        assert err == f"error: {too_long}: 'dddddddddddd...'\n"

    @pytest.mark.parametrize("length, shown", [(40, "m" * 40), (41, "mmmmmmmmmmmm...")])
    def test_a_missing_data_path_is_echoed_whole_up_to_40_characters(self, tmp_path, monkeypatch, length, shown):
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli("solve", "--data", "m" * length, "--outcome", "O")
        assert (code, out) == (1, "")
        assert err == f"error: [Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: '{shown}'\n"

    def test_a_long_header_list_is_echoed_cut(self, tmp_path):
        p = tmp_path / "t.csv"
        names = [f"factor_{i}" for i in range(1000)]
        p.write_text(",".join(["id", *names]) + "\n" + ",".join(["a", *"1" * 1000]) + "\n", encoding="utf-8")
        code, out, err = run_cli("solve", "--data", str(p), "--outcome", "O")
        assert (code, out) == (1, "")
        assert err == f"error: {p}: outcome column 'O' not found (columns: id, factor_0...)\n"

    def test_a_short_header_list_is_echoed_whole(self, tmp_path):
        code, out, err = run_cli("solve", "--data", str(DATA / "m1.csv"), "--outcome", "Y")
        assert (code, out) == (1, "")
        assert err == f"error: {DATA / 'm1.csv'}: outcome column 'Y' not found (columns: id, A, B, O)\n"

    def test_a_calibration_column_not_in_the_header(self):
        code, out, err = run_cli("solve", *M1, "--cutpoints", "NOPE:0.5")
        assert (code, out, err) == (1, "", f"error: {DATA / 'm1.csv'}: calibration column 'NOPE' not found\n")

    def test_a_calibration_of_the_id_column(self):
        code, out, err = run_cli("solve", *M1, "--cutpoints", "id:0.5")
        assert (code, out, err) == (1, "", f"error: {DATA / 'm1.csv'}: calibration column 'id' is the id column\n")

    @pytest.mark.parametrize(
        "first, second, shown",
        [("A:0.5", "A:5", "A"), ("A:1", " A :2", "A"), ("N" * 5000 + ":1", "N" * 5000 + ":2", "NNNNNNNNNNNN...")],
        ids=["plain", "spaced", "5000-characters"],
    )
    def test_a_column_cut_twice_is_refused(self, first, second, shown):
        # Names are compared stripped, so 'A' and ' A ' are one column.
        for command in ("necessity", "solve"):
            code, out, err = run_cli(command, *M1, "--cutpoints", first, "--cutpoints", second)
            assert (code, out, err) == (1, "", f"error: --cutpoints names column {shown!r} twice\n")

    @pytest.mark.parametrize(
        "args, line",
        [
            (["solve", "--cutoff", "9" * 5000], "--cutoff: invalid int value: '999999999999...'"),
            (["solve", "--format", "x" * 5000], "--format: invalid choice: 'xxxxxxxxxxxx...' ("),
            (["xval", "--fraction", "x" * 5000], "--fraction: invalid float value: 'xxxxxxxxxxxx...'"),
            (["solve", "--format", "x" * 41], "--format: invalid choice: 'xxxxxxxxxxxx...' ("),
            (["solve", "--format", "x" * 40], f"--format: invalid choice: '{'x' * 40}' ("),
            (["solve", "--cutoff", "1.5"], "--cutoff: invalid int value: '1.5'"),
        ],
        ids=["long-int", "long-choice", "long-float", "41-characters", "40-characters", "short"],
    )
    def test_a_usage_error_echoes_a_long_value_cut(self, args, line):
        code, out, err = run_cli(*args)
        assert (code, out) == (1, "")
        assert err.startswith("usage: scpqca ") and len(err) < 1000
        # The choices' own quoting varies across Python releases, so they are left out.
        assert err.splitlines()[-1].startswith(f"scpqca {args[0]}: error: argument {line}")

    @pytest.mark.parametrize(
        "stray, shown",
        [(["x" * 5000], "xxxxxxxxxxxx..."), (["x y" * 2000], "x yx yx yx y..."),
         (["x" * 20, "y" * 20], "xxxxxxxxxxxx..."), (["x" * 40], "x" * 40), (["ab", "'cd'"], "ab 'cd'")],
        ids=["long", "long-with-spaces", "two-of-41-characters", "40-characters", "short"],
    )
    def test_stray_arguments_are_echoed_cut(self, stray, shown):
        code, out, err = run_cli("solve", *M1, *stray)
        assert (code, out) == (1, "")
        assert err.startswith("usage: scpqca ") and len(err) < 1024
        assert err.splitlines()[-1] == f"scpqca: error: unrecognized arguments: {shown}"

    @pytest.mark.parametrize("value, shown", [("x" * 5000, "--cu=xxxxxxx..."), ("1", "--cu=1")], ids=["long", "short"])
    def test_an_ambiguous_option_is_echoed_cut(self, value, shown):
        code, out, err = run_cli("solve", *M1, f"--cu={value}")
        assert (code, out) == (1, "")
        assert err.startswith("usage: scpqca ") and len(err) < 1024
        assert err.splitlines()[-1].startswith(f"scpqca solve: error: ambiguous option: {shown} could match --")

    @pytest.mark.parametrize("command", ["synth", "experiment"])
    def test_a_huge_sample_size_is_refused_before_any_draw(self, command):
        code, out, err = run_cli(command, "--factors", "3", "--pathway", "ab", "--samples", "9" * 4000)
        assert (code, out) == (1, "")
        assert err == "error: sample_size must be <= 10000000, got 999999999999...\n"

    def test_bad_label_names_the_flag(self):
        code, _, err = run_cli("solve", *M1[:-2], "--label", "7")
        assert code == 1
        assert "--label" in err

    def test_no_positive_cases_exits_1(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,O\na,1,0\nb,0,0\n", encoding="utf-8")
        code, _, err = run_cli("solve", "--data", str(p), "--outcome", "O", "--label", "1")
        assert code == 1
        assert "no cases with outcome" in err

    def test_no_stack_traces_on_bad_input(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,O\na,oops,1\n", encoding="utf-8")
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
        p.write_text("id,A,O\na,32768,1\nb,0,0\nc,1,1\n", encoding="utf-8")
        code, _, err = run_cli("solve", "--data", str(p), "--outcome", "O", "--label", "1")
        assert code == 1
        assert err.startswith("error:") and "'A'" in err
        assert "internal error" not in err

    def test_synth_levels_past_int16_storage(self):
        code, _, err = run_cli("synth", "--factors", "2", "--levels", "40000", "--pathway", "A1")
        assert code == 1
        assert err.startswith("error:") and "'A'" in err
        assert "internal error" not in err

    def test_synth_levels_list_of_the_wrong_length(self):
        code, out, err = run_cli("synth", "--factors", "3", "--levels", "2,3", "--pathway", "ab")
        assert (code, out) == (1, "")
        assert err == "error: --levels lists 2 counts for 3 factors\n"

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
        p.write_text("id,A,O\na,1,1\nb," + "x" * 200_000 + ",0\n", encoding="utf-8")
        code, _, err = run_cli("necessity", "--data", str(p), "--outcome", "O")
        assert code == 1
        assert err.startswith(f"error: {p}: line 3: field larger than field limit")

    def test_integer_cell_past_the_digit_limit(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,O\na," + "1" * 5000 + ",1\nb,0,0\n", encoding="utf-8")
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

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_experiment_reps_below_one(self, reps):
        code, out, err = run_cli("experiment", "--factors", "3", "--pathway", "ab", "--reps", reps, "--format", "json")
        assert (code, out, err) == (1, "", f"error: reps must be >= 1, got {reps}\n")

    @pytest.mark.parametrize("command", ["xval", "experiment"])
    @pytest.mark.parametrize(
        "reps, message",
        [("9" * 60, "reps must be <= 100000, got 999999999999..."),
         ("100001", "reps must be <= 100000, got 100001"),
         ("-" + "9" * 3000, "reps must be >= 1, got -99999999999...")],
        ids=["60-nines", "one-past", "minus-3000-nines"],
    )
    def test_reps_out_of_bounds_is_refused_before_any_rep(self, monkeypatch, command, reps, message):
        def no_rep(*args, **kwargs):
            raise AssertionError("a rep ran")

        monkeypatch.setattr(robustness, "solve", no_rep)
        monkeypatch.setattr(pathways, "run_experiment", no_rep)
        args = M1 if command == "xval" else ["--factors", "3", "--pathway", "ab"]
        code, out, err = run_cli(command, *args, "--reps", reps)
        assert (code, out, err) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("confounds", ["", ","])
    def test_experiment_empty_confounds(self, confounds):
        code, out, err = run_cli("experiment", "--factors", "3", "--pathway", "ab", "--confounds", confounds)
        assert (code, out, err) == (1, "", "error: --confounds must list at least one count\n")

    # Seed 0's third repetition draws five cases none of which has A=1.
    UNLUCKY = ["experiment", "--factors", "3", "--pathway", "A1", "--samples", "5"]

    def test_experiment_names_the_repetition_that_failed(self):
        code, out, err = run_cli(*self.UNLUCKY, "--reps", "3", "--seed", "0")
        seed = robustness.derive_seed(0, 2)
        assert (code, out, err) == (1, "", f"error: confounds 0, rep 2 (seed {seed}): no cases with outcome 1\n")

    def test_a_single_run_is_named_by_confounds_and_seed(self):
        seed = str(robustness.derive_seed(0, 2))
        code, out, err = run_cli(*self.UNLUCKY, "--seed", seed, "--confounds", "0,1")
        assert (code, out, err) == (1, "", f"error: confounds 0 (seed {seed}): no cases with outcome 1\n")

    def test_a_vacuous_experiment_keeps_exit_2(self):
        code, out, err = run_cli("experiment", "--factors", "3", "--pathway", "A1+B1", "--samples", "20",
                                 "--unique-cover", "1000", "--seed", "0")
        assert (code, out) == (2, "")
        assert err == "error: confounds 0 (seed 0): no admissible cover and no necessary conditions\n"

    def test_threads_flag_is_gone(self):
        code, out, err = run_cli("solve", *REMOTE, "--cutoff", "4", "--threads", "2")
        assert code == 1
        assert out == ""
        assert "unrecognized arguments: --threads 2" in err


# A header name longer than 40 characters is echoed as its first 12 and "...";
# one of 40 or fewer is echoed whole.
@pytest.mark.parametrize(
    "name, shown", [("N" * 5000, "NNNNNNNNNNNN..."), ("N" * 41, "NNNNNNNNNNNN..."), ("N" * 40, "N" * 40)],
    ids=["5000", "41", "40"],
)
class TestLongHeaderNames:
    def test_the_float_column_warning_echoes_both_names_cut(self, tmp_path, name, shown):
        p = tmp_path / "t.csv"
        p.write_text(f"id,{name},O\na,0.25,1\nb,0.5,0\nc,0.75,1\n", encoding="utf-8")
        code, out, err = run_cli("solve", "--data", str(p), "--outcome", "O")
        assert (code, out) == (2, "")
        assert err == (
            f"warning: column {shown!r} has 3 levels, one per distinct number; "
            f"calibrate it with --cutpoints {shown}:p1,p2,...\n"
            "error: no admissible cover and no necessary conditions\n"
        )

    def test_the_necessity_conflict_warning_echoes_the_name_cut(self, tmp_path, name, shown):
        p = tmp_path / "t.csv"
        p.write_text(f"id,{name},O\na,1,1\nb,0,1\nc,1,1\nd,0,1\ne,0,0\n", encoding="utf-8")
        code, _, err = run_cli("necessity", "--data", str(p), "--outcome", "O", "--necessity-threshold", "0.4")
        assert code == 0
        assert err == (
            f"warning: multiple levels of factor(s) {shown} qualify as necessary; "
            "solve conjoins none of them unless --assume-necessary picks one\n"
        )

    def test_a_factor_assumed_twice_is_echoed_cut(self, tmp_path, name, shown):
        p = tmp_path / "t.csv"
        p.write_text(f"id,{name},O\na,1,1\nb,0,0\n", encoding="utf-8")
        code, out, err = run_cli("solve", "--data", str(p), "--outcome", "O", "--assume-necessary", f"{name}=1,{name}=0")
        assert (code, out, err) == (1, "", f"error: --assume-necessary names factor {shown!r} twice\n")


# An invalid value for each analysis flag, and the flags each subcommand reads.
INVALID_ANALYSIS_VALUES = {
    "--consistency": "2",
    "--cutoff": "0",
    "--unique-cover": "0",
    "--necessity-threshold": "2",
    "--max-order": "0",
    "--assume-necessary": "Q=1",
}
ALL_ANALYSIS_FLAGS = set(INVALID_ANALYSIS_VALUES)
READS = {
    "necessity": {"--necessity-threshold"},
    "candidates": {"--consistency", "--cutoff", "--max-order"},
    "solve": ALL_ANALYSIS_FLAGS,
    "experiment": ALL_ANALYSIS_FLAGS - {"--assume-necessary"},
    "sweep": ALL_ANALYSIS_FLAGS,
    "xval": ALL_ANALYSIS_FLAGS,
}
PLAIN_RUNS = {
    **{command: [command, *REMOTE] for command in READS},
    "experiment": ["experiment", "--factors", "3", "--pathway", "ab", "--samples", "20"],
}


class TestParameterChecks:
    """Each subcommand builds one checked `AnalysisParams` from the flags it reads."""

    @pytest.mark.parametrize("command", list(READS))
    @pytest.mark.parametrize("flag, value", list(INVALID_ANALYSIS_VALUES.items()))
    def test_no_analysis_flag_is_ignored(self, command, flag, value):
        plain = run_cli(*PLAIN_RUNS[command])
        code, out, err = run_cli(*PLAIN_RUNS[command], flag, value)
        if flag in READS[command]:
            assert plain[0] == 0
            assert (code, out) != plain[:2]
        else:
            assert (code, out) == (1, "")
            assert f"unrecognized arguments: {flag} {value}" in err

    @pytest.mark.parametrize("command", ["solve", "sweep", "xval"])
    @pytest.mark.parametrize(
        "args, message",
        [
            (["--label", "x", "--assume-necessary", "Q=1"], "unknown factor 'Q'"),
            (["--max-order", "0", "--assume-necessary", "Q=1"], "unknown factor 'Q'"),
            (["--max-order", "0", "--label", "x"], "--label 'x' is neither an outcome label nor an integer level"),
        ],
    )
    def test_table_faults_come_first(self, command, args, message):
        assert run_cli(command, *REMOTE, *args) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "flag, message",
        [("--cutoff", "cutoff must be >= 1, got 0"), ("--unique-cover", "unique_cover must be >= 1, got 0")],
    )
    def test_sweep_fails_one_cell_for_a_swept_value(self, flag, message):
        code, out, err = run_cli("sweep", *REMOTE, flag, "0", "--format", "json")
        assert (code, err) == (0, "")
        [cell] = json.loads(out)["cells"]
        assert cell["error"] == message

    @pytest.mark.parametrize(
        "flag, list_flag, value",
        [("--consistency", "--consistency-list", "0.8"), ("--cutoff", "--cutoff-list", "4"),
         ("--unique-cover", "--unique-cover-list", "2")],
    )
    @pytest.mark.parametrize("list_first", [False, True])
    def test_sweep_rejects_a_value_given_alone_and_in_its_list(self, flag, list_flag, value, list_first):
        pair = [[flag, value], [list_flag, value]][::-1 if list_first else 1]
        code, out, err = run_cli("sweep", *REMOTE, *pair[0], *pair[1])
        assert (code, out) == (1, "")
        [line] = [line for line in err.splitlines() if "error:" in line]
        second, first = (flag, list_flag) if list_first else (list_flag, flag)
        assert line == f"scpqca sweep: error: argument {second}: not allowed with argument {first}"

    @pytest.mark.parametrize(
        "list_flag, message",
        [
            ("--consistency-list", "sweep grid must not be empty"),
            ("--cutoff-list", "sweep grid must not be empty"),
            ("--unique-cover-list", "sweep grid must not be empty"),
        ],
    )
    def test_sweep_rejects_a_list_given_empty(self, list_flag, message):
        assert run_cli("sweep", *REMOTE, f"{list_flag}=") == (1, "", f"error: {message}\n")

    def test_sweep_skips_a_blank_entry_in_every_list(self):
        lists = {"--consistency-list": "0.8,,0.75", "--cutoff-list": "2, ,3", "--unique-cover-list": ",1,"}
        blank = run_cli("sweep", *REMOTE, *[a for pair in lists.items() for a in pair], "--format", "json")
        plain = run_cli("sweep", *REMOTE, "--consistency-list", "0.8,0.75", "--cutoff-list", "2,3",
                        "--unique-cover-list", "1", "--format", "json")
        assert blank == plain and blank[0] == 0 and len(json.loads(blank[1])["cells"]) == 4

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("flag", ["--consistency", "--consistency-list"])
    def test_sweep_rejects_a_consistency_beyond_the_float_range(self, flag, fmt):
        code, out, err = run_cli("sweep", *M1, flag, "1e999", "--format", fmt)
        assert (code, out, err) == (1, "", "error: consistency too large for a float: '1e999'\n")

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--max-order", "0", "max_order must be >= 1, got 0"),
            ("--necessity-threshold", "2", "necessity threshold must be in (0,1], got 2"),
            ("--assume-necessary", "MS=0,MS=1", "--assume-necessary names factor 'MS' twice"),
        ],
    )
    def test_sweep_checks_an_unswept_value_up_front(self, flag, value, message):
        assert run_cli("sweep", *REMOTE, flag, value) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "args, message",
        [
            (["solve", *REMOTE, "--unique-cover", "0", "--necessity-threshold", "2"], "unique_cover must be >= 1, got 0"),
            (["xval", *REMOTE, "--cutoff", "0", "--fraction", "2"], "cutoff must be >= 1, got 0"),
            (["solve", *M1, "--consistency", "1e5000"], "consistency threshold must be in (0,1], got 100000000000..."),
            (["xval", *M1, "--consistency", "1e5000"], "consistency threshold must be in (0,1], got 100000000000..."),
            (["necessity", *M1, "--necessity-threshold", "1e5000"],
             "necessity threshold must be in (0,1], got 100000000000..."),
            (["sweep", *M1, "--necessity-threshold", "1e5000"],
             "necessity threshold must be in (0,1], got 100000000000..."),
            (["solve", *M1, "--consistency", "1e999"], "consistency threshold must be in (0,1], got 100000000000..."),
        ],
    )
    def test_params_are_checked_before_the_run(self, args, message):
        assert run_cli(*args) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--fraction", "--consistency"])
    def test_a_ratio_that_is_not_finite_is_echoed_quoted(self, flag, value):
        # argparse reads --fraction as a float and --consistency as text;
        # both echo the value the same way.
        assert run_cli("xval", *REMOTE, flag, value) == (1, "", f"error: not a valid ratio: {value!r}\n")


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
            + "".join(f"c{r},{','.join(row)},{r % 2}\n" for r, row in enumerate(rows)),
            encoding="utf-8",
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
        p.write_text("\n".join(["id,X,B,O", *rows]) + "\n", encoding="utf-8")
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
        p.write_text("id,A,K,O\na,1,low,yes\nb,0,high,no\nc,3,1.5,yes\n", encoding="utf-8")
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
        p.write_text("id,A,B,O\na,1,1,1\nb,0,1,1\nc,1,1,1\nd,0,1,1\ne,0,0,0\n", encoding="utf-8")
        code, out, err = run_cli(
            "necessity", "--data", str(p), "--outcome", "O", "--label", "1",
            "--necessity-threshold", "0.4",
        )
        assert code == 0
        assert "multiple levels" in err


class TestAssumeNecessary:
    def test_override_is_conjoined(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,B,O\na,1,1,1\nb,0,1,1\nc,1,1,1\nd,0,1,1\ne,0,0,0\n", encoding="utf-8")
        args = ["solve", "--data", str(p), "--outcome", "O", "--label", "1",
                "--necessity-threshold", "0.4", "--cutoff", "1", "--unique-cover", "1"]
        code, out, _ = run_cli(*args, "--assume-necessary", "B=1", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        conjoined = [n for n in payload["necessity"] if n["conjoined"]]
        assert [(n["factor"], n["level"]) for n in conjoined] == [("B", 1)]

    # Table 1: the scan finds nothing, A=1 is assumed. Table 2: the scan finds
    # A=1, which is not conjoined, and B=1 is assumed.
    TABLES = {
        "assumed_unscanned": ("id,A,B,O\na1,1,0,1\na2,1,0,1\nb1,0,1,1\nb2,0,1,1\nc,1,0,0\n",
                              ["--cutoff", "2", "--unique-cover", "2", "--assume-necessary", "A=1"]),
        "scanned_not_assumed": ("id,A,B,O\n1,1,1,1\n2,1,1,1\n3,1,0,1\n4,0,0,0\n5,0,1,0\n",
                                ["--cutoff", "5", "--assume-necessary", "B=1"]),
    }
    EXPECTED = {
        "assumed_unscanned": ("A=1 (0.5)", "necessary,1,,0.6667,,,0.5,0.6667", ("A", 1, 0.5), "A"),
        "scanned_not_assumed": ("B=1 (0.6667)", "necessary,,1,0.6667,,,0.6667,0.6667", ("B", 1, 2 / 3), "B"),
    }

    def _solve(self, tmp_path, table, fmt):
        text, flags = self.TABLES[table]
        p = tmp_path / "t.csv"
        p.write_text(text, encoding="utf-8")
        code, out, err = run_cli("solve", "--data", str(p), "--outcome", "O", "--label", "1", *flags, "--format", fmt)
        assert code == 0, err
        return out

    @pytest.mark.parametrize("table", sorted(TABLES))
    def test_report_lists_the_assumed_literals_in_every_format(self, tmp_path, table):
        necessary, csv_row, (factor, level, consistency), expression = self.EXPECTED[table]
        lines = self._solve(tmp_path, table, "text").splitlines()
        assert lines[1] == f"Necessary conditions: {necessary}"
        assert f"Expression: {expression}" in lines
        assert self._solve(tmp_path, table, "csv").splitlines()[1] == csv_row
        payload = json.loads(self._solve(tmp_path, table, "json"))
        assert payload["necessity"] == [
            {"factor": factor, "level": level, "consistency": consistency, "conjoined": True}
        ]
        assert payload["necessary_factors"] == [factor]

    def test_chart_marks_an_assumed_literal(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text(self.TABLES["assumed_unscanned"][0], encoding="utf-8")
        code, out, _ = run_cli("solve", "--data", str(p), "--outcome", "O", "--label", "1", "--cutoff", "1",
                               "--unique-cover", "1", "--consistency", "0.5", "--assume-necessary", "A=1")
        assert code == 0
        rows = {line.split()[0]: line.split()[1:] for line in out.splitlines() if line[:2] in ("A ", "B ")}
        assert rows == {"A": ["*"], "B": ["○"]}

    def test_out_of_range_level_names_the_flag(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("id,A,O\na,1,1\nb,0,0\n", encoding="utf-8")
        code, _, err = run_cli(
            "solve", "--data", str(p), "--outcome", "O", "--assume-necessary", "A=5"
        )
        assert code == 1
        assert "--assume-necessary" in err and "out of range" in err

    @pytest.mark.parametrize("command", ["solve", "sweep", "xval"])
    @pytest.mark.parametrize("value", ["MS=1,MS=0", "MS=1, MS=1", " MS =0,MS=0"])
    def test_a_factor_given_twice_is_named_as_typed(self, command, value):
        # The user typed a factor name, never an index.
        assert run_cli(command, *REMOTE, "--assume-necessary", value) == (
            1, "", "error: --assume-necessary names factor 'MS' twice\n"
        )


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

    def test_a_calibrated_first_column_is_a_factor(self, tmp_path):
        p = tmp_path / "t.csv"
        p.write_text("score,B,O\n0.5,1,1\n1.7,0,1\n2.5,1,0\n0.2,0,0\n", encoding="utf-8")
        code, out, err = run_cli(
            "candidates", "--data", str(p), "--outcome", "O", "--cutpoints", "score:1", "--cutoff", "1",
            "--consistency", "0.5", "--format", "json",
        )
        assert (code, err) == (0, "")
        rules = json.loads(out)["rules"]
        assert [r["expression"] for r in rules][:2] == ["score", "SCORE"]
        assert [r["matched"] for r in rules][:2] == [["0", "3"], ["1", "2"]]

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
        assert dest.read_text(encoding="utf-8").startswith("id,A,B,OUTCOME")

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

    @pytest.mark.parametrize("fraction, shown", [("0.004", "0.4%"), ("0.125", "12.5%")])
    def test_xval_header_shows_a_fraction_below_a_whole_percent(self, fraction, shown):
        # Each repetition removes 1 of the 8 cases; a header rounded to a
        # whole percent read "0%" and "12%".
        code, out, _ = run_cli("xval", *REMOTE, "--fraction", fraction, "--reps", "2")
        assert code == 0
        assert out.startswith(f"External validity, 2 repetitions removing {shown} of cases (seed ")

    @pytest.mark.parametrize(
        "fraction, shown",
        [("0.1", "10%"), ("0.0000001", "0.00001%"), ("0.000000123456789", "0.0000123457%")],
    )
    def test_xval_header_shows_no_exponent(self, fraction, shown):
        # Below 1e-4 %, `:g` alone would print "1e-05%" and "1.23457e-05%".
        code, out, _ = run_cli("xval", *REMOTE, "--fraction", fraction, "--reps", "2")
        assert code == 0
        assert out.startswith(f"External validity, 2 repetitions removing {shown} of cases (seed ")

    def test_xval_header_names_one_repetition(self):
        code, out, _ = run_cli("xval", *REMOTE, "--reps", "1")
        assert code == 0
        assert out.startswith("External validity, 1 repetition removing 10% of cases (seed ")


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
        a = subprocess.run(cmd, capture_output=True, text=True, encoding="utf-8")
        b = subprocess.run(cmd, capture_output=True, text=True, encoding="utf-8")
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
    "--consistency": ["0.8", "0.5", "1", "0", "2/3", "1.5", "-1", "abc", "1/0", "nan", "1e999"],
    "--cutoff": ["1", "2", "0", "-1", "100"],
    "--unique-cover": ["1", "2", "0", "-3"],
    "--necessity-threshold": ["0.9", "0.5", "0", "1", "2", "x"],
    "--max-order": ["1", "2", "3", "0", "-1"],
    "--assume-necessary": ["A=1", "A=0", "A=9", "Q=1", "A", "A=x", "A=1,A=0", ","],
    "--format": ["text", "json", "csv"],
}
SWEEP_LISTS = {
    "--consistency-list": ["0.8", "0.8", "0.5", "1", "2/3", "0", "1.5", "x", "", " ", "1e999"],
    "--cutoff-list": ["1", "2", "2", "3", "0", "-1", "a", ""],
    "--unique-cover-list": ["1", "1", "2", "0", "x", ""],
}
XVAL_FRACTIONS = ["1e-9", "0.01", "0.1", "0.5", "0.9", "0.99", "0.999999", "0", "1", "-0.1", "nan", "inf", "x"]
RARELY = st.sampled_from([False] * 9 + [True])


def declared_flags() -> dict[str, set[str]]:
    """Each subcommand's long flags, as the parser declares them."""
    [subparsers] = build_parser()._subparsers._group_actions
    return {
        name: {o for a in sub._actions for o in a.option_strings if o.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }


DECLARED_FLAGS = declared_flags()
SOMETIMES = st.sampled_from([False, False, True])
BIT = st.sampled_from(["0", "1"])
FUZZ_CELL = st.one_of(BIT, st.sampled_from(FUZZ_CELLS), st.text(max_size=3))
# Values of 41 to 5 000 characters: a run of digits, letters, words or
# comma-separated ones, after an optional sign or a column or factor name.
LONG_VALUE = st.builds(
    lambda prefix, unit, n: prefix + (unit * n)[:n],
    st.sampled_from(["", "-", "A:", "A="]), st.sampled_from(["9", "x", "x ", "1,"]), st.integers(41, 5000),
)
# A header name of 41 to 5 000 characters, the longest drawn most often, so
# that an error which echoes it whole passes the stderr bound.
LONG_NAME = st.builds(lambda n: "N" * n, st.one_of(st.just(5000), st.integers(41, 5000)))


@st.composite
def cli_inputs(draw, commands):
    header = draw(st.lists(st.sampled_from(["id", "A", "B", "C", "x y"]), min_size=0, max_size=4, unique=True))
    long_name = draw(LONG_NAME) if draw(SOMETIMES) else None  # one header name of 41 to 5 000 characters
    if long_name:
        header.insert(draw(st.integers(0, len(header))), long_name)
    header.insert(draw(st.integers(0, len(header))), "O")
    numbered_ids = draw(st.booleans())
    tame = draw(SOMETIMES)  # clean bits and no bad flags, so that most runs reach the analysis
    cell_strategy = BIT if tame else draw(st.sampled_from([BIT, FUZZ_CELL]))  # a clean 0/1 file or a messy one
    if not tame and draw(SOMETIMES):  # one long value, in any number of cells
        cell_strategy = st.one_of(cell_strategy, st.just(draw(LONG_VALUE)))
    # Out of the tame runs, the long-named column holds bits and one kind of
    # cell whose error or warning echoes the name: a negative level, a
    # fraction (a numeric label column) or a letter (under `--cutpoints`).
    named_cell = cell_strategy if tame else st.one_of(BIT, st.just(draw(st.sampled_from(["-1", "0.5", "x"]))))
    follow_a = "A" in header and draw(st.booleans())  # the outcome copies A, so solve often finds a cover
    rows = []
    for i in range(draw(st.integers(0, 12))):
        cells = draw(st.tuples(*(named_cell if name == long_name else cell_strategy for name in header)))
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
    declared = DECLARED_FLAGS[command]
    # One declared flag may get a long value, put last so that it wins over a
    # short one. `--emit-schema` is left out, since it writes where its value
    # names.
    long_flag = draw(st.sampled_from(sorted(declared - {"--emit-schema"}))) if not tame and draw(SOMETIMES) else None
    for flag, entries in (SWEEP_LISTS if command == "sweep" else {}).items():
        # With a long list, the grid would be its product with the others.
        if long_flag not in SWEEP_LISTS and draw(st.booleans()):  # empty, blank and repeated entries included
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
        if flag in declared and (flag == "--format" or not tame) and draw(SOMETIMES):
            args += [flag, draw(st.sampled_from(values))]
    undeclared = sorted(set(FUZZ_FLAGS) - declared)
    if undeclared and not tame and draw(RARELY):  # a usage error, exit 1
        flag = draw(st.sampled_from(undeclared))
        args += [flag, draw(st.sampled_from(FUZZ_FLAGS[flag]))]
    if long_flag:  # after a store-true flag, the value is a stray argument
        args += [long_flag, draw(LONG_VALUE)]
    if not tame and draw(RARELY):  # stray arguments anywhere after the subcommand
        for stray in draw(st.lists(st.one_of(st.sampled_from(["x", "1", "-"]), LONG_VALUE), min_size=1, max_size=2)):
            args.insert(draw(st.integers(1, len(args))), stray)
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
    # Every echoed value is cut, so stderr stays short whatever the input;
    # the longest usage text, `sweep`'s, is 599 bytes.
    assert len(err.encode()) <= 1024, err[:300]


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


def parser_record() -> list[dict]:
    """Each subcommand's help line and actions, in order, as plain data.

    `--help` wording differs across Python releases ("optional arguments:"
    before 3.10's successors), so the parser's structure is pinned instead.
    """
    [subparsers] = build_parser()._subparsers._group_actions
    helps = {action.dest: action.help for action in subparsers._choices_actions}
    record = []
    for name, sub in subparsers.choices.items():
        groups = sub._mutually_exclusive_groups
        actions = [
            {
                "option_strings": action.option_strings,
                "dest": action.dest,
                "default": action.default,
                "type": None if action.type is None else action.type.__name__,
                "choices": action.choices,
                "required": action.required,
                "help": action.help,
                "metavar": action.metavar,
                "nargs": action.nargs,
                "action": type(action).__name__,
                "group": next((i for i, g in enumerate(groups) if action in g._group_actions), None),
            }
            for action in sub._actions
        ]
        record.append({"command": name, "help": helps[name], "actions": actions})
    return json.loads(json.dumps(record))


# One process: a usage error, a help screen and two runs, twice over.
PARSER_CALLS = [
    ["solve", "--cutoff"],
    ["solve", "--help"],
    ["sweep", *M1, "--cutoff-list", "1,2"],
    ["solve", *M1],
] * 2
PARSER_SCRIPT = """
import argparse, io, json, sys
from contextlib import redirect_stderr, redirect_stdout

built = 0
init = argparse.ArgumentParser.__init__
def counting_init(self, *args, **kwargs):
    global built
    built += 1
    init(self, *args, **kwargs)
argparse.ArgumentParser.__init__ = counting_init

from scpqca.cli import main

runs = []
for args in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(args)
    runs.append([code, out.getvalue(), err.getvalue()])
print(json.dumps({"built": built, "runs": runs}))
"""


class TestParser:
    def test_structure_matches_the_golden_record(self):
        golden = json.loads((ROOT / "tests" / "golden" / "parser.json").read_text(encoding="utf-8"))
        assert parser_record() == golden

    def test_one_parser_per_process_and_no_state_between_calls(self):
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "COLUMNS": "80"}
        env.pop("SCPQCA_SEED", None)

        def run(cmd):
            return subprocess.run(cmd, capture_output=True, text=True, encoding="utf-8", env=env, cwd=ROOT)

        one = run([sys.executable, "-c", PARSER_SCRIPT, json.dumps(PARSER_CALLS)])
        assert one.returncode == 0, one.stderr
        result = json.loads(one.stdout)
        assert result["built"] == 8  # the root parser and one per subcommand
        calls = len(PARSER_CALLS) // 2
        for args, first, second in zip(PARSER_CALLS, result["runs"][:calls], result["runs"][calls:]):
            fresh = run([sys.executable, "-m", "scpqca.cli", *args])
            assert first == second == [fresh.returncode, fresh.stdout, fresh.stderr]


class TestStartup:
    def test_cli_import_leaves_numpy_unloaded(self):
        code = "import sys, scpqca.cli; print('numpy' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, encoding="utf-8", env=env)
        assert (run.returncode, run.stdout) == (0, "False\n")

    def test_cli_import_leaves_the_synthetic_and_hashing_modules_unloaded(self):
        # `synth`/`experiment` import `pathways` and `statistics` in their
        # handlers, and `derive_seed` imports `hashlib`, so a `solve` run pays
        # for none of them.
        code = "import sys, scpqca.cli; print(sorted({'scpqca.pathways', 'hashlib', 'statistics'} & set(sys.modules)))"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, encoding="utf-8", env=env)
        assert (run.returncode, run.stdout) == (0, "[]\n")

    def test_cli_import_loads_no_dataclasses_machinery(self):
        # `dataclasses` would load `inspect`, `ast`, `dis` and `tokenize`,
        # which nothing else in the package needs. Only the modules that
        # `import scpqca.cli` loads count, not those the interpreter's site
        # hooks loaded before it.
        code = (
            "import sys; before = set(sys.modules); import scpqca.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & (set(sys.modules) - before)))"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, encoding="utf-8", env=env)
        assert (run.returncode, run.stdout) == (0, "[]\n")

    def test_report_import_loads_no_pipeline_stage(self):
        # `report` names `SolveResult` and `ValidityReport` in annotations only.
        code = "import sys, scpqca.report; print(sorted(m for m in sys.modules if m.startswith('scpqca.')))"
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, encoding="utf-8", env=env)
        assert (run.returncode, run.stdout) == (0, "['scpqca._base', 'scpqca.model', 'scpqca.report']\n")

    def test_package_names_load_on_first_use(self):
        code = (
            "import sys, scpqca; before = 'scpqca.pathways' in sys.modules; "
            "spec = scpqca.ExperimentSpec; "
            "print(before, 'scpqca.pathways' in sys.modules, spec.__module__, 'ExperimentSpec' in dir(scpqca))"
        )
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, encoding="utf-8", env=env)
        assert (run.returncode, run.stdout) == (0, "False True scpqca.pathways True\n")

    def test_unknown_package_name_is_an_attribute_error(self):
        import scpqca

        with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
            scpqca.no_such_name


# Files outside the tests that may use a public name: the package but not its
# export table, the demos, the benchmark, the scripts and README.
USER_FILES = [
    *(p for p in sorted((ROOT / "src" / "scpqca").glob("*.py")) if p.name != "__init__.py"),
    *sorted(ROOT.glob("demos/*.py")),
    *sorted(ROOT.glob("bench/*.py")),
    *sorted(ROOT.glob("scripts/*.py")),
    ROOT / "README.md",
]
# Exports that nothing outside the tests uses, each with the reason it stays.
TEST_ONLY_EXPORTS = {
    "binary_schema": "the constructor of an all-binary schema that the tests build their tables on",
}
# Names only the tests called: a deleted one is gone from its module too, a
# de-exported one stays there (the tests' reference route, or a helper).
DELETED = {"model": ("matched_ids", "matches", "sufficiency_consistency", "_ECHO_LIMIT"),
           "ingest": ("write_csv", "schema_metadata")}
DE_EXPORTED = {"pathways": ("full_truth_table", "plant_outcome", "sample_and_confound"),
               "cover": ("unique_coverage",)}


class TestPublicNames:
    def test_every_export_resolves(self):
        import scpqca

        for name in scpqca.__all__:
            assert getattr(scpqca, name) is not None, name

    def test_every_export_is_used_outside_the_tests(self):
        import scpqca

        lines = [line for p in USER_FILES for line in p.read_text(encoding="utf-8").splitlines()]
        unused = [
            name
            for name in scpqca.__all__
            if not any(
                re.search(rf"\b{name}\b", line) and not re.match(rf"\s*(?:def|class)\s+{name}\b", line)
                for line in lines
            )
        ]
        assert unused == sorted(TEST_ONLY_EXPORTS)

    def test_removed_names_are_gone(self):
        import importlib

        import scpqca
        from scpqca import CalibrationSpec, CaseTable, Conjunction

        for module, names in [*DELETED.items(), *DE_EXPORTED.items()]:
            for name in names:
                assert not hasattr(scpqca, name) and name not in scpqca.__all__
                assert hasattr(importlib.import_module(f"scpqca.{module}"), name) == (module in DE_EXPORTED)
        for cls, name in [(CaseTable, "cases"), (CaseTable, "has_unique_ids"), (Conjunction, "factor_indices"),
                          (Conjunction, "sort_key"), (CalibrationSpec, "for_column")]:
            assert not hasattr(cls, name)


# ---------------------------------------------------------------------------
# The README's command-line section documents exactly the parser's flags.


def parser_flags() -> set[str]:
    return set().union(*declared_flags().values())


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


class TestReadmeLibraryUse:
    def test_library_use_block_runs(self, monkeypatch):
        text = (ROOT / "README.md").read_text(encoding="utf-8")
        section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        monkeypatch.chdir(ROOT)
        out = io.StringIO()
        with redirect_stdout(out):
            exec(compile(block, "README.md", "exec"), {})
        assert "cutoff must be >= 1, got 0" in out.getvalue()
