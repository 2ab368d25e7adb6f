"""Golden output bytes: every report renderer, pinned in text, JSON and CSV.

Each case runs one CLI call per format and compares stdout with the file
`tests/golden/<case>.<format>`. The multi-value input is built with the
deterministic `synth` subcommand. Rewrite the files after an intended
output change with `PYTHONPATH=src python tests/test_report_golden.py`.
"""

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from scpqca.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
FORMATS = {"text": "txt", "json": "json", "csv": "csv"}
MULTI_VALUE = "<multi-value csv>"

REMOTE = ["--data", str(ROOT / "data" / "remote_conditions.csv"), "--outcome", "LC", "--label", "1"]
M1 = ["--data", str(ROOT / "data" / "m1.csv"), "--outcome", "O", "--label", "1"]
MV_SYNTH = ["synth", "--factors", "4", "--levels", "3", "--pathway", "A0*B0+B1*C1",
            "--samples", "60", "--seed", "2"]
EXPERIMENT = ["experiment", "--factors", "4", "--pathway", "ab+CD", "--samples", "40",
              "--confounds", "0,2", "--seed", "3"]

CASES = {
    "necessity": ["necessity", *REMOTE],
    "necessity_none": ["necessity", *REMOTE, "--necessity-threshold", "1"],
    "candidates": ["candidates", *REMOTE, "--cutoff", "4"],
    # No rule passes the cutoff, so the CSV header has no factor columns.
    "candidates_none": ["candidates", *REMOTE, "--cutoff", "9"],
    "solve": ["solve", *REMOTE, "--cutoff", "4"],
    "solve_oracle": ["solve", *REMOTE, "--cutoff", "4", "--oracle"],
    # The scan would find MS=0, LE=1 and ED=1; the report lists only PI=1.
    "solve_assume_necessary": ["solve", *REMOTE, "--cutoff", "4", "--assume-necessary", "PI=1"],
    "solve_necessary_only": ["solve", *M1, "--unique-cover", "1"],
    "solve_multi_value": ["solve", "--data", MULTI_VALUE, "--outcome", "OUTCOME", "--unique-cover", "1"],
    # Three levels per factor: the pool's per-level case node sets are pinned.
    "sweep_multi_value": ["sweep", "--data", MULTI_VALUE, "--outcome", "OUTCOME", "--unique-cover", "1",
                          "--cutoff-list", "1,2,3", "--consistency-list", "0.6,0.8,1"],
    "xval_multi_value": ["xval", "--data", MULTI_VALUE, "--outcome", "OUTCOME", "--unique-cover", "1",
                         "--cutoff", "1", "--reps", "8", "--fraction", "0.2", "--seed", "5"],
    "experiment": EXPERIMENT,
    "experiment_reps": [*EXPERIMENT, "--reps", "3"],
    "sweep": ["sweep", *REMOTE, "--cutoff", "4", "--consistency-list", "0.8,0.7"],
    "sweep_failed_cell": ["sweep", *M1, "--necessity-threshold", "1", "--cutoff-list", "1,40"],
    # Invalid cells fail with their own error and leave the valid ones, which
    # share one candidate pool, unchanged.
    "sweep_invalid_cells": ["sweep", *REMOTE, "--cutoff-list", "0,4,2", "--consistency-list", "0,0.8,1.5",
                            "--unique-cover-list", "0,2"],
    "xval": ["xval", *REMOTE, "--cutoff", "4", "--reps", "3", "--seed", "11"],
    # Some repetitions find no solution, so the text ends with their count.
    "xval_degenerate": ["xval", "--data", str(ROOT / "data" / "m1.csv"), "--outcome", "O", "--reps", "6",
                        "--fraction", "0.6", "--seed", "1"],
}


def run_cli(*args: str) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def write_multi_value_csv(path: Path) -> None:
    code, _, err = run_cli(*MV_SYNTH, "--out", str(path))
    assert code == 0, err


def render(case: str, fmt: str, multi_value_csv: Path) -> str:
    args = [str(multi_value_csv) if a == MULTI_VALUE else a for a in CASES[case]]
    code, out, err = run_cli(*args, "--format", fmt)
    assert code == 0, err
    return out


@pytest.fixture(scope="module")
def multi_value_csv(tmp_path_factory) -> Path:
    path = tmp_path_factory.mktemp("golden") / "multi_value.csv"
    write_multi_value_csv(path)
    return path


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("case", sorted(CASES))
def test_stdout_matches_golden(case, fmt, multi_value_csv):
    expected = (GOLDEN / f"{case}.{FORMATS[fmt]}").read_bytes().decode("utf-8")
    assert render(case, fmt, multi_value_csv) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        mv = Path(tmp) / "multi_value.csv"
        write_multi_value_csv(mv)
        for case in CASES:
            for fmt, ext in FORMATS.items():
                (GOLDEN / f"{case}.{ext}").write_bytes(render(case, fmt, mv).encode("utf-8"))
