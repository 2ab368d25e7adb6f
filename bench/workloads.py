"""Benchmark workloads: generated inputs, the op each one times, and its checks.

Every input is generated from the workload seed with the benchmark's own
`random.Random`, never with package code. The one exception is `wide`, whose
op is `run_experiment`: generating the table is part of what it measures.
Package modules are imported in `setup`, which the benchmark times as
set-up, so that work moved into import or set-up shows.

Each workload exposes the same small surface:

- `prepare()` writes the input files (no package import);
- `setup()` imports the package and builds the state every op shares;
- `keys()` lists op inputs in run order (ops cycle through it);
  `reference_key()` names a fixed input with a golden digest, run as the
  warm-up op, and `memory_key()` the input of the memory pass;
- `op(key)` is the timed call; `render(result)` gives the bytes its output
  digest is taken over; `counts(result)` gives the exact counts readable
  from the output; `check(key, result, rendered)` recomputes what it can
  without the package and returns a list of errors.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
GOLDEN = BENCH / "golden.json"
CLI_DATA = "data/remote_conditions.csv"
CLI_ARGS = ["solve", "--data", CLI_DATA, "--outcome", "LC", "--cutoff", "4", "--format", "json"]

# Counts that must repeat exactly for the same input, traced or not.
GATED_COUNTS = (
    "ingest.rows",
    "candidates.rules_emitted",
    "candidates.lattice_bound",
    "cover.picks",
    "cover.uncovered_left",
    "robustness.solves",
    "report.bytes",
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the package on
    the path, and numeric libraries held to one thread so that load comes
    from one process with no extra threads."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("SCPQCA_SEED", None)
    env.pop("SCPQCA_DEBUG", None)
    return env


def load_golden() -> dict:
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    path.write_text(buf.getvalue(), encoding="utf-8")


def read_csv(path: Path, outcome: str) -> tuple[list[str], list[tuple[int, ...]], list[int]]:
    """Factor names, integer factor rows and outcomes, read with `csv` only."""
    with path.open(newline="", encoding="utf-8") as fh:
        header, *body = list(csv.reader(fh))
    factors = [h for h in header if h not in ("id", outcome)]
    at = [header.index(f) for f in factors]
    out = header.index(outcome)
    return factors, [tuple(int(r[j]) for j in at) for r in body], [int(r[out]) for r in body]


def _matched(rows, col: dict[str, int], conds: dict[str, int]) -> set[int]:
    items = [(col[f], v) for f, v in conds.items()]
    return {i for i, row in enumerate(rows) if all(row[j] == v for j, v in items)}


def check_solution(payload: dict, factors: list[str], rows, outcomes) -> list[str]:
    """Recompute a `solve` payload's consistency and coverage with plain sets.

    Each configuration is its rendered conditions plus the conjoined
    necessary literals; solution figures come from the union of their
    matched rows. Floats are compared exactly, as `float(Fraction)`.
    """
    col = {f: j for j, f in enumerate(factors)}
    label = payload["decision_label"]
    positives = {i for i, o in enumerate(outcomes) if o == label}
    necessary = {n["factor"]: n["level"] for n in payload["necessity"] if n["conjoined"]}
    errors: list[str] = []
    union: set[int] = set()
    for c in payload["configurations"]:
        conds = {f: v for f, v in c["conditions"].items() if v is not None} | necessary
        m = _matched(rows, col, conds)
        union |= m
        if len(m) != c["coverage"] or float(Fraction(len(m & positives), len(m))) != c["consistency"]:
            errors.append(f"configuration {c['expression']}: recomputed figures differ")
    if not payload["configurations"]:
        union = _matched(rows, col, necessary)
    covered = len(union & positives)
    sol = payload["solution"]
    if float(Fraction(covered, len(union))) != sol["consistency"]:
        errors.append("solution consistency differs from plain-set recomputation")
    if float(Fraction(covered, len(positives))) != sol["coverage"]:
        errors.append("solution coverage differs from plain-set recomputation")
    return errors


def parse_boolean_dnf(expression: str) -> list[dict[str, int]]:
    """'C*D+a*b' -> [{'C': 1, 'D': 1}, {'A': 0, 'B': 0}] (single-letter binary factors)."""
    return [
        {lit.upper(): int(lit.isupper()) for lit in term.split("*")} for term in expression.split("+")
    ]


def planted(row: dict[str, int], pathway) -> int:
    return int(any(all(row[f] == v for f, v in term) for term in pathway))


class Workload:
    name = ""

    def __init__(self, seed: int, small: bool = False) -> None:
        self.seed = seed
        self.small = small
        self.golden = load_golden().get(self.name, {}) if not small else {}

    def prepare(self) -> None:
        pass

    def setup(self) -> None:
        pass

    def keys(self) -> list[str]:
        raise NotImplementedError

    def reference_key(self) -> str:
        """A fixed input with a golden digest; the warm-up op runs it, so every
        run also checks byte-identical output whatever its seed."""
        return self.keys()[0]

    def memory_key(self) -> str:
        return self.keys()[0]

    def op(self, key: str):
        raise NotImplementedError

    def render(self, result) -> bytes:
        raise NotImplementedError

    def counts(self, result, rendered: bytes) -> dict[str, int]:
        return {"report.bytes": len(rendered)}

    def check(self, key: str, result, rendered: bytes) -> list[str]:
        return []

    def check_golden(self, key: str, rendered: bytes) -> list[str]:
        want = self.golden.get(key, {}).get("sha256")
        if want is not None and want != sha256(rendered):
            return [f"output digest for {key} differs from the golden digest"]
        return []


class Wide(Workload):
    """`run_experiment` on 20 binary factors, 200 cases, max_order 4.

    A deep lattice over few cases: enumeration dominates. The child seeds
    are a fixed list, so every run times the same tables; the workload seed
    only picks the order in which a run cycles through them.
    """

    name = "wide"
    PATHWAY = "ab+CD+ace+BDF"
    CHILD_SEEDS = [int(sha256(f"wide:{k}".encode())[:16], 16) for k in range(8)]

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.factors, self.samples, self.max_order = (8, 60, 3) if small else (20, 200, 4)
        self.children = self.CHILD_SEEDS[:2] if small else self.CHILD_SEEDS

    def setup(self) -> None:
        from scpqca import pathways, pipeline, report

        self.pathways, self.report = pathways, report
        self.schema = pathways.synth_schema(self.factors)
        self.pathway = pathways.parse_pathway(self.PATHWAY, self.schema)
        self.params = pipeline.AnalysisParams(
            decision_label=1, consistency_threshold="0.8", cutoff=2, unique_cover=2,
            max_order=self.max_order,
        )

    def keys(self) -> list[str]:
        order = [str(s) for s in self.children]
        random.Random(self.seed).shuffle(order)
        return order

    def reference_key(self) -> str:
        return str(self.children[0])

    def memory_key(self) -> str:
        return str(self.children[0])

    def op(self, key: str):
        spec = self.pathways.ExperimentSpec(self.schema, self.pathway, self.samples, 0, int(key))
        return self.pathways.run_experiment(spec, self.params)

    def render(self, result) -> bytes:
        return self.report.render_json(self.report.solve_payload(result.result)).encode()

    def counts(self, result, rendered: bytes) -> dict[str, int]:
        from scpqca.candidates import candidate_count_bound

        res = result.result
        return {
            "candidates.rules_emitted": len(res.candidates),
            "candidates.lattice_bound": candidate_count_bound(self.schema, res.factor_set, self.max_order),
            "report.bytes": 0,
        }

    def check(self, key: str, result, rendered: bytes) -> list[str]:
        table = result.result.table
        names = [f.name for f in table.schema.factors]
        rows = [tuple(r) for r in table.values.tolist()]
        outcomes = table.outcomes.tolist()
        return self.check_golden(key, rendered) + check_solution(json.loads(rendered), names, rows, outcomes)


class SeededCsv(Workload):
    """A workload whose input is one CSV generated from a seed.

    `prepare` writes the file for the workload seed and for the reference
    seed 0; an op's key is the seed its input came from.
    """

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self._checked: set[tuple[str, str]] = set()

    def path(self, key: str) -> Path:
        return WORK / "inputs" / f"{self.name}{'-smoke' if self.small else ''}-{key}.csv"

    def prepare(self) -> None:
        for seed in {self.seed, 0}:
            header, rows = self.generate(random.Random(seed))
            write_csv(self.path(str(seed)), header, rows)

    def generate(self, rng: random.Random) -> tuple[list[str], list[list]]:
        raise NotImplementedError

    def keys(self) -> list[str]:
        return [str(self.seed)]

    def reference_key(self) -> str:
        return "0"

    def check(self, key: str, result, rendered: bytes) -> list[str]:
        """Golden digest, then the slower recomputation once per distinct output."""
        errors = self.check_golden(key, rendered)
        seen = (key, sha256(rendered))
        if errors or seen in self._checked:
            return errors
        errors = self.recompute(key, result, rendered)
        if not errors:
            self._checked.add(seen)
        return errors

    def recompute(self, key: str, result, rendered: bytes) -> list[str]:
        raise NotImplementedError


class Tall(SeededCsv):
    """`load_csv`, `solve`, render: 20 000 cases x 10 mixed-level factors.

    A shallow lattice (max_order 3) over wide case sets: ingest, the cover's
    set intersections and rendering all carry weight next to enumeration.
    """

    name = "tall"
    LEVELS = (2, 3, 4, 2, 3, 4, 2, 3, 4, 2)
    NAMES = "ABCDEFGHIJ"
    # Multi-value pathway over the factor names above: (factor, level) terms.
    PATHWAY = (
        (("A", 1), ("B", 2)),
        (("C", 3), ("D", 0)),
        (("E", 2), ("F", 1)),
        (("B", 0), ("H", 2)),
        (("G", 0), ("J", 0)),
    )

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.cases = 500 if small else 20_000

    def generate(self, rng: random.Random) -> tuple[list[str], list[list]]:
        # One fixed design, as for `resample`: the seed orders the cases and
        # so which id each one gets, and every seed does the same work.
        design = random.Random("tall-design")
        rows, outcomes = [], []
        for _ in range(self.cases):
            values = [design.randrange(lv) for lv in self.LEVELS]
            rows.append(values)
            outcomes.append(planted(dict(zip(self.NAMES, values)), self.PATHWAY))
        for i in design.sample(range(self.cases), self.cases // 20):  # 5 % confounded outcomes
            outcomes[i] = 1 - outcomes[i]
        order = list(range(self.cases))
        rng.shuffle(order)
        return ["id", *self.NAMES, "Y"], [
            [f"t{n:05d}", *rows[i], outcomes[i]] for n, i in enumerate(order)
        ]

    def setup(self) -> None:
        from scpqca import ingest, pipeline, report

        self.ingest, self.pipeline, self.report = ingest, pipeline, report
        self.params = pipeline.AnalysisParams(decision_label=1, max_order=3)

    def op(self, key: str):
        table = self.ingest.load_csv(self.path(key), "Y")
        result = self.pipeline.solve(table, self.params)
        return table, result, self.report.render_json(self.report.solve_payload(result))

    def render(self, result) -> bytes:
        return result[2].encode()

    def counts(self, result, rendered: bytes) -> dict[str, int]:
        from scpqca.candidates import candidate_count_bound

        table, res, _ = result
        return {
            "ingest.rows": len(table),
            "candidates.rules_emitted": len(res.candidates),
            "candidates.lattice_bound": candidate_count_bound(table.schema, res.factor_set, self.params.max_order),
            "report.bytes": len(rendered),
        }

    def recompute(self, key: str, result, rendered: bytes) -> list[str]:
        factors, rows, outcomes = read_csv(self.path(key), "Y")
        return check_solution(json.loads(rendered), factors, rows, outcomes)


class Resample(SeededCsv):
    """In-process `scpqca sweep` (40 cells) and `scpqca xval` (50 reps).

    Many tiny solves on 60 cases x 7 binary factors, so fixed per-solve
    costs and repeated enumeration dominate.
    """

    name = "resample"
    NAMES = "ABCDEFG"
    PATHWAY = ((("A", 1), ("B", 0)), (("C", 0), ("D", 1)), (("B", 1), ("E", 1), ("F", 0)))
    CONSISTENCIES = "0.7,0.75,0.8,0.85,0.9"
    CUTOFFS = "1,2,3,4"
    UNIQUE_COVERS = "1,2"

    def __init__(self, seed: int, small: bool = False) -> None:
        super().__init__(seed, small)
        self.cases = 30 if small else 60
        self.reps = 5 if small else 50
        self.grid = ("0.8,0.9", "1,2", "2") if small else (self.CONSISTENCIES, self.CUTOFFS, self.UNIQUE_COVERS)

    def generate(self, rng: random.Random) -> tuple[list[str], list[list]]:
        # One fixed design: the seed orders the cases, so which id each one
        # gets, and seeds xval's draws; every seed does the same work.
        design = random.Random("resample-design")
        rows = [[design.randrange(2) for _ in self.NAMES] for _ in range(self.cases)]
        outcomes = [planted(dict(zip(self.NAMES, r)), self.PATHWAY) for r in rows]
        for i in design.sample(range(self.cases), 3):
            outcomes[i] = 1 - outcomes[i]
        order = list(range(self.cases))
        rng.shuffle(order)
        return ["id", *self.NAMES, "Y"], [[f"r{n:02d}", *rows[i], outcomes[i]] for n, i in enumerate(order)]

    def setup(self) -> None:
        from scpqca import cli

        self.cli = cli

    def args(self, key: str) -> tuple[list[str], list[str]]:
        data = ["--data", str(self.path(key)), "--outcome", "Y", "--format", "json"]
        consistencies, cutoffs, unique_covers = self.grid
        sweep = ["sweep", *data, "--consistency-list", consistencies,
                 "--cutoff-list", cutoffs, "--unique-cover-list", unique_covers]
        xval = ["xval", *data, "--reps", str(self.reps), "--fraction", "0.1", "--seed", key]
        return sweep, xval

    def _main(self, args: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli.main(args)
        return code, buf.getvalue()

    def op(self, key: str):
        sweep, xval = self.args(key)
        return self._main(sweep), self._main(xval)

    def render(self, result) -> bytes:
        return (result[0][1] + result[1][1]).encode()

    def check(self, key: str, result, rendered: bytes) -> list[str]:
        (sweep_code, _), (xval_code, _) = result
        if sweep_code or xval_code:
            return [f"exit codes sweep={sweep_code} xval={xval_code}"]
        return super().check(key, result, rendered)

    def recompute(self, key: str, result, rendered: bytes) -> list[str]:
        (_, sweep_out), (_, xval_out) = result
        factors, rows, outcomes = read_csv(self.path(key), "Y")
        col = {f: j for j, f in enumerate(factors)}
        positives = {i for i, o in enumerate(outcomes) if o == 1}
        errors = []
        sweep, xval = json.loads(sweep_out), json.loads(xval_out)
        default_cell = None
        for cell in sweep["cells"]:
            if cell["expression"] is None:
                continue
            union: set[int] = set()
            for term in parse_boolean_dnf(cell["expression"]):
                union |= _matched(rows, col, term)
            covered = len(union & positives)
            if (float(Fraction(covered, len(union))) != cell["solution_consistency"]
                    or float(Fraction(covered, len(positives))) != cell["solution_coverage"]):
                errors.append(f"sweep cell {cell['consistency_threshold']}/{cell['cutoff']}/"
                              f"{cell['unique_cover']}: figures differ from recomputation")
            if (cell["consistency_threshold"], cell["cutoff"], cell["unique_cover"]) == (0.8, 2, 2):
                default_cell = cell
        if len(xval["repetitions"]) != self.reps:
            errors.append(f"xval ran {len(xval['repetitions'])} repetitions, expected {self.reps}")
        removed = math.ceil(0.1 * self.cases)
        if any(len(r["removed"]) != removed for r in xval["repetitions"]):
            errors.append(f"an xval repetition did not remove {removed} cases")
        if default_cell is not None and set(xval["originals"]) != set(default_cell["expression"].split("+")):
            errors.append("xval originals differ from the sweep cell at the default thresholds")
        return errors


class Cli(Workload):
    """One fresh `python -m scpqca.cli solve` process per op on an 8-case dataset.

    Real QCA datasets are tens of cases; on them interpreter and import
    start-up dominate, and only this workload measures them.
    """

    name = "cli"
    KEY = "solve-remote_conditions"

    def setup(self) -> None:
        from scpqca import cli

        self.cli = cli

    def keys(self) -> list[str]:
        return [self.KEY]

    def in_process(self, key: str):
        """The same CLI call through `cli.main` in this process."""
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = self.cli.main(list(CLI_ARGS))
        return subprocess.CompletedProcess(CLI_ARGS, code, buf.getvalue().encode(), b"")

    def op(self, key: str):
        return subprocess.run(
            [sys.executable, "-m", "scpqca.cli", *CLI_ARGS],
            cwd=ROOT, env=child_env(), capture_output=True, timeout=60,
        )

    def render(self, result) -> bytes:
        return result.stdout

    def check(self, key: str, result, rendered: bytes) -> list[str]:
        if result.returncode != 0:
            return [f"exit code {result.returncode}: {result.stderr.decode(errors='replace')[:200]}"]
        factors, rows, outcomes = read_csv(ROOT / CLI_DATA, "LC")
        return self.check_golden(key, rendered) + check_solution(json.loads(rendered), factors, rows, outcomes)


WORKLOADS = {w.name: w for w in (Wide, Tall, Resample, Cli)}
