"""scpqca benchmark: one workload per call, each phase in its own fresh process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --smoke

With `--trace 0` it prints the end-to-end metrics: `op_s.p50` and
`op_s.tail` (median and p75 seconds per op over a closed loop of S
seconds), `setup_s` (median of several fresh set-ups), `peak_mem_mb`
(tracemalloc peak of one op, in a run of its own) and `peak_rss_mb` (max
RSS of the process that ran the timed ops). Seconds are calibrated to a
reference host speed (see calibrate.py). With `--trace 1` it prints the
per-layer metrics from a traced run. Every op's output is checked; the last
stdout line is one JSON object. The exit code is non-zero when an op failed
or when an exact count drifted (then no result is printed). `--smoke` runs
every workload at a tiny size as a self-test of the benchmark itself.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from calibrate import loop_seconds, pin_to_one_cpu, scale
from tracer import load_spans, per_op, self_times
from workloads import BENCH, GATED_COUNTS, ROOT, SRC, WORK, WORKLOADS, child_env, load_golden, sha256

# Fresh set-ups per run, taken before the timed ops, between them and the
# memory pass, and after it, so that one slow spell of a shared host does
# not set them all; setup_s is their median.
SETUP_RUNS = (3, 2, 2)
IMPORT_PROBES = 7  # pairs of bare-interpreter and `import scpqca.cli` processes
WORKER_TIMEOUT = 150
SMOKE_SECONDS = 0.5


class CountDrift(Exception):
    pass


def worker(mode: str, name: str, seed: int, seconds: float, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), mode, name, str(seed), str(seconds), *extra],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} {name} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def wall(cmd: list[str], until_ready: bool = False) -> float:
    """Seconds from starting `cmd` until it prints `ready` (or exits)."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True) as proc:
        try:
            if until_ready:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.stdout.read()
            code = proc.wait(timeout=WORKER_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
        if not until_ready:
            elapsed = time.perf_counter() - t0
    if code != 0 or (until_ready and line.strip() != "ready"):
        raise RuntimeError(f"{' '.join(cmd)} failed with exit code {code}")
    return elapsed


def calibrated(cmd: list[str], until_ready: bool = False) -> float:
    """`wall` between two calibration loops, in reference seconds."""
    before = loop_seconds()
    seconds = wall(cmd, until_ready)
    return seconds * scale(before, loop_seconds())


def setup_seconds(name: str, seed: int, runs: int) -> list[float]:
    cmd = [sys.executable, str(BENCH / "worker.py"), "setup", name, str(seed), "0"]
    return [calibrated(cmd, until_ready=True) for _ in range(runs)]


def import_seconds() -> float:
    """`import scpqca.cli` minus a bare interpreter, medians of alternating runs."""
    bare, full = [], []
    for _ in range(IMPORT_PROBES):
        bare.append(calibrated([sys.executable, "-c", "pass"]))
        full.append(calibrated([sys.executable, "-c", "import scpqca.cli"]))
    return statistics.median(full) - statistics.median(bare)


def balanced(ops: list[dict]) -> list[float]:
    """Op durations in reference seconds, each input key given equal weight.

    `wide` cycles through 8 child seeds of different cost, and a run that
    stops mid-cycle has one more sample of the seeds it reached first; each
    key's samples are repeated so that every key counts the same.
    """
    by_key: dict[str, list[float]] = {}
    for op in ops:
        by_key.setdefault(op["key"], []).append(op["wall_s"] * op["scale"])
    weight = math.lcm(*(len(v) for v in by_key.values()))
    return [x for v in by_key.values() for x in v for _ in range(weight // len(v))]


def p75(samples: list[float]) -> float:
    """The tail figure: a run gives 7 to 60 samples, too few for any
    percentile above the median to have ten samples beyond it, and the p90
    of 7 samples is nearly the maximum, so the tail is the upper quartile."""
    return statistics.quantiles(samples, n=4, method="inclusive")[-1] if len(samples) > 1 else samples[0]


def gate_counts(name: str, ops: list[dict], traced: dict[int, dict]) -> None:
    """Every gated count must repeat exactly for the same op input: across the
    ops of this run, traced or not, against the golden counts, and against
    earlier runs in this checkout (recorded in `.bench_work/ledger.json`)."""
    ledger_path = WORK / "ledger.json"
    ledger = json.loads(ledger_path.read_text()) if ledger_path.exists() else {}
    golden = load_golden().get(name, {})
    for op in ops:
        counts = dict(op.get("counts", {}))
        counts.update(traced.get(op["id"], {}))
        slot = f"{name}/{op['key']}"
        known = ledger.setdefault(slot, dict(golden.get(op["key"], {}).get("counts", {})))
        for k, v in counts.items():
            if known.setdefault(k, v) != v:
                raise CountDrift(f"{k} on {slot}: {v} != {known[k]} ({op['phase']} op {op['id']})")
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    tmp = ledger_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    tmp.replace(ledger_path)


def layer_metrics(wl, rows: dict[int, dict], ops: list[dict], out: dict) -> dict[str, dict]:
    """Per-layer metrics of the traced ops: seconds are medians over ops,
    counts are per op (for `wide`, the mean over its fixed child seeds)."""
    traced_ops = [op for op in ops if op["phase"] == "traced"]
    # Every span of an op is rescaled by that op's calibration factor.
    per = [
        {k: v * op["scale"] if k.endswith("_s") else v for k, v in rows[op["id"]].items()}
        for op in traced_ops
    ]
    first: dict[str, dict] = {}
    for op in traced_ops:
        first.setdefault(op["key"], rows[op["id"]])
    distinct = list(first.values())

    def med(k):
        return statistics.median(r.get(k, 0.0) for r in per)

    def count(k):
        return sum(r.get(k, 0) for r in distinct) / len(distinct)

    def rate(k, busy):
        total = sum(r.get(busy, 0.0) for r in per)
        return sum(r.get(k, 0) for r in per) / total if total else 0.0

    m = {
        "ingest.busy_s": med("ingest.busy_s"),
        "ingest.rows": count("ingest.rows"),
        "ingest.rows_per_s": rate("ingest.rows", "ingest.busy_s"),
        "necessity.busy_s": med("necessity.busy_s"),
        "necessity.calls": count("necessity.calls"),
        "necessity.found": count("necessity.found"),
        "candidates.busy_s": med("candidates.busy_s"),
        "candidates.calls": count("candidates.calls"),
        "candidates.rules_emitted": count("candidates.rules_emitted"),
        "candidates.lattice_bound": count("candidates.lattice_bound"),
        "candidates.rules_per_s": rate("candidates.rules_emitted", "candidates.busy_s"),
        "cover.busy_s": med("cover.busy_s"),
        "cover.candidates_in": count("cover.candidates_in"),
        "cover.picks": count("cover.picks"),
        "cover.uncovered_left": count("cover.uncovered_left"),
        "assemble.busy_s": med("assemble.busy_s"),
        "assemble.rules_dropped": count("assemble.rules_dropped"),
        "pipeline.self_s": med("pipeline.self_s"),
        "report.busy_s": med("report.busy_s"),
        "report.bytes": count("report.bytes"),
        "pathways.busy_s": med("pathways.busy_s"),
        "pathways.cases_generated": count("pathways.cases_generated"),
        "robustness.busy_s": med("robustness.busy_s"),
        "robustness.solves": count("robustness.solves"),
        "robustness.self_s": med("robustness.self_s"),
    }
    bound = m["candidates.lattice_bound"]
    m["candidates.yield"] = m["candidates.rules_emitted"] / bound if bound else 0.0
    untraced_p50 = statistics.median(balanced([op for op in ops if op["phase"] == "untraced"]))
    m["trace.overhead_s"] = statistics.median(balanced(traced_ops)) - untraced_p50
    if wl.name == "cli":
        m["cli.import_s"] = import_seconds()
        m["cli.run_s"] = out["cli_run_s"]
        m["cli.startup_share"] = m["cli.import_s"] / untraced_p50
    else:
        m.update({"cli.import_s": 0.0, "cli.run_s": 0.0, "cli.startup_share": 0.0})
    # Shares of the traced op, for reading only (not part of the result).
    op_p50 = med("op_s")
    busy = sorted({k for r in per for k in r if k.endswith(".busy_s")})
    shares = {k[:-7]: round(med(k) / op_p50, 4) for k in busy}
    shares["pipeline.self"] = round(m["pipeline.self_s"] / op_p50, 4)
    print("layer shares of the traced op p50:", json.dumps(shares))
    return {k: per_layer_unit(k, v) for k, v in m.items()}


def per_layer_unit(name: str, value: float) -> dict:
    if name.endswith("_per_s"):
        unit = "1/s"
    elif name.endswith("_s"):
        unit = "s"
    elif name.endswith(("yield", "share")):
        unit = "ratio"
    else:
        unit = "count"
    return {"value": value, "unit": unit}


def environment() -> dict:
    commit = None  # a checkout without .git is identified by src_sha256 alone
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except OSError:
            pass
    src = b"".join(p.read_bytes() for p in sorted(SRC.rglob("*.py")))
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit,
        "src_sha256": sha256(src)[:16],
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
    }


def run(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> tuple[dict, int, int]:
    wl = WORKLOADS[name](seed, smoke)
    extra = ["--smoke"] if smoke else []
    load_before = os.getloadavg()
    wl.prepare()
    if trace:
        spans_path = WORK / "spans" / f"{name}-{seed}{'-smoke' if smoke else ''}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        out = worker("trace", name, seed, seconds, str(spans_path), *extra)
        ops = out["ops"]
        spans = load_spans(spans_path)
        if any(v < -1e-9 for v in self_times(spans).values()):
            raise RuntimeError("a span has negative self time")
        rows = per_op(spans)
        traced = {
            op["id"]: {k: rows[op["id"]].get(k, 0) for k in GATED_COUNTS}
            for op in ops if op["phase"] == "traced"
        }
        untraced = {op["key"]: op.get("digest") for op in ops if op["phase"] != "traced"}
        for op in ops:
            if op["phase"] == "traced" and op["key"] in untraced and op.get("digest") != untraced[op["key"]]:
                op["errors"].append("traced output digest differs from the untraced one")
        metrics = layer_metrics(wl, rows, ops, out)
    else:
        before, between, after = (0, 0, 1) if smoke else SETUP_RUNS
        setups = setup_seconds(name, seed, before)
        out = worker("time", name, seed, seconds, *extra)
        setups += setup_seconds(name, seed, between)
        mem = worker("mem", name, seed, seconds, *extra)
        setups += setup_seconds(name, seed, after)
        setup_s = statistics.median(setups)
        ops = out["ops"] + mem["ops"]
        traced = {}
        timed = [op for op in out["ops"] if op["phase"] == "time"]
        samples = balanced(timed)
        metrics = {
            "op_s.p50": {"value": statistics.median(samples), "unit": "s"},
            "op_s.tail": {"value": p75(samples), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_mem_mb": {"value": mem["peak_mem_mb"], "unit": "MB"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
        raw = [op["wall_s"] for op in timed]
        beyond = sum(1 for op in timed if op["wall_s"] * op["scale"] > metrics["op_s.tail"]["value"])
        print(f"op_s.tail is p75 of {len(timed)} ops, {beyond} beyond it")
        print(f"raw wall seconds: op p50 {statistics.median(raw):.4f}, op p75 {p75(raw):.4f}")
    failed = sum(1 for op in ops if op["errors"])
    for op in ops:
        for err in op["errors"]:
            print(f"FAILED {op['phase']} op {op['id']} ({op['key']}): {err}", file=sys.stderr)
    gate_counts(name + ("-smoke" if smoke else ""), ops, traced)
    slowdown = statistics.median(1 / op["scale"] for op in ops if op["phase"] != "mem")
    env = environment() | {
        "host_slowdown": round(slowdown, 4),  # calibration loop time / REF_SECONDS
        "numpy_loaded": out["numpy"],
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }
    print("env", json.dumps(env))
    print(f"ops attempted={len(ops)} failed={failed}")
    for k, v in metrics.items():
        print(f"  {k} = {v['value']:.6g} {v['unit']}")
    print(f"  fail_ratio = {failed / len(ops):.6g} ratio")
    return metrics, len(ops), failed


def smoke() -> int:
    """Every workload at a tiny size, traced and untraced: the wrappers must
    change no output, the span dump must parse with self time >= 0, and no
    op may fail."""
    bad = 0
    for name in WORKLOADS:
        for trace in (False, True):
            _, attempted, failed = run(name, 0, SMOKE_SECONDS, trace, smoke=True)
            bad += failed
            print(f"smoke {name} trace={int(trace)}: {attempted} ops, {failed} failed")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (SRC / "scpqca" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    loop_seconds()  # the first pass allocates; keep it out of every scale
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        metrics, attempted, failed = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except CountDrift as exc:
        print(f"error: exact count drifted: {exc}", file=sys.stderr)
        return 1
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
