"""One fresh process per benchmark phase.

Usage: python bench/worker.py MODE WORKLOAD SEED SECONDS [--smoke]

MODE is one of
- `setup`: import the package and build the workload's shared state, print
  `ready`, exit (the caller times this as set-up);
- `time`: after set-up and one warm-up op, run ops in a closed loop (one
  client; each op starts after the previous one returns) for SECONDS;
- `trace`: the same loop untraced for half of SECONDS, then traced for the
  other half (for `wide`, until every child seed has run once traced), and
  write the spans as JSON lines;
- `mem`: one op under tracemalloc, apart from every timed run.

Everything but `setup` prints one JSON object as its last stdout line.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from calibrate import REF_SECONDS, loop_seconds, scale
from workloads import BENCH, CLI_ARGS, ROOT, SRC, WORKLOADS, Cli, child_env, sha256

# Ops run in-process for `cli.run_s`, the `cli` analysis without process start-up.
CLI_RUNS = 10


def _record(wl, key: str, run, phase: str, ops: list[dict], calibrate: bool = True) -> float:
    """Run one op between two calibration loops, check it outside the timed
    region, log it, and return its duration in reference seconds."""
    entry = {"id": len(ops), "key": key, "phase": phase, "errors": []}
    ops.append(entry)
    before = loop_seconds() if calibrate else REF_SECONDS
    t0 = time.perf_counter()
    try:
        result = run(key)
    except Exception as exc:  # a failed op is counted, the loop goes on
        entry["errors"].append(f"{type(exc).__name__}: {exc}")
        result = None
    entry["wall_s"] = time.perf_counter() - t0
    entry["scale"] = scale(before, loop_seconds() if calibrate else REF_SECONDS)
    if not entry["errors"]:
        try:
            rendered = wl.render(result)
            entry["digest"] = sha256(rendered)
            entry["counts"] = wl.counts(result, rendered)
            entry["errors"] += wl.check(key, result, rendered)
        except Exception as exc:
            entry["errors"].append(f"check raised {type(exc).__name__}: {exc}")
    return entry["wall_s"] * entry["scale"]


def _loop(wl, run, seconds: float, phase: str, ops: list[dict], all_keys: bool = False) -> None:
    keys = wl.keys()
    deadline = time.perf_counter() + seconds
    done = 0
    while True:
        _record(wl, keys[done % len(keys)], run, phase, ops)
        done += 1
        if time.perf_counter() >= deadline and (not all_keys or done >= len(keys)):
            return


def _cli_traced(spans_path: Path, tracer, ops: list[dict]):
    """A traced `cli` op: the CLI in a fresh process under `clitrace.py`."""
    from tracer import load_spans

    def run(key: str):
        with tracer.op(len(ops) - 1) as root:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "clitrace.py"), str(spans_path), *CLI_ARGS],
                cwd=ROOT, env=child_env(), capture_output=True, timeout=60,
            )
        tracer.adopt(load_spans(spans_path), root)
        return proc

    return run


def main(argv: list[str]) -> int:
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    small = "--smoke" in argv
    sys.path.insert(0, str(SRC))
    wl = WORKLOADS[name](seed, small)
    if mode == "mem" and isinstance(wl, Cli):
        tracemalloc.start()  # the CLI pays its imports on every call
    wl.setup()
    print("ready", flush=True)
    if mode == "setup":
        return 0

    out: dict = {"ops": []}
    ops = out["ops"]
    if mode == "mem":
        run = wl.in_process if isinstance(wl, Cli) else wl.op

        def measured(key):
            if not tracemalloc.is_tracing():
                tracemalloc.start()
            try:
                return run(key)
            finally:  # the peak covers the op only, not the checks after it
                out["peak_mem_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()

        # No calibration loops here: under tracemalloc they would add to the peak.
        _record(wl, wl.memory_key(), measured, "mem", ops, calibrate=False)
    else:
        loop_seconds()  # the first pass allocates; keep it out of every scale
        _record(wl, wl.reference_key(), wl.op, "warmup", ops)
        if mode == "time":
            _loop(wl, wl.op, seconds, "time", ops)
        else:
            from tracer import Tracer

            _loop(wl, wl.op, seconds / 2, "untraced", ops)
            tracer = Tracer()
            spans_path = Path(argv[4])
            if isinstance(wl, Cli):
                run = _cli_traced(spans_path.with_suffix(".child"), tracer, ops)
            else:
                tracer.install()

                def run(key):
                    with tracer.op(len(ops) - 1):
                        return wl.op(key)

            _loop(wl, run, seconds / 2, "traced", ops, all_keys=True)
            tracer.uninstall()
            tracer.dump(spans_path)
            if isinstance(wl, Cli):
                runs = [_record(wl, wl.KEY, wl.in_process, "in_process", ops) for _ in range(CLI_RUNS)]
                out["cli_run_s"] = statistics.median(runs)
    who = resource.RUSAGE_CHILDREN if isinstance(wl, Cli) else resource.RUSAGE_SELF
    out["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024
    import numpy

    out["numpy"] = numpy.__version__
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
