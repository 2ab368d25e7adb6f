"""Record bench/golden.json: output digests and exact counts of the fixed inputs.

    python3 bench/record_golden.py

Run from a checkout whose output is known good, with no golden.json present
(delete it to re-record). Covers the inputs that do not depend on the
workload seed: every `wide` child seed, the `cli` call, and the seed-0
reference inputs of `tall` and `resample`. The digests and counts come from
one traced run per workload, so they also pin the counts only the trace sees.
"""

from __future__ import annotations

import json
import sys

from run import worker
from tracer import load_spans, per_op
from workloads import GATED_COUNTS, GOLDEN, WORK, WORKLOADS


def main() -> int:
    if GOLDEN.exists():
        print(f"error: {GOLDEN} exists; delete it to re-record", file=sys.stderr)
        return 1
    golden: dict = {}
    for name in WORKLOADS:
        spans_path = WORK / "spans" / f"golden-{name}.jsonl"
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        WORKLOADS[name](0).prepare()
        out = worker("trace", name, 0, 0.5, str(spans_path))
        rows = per_op(load_spans(spans_path))
        entries = golden.setdefault(name, {})
        for op in out["ops"]:
            if op["errors"]:
                print(f"error: {name} op {op['key']} failed: {op['errors']}", file=sys.stderr)
                return 1
            if op["phase"] != "traced" or op["key"] in entries:
                continue
            counts = {k: rows[op["id"]].get(k, 0) for k in GATED_COUNTS}
            entries[op["key"]] = {"sha256": op["digest"], "counts": counts}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}: " + ", ".join(f"{k} {len(v)} inputs" for k, v in golden.items()))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
