"""Spans around the package's layer boundaries, recorded from outside it.

`Tracer.install` replaces public functions at the names the calling modules
bind them to (`scpqca.pipeline.enumerate_candidates`, `scpqca.cli.load_csv`,
...), so nothing under `src/` is edited. A wrapper records a span only while
an op is open, returns the wrapped function's result unchanged, and takes
its counts after the span has closed. Spans stay in memory as
`[id, name, start, end, parent, op, counts]` and are written out as JSON
lines when the run ends. Start and end are `time.perf_counter()` readings,
a system-wide monotonic clock on Linux, so spans recorded in a child
process nest inside the op span of the process that started it.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path


def _rows(result, /, **_) -> dict:
    return {"rows": len(result)}


def _necessity(result, /, **_) -> dict:
    return {"calls": 1, "found": len(result)}


def _candidates(result, /, table, factor_set, params, **_) -> dict:
    from scpqca.candidates import candidate_count_bound

    return {
        "calls": 1,
        "rules_emitted": len(result),
        # Over the factor set actually enumerated, at the run's max_order.
        "lattice_bound": candidate_count_bound(table.schema, factor_set, params.max_order),
    }


def _cover(result, /, candidates, positives, **_) -> dict:
    uncovered = set(positives)
    for rule in result:
        uncovered -= rule.positives_matched
    return {"candidates_in": len(candidates), "picks": len(result), "uncovered_left": len(uncovered)}


def _assemble(result, /, selected, **_) -> dict:
    return {"rules_in": len(selected)}


def _generated(result, /, **_) -> dict:
    return {"cases_generated": len(result)}


def _bytes(result, /, **_) -> dict:
    return {"bytes": len(result.encode())} if isinstance(result, str) else {}


# Layer name, the bindings wrapped for it, and its counter. A counter gets
# the result and the call's arguments by parameter name.
TARGETS = (
    ("ingest", ("scpqca.ingest.load_csv", "scpqca.cli.load_csv"), _rows),
    ("necessity", ("scpqca.pipeline.necessary_conditions",), _necessity),
    ("candidates", ("scpqca.pipeline.enumerate_candidates",), _candidates),
    ("cover", ("scpqca.pipeline.greedy_cover",), _cover),
    ("assemble", ("scpqca.pipeline.assemble_solution",), _assemble),
    (
        "pipeline",
        ("scpqca.pipeline.solve", "scpqca.cli.solve", "scpqca.robustness.solve", "scpqca.pathways.solve"),
        None,
    ),
    ("pathways", ("scpqca.pathways.generate_experiment_table",), _generated),
    ("robustness", ("scpqca.cli.internal_sweep", "scpqca.cli.external_validity"), None),
    (
        "report",
        tuple(f"scpqca.report.{n}" for n in ("solve_payload", "sweep_payload", "xval_payload", "render_json")),
        _bytes,
    ),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, 0.0, 0.0, parent, self._op, {}]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[2] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[3] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def op(self, op_id: int, name: str = "op"):
        """Open the root span of one op; wrappers record only inside it."""
        self._op = op_id
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)
            self._op = None

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def wrap(self, fn, name: str, count):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            if self._op is None:
                return fn(*args, **kwargs)
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[6] = count(result, **signature.bind(*args, **kwargs).arguments)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for name, bindings, count in TARGETS:
            for binding in bindings:
                module_name, attr = binding.rsplit(".", 1)
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._patched.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, count))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def adopt(self, spans: list[dict], parent: list) -> None:
        """Append spans recorded by a child process under the open span `parent`."""
        base = len(self.spans)
        for s in spans:
            up = parent[0] if s["parent"] is None else base + s["parent"]
            self.spans.append([base + s["id"], s["name"], s["start"], s["end"], up, parent[5], s["counts"]])

    def dump(self, path: Path) -> None:
        keys = ("id", "name", "start", "end", "parent", "op", "counts")
        with path.open("w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def load_spans(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Per span: its duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"]) - _covered(children.get(s["id"], [])) for s in spans}


def per_op(spans: list[dict]) -> dict[int, dict[str, float]]:
    """Busy and self seconds per layer, and summed counts, for each op."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    ops: dict[int, dict[str, float]] = {}
    intervals: dict[tuple[int, str], list[tuple[float, float]]] = {}
    for s in spans:
        row = ops.setdefault(s["op"], {})
        if s["name"] == "op":
            row["op_s"] = s["end"] - s["start"]
            continue
        intervals.setdefault((s["op"], s["name"]), []).append((s["start"], s["end"]))
        row[f"{s['name']}.self_s"] = row.get(f"{s['name']}.self_s", 0.0) + selfs[s["id"]]
        for k, v in s["counts"].items():
            row[f"{s['name']}.{k}"] = row.get(f"{s['name']}.{k}", 0) + v
        parent = by_id.get(s["parent"])
        if s["name"] == "pipeline" and parent is not None and parent["name"] == "robustness":
            row["robustness.solves"] = row.get("robustness.solves", 0) + 1
    for (op, name), iv in intervals.items():
        ops[op][f"{name}.busy_s"] = _covered(iv)
    # Rules greedy picked that assembly never saw were dropped under the
    # necessary conditions; both spans are children of the same solve.
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["name"] == "pipeline" and s["name"] in ("cover", "assemble"):
            row = ops[s["op"]]
            delta = s["counts"].get("picks", 0) - s["counts"].get("rules_in", 0)
            row["assemble.rules_dropped"] = row.get("assemble.rules_dropped", 0) + delta
    return ops

