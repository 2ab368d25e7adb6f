"""How fast the shared host runs right now, from a fixed pure-Python loop.

The benchmark's host is a shared VM whose speed drifts by up to 2x over
minutes. Process CPU time drifts with wall time and there is no steal, so
the CPU itself runs slower. The benchmark therefore brackets every timed
interval with this loop and rescales the interval by
`REF_SECONDS / loop seconds`. The result reads as seconds on the host at
its reference speed, and the raw wall seconds are printed next to it. The
loop touches no package code, so a change to the package cannot move it.
It uses the operations the package spends its time on: set algebra over
string ids, dict counting and exact fractions.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

# Seconds the loop takes on the reference host (2-vCPU Intel Xeon VM,
# Python 3.11.7) at its fastest observed speed.
REF_SECONDS = 0.015

_IDS = tuple(f"c{i:05d}" for i in range(20000))
_SETS = (frozenset(_IDS[::2]), frozenset(_IDS[::3]), frozenset(_IDS[1::5]))


def _loop() -> int:
    acc = 0
    for s in _SETS:
        for t in _SETS:
            acc += len(s & t) + len(s - t)
    counts: dict[str, int] = {}
    for i, cid in enumerate(_IDS):
        counts[cid[-3:]] = counts.get(cid[-3:], 0) + i % 7
    half = Fraction(1, 2)
    return acc + sum(1 for k, v in enumerate(counts.values()) if Fraction(v, k + 1) > half)


def loop_seconds() -> float:
    t0 = time.perf_counter()
    _loop()
    return time.perf_counter() - t0


def scale(before: float, after: float) -> float:
    """Factor that turns wall seconds measured between two loops into reference seconds."""
    return REF_SECONDS / ((before + after) / 2)


def pin_to_one_cpu() -> None:
    """Run this process and its children on one CPU, so that the loop and the
    ops it brackets share the same core and the same neighbours."""
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[-1]})
