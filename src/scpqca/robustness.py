"""Internal and external validity protocols.

Internal validity reruns the pipeline over a grid of (consistency threshold,
cutoff, unique cover) settings and reports candidate counts and solutions per
cell. External validity is a jackknife: repeatedly drop a fraction of the
cases, rerun, and classify each resulting configuration against the full-data
solution. Both protocols walk the candidate lattice once and filter it per
cell or repetition (see `candidates.CandidatePool`): each pool node's
matched bits, masked to a repetition's cases, are counted and tested again.
A repetition's candidates index the full table's ids, its solution is
scored on its own cases. A repetition whose necessary conditions differ
from the full table's walks its own cases instead, over its own ids. A
sweep selects and covers once per distinct (consistency, cutoff): cells
that differ only in unique cover share one selection, and greedy answers a
floor from its run at any lower one before it (see `cover`).

Classification compares literal sets structurally. A test configuration is
Replicated when its literal set equals an original's; a Superset when its
literals are a proper subset of an original's (fewer constraints, so it
covers a superset of cases); a Subset when they are a proper superset; and
NotIdentified otherwise. When several originals relate to the same test
configuration, Replicated wins over Superset wins over Subset. Necessary
condition literals are folded into every configuration on both sides before
comparing, so a necessity shift between the full and subsampled data shows up
as Superset/Subset instead of silently matching.
"""

from __future__ import annotations

import math
import random
from enum import Enum
from fractions import Fraction
from typing import Sequence

from .candidates import CandidatePool
from .model import (
    AnalysisParams,
    CaseTable,
    Conjunction,
    InputError,
    ScpqcaError,
    _echo,
    as_fraction,
    as_index,
    frozen,
    replace,
)
from .pipeline import SolveResult, solve

# Each repetition is one solve and one row of the report, so a count past
# this is a typing slip, not a run: it is refused before any repetition runs.
MAX_REPS = 10**5


def check_reps(reps: int) -> int:
    """`reps` as an int if it lies in [1, MAX_REPS], else an InputError that echoes it cut."""
    return as_index(reps, "reps", 1, MAX_REPS)


class ValidityClass(Enum):
    REPLICATED = "replicated"
    SUPERSET = "superset"
    SUBSET = "subset"
    NOT_IDENTIFIED = "not identified"


def classify_configuration(
    test_rule: Conjunction, original_rules: Sequence[Conjunction]
) -> ValidityClass:
    return classify_with_match(test_rule, original_rules)[0]


def classify_with_match(
    test_rule: Conjunction, original_rules: Sequence[Conjunction]
) -> tuple[ValidityClass, int | None]:
    """Class plus the index of the first original it relates to (if any)."""
    test = test_rule.literal_set()
    for i, orig in enumerate(original_rules):
        if test == orig.literal_set():
            return ValidityClass.REPLICATED, i
    for i, orig in enumerate(original_rules):
        if test < orig.literal_set():
            return ValidityClass.SUPERSET, i
    for i, orig in enumerate(original_rules):
        if test > orig.literal_set():
            return ValidityClass.SUBSET, i
    return ValidityClass.NOT_IDENTIFIED, None


# ---------------------------------------------------------------------------
# Internal validity


@frozen
class SweepCell:
    """A grid point as given (its consistency parsed) and its solve, if any."""

    consistency_threshold: Fraction
    cutoff: int
    unique_cover: int
    result: SolveResult | None
    candidate_count: int
    error: str | None = None


def _grid_consistency(value: Fraction | float | str) -> Fraction:
    ratio = as_fraction(value)
    try:
        float(ratio)
    except OverflowError:
        raise InputError(f"consistency too large for a float: {_echo(value)!r}") from None
    return ratio


def internal_sweep(
    table: CaseTable,
    grid: Sequence[tuple[Fraction | float | str, int, int]],
    base_params: AnalysisParams,
) -> list[SweepCell]:
    """One pipeline run per (consistency_threshold, cutoff, unique_cover) point.

    A cell's row shows its consistency, so one that is not a ratio ("abc")
    or too large for a float ("1e999") raises `InputError` before any cell
    is solved, like an entry that is not a triple. An out-of-range or
    non-integer value (cutoff 0 or 2.5) fails only its own cell, recorded
    with its error like a failed solve. The cells share one candidate pool
    at the smallest cutoff and consistency of the cells whose parameters
    are valid, so the lattice is walked once. Every cell still runs its own
    solve, but cells with the same (consistency, cutoff) get the same
    candidates from the pool, and greedy answers a floor at or above one it
    already ran on them without a pass; necessity, the dropped-rule check
    and assembly run per cell.
    """
    if not grid:
        raise InputError("sweep grid must not be empty")
    bad = [p for p in grid if isinstance(p, str) or not isinstance(p, Sequence) or len(p) != 3]
    if bad:
        raise InputError(
            f"sweep grid entry must be a (consistency, cutoff, unique_cover) triple, got {_echo(bad[0], repr)}"
        )
    points = [(_grid_consistency(consistency), cutoff, unique) for consistency, cutoff, unique in grid]
    grid_params: list[AnalysisParams | str] = []  # or the error building them raised
    for consistency, cutoff, unique in points:
        try:
            grid_params.append(
                replace(base_params, consistency_threshold=consistency, cutoff=cutoff, unique_cover=unique)
            )
        except InputError as exc:
            grid_params.append(str(exc))
    valid = [p for p in grid_params if isinstance(p, AnalysisParams)]
    pool = CandidatePool(
        min((p.cutoff for p in valid), default=1),
        min((p.consistency_threshold for p in valid), default=None),
    )
    cells: list[SweepCell] = []
    for point, params in zip(points, grid_params):
        if isinstance(params, str):
            cells.append(SweepCell(*point, None, 0, error=params))
            continue
        try:
            result = solve(table, params, pool=pool)
            cells.append(SweepCell(*point, result, len(result.candidates)))
        except ScpqcaError as exc:
            cells.append(SweepCell(*point, None, 0, error=str(exc)))
    return cells


# ---------------------------------------------------------------------------
# External validity


def derive_seed(seed: int, repetition: int) -> int:
    """Deterministic, platform-independent child seed per repetition.

    Hashes the decimal text of both, so one past the interpreter's
    int-to-text limit raises `InputError`.
    """
    import hashlib  # here, not at the top: OpenSSL's _hashlib is most of its import time

    seed, repetition = as_index(seed, "seed"), as_index(repetition, "repetition")
    try:
        key = f"{seed}:{repetition}"
    except ValueError:
        raise InputError(f"seed {_echo(seed)} or repetition {_echo(repetition)} has too many digits to hash") from None
    digest = hashlib.sha256(key.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@frozen
class Repetition:
    removed_ids: tuple[str, ...]
    configurations: tuple[Conjunction, ...]
    classes: tuple[tuple[ValidityClass, int | None], ...]
    degenerate: bool = False
    error: str | None = None


@frozen
class ValidityReport:
    originals: tuple[Conjunction, ...]
    repetitions: tuple[Repetition, ...]
    fraction: float
    seed: int

    def class_totals(self) -> dict[ValidityClass, int]:
        """Test-side tallies: every test configuration counted once."""
        totals = {c: 0 for c in ValidityClass}
        for rep in self.repetitions:
            for cls, _ in rep.classes:
                totals[cls] += 1
        return totals

    def per_original_tallies(self) -> list[dict[ValidityClass, int]]:
        """Per original configuration, in how many repetitions it was matched.

        Within one repetition an original counts at most once, under the best
        relation any test configuration achieved against it.
        """
        order = [ValidityClass.REPLICATED, ValidityClass.SUPERSET, ValidityClass.SUBSET]
        tallies = [{c: 0 for c in order} for _ in self.originals]
        for rep in self.repetitions:
            best: dict[int, ValidityClass] = {}
            for cls, match in rep.classes:
                if match is None or cls is ValidityClass.NOT_IDENTIFIED:
                    continue
                prev = best.get(match)
                if prev is None or order.index(cls) < order.index(prev):
                    best[match] = cls
            for match, cls in best.items():
                tallies[match][cls] += 1
        return tallies

    def per_original_accuracy(self) -> list[Fraction]:
        """Share of repetitions in which each original was matched at all."""
        reps = len(self.repetitions)
        return [
            Fraction(sum(t.values()), reps) if reps else Fraction(0)
            for t in self.per_original_tallies()
        ]

    def overall_accuracy(self) -> Fraction:
        """Classified test configurations (anything but NotIdentified) over all."""
        totals = self.class_totals()
        all_configs = sum(totals.values())
        if all_configs == 0:
            return Fraction(0)
        return Fraction(all_configs - totals[ValidityClass.NOT_IDENTIFIED], all_configs)


def external_validity(
    table: CaseTable,
    params: AnalysisParams,
    fraction: float = 0.10,
    reps: int = 10,
    seed: int = 0,
) -> ValidityReport:
    """Jackknife the table `reps` times and classify the resulting solutions.

    Each repetition removes ceil(fraction * n) distinct cases, drawn from its
    own (seed, repetition)-derived stream so repetitions are order independent.
    `fraction` is read as its exact decimal (`model.as_fraction`), so 0.07 of
    100 cases is 7, not the 8 that the float product would round up to.
    A repetition whose subsample cannot be solved (for instance no positive
    cases survive) is recorded as degenerate with no configurations. The full
    solve and every repetition share one candidate pool at `params.cutoff`.
    `reps` outside [1, MAX_REPS], a `seed` that `derive_seed` refuses, or a
    `fraction` that would remove every case is an InputError, before any
    solve.
    """
    exact = as_fraction(fraction)
    if not 0 < exact < 1:
        raise InputError(f"fraction must be in (0,1), got {_echo(fraction)}")
    reps, seed = check_reps(reps), as_index(seed, "seed")
    rep_seeds = [derive_seed(seed, rep) for rep in range(reps)]
    table.require_unique_ids()
    n = len(table)
    k = math.ceil(exact * n)
    if k >= n:
        raise InputError(f"removing {k} of {n} cases leaves nothing to analyse")

    pool = CandidatePool(params.cutoff)
    full = solve(table, params, pool=pool)
    originals = full.solution.configurations()

    repetitions: list[Repetition] = []
    for rep_seed in rep_seeds:
        rng = random.Random(rep_seed)
        removed = sorted(rng.sample(range(n), k))
        dropped = set(removed)
        sub = table.take([i for i in range(n) if i not in dropped])
        removed_ids = tuple(table.ids[i] for i in removed)
        try:
            result = solve(sub, params, pool=pool)
        except ScpqcaError as exc:
            repetitions.append(
                Repetition(removed_ids, (), (), degenerate=True, error=str(exc))
            )
            continue
        configs = result.solution.configurations()
        classes = tuple(classify_with_match(c, originals) for c in configs)
        repetitions.append(Repetition(removed_ids, configs, classes))

    return ValidityReport(
        originals=originals, repetitions=tuple(repetitions), fraction=float(exact), seed=seed
    )
