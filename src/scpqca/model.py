"""Domain types and the consistency/coverage arithmetic shared by all stages.

Everything here is crisp set algebra: a case either matches a conjunction of
factor=value literals or it does not, and every metric is a ratio of two case
counts. Ratios are kept as exact `fractions.Fraction` values so that threshold
comparisons and tie-breaks never depend on floating-point rounding; convert to
float only for display.

Metric conventions (for a decision label ``o``):

* necessity consistency of a literal C=c:
  |cases with C=c and outcome o| / |cases with outcome o|
* sufficiency consistency of a conjunction X (`CandidateRule.consistency`
  of the rule `rule_from_conjunction` builds for X):
  |cases matching X with outcome o| / |cases matching X|
* solution consistency / coverage of a rule set, with U the union of the rules'
  matched cases and P the outcome-o cases:
  |U ∩ P| / |U|  and  |U ∩ P| / |P|

Ratios with an empty denominator raise `UndefinedRatioError`; silently
returning 0 would corrupt threshold filtering downstream.

A `CaseTable` is stored as one read-only column per factor plus an outcome
column: `bytes` (one byte per case) for at most 256 levels, ``array('h')``
above. Only this module knows that format; other code reads rows through
`CaseTable.values`, levels through `Rows.column` and `CaseTable.outcomes`,
and takes row subsets with `CaseTable.take`, which records (weakly) the
table a subset was taken from.

A set of cases is one Python int over a tuple of case ids: bit i stands for
``ids[i]``, so intersection is ``&``, union is ``|`` and a count is
``int.bit_count()`` (Eclat's vertical tid-lists). This module owns case
bitsets; `_flags` gives a bitset's 0/1 bytes for `compress`. `CaseTable`
caches one entry per column, each level's bitset, packed at C speed on the
column's first read by `literal_bits` or `positive_bits`; `match_bits`
builds the rest, and `ids_of` / `bits_of` convert at the edges. A table
caches no id set; `positive_ids` builds one where read. The table answers
for its outcome set, refusing one with no case for every stage
(`require_positives`), and for its provenance (`subset_bits`).
`CandidateRule` carries the bits and shared ids, with frozenset views;
many of them are held as a `candidates.CandidateRules`.

`AnalysisParams` holds the analysis parameters (the consistency threshold,
the frequency cutoff, the unique-cover floor and the rest) and checks them
when it is built, so every stage reads them as they are.

The errors, the one echo `_echo` and the readers `as_index` and
`as_fraction` live in `_base` and are re-exported here. Whether a literal
fits a schema is checked once, by `_check_literal`, for `match_bits`,
`necessity.exclude_necessary` and `pathways.PathwaySpec`.

All types are immutable after construction (a table's per-column bitset
cache only memoizes; each cache entry is written whole, in one assignment)
and all operations are pure, so values can be shared freely across threads.
The value classes are `_base.frozen` classes, and `replace` gives a changed
copy, checked as a new one is.
"""

from __future__ import annotations

import weakref
from array import array
from fractions import Fraction
from functools import cached_property, total_ordering
from itertools import compress
from operator import index
from typing import Iterable, Iterator, Sequence

from ._base import (  # re-exported: every module reads these from here
    InputError,
    ScpqcaError,
    UndefinedRatioError,
    VacuousSolutionError,
    _echo,
    as_fraction,
    as_index,
    frozen,
    replace,
)

_set = object.__setattr__

# ---------------------------------------------------------------------------
# Analysis parameters


def _check_threshold(threshold: Fraction, what: str) -> Fraction:
    """`threshold`, refused unless in (0, 1], as `what`'s threshold."""
    if not 0 < threshold <= 1:
        raise InputError(f"{what} threshold must be in (0,1], got {_echo(threshold)}")
    return threshold


@frozen
class AnalysisParams:
    """Everything a pipeline run needs besides the table, checked when built.

    Ratios are read with `as_fraction` and integers with `as_index`; a
    consistency threshold outside (0, 1], then a `cutoff`, `max_order` or
    `unique_cover` below 1, then a necessity threshold outside (0, 1], then
    an `assume_necessary` with two literals of one factor, raises
    `InputError`. `pipeline.solve` checks the literals' factor indices
    against its table.
    """

    decision_label: int
    consistency_threshold: Fraction = Fraction(4, 5)
    cutoff: int = 2
    unique_cover: int = 2
    necessity_threshold: Fraction = Fraction(9, 10)
    max_order: int | None = None
    assume_necessary: tuple[Literal, ...] | None = None

    def __post_init__(self) -> None:
        _set(self, "consistency_threshold", as_fraction(self.consistency_threshold))
        _set(self, "necessity_threshold", as_fraction(self.necessity_threshold))
        _set(self, "decision_label", as_index(self.decision_label, "decision_label"))
        _check_threshold(self.consistency_threshold, "consistency")
        for name in ("cutoff", "max_order", "unique_cover"):
            if name != "max_order" or self.max_order is not None:  # None: no bound on the literals per rule
                _set(self, name, as_index(getattr(self, name), name, 1))
        _check_threshold(self.necessity_threshold, "necessity")
        if self.assume_necessary is not None:
            Conjunction(self.assume_necessary)  # one literal per factor


# ---------------------------------------------------------------------------
# Schema and cases


@frozen
class Factor:
    """One column: a name, its admissible level count, and optional provenance.

    `labels` maps dense levels back to the raw labels seen at ingestion
    (index = level). `cutpoints` records threshold calibration. Both are
    None for columns that were already dense integer levels.
    """

    name: str
    levels: int
    labels: tuple[str, ...] | None = None
    cutpoints: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise InputError("factor name must be non-empty")
        levels = as_index(self.levels, f"factor {_echo(self.name)!r}: level count", 2, 1 << 15)
        _set(self, "levels", levels)
        if self.labels is not None and len(self.labels) != self.levels:
            raise InputError(f"factor {_echo(self.name)!r}: {len(self.labels)} labels for {self.levels} levels")


@frozen
class FactorSchema:
    """Ordered condition factors plus the outcome column."""

    factors: tuple[Factor, ...]
    outcome: Factor

    def __post_init__(self) -> None:
        names = [f.name for f in self.factors]
        if len(set(names)) != len(names):
            raise InputError("factor names must be unique")
        if self.outcome.name in names:
            raise InputError(f"outcome name {_echo(self.outcome.name)!r} collides with a factor")

    @property
    def outcome_name(self) -> str:
        return self.outcome.name

    @property
    def outcome_levels(self) -> int:
        return self.outcome.levels

    def factor_index(self, name: str) -> int:
        for i, f in enumerate(self.factors):
            if f.name == name:
                return i
        raise InputError(f"unknown factor {_echo(name)!r}")

    def level_counts(self) -> tuple[int, ...]:
        return tuple(f.levels for f in self.factors)


def binary_schema(names: Sequence[str], outcome_name: str = "O") -> FactorSchema:
    """Convenience constructor: all factors and the outcome binary."""
    return FactorSchema(
        factors=tuple(Factor(n, 2) for n in names),
        outcome=Factor(outcome_name, 2),
    )


@frozen
class Case:
    id: str
    values: tuple[int, ...]
    outcome: int


class Rows:
    """Read-only rows view over a table's factor columns.

    Supports `len`, ``rows[i]`` (a tuple of levels), iteration over row
    tuples, `tolist()`, `column(j)` (a read-only sequence of levels) and
    ``==``. Every row read builds a tuple per case, so code on the analysis
    path reads bitsets (`CaseTable.literal_bits`) instead.
    """

    __slots__ = ("_columns", "_n")

    def __init__(self, columns: tuple, n: int) -> None:
        self._columns = columns
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> tuple[int, ...]:
        i = range(self._n)[i]
        return tuple(col[i] for col in self._columns)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return zip(*self._columns) if self._columns else iter([()] * self._n)

    def tolist(self) -> list[list[int]]:
        return list(map(list, self))

    def column(self, j: int) -> memoryview:
        return memoryview(self._columns[j]).toreadonly()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Rows):
            return NotImplemented
        return self._n == other._n and [*map(memoryview, self._columns)] == [*map(memoryview, other._columns)]

    __hash__ = None  # type: ignore[assignment]


def _seq(cells) -> Sequence:
    """`cells` as bytes, a list or a tuple, which `_column` reads and `_bad_cell` scans."""
    if isinstance(cells, (bytes, list, tuple)):
        return cells
    return cells.tolist() if hasattr(cells, "tolist") else list(cells)


def _column(cells: Sequence, levels: int) -> bytes | array | None:
    """The stored column of `cells`, or None when a cell is not a level below `levels`.

    Up to 256 levels a column is `bytes`, one byte per case, range-checked
    by deleting every valid byte; wider columns are ``array('h')``.
    """
    try:
        if levels <= 256:
            col = bytes(cells)
            if not col.translate(None, bytes(range(levels))):
                return col
        else:
            col = array("h", list(cells) if isinstance(cells, bytes) else cells)
            if not col or (min(col) >= 0 and max(col) < levels):
                return col
    except (TypeError, ValueError, OverflowError):
        pass
    return None


def _bad_cell(cells: Sequence, levels: int, ids: Sequence[str], factor: Factor | None) -> str:
    """Error text naming the first cell that is not an integer level below
    `levels`, in the column of `factor` (None for the outcome column)."""
    what, where = ("outcome", "") if factor is None else ("value", f" for factor {_echo(factor.name)!r}")
    for cid, v in zip(ids, cells):
        if not hasattr(type(v), "__index__"):
            return f"case {_echo(cid)!r}: {what} {_echo(v, repr)}{where} is not an integer level"
        if not 0 <= index(v) < levels:
            return f"case {_echo(cid)!r}: {what} {_echo(index(v))} out of range{where} (levels 0..{levels - 1})"
    raise AssertionError("a rejected column holds no bad cell")


def _bits_where(col: bytes | array, value: int) -> int:
    """Bitset of the cells of a stored column equal to `value` (bit i = cell i)."""
    if isinstance(col, bytes):
        return int(b"0" + col[::-1].translate(b"0" * value + b"1" + b"0" * (255 - value)), 2)
    return int(b"0" + bytes(map(value.__eq__, reversed(col))).translate(_FLAG_TO_DIGIT), 2)


@frozen
class CaseTable:
    """A calibrated dataset: cases x factors with dense integer levels.

    Stored as one read-only column per factor plus an outcome column (see
    the module docstring). `values` is a `Rows` view over the factor columns,
    `outcomes` a read-only sequence of levels, and `Case` objects are
    materialized on demand. The constructor takes `values` as any nested
    sequence of rows (lists, tuples, a numpy array, another table's
    `values`); `from_columns` takes one sequence per factor instead. Every
    cell must be an integer (anything with ``__index__``) in its column's
    level range.

    Case ids are not required to be unique at the type level (sampling
    produces fresh ids, ingestion enforces uniqueness), but the analysis
    entry points insist on unique ids before computing case-set metrics.
    Case sets over the table are bitsets over `ids`, built from per-level
    bitsets that are packed a whole column at a time on its first read and
    cached.
    """

    schema: FactorSchema
    ids: tuple[str, ...]
    values: Rows
    outcomes: Sequence[int]
    _taken_from = None  # `take` sets a weak reference to the table it took from

    def __post_init__(self) -> None:
        ids = tuple(self.ids)
        n = len(ids)
        factors = self.schema.factors
        if isinstance(self.values, Rows):
            columns = tuple(map(_seq, self.values._columns))
            shaped = len(self.values) == n and len(columns) == len(factors) and all(len(c) == n for c in columns)
        else:
            rows = _seq(self.values)
            try:
                shaped = len(rows) == n and set(map(len, rows)) <= {len(factors)}
            except TypeError:
                shaped = False
            columns = tuple(zip(*rows)) if rows and shaped else ((),) * len(factors)
        if not shaped:
            raise InputError(f"values do not have the shape of {n} cases x {len(factors)} factors")
        outcomes = _seq(self.outcomes)
        if len(outcomes) != n:
            raise InputError(f"{len(outcomes)} outcomes do not match {n} cases")
        stored = []
        for cells, levels, factor in [
            *((cells, f.levels, f) for cells, f in zip(columns, factors)),
            (outcomes, self.schema.outcome_levels, None),
        ]:
            col = _column(cells, levels)
            if col is None:
                raise InputError(_bad_cell(cells, levels, ids, factor))
            stored.append(col)
        *stored, outcome_column = stored
        _set(self, "ids", ids)
        _set(self, "_columns", tuple(stored))
        _set(self, "_outcome_column", outcome_column)
        _set(self, "values", Rows(self._columns, n))
        _set(self, "outcomes", memoryview(outcome_column).toreadonly())
        _set(self, "_bit_cache", {})

    @classmethod
    def from_columns(
        cls, schema: FactorSchema, ids: Sequence[str], columns: Iterable[Sequence[int]], outcomes: Sequence[int]
    ) -> "CaseTable":
        """Table from one sequence of levels per factor, without building rows."""
        ids = tuple(ids)
        return cls(schema, ids, Rows(tuple(columns), len(ids)), outcomes)

    @classmethod
    def from_cases(cls, schema: FactorSchema, cases: Iterable[Case]) -> "CaseTable":
        cases = list(cases)
        nf = len(schema.factors)
        for c in cases:
            if len(c.values) != nf:
                raise InputError(f"case {_echo(c.id)!r}: {len(c.values)} values for {nf} factors")
        return cls(schema, tuple(c.id for c in cases), [c.values for c in cases], [c.outcome for c in cases])

    def take(self, indices: Sequence[int]) -> "CaseTable":
        """The cases at `indices`, in that order; an index may repeat.

        The result records this table, weakly, for `subset_bits`, by which
        `candidates.CandidatePool` answers a table taken from its own.
        """

        def pick(col: bytes | array) -> bytes | array:
            cells = map(col.__getitem__, indices)
            return bytes(cells) if isinstance(col, bytes) else array("h", cells)

        taken = CaseTable.from_columns(
            self.schema, [self.ids[i] for i in indices], map(pick, self._columns), pick(self._outcome_column)
        )
        _set(taken, "_taken_from", weakref.ref(self))
        return taken

    def __len__(self) -> int:
        return len(self.ids)

    def case(self, i: int) -> Case:
        return Case(self.ids[i], self.values[i], self.outcomes[i])

    def __iter__(self) -> Iterator[Case]:
        return (self.case(i) for i in range(len(self)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CaseTable):
            return NotImplemented
        return (
            self.schema == other.schema
            and self.ids == other.ids
            and self.values == other.values
            and self.outcomes == other.outcomes
        )

    __hash__ = None  # type: ignore[assignment]

    def __reduce__(self):  # a copy or unpickled table is rebuilt: no cache, taken from no table
        return self.from_columns, (self.schema, self.ids, self._columns, self._outcome_column)

    @cached_property
    def _unique_ids(self) -> bool:
        return len(set(self.ids)) == len(self.ids)

    def require_unique_ids(self) -> None:
        if not self._unique_ids:
            seen: set[str] = set()
            for i in self.ids:
                if i in seen:
                    raise InputError(f"duplicate case id {_echo(i)!r}; deduplicate or relabel before analysis")
                seen.add(i)

    def positive_bits(self, decision_label: int) -> int:
        """Bitset of the cases with the decision label as outcome, cached."""
        decision_label = as_index(decision_label, "decision_label")
        if not 0 <= decision_label < self.schema.outcome_levels:
            raise InputError(
                f"decision label {_echo(decision_label)} out of range "
                f"(outcome levels 0..{self.schema.outcome_levels - 1})"
            )
        return self._level_bits(None).get(decision_label, 0)

    def require_positives(self, decision_label: int) -> int:
        """`positive_bits`, refused by `UndefinedRatioError` when no case has the label."""
        positives = self.positive_bits(decision_label)
        if not positives:
            raise UndefinedRatioError(f"no cases with outcome {index(decision_label)}")
        return positives

    def positive_ids(self, decision_label: int) -> frozenset[str]:
        """Ids of the cases with the decision label as outcome, built on each call, never cached."""
        return frozenset(ids_of(self.positive_bits(decision_label), self.ids))

    def literal_bits(self, factor_index: int, value: int) -> int:
        """Bitset of the cases carrying factor=value, packed with its column and cached."""
        return self._level_bits(factor_index).get(value, 0)

    def _level_bits(self, j: int | None) -> dict:
        """Level -> bitset of column `j` (None: the outcome), packed on its first read:
        every level of a byte column, the held levels of a wide one."""
        held = self._bit_cache.get(j)
        if held is None:
            col = self._outcome_column if j is None else self._columns[j]
            factor = self.schema.outcome if j is None else self.schema.factors[j]
            levels = range(factor.levels) if isinstance(col, bytes) else set(col)
            held = self._bit_cache[j] = {v: _bits_where(col, v) for v in levels}
        return held

    def subset_bits(self, source: "CaseTable") -> int | None:
        """Bits over `source.ids` of this table's cases if `take` made it from
        `source`, else None."""
        if self._taken_from and self._taken_from() is source:
            return bits_of(self.ids, source.ids)
        return None


# Both edges run at C speed: a bitset's binary digits become 0/1 bytes that
# select ids (`compress`), and membership flags become the digits of an int.
_DIGIT_TO_FLAG = bytes.maketrans(b"01", b"\x00\x01")
_FLAG_TO_DIGIT = bytes.maketrans(b"\x00\x01", b"01")


def _flags(bits: int) -> bytes:
    """One 0/1 byte per position of `bits`, up to its highest set bit, for `compress`."""
    return bin(bits)[:1:-1].encode().translate(_DIGIT_TO_FLAG)


def ids_of(bits: int, ids: Sequence[str]) -> list[str]:
    """The ids whose bits are set, in index order."""
    return list(compress(ids, _flags(bits)))


def bits_of(members: Iterable[str], ids: Sequence[str]) -> int:
    """Bitset over `ids` of the given ids; ids not in the index are ignored."""
    members = frozenset(members)
    return int(b"0" + bytes(map(members.__contains__, reversed(ids))).translate(_FLAG_TO_DIGIT), 2)


# ---------------------------------------------------------------------------
# Literals, conjunctions, rules: built, hashed, compared and sorted in the hot
# loops, so they write their own `frozen` methods.


@frozen
@total_ordering
class Literal:
    """A factor=value atom, ordered by factor index, then value."""

    factor_index: int
    value: int

    def __init__(self, factor_index: int, value: int) -> None:
        _set(self, "factor_index", as_index(factor_index, "literal factor_index", 0))
        _set(self, "value", as_index(value, "literal value", 0))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factor_index == other.factor_index and self.value == other.value

    def __hash__(self) -> int:
        return hash((self.factor_index, self.value))

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.factor_index < other.factor_index or (
            self.factor_index == other.factor_index and self.value < other.value
        )


@frozen
class Conjunction:
    """A partial assignment: at most one literal per factor, rest don't-care.

    The empty conjunction matches every case; it is legal as an internal
    sentinel only and is never emitted as a candidate rule.
    """

    literals: tuple[Literal, ...]

    def __init__(self, literals: Iterable[Literal]) -> None:
        lits = tuple(sorted(literals))
        seen: set[int] = set()
        for lit in lits:
            if lit.factor_index in seen:
                raise InputError(f"conjunction assigns factor index {_echo(lit.factor_index)} twice")
            seen.add(lit.factor_index)
        _set(self, "literals", lits)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.literals == other.literals

    def __hash__(self) -> int:
        return hash((self.literals,))

    @classmethod
    def of(cls, *pairs: tuple[int, int]) -> "Conjunction":
        return cls(Literal(i, v) for i, v in pairs)

    def __len__(self) -> int:
        return len(self.literals)

    def literal_set(self) -> frozenset[Literal]:
        return frozenset(self.literals)

    def merge(self, other: "Conjunction") -> "Conjunction":
        """Union of two partial assignments; conflicting values are an error."""
        mine = {l.factor_index: l for l in self.literals}
        for lit in other.literals:
            held = mine.setdefault(lit.factor_index, lit)
            if held != lit:
                raise InputError(
                    f"conflicting values for factor index {_echo(lit.factor_index)}: "
                    f"{_echo(held.value)} vs {_echo(lit.value)}"
                )
        return Conjunction(mine.values())

    def matches_values(self, values: Sequence[int]) -> bool:
        """True iff every literal agrees with `values`, one level per factor (empty matches all)."""
        for lit in self.literals:
            _check_factor_index(lit.factor_index, len(values))
            if values[lit.factor_index] != lit.value:
                return False
        return True


def _check_factor_index(factor_index: int, factors: int) -> None:
    """InputError, in the one text, unless `factor_index` names one of `factors` factors."""
    if not 0 <= factor_index < factors:
        raise InputError(f"factor index {_echo(factor_index)} out of range for {factors} factors")


def _check_literal(schema: FactorSchema, lit: Literal) -> None:
    """InputError unless `lit` names a factor of `schema` and one of its levels."""
    _check_factor_index(lit.factor_index, len(schema.factors))
    factor = schema.factors[lit.factor_index]
    if lit.value >= factor.levels:
        raise InputError(f"value {_echo(lit.value)} out of range for factor {_echo(factor.name)!r}")


def match_bits(conjunction: Conjunction, table: CaseTable) -> int:
    """Bitset of the table's cases matched by the conjunction."""
    bits = (1 << len(table)) - 1
    for lit in conjunction.literals:
        _check_literal(table.schema, lit)
        bits &= table.literal_bits(lit.factor_index, lit.value)
    return bits


@frozen
class CandidateRule:
    """A conjunction with the bitsets of its matched and matched-positive cases.

    Bit i of `matched_bits` and `positive_bits` stands for ``ids[i]``; rules
    that are compared or combined share one `ids` tuple, the table's.
    `matched` and `positives_matched` are frozenset views of the bits, and
    `consistency` is the sufficiency consistency they imply.
    """

    conjunction: Conjunction
    matched_bits: int
    positive_bits: int
    ids: tuple[str, ...]

    def __init__(self, conjunction: Conjunction, matched_bits: int, positive_bits: int, ids: tuple[str, ...]) -> None:
        if matched_bits < 1:
            raise InputError("candidate rule must match at least one case")
        if positive_bits & ~matched_bits:
            raise InputError("positives_matched must be a subset of matched")
        if matched_bits.bit_length() > len(ids):
            raise InputError("matched bits reach past the case ids")
        _set(self, "conjunction", conjunction)
        _set(self, "matched_bits", matched_bits)
        _set(self, "positive_bits", positive_bits)
        _set(self, "ids", ids)

    def __eq__(self, other: object) -> bool:  # ids compared too, as one tuple item: by identity first
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.matched_bits, self.positive_bits, self.conjunction, self.ids) == (
            other.matched_bits, other.positive_bits, other.conjunction, other.ids
        )

    def __hash__(self) -> int:  # not over the ids, which every rule of a table shares
        return hash((self.conjunction, self.matched_bits, self.positive_bits))

    def __repr__(self) -> str:
        return f"CandidateRule(conjunction={self.conjunction!r})"

    @classmethod
    def from_sets(
        cls, conjunction: Conjunction, matched: Iterable[str], positives: Iterable[str], ids: Sequence[str]
    ) -> "CandidateRule":
        ids = tuple(ids)
        m, p = frozenset(matched), frozenset(positives)
        if not m | p <= set(ids):
            raise InputError("rule case ids missing from the shared ids")
        return cls(conjunction, bits_of(m, ids), bits_of(p, ids), ids)

    @cached_property
    def consistency(self) -> Fraction:
        return Fraction(self.positive_bits.bit_count(), self.matched_bits.bit_count())

    @cached_property
    def matched(self) -> frozenset[str]:
        return frozenset(ids_of(self.matched_bits, self.ids))

    @cached_property
    def positives_matched(self) -> frozenset[str]:
        return frozenset(ids_of(self.positive_bits, self.ids))


@frozen
class Solution:
    """Necessary literals conjoined with a disjunction of selected rules.

    `rules` keeps the selection order. When necessary literals were excluded
    from enumeration, each rule's case bits and consistency here are the
    *effective* ones, recomputed with the necessary literals conjoined; the
    stored conjunction stays the selected rule itself so reports can show the
    necessary conditions separately.
    """

    necessary: tuple[Literal, ...]
    rules: tuple[CandidateRule, ...]
    decision_label: int
    solution_consistency: Fraction
    solution_coverage: Fraction
    per_rule_unique_coverage: tuple[int, ...]

    def __post_init__(self) -> None:
        if not (0 <= self.solution_consistency <= 1 and 0 <= self.solution_coverage <= 1):
            raise InputError("solution metrics must lie in [0,1]")
        if len(self.per_rule_unique_coverage) != len(self.rules):
            raise InputError("one unique-coverage count per rule required")
        if len(set(self.rules)) != len(self.rules):
            raise InputError("selected rules must be pairwise distinct")
        _set(self, "necessary", tuple(sorted(self.necessary)))

    def configurations(self) -> tuple[Conjunction, ...]:
        """Effective configurations: each rule with the necessary literals folded in."""
        base = Conjunction(self.necessary)
        if not self.rules:
            return (base,) if self.necessary else ()
        return tuple(base.merge(r.conjunction) for r in self.rules)


# ---------------------------------------------------------------------------
# Metrics


def necessity_consistency(literal: Literal, table: CaseTable, decision_label: int) -> Fraction:
    """Share of decision-label cases that carry the literal."""
    pos = table.require_positives(decision_label)
    both = match_bits(Conjunction((literal,)), table) & pos
    return Fraction(both.bit_count(), pos.bit_count())


def solution_metrics(
    rules: Sequence[CandidateRule], table: CaseTable, decision_label: int
) -> tuple[Fraction, Fraction]:
    """(consistency, coverage) of the union of the rules' matched cases.

    Uses the rules' stored matched sets, so callers that conjoin necessary
    conditions must pass rules whose sets were recomputed accordingly.
    """
    if not rules:
        raise InputError("solution metrics need at least one rule")
    if any(r.ids is not table.ids and r.ids != table.ids for r in rules):
        raise InputError("rules are indexed over different case ids than the table")
    union = 0
    for r in rules:
        union |= r.matched_bits
    positives = table.require_positives(decision_label)
    covered = (union & positives).bit_count()
    return Fraction(covered, union.bit_count()), Fraction(covered, positives.bit_count())


def rule_from_conjunction(conjunction: Conjunction, table: CaseTable, decision_label: int) -> CandidateRule:
    """Build a CandidateRule by evaluating the conjunction against the table."""
    matched = match_bits(conjunction, table)
    if not matched:
        raise UndefinedRatioError("conjunction matches no cases")
    return CandidateRule(conjunction, matched, matched & table.positive_bits(decision_label), table.ids)


# ---------------------------------------------------------------------------
# Expression rendering


def _alpha_names(schema: FactorSchema) -> bool:
    return all(f.name.isalpha() for f in schema.factors)


def _case_unambiguous(schema: FactorSchema) -> bool:
    lowered = [f.name.lower() for f in schema.factors]
    return len(set(lowered)) == len(lowered)


def conjunction_expr(conjunction: Conjunction, schema: FactorSchema) -> str:
    """Explicit form: 'MS=0*PI=1*LP=1'."""
    if not conjunction.literals:
        return "TRUE"
    return "*".join(f"{schema.factors[l.factor_index].name}={l.value}" for l in conjunction.literals)


def conjunction_shorthand(conjunction: Conjunction, schema: FactorSchema) -> str:
    """Compact form when factor names permit it.

    When every referenced factor is binary and names are alphabetic, the
    usual case convention applies: uppercase name = level 1, lowercase =
    level 0 ('ms*PI*LP'). Otherwise alphabetic names get the level digit
    appended ('A0*B2'). Falls back to the explicit form when names would
    make the output ambiguous.
    """
    if not conjunction.literals:
        return "TRUE"
    if not _alpha_names(schema):
        return conjunction_expr(conjunction, schema)
    if _case_unambiguous(schema) and all(
        schema.factors[l.factor_index].levels == 2 for l in conjunction.literals
    ):
        parts = []
        for l in conjunction.literals:
            name = schema.factors[l.factor_index].name
            parts.append(name.upper() if l.value == 1 else name.lower())
        return "*".join(parts)
    return "*".join(f"{schema.factors[l.factor_index].name}{l.value}" for l in conjunction.literals)


def dnf_shorthand(terms: Sequence[Conjunction], schema: FactorSchema) -> str:
    return "+".join(conjunction_shorthand(t, schema) for t in terms)
