"""Finite filtered probability spaces with exact rational data.

The filtration is stored as one partition of the outcome set per grid
time; measurability of a random variable at time t_j means constancy on
the blocks of partitions[j]; unadapted_blocks is the one walk that asks
it, and row_violations the one check of a per-outcome table's shape.
Probabilities and times are `fractions.Fraction`.  Per-outcome tables of
values (a process here, a joint mass in times) are CanonicalRows: each
row is held once as Python ints over one reduced denominator, and their
Fraction views are built only for output.  So every check in this package
is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Mapping


@dataclass(frozen=True)
class Violation:
    """One violated invariant, with a machine-readable code."""

    code: str
    detail: str

    def __str__(self):
        return f"{self.code}: {self.detail}"


class SpaceError(ValueError):
    """Raised when raw inputs do not form a valid filtered space."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(str(v) for v in self.violations))


class IncompatibleSpaces(ValueError):
    """Two objects do not live on the same filtered space."""


def _as_fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


def over_common(row) -> tuple:
    """(numerators, d): the row as Python ints over one common denominator.

    d is the lcm of the entries' denominators, so row[i] == Fraction(
    numerators[i], d) for every i; an empty row gives ((), 1).  For a row
    of Fractions or ints the pair is canonical: gcd(d, *numerators) == 1.
    """
    d = lcm(*(x.denominator for x in row))
    return tuple(x.numerator * (d // x.denominator) for x in row), d


class CanonicalRows:
    """A per-outcome table held as canonical int rows: rows[w] is (nums, d),
    entry j being nums[j] / d with gcd(d, *nums) == 1, so two rows are
    equal iff their tuples are.  The constructor takes Fraction (or number)
    rows and keeps their over_common, which is already canonical; from_rows
    takes int rows (nums, d) and divides each by gcd(d, *nums).  fractions()
    is the Fraction view, for output only: readers take the ints; a
    subclass names it _view and exposes it under that name."""

    rows: dict

    def __init__(self, table: Mapping):
        self.rows = {w: over_common(tuple(map(_as_fraction, row)))
                     for w, row in table.items()}

    @classmethod
    def from_rows(cls, rows: Mapping):
        table = cls.__new__(cls)
        table.rows = {}
        for w, (nums, d) in rows.items():
            g = gcd(d, *nums)
            table.rows[w] = ((tuple(nums), d) if g == 1
                             else (tuple([n // g for n in nums]), d // g))
        return table

    def fractions(self) -> dict:
        return {w: tuple(Fraction(n, d) for n in nums)
                for w, (nums, d) in self.rows.items()}

    def numerators(self) -> dict:
        """{w: nums}: the table the row-shape checks read."""
        return {w: nums for w, (nums, _) in self.rows.items()}

    def same(self, j: int, a, b) -> bool:
        """Entry j of rows a and b are equal, compared as ints by
        cross-multiplication: the question unadapted_blocks asks."""
        (na, da), (nb, db) = self.rows[a], self.rows[b]
        return na[j] * db == nb[j] * da

    def __eq__(self, other):
        return (self.rows == other.rows if type(other) is type(self)
                else NotImplemented)

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}({self._view}={self.fractions()!r})"


def _canonical_partition(blocks, order: dict) -> tuple:
    """Sort blocks by their earliest outcome so equal partitions compare equal."""
    return tuple(sorted(blocks, key=lambda b: min(map(order.__getitem__, b))))


@dataclass(frozen=True)
class FilteredSpace:
    """Outcomes with exact atom probabilities, a time grid, and a
    refining chain of partitions (one per grid time)."""

    outcomes: tuple
    probs: tuple
    grid: tuple
    partitions: tuple

    @property
    def n_times(self) -> int:
        return len(self.grid)

    @property
    def last_index(self) -> int:
        return len(self.grid) - 1

    @property
    def horizon(self) -> Fraction:
        return self.grid[-1]

    def prob(self, outcome) -> Fraction:
        return self.probs[self._order[outcome]]

    @cached_property
    def _order(self) -> dict:
        """The index of each outcome, for canonical ordering and lookups."""
        return {w: i for i, w in enumerate(self.outcomes)}

    @cached_property
    def _shared_blocks(self) -> tuple:
        """(j, block, first, rest) per level-j block of two or more outcomes,
        members in space order: each block is sorted once per space."""
        out = []
        for j, part in enumerate(self.partitions):
            for block in part:
                if len(block) > 1:
                    first, *rest = sorted(block, key=self._order.__getitem__)
                    out.append((j, block, first, rest))
        return tuple(out)


def check_space(outcomes, probs, grid, partitions) -> list:
    """Collect every violated invariant of the space inputs, given as
    build_space normalises them: Fraction probs and grid, frozenset blocks."""
    violations = []
    if len(outcomes) == 0:
        violations.append(Violation("EmptyOutcomes", "need at least one outcome"))
        return violations
    if len(set(outcomes)) != len(outcomes):
        violations.append(Violation("DuplicateOutcome", "outcome labels must be distinct"))
        return violations
    universe = frozenset(outcomes)

    if len(probs) != len(outcomes):
        violations.append(Violation(
            "ProbShapeMismatch", f"{len(probs)} probs for {len(outcomes)} outcomes"))
    else:
        for w, p in zip(outcomes, probs):
            if p.numerator <= 0:
                violations.append(Violation("NonPositiveProb", f"P({w!r}) = {p}"))
        # the probs sum to 1 iff their numerators over the lcm d sum to d
        d = lcm(*(p.denominator for p in probs))
        if sum(p.numerator * (d // p.denominator) for p in probs) != d:
            violations.append(Violation(
                "ProbsNotSummingToOne", f"sum is {sum(probs)}"))

    if len(grid) == 0:
        violations.append(Violation("EmptyGrid", "need at least one grid time"))
    else:
        if grid[0] != 0:
            violations.append(Violation("GridNotIncreasing", f"t_0 = {grid[0]} != 0"))
        for j in range(1, len(grid)):
            if grid[j] <= grid[j - 1]:
                violations.append(Violation(
                    "GridNotIncreasing", f"t_{j} = {grid[j]} <= t_{j-1} = {grid[j-1]}"))

    if len(partitions) != len(grid):
        violations.append(Violation(
            "PartitionShapeMismatch",
            f"{len(partitions)} partitions for {len(grid)} grid times"))
        return violations
    for j, part in enumerate(partitions):
        seen = set()
        for block in part:
            if not block or not block <= universe or block & seen:
                violations.append(Violation(
                    "NotAPartition", f"level {j}: bad block {set(block)}"))
                break
            seen |= block
        else:
            if seen != universe:
                violations.append(Violation(
                    "NotAPartition", f"level {j}: blocks do not cover all outcomes"))
    if not any(v.code == "NotAPartition" for v in violations):
        for j in range(1, len(partitions)):
            coarse = partitions[j - 1]
            for block in partitions[j]:
                if not any(block <= cb for cb in coarse):
                    violations.append(Violation(
                        "RefinementViolated",
                        f"block {set(block)} at level {j} not inside a level-{j-1} block"))
    return violations


def build_space(outcomes, probs, grid, partitions) -> FilteredSpace:
    """Validate the inputs and return a canonical FilteredSpace.

    Raises SpaceError carrying the full list of violations otherwise.  The
    inputs are normalised once, here, before check_space reads them.
    """
    outcomes = tuple(outcomes)
    probs = tuple(_as_fraction(p) for p in probs)
    grid = tuple(_as_fraction(t) for t in grid)
    partitions = tuple(tuple(frozenset(b) for b in part) for part in partitions)
    violations = check_space(outcomes, probs, grid, partitions)
    if violations:
        raise SpaceError(violations)
    order = {w: i for i, w in enumerate(outcomes)}
    return FilteredSpace(
        outcomes=outcomes, probs=probs, grid=grid,
        partitions=tuple(_canonical_partition(part, order) for part in partitions),
    )


class AdaptedProcess(CanonicalRows):
    """A table of exact values over outcomes x grid, as canonical int rows.

    AdaptedProcess(values) takes Fraction or number rows.  values is the
    Fraction view, built on each read and not kept: readers take the ints.
    Adaptedness (block constancy per level) is a property of the table
    relative to a space; it is checked by validate_adapted, not assumed.
    """

    _view = "values"
    values = property(CanonicalRows.fractions)

    def at(self, outcome, grid_index: int) -> Fraction:
        nums, d = self.rows[outcome]
        return Fraction(nums[grid_index], d)

    @staticmethod
    def constant(space: FilteredSpace, c) -> "AdaptedProcess":
        return AdaptedProcess(
            {w: tuple(c for _ in space.grid) for w in space.outcomes})

    @staticmethod
    def time_process(space: FilteredSpace) -> "AdaptedProcess":
        """The deterministic process whose value at t_j is t_j."""
        return AdaptedProcess({w: tuple(space.grid) for w in space.outcomes})


def row_violations(space: FilteredSpace, table: Mapping, what: str) -> list:
    """ExtraOutcome per key that is not an outcome, then RowMissing per
    outcome without a row and RowShapeMismatch per row whose length is not
    n_times (a row without a length, such as a stop index, need only exist)."""
    out = [Violation("ExtraOutcome",
                     f"{what}: {w!r} is not an outcome of the space")
           for w in table if w not in space._order]
    for w in space.outcomes:
        row = table.get(w)
        if row is None:
            out.append(Violation("RowMissing", f"{what}: no row for {w!r}"))
        elif hasattr(row, "__len__") and len(row) != space.n_times:
            out.append(Violation(
                "RowShapeMismatch", f"{what}: row for {w!r} has length {len(row)}"))
    return out


def require_rows(space: FilteredSpace, table: Mapping, what: str) -> None:
    """Raise IncompatibleSpaces with every row violation of the table."""
    bad = row_violations(space, table, what)
    if bad:
        raise IncompatibleSpaces("; ".join(map(str, bad)))


def unadapted_blocks(space: FilteredSpace, same):
    """Yield (j, block, first, w) for every level-j block on which a
    per-outcome quantity is not constant: first is the block's earliest
    outcome and w the earliest one with same(j, first, w) false.
    Singleton blocks are skipped; members are walked in space order."""
    for j, block, first, rest in space._shared_blocks:
        for w in rest:
            if not same(j, first, w):
                yield j, block, first, w
                break


def validate_adapted(space: FilteredSpace, process: AdaptedProcess) -> list:
    """Report every (level, block) on which the process is not constant;
    values are compared as ints by cross-multiplication."""
    return row_violations(space, process.numerators(), "values") or [
        Violation("NotConstantOnBlock",
                  f"level {j}, block {sorted(map(str, block))}: values differ")
        for j, block, _, _ in unadapted_blocks(space, process.same)]


@dataclass(frozen=True)
class SubMeasure:
    """A nonnegative mass per atom, dominated by P."""

    mass: Mapping

    def total(self) -> Fraction:
        return sum(self.mass.values(), Fraction(0))

