"""Finite filtered probability spaces with exact rational data.

The filtration is stored as one partition of the outcome set per grid
time; measurability of a random variable at time t_j means constancy on
the blocks of partitions[j]; unadapted_blocks is the one walk that asks
it, and row_violations the one check of a per-outcome table's shape.
Times and the public probs are `fractions.Fraction`; sums read the probs
as prob_row, one int row.  Per-outcome tables of values (a process here,
a joint mass in times) are CanonicalRows: each row is held once as Python
ints over one reduced denominator, and their Fraction views are built only
for output.  So every check in this package is exact.

The package's frozen values are Records, each declaring its fields once
(SampleRecord, a tuple, is a namedtuple); none is a dataclass, whose import
(with inspect) cost about 10 ms of `import stoptime`, paid by every CLI.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import attrgetter


class Record:
    """A frozen record of the fields its class annotates, in order, the
    class attributes of those names being their defaults.

    Its __init__ is built once, from a template, as namedtuple's is: it
    stores each field with object.__setattr__, so they stay inline (vars(self)
    would build a dict per record), then runs __post_init__'s checks, if
    any.  A class that normalises its fields writes its own __init__.  ==,
    hash and repr read the fields as a frozen dataclass's do (one field
    compared and hashed as itself), and no attribute is set after.
    """

    def __init_subclass__(cls):
        fields = tuple(vars(cls).get("__annotations__", ()))
        if fields:  # else a subclass keeps its record's fields and __init__
            cls._fields, cls._key = fields, attrgetter(*fields)
        if fields and "__init__" not in vars(cls):
            params = ", ".join(f"{f}=_cls.{f}" if f in vars(cls) else f
                               for f in fields)
            body = "".join(f"\n _set(self, {f!r}, {f})" for f in fields)
            if hasattr(cls, "__post_init__"):
                body += "\n self.__post_init__()"
            scope = {"_cls": cls, "_set": object.__setattr__}
            exec(f"def __init__(self, {params}):{body}", scope)
            cls.__init__ = scope["__init__"]
            cls.__init__.__qualname__ = f"{cls.__qualname__}.__init__"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        return (self._key(self) == other._key(other)
                if other.__class__ is self.__class__ else NotImplemented)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"


class Violation(Record):
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


def reduced(nums, d: int) -> tuple:
    """The int row (nums, d) divided by gcd(d, *nums), nums as a tuple."""
    g = gcd(d, *nums)
    return ((tuple(nums), d) if g == 1
            else (tuple([n // g for n in nums]), d // g))


class CanonicalRows:
    """A per-outcome table held as canonical int rows: rows[w] is (nums, d),
    entry j being nums[j] / d with gcd(d, *nums) == 1, so two rows are
    equal iff their tuples are.  The constructor takes Fraction (or number)
    rows and keeps their over_common, which is already canonical; from_rows
    takes int rows (nums, d) and keeps each one reduced.  fractions()
    is the Fraction view, for output only: readers take the ints; a
    subclass names it _view and exposes it under that name."""

    rows: dict

    def __init__(self, table: Mapping):
        self.rows = {w: over_common(tuple(map(_as_fraction, row)))
                     for w, row in table.items()}

    @classmethod
    def from_rows(cls, rows: Mapping):
        return cls._of_canonical({w: reduced(*row) for w, row in rows.items()})

    @classmethod
    def _of_canonical(cls, rows: dict):
        """Rows the caller holds canonical (tuples, gcd(d, *nums) == 1)."""
        table = cls.__new__(cls)
        table.rows = rows
        return table

    def fractions(self) -> dict:
        return {w: tuple(Fraction(n, d) for n in nums)
                for w, (nums, d) in self.rows.items()}

    def numerators(self) -> dict:
        """{w: nums}: the table row_violations explains a bad shape from."""
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


class FilteredSpace(Record):
    """Outcomes with exact atom probabilities, a time grid, and a
    refining chain of partitions (one per grid time)."""

    outcomes: tuple
    probs: tuple
    grid: tuple
    partitions: tuple

    @cached_property
    def n_times(self) -> int:
        return len(self.grid)

    @cached_property
    def last_index(self) -> int:
        return len(self.grid) - 1

    def prob(self, outcome) -> Fraction:
        return self.probs[self._order[outcome]]

    @cached_property
    def _order(self) -> dict:
        """The index of each outcome, for canonical ordering and lookups."""
        return {w: i for i, w in enumerate(self.outcomes)}

    @cached_property
    def prob_row(self) -> tuple:
        """(nums, d), probs[i] == Fraction(nums[i], d): what sums read."""
        return over_common(self.probs)

    def __getattr__(self, name):
        """The partitions and probs of a space _pull_back made, set on first read."""
        if name == "probs":
            value = tuple(Fraction(n, self.prob_row[1]) for n in self.prob_row[0])
        elif name == "partitions":
            base, atoms = self._pulled
            value = tuple(tuple(frozenset(a for w in b for a in atoms[w])
                                for b in part) for part in base.partitions)
        else:
            raise AttributeError(f"no attribute {name!r}")
        object.__setattr__(self, name, value)
        return value

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
    build_space passes them: Fraction probs and grid, blocks as listed."""
    return _check_space(outcomes, probs, grid, partitions)[0]


def _check_space(outcomes, probs, grid, partitions) -> tuple:
    """check_space's violations, and each level's blocks frozen once: all
    levels when there is no violation, which build_space then keeps."""
    violations = []
    if len(outcomes) == 0:
        violations.append(Violation("EmptyOutcomes", "need at least one outcome"))
        return violations, ()
    if len(set(outcomes)) != len(outcomes):
        violations.append(Violation("DuplicateOutcome", "outcome labels must be distinct"))
        return violations, ()
    universe = frozenset(outcomes)

    if len(probs) != len(outcomes):
        violations.append(Violation(
            "ProbShapeMismatch", f"{len(probs)} probs for {len(outcomes)} outcomes"))
    else:
        for w, p in zip(outcomes, probs):
            if p.numerator <= 0:
                violations.append(Violation("NonPositiveProb", f"P({w!r}) = {p}"))
        nums, d = over_common(probs)  # the probs sum to 1 iff nums sum to d
        if sum(nums) != d:
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
        return violations, ()
    levels = []
    for j, part in enumerate(partitions):
        # each block is frozen once; a repeated member shows as a block
        # that adds fewer outcomes than it lists
        seen, blocks = set(), []
        for block in part:
            frozen = frozenset(block)
            k = len(seen)
            seen.update(frozen)
            if not frozen or len(seen) != k + len(block) or not universe.issuperset(frozen):
                violations.append(Violation(
                    "NotAPartition", f"level {j}: bad block {sorted(map(str, block))}"))
                break
            blocks.append(frozen)
        else:
            if seen == universe:
                levels.append(tuple(blocks))
            else:
                violations.append(Violation(
                    "NotAPartition", f"level {j}: blocks do not cover all outcomes"))
    if len(levels) == len(partitions):
        for j in range(1, len(levels)):
            # a block refines iff it lies in the level-(j-1) block of a member
            parent = {w: cb for cb in levels[j - 1] for w in cb}
            for block in levels[j]:
                if not parent[next(iter(block))].issuperset(block):
                    violations.append(Violation(
                        "RefinementViolated",
                        f"block {sorted(map(str, block))} at level {j} not inside a level-{j-1} block"))
    return violations, levels


def build_space(outcomes, probs, grid, partitions) -> FilteredSpace:
    """Validate the inputs and return a canonical FilteredSpace.

    Raises SpaceError carrying the full list of violations otherwise.  The
    inputs are normalised once, here; check_space reads each block as
    listed, so a repeated member is seen, and freezes it once.
    """
    outcomes = tuple(outcomes)
    probs = tuple(_as_fraction(p) for p in probs)
    grid = tuple(_as_fraction(t) for t in grid)
    violations, levels = _check_space(outcomes, probs, grid,
                                      tuple(map(tuple, partitions)))
    if violations:
        raise SpaceError(violations)
    order = {w: i for i, w in enumerate(outcomes)}.__getitem__
    # blocks sorted by their earliest outcome, so equal partitions are ==
    partitions = tuple(tuple(sorted(level, key=lambda b: min(map(order, b))))
                       for level in levels)
    return FilteredSpace(outcomes=outcomes, probs=probs, grid=grid, partitions=partitions)


def _pull_back(base: FilteredSpace, atoms: Mapping, prob_row) -> FilteredSpace:
    """The space of the atoms[w] over each outcome w of the valid base, in
    base order with their probabilities the ints prob_row in that order,
    each base block becoming its outcomes' atoms.  For a lift only, as
    check_space is not run: the atoms are distinct, each atoms[w] nonempty
    with positive probabilities that sum to P(w), so the blocks partition,
    refine and keep canonical order.  __getattr__ sets partitions and probs."""
    space = object.__new__(FilteredSpace)
    vars(space).update(outcomes=tuple(a for w in base.outcomes for a in atoms[w]),
                       grid=base.grid, prob_row=prob_row, _pulled=(base, atoms))
    return space


class AdaptedProcess(CanonicalRows):
    """A table of exact values over outcomes x grid, as canonical int rows.

    AdaptedProcess(values) takes Fraction or number rows.  values is the
    Fraction view, built on each read and not kept: readers take the ints.
    Adaptedness (block constancy per level) is a property of the table
    relative to a space; it is checked by validate_adapted, not assumed.
    """

    _view = "values"
    values = property(CanonicalRows.fractions)


def row_violations(space: FilteredSpace, table, what: str) -> list:
    """ExtraOutcome per key that is not an outcome, then RowMissing per
    outcome without a row and RowShapeMismatch per row whose length is not
    n_times (a row without a length, such as a stop index, need only exist)."""
    n = space.n_times
    if isinstance(table, CanonicalRows):  # its numerator rows, read in place
        if table.rows.keys() == space._order.keys() and {
                len(nums) for nums, _ in table.rows.values()} == {n}:
            return []
        table = table.numerators()
    if table.keys() == space._order.keys() and all(
            len(row) == n if hasattr(row, "__len__") else row is not None
            for row in table.values()):
        return []
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


def require_rows(space: FilteredSpace, table, what: str) -> None:
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
    return row_violations(space, process, "values") or [
        Violation("NotConstantOnBlock",
                  f"level {j}, block {sorted(map(str, block))}: values differ")
        for j, block, _, _ in unadapted_blocks(space, process.same)]
