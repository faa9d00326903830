"""The four stopping-time representations and their validators.

All four kinds live on a FilteredSpace and take values on its grid:

* PureST         -- one grid index per outcome.
* MixedST        -- per outcome, a step function from the randomization
                    interval [0,1] to grid indices.
* RandomizedST   -- per outcome, a nondecreasing cumulative path on the
                    grid ending at 1.
* DistributionST -- an exact joint mass on outcomes x grid with marginal P.
The last two are CanonicalRows (int rows over one reduced denominator);
their Fraction views .paths and .mass are read only in this module.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, chain
from math import lcm
from operator import mul

from .space import (CanonicalRows, FilteredSpace, SubMeasure, Violation,
                    over_common, row_violations, unadapted_blocks)

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------------
# exact-arithmetic kernel: int numerators, one normalisation per result

# (over_common, which splits a row into ints over one denominator, is in
# space, where CanonicalRows needs it)

def int_dot(xs, ys) -> int:
    """sum(x * y) over two int rows of equal length."""
    if len(xs) != len(ys):
        raise ValueError(f"rows of lengths {len(xs)} and {len(ys)}")
    return sum(map(mul, xs, ys))


def add_term(by_den: dict, k: int, n: int) -> None:
    """by_den[k] += n, the sum fraction_sum reads; a zero term is left out,
    so its denominator does not enter the lcm."""
    if n:
        by_den[k] = by_den.get(k, 0) + n


def fraction_sum(by_den: dict) -> Fraction:
    """sum(n / k for k, n in by_den.items()) as one normalised Fraction."""
    d = lcm(*by_den)
    return Fraction(sum(n * (d // k) for k, n in by_den.items()), d)


# ---------------------------------------------------------------------------
# step functions on [0,1]

@dataclass(frozen=True)
class RStepFunction:
    """A step function on [0,1] with grid-index values.

    Intervals are half-open [r_{i-1}, r_i); the point r = 1 belongs to the
    last interval.  breaks = (0, r_1, ..., 1), values has one entry per
    interval.  break_ints is (nums, d), the breaks as ints over their lcm
    denominator d, made once here; every measure of a section reads them.
    """

    breaks: tuple
    values: tuple
    break_ints: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.breaks) != len(self.values) + 1:
            raise ValueError("breaks/values length mismatch")
        nums, d = over_common(self.breaks)
        if nums[0] != 0 or nums[-1] != d:
            raise ValueError("breaks must run from 0 to 1")
        if any(b <= a for a, b in zip(nums, nums[1:])):
            raise ValueError("breaks must be strictly increasing")
        object.__setattr__(self, "break_ints", (nums, d))

    @staticmethod
    def constant(index: int) -> "RStepFunction":
        return RStepFunction((ZERO, ONE), (int(index),))

    def canonical(self) -> "RStepFunction":
        """Merge adjacent intervals carrying equal values."""
        breaks = [self.breaks[0]]
        values = []
        for i, v in enumerate(self.values):
            if values and values[-1] == v:
                breaks[-1] = self.breaks[i + 1]
            else:
                breaks.append(self.breaks[i + 1])
                values.append(v)
        return RStepFunction(tuple(breaks), tuple(values))

    def le_intervals(self, index: int, d: int) -> tuple:
        """{r : value(r) <= index} as a sorted tuple of disjoint [a, b) pairs
        of ints over d, a multiple of the breaks' denominator."""
        nums, k = self.break_ints
        breaks = [n * (d // k) for n in nums]
        out = []
        for i, v in enumerate(self.values):
            if v <= index:
                a, b = breaks[i], breaks[i + 1]
                if out and out[-1][1] == a:
                    out[-1] = (out[-1][0], b)
                else:
                    out.append((a, b))
        return tuple(out)

    def cdf(self, index: int) -> Fraction:
        """Lebesgue measure of {r : value(r) <= index}."""
        d = self.break_ints[1]
        return Fraction(sum(b - a for a, b in self.le_intervals(index, d)), d)

    def cdf_row(self, n_times: int) -> tuple:
        """(cum, d) in ints: the running sums of the mass row, so cdf(j) ==
        cum[j] / d for every grid index j."""
        below, row, d = self.mass_numerators(n_times)
        return tuple(accumulate(row, initial=below))[1:], d

    def mass_numerators(self, n_times: int) -> tuple:
        """(below, row, d) in ints: the interval lengths over the breaks'
        common denominator d, summed per grid index into row, so row[j] / d
        is lambda{r : value(r) == j}, and over values < 0 into below."""
        nums, d = self.break_ints
        below = 0
        row = [0] * n_times
        for i, v in enumerate(self.values):
            if v < 0:
                below += nums[i + 1] - nums[i]
            elif v < n_times:
                row[v] += nums[i + 1] - nums[i]
        return below, row, d


def per_object(table: Mapping, fn) -> dict:
    """{k: fn(v)} for every entry, fn called once per distinct value object:
    a lifted mixed time repeats one section object per opponent stop."""
    distinct = {id(v): v for v in table.values()}
    done = {i: fn(v) for i, v in distinct.items()}
    return {k: done[id(v)] for k, v in table.items()}


def common_refinement(sections: Mapping) -> list:
    """(a, b, {w: value}) for each interval [a, b) of the coarsest partition
    of [0,1] refining every section's breaks, in order.  Breaks are keyed
    as ints over their lcm denominator, each cut by its index, and each
    section's values spread over the cut intervals they cover."""
    d = lcm(*(s.break_ints[1] for s in sections.values()))
    keys = [[n * (d // k) for n in nums]
            for nums, k in (s.break_ints for s in sections.values())]
    cut_at = {k: r for s, ks in zip(sections.values(), keys)
              for k, r in zip(ks, s.breaks)}
    cuts = sorted(cut_at)
    index = {k: i for i, k in enumerate(cuts)}
    rows = []
    for s, ks in zip(sections.values(), keys):
        row = []
        for k, v in zip(ks[1:], s.values):
            row += [v] * (index[k] - len(row))
        rows.append(row)
    return [(cut_at[a], cut_at[b], dict(zip(sections, values)))
            for a, b, values in zip(cuts, cuts[1:], zip(*rows))]


def symdiff_measure(xs, ys) -> int:
    """lambda(A symdiff B) for unions A, B of disjoint int runs [a, b): a
    point is in it iff an odd number of the merged endpoints lie at or
    left of it, so its measure is every second gap of the sorted ends."""
    ends = sorted(chain(*xs, *ys))
    return sum(ends[1::2]) - sum(ends[::2])


# ---------------------------------------------------------------------------
# the four kinds

@dataclass(frozen=True)
class PureST:
    stop_index: Mapping


@dataclass(frozen=True)
class MixedST:
    sections: Mapping

    def canonical(self) -> "MixedST":
        return MixedST({w: s.canonical() for w, s in self.sections.items()})

    def mass_numerators(self, n_times: int) -> dict:
        """Each section's mass_numerators, computed once per distinct section."""
        return per_object(self.sections, lambda s: s.mass_numerators(n_times))

    def cdf_rows(self, n_times: int) -> dict:
        """Each section's cdf_row, computed once per distinct section."""
        return per_object(self.sections, lambda s: s.cdf_row(n_times))


class RandomizedST(CanonicalRows):
    """Cumulative stop paths, rows[w] being the canonical int row (nums, d)
    of outcome w's path.  RandomizedST(paths) takes Fraction (or number)
    rows; paths is the Fraction view, built on first read."""

    _view = "paths"
    paths = cached_property(CanonicalRows.fractions)

    def increments(self) -> dict:
        """{w: (row, d)}: each path's increments, the jump at time 0 included,
        as ints over the path's denominator d."""
        return {w: ([x - prev for prev, x in zip((0,) + nums, nums)], d)
                for w, (nums, d) in self.rows.items()}


class DistributionST(CanonicalRows):
    """An exact joint mass, rows[w] being the canonical int row (nums, d)
    of outcome w.  DistributionST(mass) takes Fraction (or number) rows;
    mass is the Fraction view, built on first read."""

    _view = "mass"
    mass = cached_property(CanonicalRows.fractions)


# ---------------------------------------------------------------------------
# validators

def validate_pure(space: FilteredSpace, sigma: PureST) -> list:
    """Empty iff {sigma <= t_j} is a union of level-j blocks for every j."""
    stop = sigma.stop_index
    violations = row_violations(space, stop, "stop_index") + [
        Violation("StopIndexOutOfRange", f"stop index for {w!r} is {stop[w]}")
        for w in space.outcomes
        if stop.get(w) is not None and not 0 <= stop[w] < space.n_times]
    return violations or [
        Violation("NotStoppingTime",
                  f"level {j}: {{stop<=t_{j}}} cuts block {sorted(map(str, block))}")
        for j, block, _, _ in unadapted_blocks(
            space, lambda j, a, b: (stop[a] <= j) == (stop[b] <= j))]


def _section_violations(space: FilteredSpace, mu: MixedST) -> list:
    """The shape checks, then every section value on the grid."""
    violations = row_violations(space, mu.sections, "sections")
    if violations:
        return violations
    return [Violation("SectionIndexOutOfRange",
                      f"section of {w!r} leaves the grid")
            for w, s in mu.sections.items()
            if min(s.values) < 0 or max(s.values) >= space.n_times]


def validate_mixed_sections(space: FilteredSpace, mu: MixedST) -> list:
    """Section-wise check: on every interval of the sections' common
    refinement, the values form a pure stopping time."""
    return _section_violations(space, mu) or [
        Violation("SectionNotStoppingTime", f"r in [{a},{b}): {v.detail}")
        for a, b, values in common_refinement(mu.sections)
        for v in validate_pure(space, PureST(values))]


def validate_mixed_product(space: FilteredSpace, mu: MixedST) -> list:
    """Product-measurability check: within every level-j block the sets
    {r : section <= t_j} agree up to Lebesgue-null differences."""
    violations = _section_violations(space, mu)
    if violations:
        return violations
    # maximal positive-length runs with the breaks as ints over their lcm
    # denominator d, so lambda(A symdiff B) = 0 iff the tuples are equal
    sections = mu.sections
    d = lcm(*(s.break_ints[1] for s in sections.values()))
    le = per_object(sections, lambda s: [s.le_intervals(j, d)
                                         for j in range(space.n_times)])
    return [Violation("NotJointlyMeasurable",
                      f"level {j}, block {sorted(map(str, block))}: "
                      "sections differ on measure "
                      f"{Fraction(symdiff_measure(le[a][j], le[w][j]), d)}")
            for j, block, a, w in unadapted_blocks(
                space, lambda j, a, b: le[a][j] == le[b][j])]


def validate_mixed(space: FilteredSpace, mu: MixedST) -> list:
    """The product-measurability check.  The section-wise check is
    equivalent and slower; the fuzz row mixed_validators_agree compares
    the two."""
    return validate_mixed_product(space, mu)


def validate_randomized(space: FilteredSpace, rho: RandomizedST) -> list:
    """Paths in [0,1], nondecreasing, ending at 1, adapted: read as ints."""
    violations = row_violations(space, rho.numerators(), "paths")
    if violations:
        return violations
    for w in space.outcomes:
        nums, d = rho.rows[w]
        if any(x < 0 or x > d for x in nums):
            violations.append(Violation(
                "ValueOutOfRange", f"path of {w!r} leaves [0,1]"))
        if any(b < a for a, b in zip(nums, nums[1:])):
            violations.append(Violation("NotMonotone", f"path of {w!r} decreases"))
        if nums[-1] != d:
            violations.append(Violation("TerminalNotOne", f"path of {w!r} "
                                        f"ends at {Fraction(nums[-1], d)}"))
    return violations + [
        Violation("NotAdapted",
                  f"level {j}, block {sorted(map(str, block))}: path values differ")
        for j, block, _, _ in unadapted_blocks(space, rho.same)]


def validate_distribution(space: FilteredSpace, delta: DistributionST) -> list:
    """Nonnegative rows with marginal P whose cumulative densities are
    adapted; every check reads the integer densities table of
    density_terms, compared by cross-multiplication."""
    violations = row_violations(space, delta.numerators(), "mass")
    if violations:
        return violations
    terms = density_terms(space, delta)
    for w in space.outcomes:
        nums, cum, a, b = terms[w]
        if any(n < 0 for n in nums):
            violations.append(Violation("NegativeMass", f"row of {w!r}"))
        if cum[-1] * a != b:
            total = Fraction(cum[-1] * space.prob(w).numerator, b)
            violations.append(Violation(
                "MarginalMismatch",
                f"row of {w!r} sums to {total}, P = {space.prob(w)}"))
    if violations:
        return violations

    def same(j, u, w):
        _, cu, au, bu = terms[u]
        _, cw, aw, bw = terms[w]
        return cu[j] * au * bw == cw[j] * aw * bu

    return [Violation("DensityNotAdapted",
                      f"level {j}, block {sorted(map(str, block))}: "
                      "cumulative densities differ")
            for j, block, _, _ in unadapted_blocks(space, same)]


def validate(space: FilteredSpace, eta) -> list:
    """The violations of any stopping-time kind, from its own validator."""
    if isinstance(eta, PureST):
        return validate_pure(space, eta)
    if isinstance(eta, MixedST):
        return validate_mixed(space, eta)
    if isinstance(eta, RandomizedST):
        return validate_randomized(space, eta)
    if isinstance(eta, DistributionST):
        return validate_distribution(space, eta)
    raise TypeError(f"not a stopping time: {type(eta).__name__}")


# ---------------------------------------------------------------------------
# embeddings and densities

def embed_pure(sigma: PureST) -> MixedST:
    """The constant-in-r embedding of a pure stopping time."""
    return MixedST({w: RStepFunction.constant(j)
                    for w, j in sigma.stop_index.items()})


def density_terms(space: FilteredSpace, delta: DistributionST) -> dict:
    """Per outcome (nums, cum, a, b) in ints: the row (nums, d), the running
    sums of nums, a = P(w).denominator and b = d * P(w).numerator, so the
    cumulative density at index j is cum[j] * a / b."""
    out = {}
    for w, p in zip(space.outcomes, space.probs):
        nums, d = delta.rows[w]
        out[w] = (nums, tuple(accumulate(nums)), p.denominator,
                  d * p.numerator)
    return out


def sub_measure(space: FilteredSpace, delta: DistributionST,
                grid_index: int) -> SubMeasure:
    """The measure A |-> delta(A x [0, t_j]) restricted to atoms."""
    if not 0 <= grid_index < space.n_times:
        raise IndexError(f"grid index {grid_index} out of range")
    rows = delta.rows
    return SubMeasure({w: Fraction(sum(rows[w][0][: grid_index + 1]),
                                   rows[w][1]) for w in space.outcomes})


def rn_derivative(space: FilteredSpace, delta: DistributionST,
                  grid_index: int) -> dict:
    """Density of delta(. x [0, t_j]) with respect to P, atom by atom."""
    sub = sub_measure(space, delta, grid_index)
    return {w: sub.mass[w] / space.prob(w) for w in space.outcomes}
