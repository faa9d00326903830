"""The four stopping-time representations and their validators.

All four kinds live on a FilteredSpace and take values on its grid:

* PureST         -- one grid index per outcome.
* MixedST        -- per outcome, a step function from the randomization
                    interval [0,1] to grid indices.
* RandomizedST   -- per outcome, a nondecreasing cumulative path on the
                    grid ending at 1.
* DistributionST -- an exact joint mass on outcomes x grid with marginal P.
The last two are CanonicalRows (int rows over one reduced denominator);
no library module reads their Fraction views .paths and .mass.  A
RandomizedST is the one form of a cumulative path: a mixed time's
cumulative and a joint mass's randomized_of_distribution are each one.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Mapping
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate, chain
from math import lcm
from operator import lt, mul, ne

from .space import (CanonicalRows, FilteredSpace, Record, Violation,
                    reduced, row_violations, unadapted_blocks)


# ---------------------------------------------------------------------------
# exact-arithmetic kernel: int numerators, one normalisation per result

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

class RStepFunction(Record):
    """A step function on [0,1] with grid-index values.

    Intervals are half-open [r_{i-1}, r_i); the point r = 1 belongs to the
    last interval.  break_ints = (nums, d) holds the breaks (0, r_1, ..., 1)
    as ints over d and values has one entry per interval.  The constructor
    merges neighbouring intervals of equal value and reduces so gcd(d,
    *nums) == 1: each step function has one representation, so == and hash
    are equality of functions.  breaks is the Fraction view, for output only.
    """

    def __init__(self, break_ints: tuple, values: tuple):
        nums, d = break_ints
        if len(nums) != len(values) + 1:
            raise ValueError("breaks/values length mismatch")
        if d <= 0 or nums[0] != 0 or nums[-1] != d:
            raise ValueError("breaks must run from 0 to 1")
        if not all(map(lt, nums, nums[1:])):
            raise ValueError("breaks must be strictly increasing")
        if type(values) is not tuple or not all(map(ne, values, values[1:])):
            opens = [i for i in range(1, len(values)) if values[i] != values[i - 1]]
            nums = (0, *[nums[i] for i in opens], d)
            values = (values[0], *[values[i] for i in opens])
        object.__setattr__(self, "break_ints", reduced(nums, d))
        object.__setattr__(self, "values", values)

    @property
    def breaks(self) -> tuple:
        nums, d = self.break_ints
        return tuple(Fraction(n, d) for n in nums)

    @staticmethod
    def constant(index: int) -> "RStepFunction":
        return RStepFunction(((0, 1), 1), (int(index),))

    def spans(self, d: int) -> list:
        """(value, a, b) per interval [a, b), ints over a multiple d of the
        breaks' denominator, sorted: {r : value <= j} is the prefix below j + 1."""
        nums, k = self.break_ints
        scaled = [n * (d // k) for n in nums]
        return sorted(zip(self.values, scaled, scaled[1:]))

    def cdf_row(self, n_times: int) -> tuple:
        """(cum, d) in ints: the mass row's running sums from the mass below
        the grid, cum[j] / d = lambda{r: value <= j}, as cdf_of_mixed reads."""
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
    ids = list(map(id, table.values()))
    done = {i: fn(v) for i, v in dict(zip(ids, table.values())).items()}
    return dict(zip(table, map(done.__getitem__, ids)))


def common_refinement(sections: Mapping) -> tuple:
    """(cuts, d, starts): the cuts of the coarsest partition of [0,1]
    refining every section's breaks, sorted ints over the lcm d of the
    breaks' denominators, and starts[w][i], the index of the cut at which
    section w's interval i (carrying values[i]) opens."""
    d = lcm(*(s.break_ints[1] for s in sections.values()))
    keys = {w: [n * (d // k) for n in nums] for w, (nums, k)
            in zip(sections, (s.break_ints for s in sections.values()))}
    cuts = sorted(set(chain(*keys.values())))
    index = {k: i for i, k in enumerate(cuts)}
    return cuts, d, {w: [index[k] for k in ks[:-1]] for w, ks in keys.items()}


def symdiff_measure(xs, ys) -> int:
    """lambda(A symdiff B) for unions A, B of disjoint int runs [a, b), in any
    order, touching ones too: a point is in it iff an odd number of the pooled
    ends lie at or left of it, so its measure is every second sorted gap."""
    ends = sorted(chain(*xs, *ys))
    return sum(ends[1::2]) - sum(ends[::2])


# ---------------------------------------------------------------------------
# the four kinds

class PureST(Record):
    def __init__(self, stop_index: Mapping):
        object.__setattr__(self, "stop_index", stop_index)


class MixedST(Record):
    def __init__(self, sections: Mapping):
        object.__setattr__(self, "sections", sections)

    def cumulative(self, n_times: int) -> "RandomizedST":
        """The cumulative stop paths lambda{r : section <= t_j}: each
        section's cdf_row, computed and reduced once per distinct section."""
        return RandomizedST._of_canonical(per_object(
            self.sections, lambda s: reduced(*s.cdf_row(n_times))))


class RandomizedST(CanonicalRows):
    """Cumulative stop paths, rows[w] being the canonical int row (nums, d)
    of outcome w's path.  RandomizedST(paths) takes Fraction (or number)
    rows; paths is the Fraction view, built on first read."""

    _view = "paths"
    paths = cached_property(CanonicalRows.fractions)

    def increments(self) -> dict:
        """{w: (row, d)}: each path's increments, the jump at time 0 included,
        as ints over the path's denominator d, once per distinct row."""
        return per_object(self.rows, lambda row: (
            [x - prev for prev, x in zip((0,) + row[0], row[0])], row[1]))


class DistributionST(CanonicalRows):
    """An exact joint mass, rows[w] being the canonical int row (nums, d)
    of outcome w.  DistributionST(mass) takes Fraction (or number) rows;
    mass is the Fraction view, built on first read."""

    _view = "mass"
    mass = cached_property(CanonicalRows.fractions)


# ---------------------------------------------------------------------------
# validators

def _cut_text(j: int, block) -> str:
    return f"level {j}: {{stop<=t_{j}}} cuts block {sorted(map(str, block))}"


def validate_pure(space: FilteredSpace, sigma: PureST) -> list:
    """Empty iff {sigma <= t_j} is a union of level-j blocks for every j."""
    stop = sigma.stop_index
    violations = row_violations(space, stop, "stop_index") + [
        Violation("StopIndexOutOfRange", f"stop index for {w!r} is {stop[w]}")
        for w in space.outcomes
        if stop.get(w) is not None and not 0 <= stop[w] < space.n_times]
    return violations or [
        Violation("NotStoppingTime", _cut_text(j, block))
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
    refinement, the values form a pure stopping time.  One sweep keeps
    count[i], the members of shared block i (space._shared_blocks, at level
    j) with value <= j: a move of one outcome from u to v, at the cut where
    its next interval opens, changes it only at levels in [min(u, v),
    max(u, v)), and block i is cut on the interval iff 0 < count[i] < size."""
    violations = _section_violations(space, mu)
    if violations:
        return violations
    shared = space._shared_blocks
    size = [len(block) for _, block, _, _ in shared] + [0]
    at = {w: [-1] * space.n_times for w in space.outcomes}
    for i, (j, block, _, _) in enumerate(shared):
        for w in block:
            at[w][j] = i
    cuts, d, starts = common_refinement(mu.sections)
    moves = [[] for _ in cuts]  # (w, u, v) per cut; u starts above every level
    for w, s in mu.sections.items():
        for c, u, v in zip(starts[w], (space.n_times, *s.values), s.values):
            moves[c].append((w, u, v))
    count = [0] * len(size)  # the last slot, of size 0, takes unshared levels
    cut = set()
    text = cache(lambda i: _cut_text(*shared[i][:2]))  # once per cut block
    for c in range(len(cuts) - 1):
        moved = set()
        for w, u, v in moves[c]:
            step = 1 if v < u else -1
            for i in at[w][min(u, v):max(u, v)]:
                count[i] += step
                moved.add(i)
        for i in moved:
            (cut.add if 0 < count[i] < size[i] else cut.discard)(i)
        if cut:
            on = f"r in [{Fraction(cuts[c], d)},{Fraction(cuts[c + 1], d)}): "
            violations += [Violation("SectionNotStoppingTime",
                                     on + text(i))
                           for i in sorted(cut)]
    return violations


def validate_mixed_product(space: FilteredSpace, mu: MixedST) -> list:
    """Product-measurability check: within every level-j block the sets
    {r : section <= t_j} agree up to Lebesgue-null differences.  The per-block
    verdict stays: if nothing is learned before the last time, the level walk
    alone grows as n*T^2 (5.6 vs 1.1 ms at 128x32, 31 vs 2.2 ms at 64x128)."""
    violations = _section_violations(space, mu)
    if violations:
        return violations
    # a block's members agree at every level up to its last J iff their sorted
    # spans agree below c = J + 1 (partitions refine); a failing time is walked
    sections = mu.sections
    d = lcm(*(s.break_ints[1] for s in sections.values()))
    by = per_object(sections, lambda s: s.spans(d))
    last = {b: (j + 1, a, rest) for j, b, a, rest in space._shared_blocks}
    if all(by[w][:bisect_left(by[w], (c,))] == by[a][:bisect_left(by[a], (c,))]
           for c, a, rest in last.values() for w in rest):
        return []

    def le(j, w):  # the spans whose [a, b) make up {r : section of w <= t_j}
        return by[w][:bisect_left(by[w], (j + 1,))]

    def apart(j, a, w):  # d * lambda of the symmetric difference at level j
        return symdiff_measure(*([s[1:] for s in le(j, x)] for x in (a, w)))
    # equal prefixes are equal sets; unequal ones may be too, as values differ
    return [Violation("NotJointlyMeasurable",
                      f"level {j}, block {sorted(map(str, block))}: "
                      f"sections differ on measure {Fraction(apart(j, a, w), d)}")
            for j, block, a, w in unadapted_blocks(
                space, lambda j, a, b: le(j, a) == le(j, b) or not apart(j, a, b))]


def validate_mixed(space: FilteredSpace, mu: MixedST) -> list:
    """The product-measurability check: one comparison of sorted spans per
    block decides a valid time, and their prefixes explain a failing one.
    The fuzz row mixed_validators_agree compares it with the section-wise
    sweep."""
    return validate_mixed_product(space, mu)


def validate_randomized(space: FilteredSpace, rho: RandomizedST) -> list:
    """Paths in [0,1], nondecreasing, ending at 1, adapted: read as ints."""
    violations = row_violations(space, rho, "paths")
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
    """Nonnegative rows with marginal P whose cumulative densities, the
    paths of randomized_of_distribution, are adapted: read as ints.  Entry
    j of w's path is cum[j] * k / (d * p) for the row's running sums cum
    over d and P(w) = p / k, so two are compared with k cancelled."""
    violations = row_violations(space, delta, "mass")
    if violations:
        return violations
    probs, k = space.prob_row
    cum = {}
    for w, p in zip(space.outcomes, probs):
        nums, d = delta.rows[w]
        sums = list(accumulate(nums))
        cum[w] = sums, d * p
        if any(n < 0 for n in nums):
            violations.append(Violation("NegativeMass", f"row of {w!r}"))
        if sums[-1] * k != d * p:
            violations.append(Violation(
                "MarginalMismatch", f"row of {w!r} sums to "
                f"{Fraction(sums[-1], d)}, P = {Fraction(p, k)}"))
    return violations or [
        Violation("DensityNotAdapted",
                  f"level {j}, block {sorted(map(str, block))}: "
                  "cumulative densities differ")
        for j, block, _, _ in unadapted_blocks(space, lambda j, a, b: (
            cum[a][0][j] * cum[b][1] == cum[b][0][j] * cum[a][1]))]


def validate(space: FilteredSpace, eta) -> list:
    """The violations of any stopping-time kind, from its own validator."""
    if isinstance(eta, PureST):
        return validate_pure(space, eta)
    if isinstance(eta, MixedST):
        return validate_mixed_product(space, eta)
    if isinstance(eta, RandomizedST):
        return validate_randomized(space, eta)
    if isinstance(eta, DistributionST):
        return validate_distribution(space, eta)
    raise TypeError(f"not a stopping time: {type(eta).__name__}")


# ---------------------------------------------------------------------------
# embeddings and densities

def embed_pure(sigma: PureST) -> MixedST:
    """The constant-in-r embedding of a pure stopping time: one section per
    distinct stop index, shared, so per_object reads each once."""
    sections = {j: RStepFunction.constant(j)
                for j in set(sigma.stop_index.values())}
    return MixedST({w: sections[j] for w, j in sigma.stop_index.items()})


def randomized_of_distribution(space: FilteredSpace,
                               delta: DistributionST) -> RandomizedST:
    """Cumulative conditional densities: the unique equivalent randomized time.

    Path entry j of outcome w is rn_derivative(space, delta, j)[w]: the
    running sum of delta's row (nums, d) at j, over d * P(w), as one int row.
    """
    rows = {}
    probs, k = space.prob_row
    for w, p in zip(space.outcomes, probs):
        nums, d = delta.rows[w]
        rows[w] = [c * k for c in accumulate(nums)], d * p
    return RandomizedST.from_rows(rows)


def sub_measure(space: FilteredSpace, delta: DistributionST,
                grid_index: int) -> dict:
    """The measure A |-> delta(A x [0, t_j]) restricted to atoms, as the
    mass {w: Fraction} of each atom."""
    if not 0 <= grid_index < space.n_times:
        raise IndexError(f"grid index {grid_index} out of range")
    rows = delta.rows
    return {w: Fraction(sum(rows[w][0][: grid_index + 1]), rows[w][1])
            for w in space.outcomes}


def rn_derivative(space: FilteredSpace, delta: DistributionST,
                  grid_index: int) -> dict:
    """Density of delta(. x [0, t_j]) with respect to P, atom by atom."""
    sub = sub_measure(space, delta, grid_index)
    return {w: sub[w] / space.prob(w) for w in space.outcomes}
