"""Constructive conversions between stopping-time kinds, and equivalence.

Two random stopping times are equivalent when they induce the same joint
mass on outcomes x grid times.  to_distribution, the one place that maps a
kind to its table, normalizes every kind to that DistributionST: mixed and
randomized times through one P(w)-weighting, _weighted.  Equivalence
compares the masses.  randomized_of_distribution, the path of a mass, is
defined in times, whose distribution validator reads it too.
cdf_of_mixed reads cdf_row; the cumulative criterion (a mixed time's
cumulative equal to a path) is not run here but in the fuzz campaign.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .space import FilteredSpace, require_rows
from .times import (DistributionST, MixedST, PureST, RStepFunction,
                    RandomizedST, embed_pure, randomized_of_distribution)


def _weighted(space: FilteredSpace, rows: dict) -> DistributionST:
    """The joint mass P(w) * rows[w] from per-outcome int rows (row, d),
    reduced by gcd(k * d, n * gcd(*row)) for P(w) = n / k, as from_rows."""
    cut, mass = {}, {}  # cut: (g, row / g) once per distinct row object
    nums, k = space.prob_row
    for w, n in zip(space.outcomes, nums):
        row, d = rows[w]
        if id(row) not in cut:
            g = gcd(*row)
            cut[id(row)] = g, [x // g for x in row] if g > 1 else row
        g, base = cut[id(row)]
        c = gcd(k * d, n * g)
        m = n * g // c
        mass[w] = tuple([x * m for x in base]), k * d // c
    return DistributionST._of_canonical(mass)


def delta_of_mixed(space: FilteredSpace, mu: MixedST) -> DistributionST:
    """Push the product of P and Lebesgue measure forward through mu."""
    return _weighted(space, {w: (row, d) for w, (_, row, d)
                             in mu.mass_numerators(space.n_times).items()})


def delta_of_randomized(space: FilteredSpace, rho: RandomizedST) -> DistributionST:
    """Joint mass from a cumulative path; the jump at time 0 is included."""
    return _weighted(space, rho.increments())


def mixed_of_randomized(space: FilteredSpace, rho: RandomizedST) -> MixedST:
    """Generalized right-continuous inverse of each cumulative path.

    The section value at r is the smallest grid index whose path value
    reaches r; at a break equal to a path value the smaller index applies,
    which costs nothing in measure and makes the cumulative identity exact.
    Index j opens an interval where its path's int rises above the last
    break, so the values rise strictly.
    """
    sections = {}
    for w in space.outcomes:
        nums, d = rho.rows[w]
        breaks = [0]
        values = []
        for j, x in enumerate(nums):
            if x > breaks[-1]:
                breaks.append(x)
                values.append(j)
        sections[w] = RStepFunction((tuple(breaks), d), tuple(values))
    return MixedST(sections)


def mixed_of_distribution(space: FilteredSpace,
                          delta: DistributionST) -> MixedST:
    return mixed_of_randomized(space, randomized_of_distribution(space, delta))


def cdf_of_mixed(space: FilteredSpace, mu: MixedST, outcome,
                 grid_index: int) -> Fraction:
    """lambda{r : section value <= grid_index} of one outcome, by cdf_row."""
    if not 0 <= grid_index < space.n_times:
        raise IndexError(f"grid index {grid_index} out of range")
    cum, d = mu.sections[outcome].cdf_row(space.n_times)
    return Fraction(cum[grid_index], d)


def to_distribution(space: FilteredSpace, eta) -> DistributionST:
    """Normalize any stopping-time kind to its joint mass; IncompatibleSpaces
    when the kind's table fails the space's row check (other outcomes, or
    rows of another length than the grid)."""
    if isinstance(eta, PureST):
        require_rows(space, eta.stop_index, "PureST")
        return delta_of_mixed(space, embed_pure(eta))
    if isinstance(eta, MixedST):
        require_rows(space, eta.sections, "MixedST")
        return delta_of_mixed(space, eta)
    if isinstance(eta, RandomizedST):
        require_rows(space, eta, "RandomizedST")
        return delta_of_randomized(space, eta)
    if isinstance(eta, DistributionST):
        require_rows(space, eta, "DistributionST")
        return eta
    raise TypeError(f"not a stopping time: {type(eta).__name__}")


def equivalent(space: FilteredSpace, a, b) -> bool:
    """True iff a and b induce the same joint mass, entry for entry."""
    return first_difference(space, a, b) is None


def first_difference(space: FilteredSpace, a, b):
    """The first differing (outcome, time, mass_a, mass_b), or None; rows
    are compared as canonical int tuples, Fractions built for the witness."""
    da = to_distribution(space, a)
    db = to_distribution(space, b)
    for w in space.outcomes:
        ra, rb = da.rows[w], db.rows[w]
        if ra != rb:
            (na, ka), (nb, kb) = ra, rb
            for t, x, y in zip(space.grid, na, nb):
                if x * kb != y * ka:
                    return (w, t, Fraction(x, ka), Fraction(y, kb))
    return None
