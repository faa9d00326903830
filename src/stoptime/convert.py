"""Constructive conversions between stopping-time kinds, and equivalence.

Two random stopping times are equivalent when they induce the same joint
mass on outcomes x grid times.  Every kind is normalized to a
DistributionST by to_distribution, the one place that maps a kind to its
table, and equivalence compares those masses.  The mixed<->randomized
cumulative criterion (cdf rows against paths) is not run here; the fuzz
campaign checks it against the joint-mass route.
"""

from __future__ import annotations

from fractions import Fraction

from .space import FilteredSpace, require_rows
from .times import (DistributionST, MixedST, PureST, RStepFunction,
                    RandomizedST, ZERO, density_terms, embed_pure)


def delta_of_mixed(space: FilteredSpace, mu: MixedST) -> DistributionST:
    """Push the product of P and Lebesgue measure forward through mu."""
    rows = mu.mass_numerators(space.n_times)
    mass = {}
    for w, p in zip(space.outcomes, space.probs):
        _, row, d = rows[w]
        num = p.numerator
        mass[w] = [num * n for n in row], p.denominator * d
    return DistributionST.from_rows(mass)


def delta_of_randomized(space: FilteredSpace, rho: RandomizedST) -> DistributionST:
    """Joint mass from a cumulative path; the jump at time 0 is included."""
    increments = rho.increments()
    mass = {}
    for w, p in zip(space.outcomes, space.probs):
        row, d = increments[w]
        num = p.numerator
        mass[w] = [num * x for x in row], p.denominator * d
    return DistributionST.from_rows(mass)


def randomized_of_distribution(space: FilteredSpace,
                               delta: DistributionST) -> RandomizedST:
    """Cumulative conditional densities: the unique equivalent randomized time.

    Path entry j of outcome w is rn_derivative(space, delta, j)[w], the
    running sum cum[j] * a / b of density_terms, as one int row.
    """
    return RandomizedST.from_rows(
        {w: ([c * a for c in cum], b)
         for w, (_, cum, a, b) in density_terms(space, delta).items()})


def mixed_of_randomized(space: FilteredSpace, rho: RandomizedST) -> MixedST:
    """Generalized right-continuous inverse of each cumulative path.

    The section value at r is the smallest grid index whose path value
    reaches r; at a break equal to a path value the smaller index applies,
    which costs nothing in measure and makes the cumulative identity exact.
    Index j opens an interval where its path's int rises above the last
    break, so the values rise strictly: the section is canonical as built.
    """
    sections = {}
    for w in space.outcomes:
        nums, d = rho.rows[w]
        breaks = [ZERO]
        values = []
        last = 0
        for j, x in enumerate(nums):
            if x > last:
                last = x
                breaks.append(Fraction(x, d))
                values.append(j)
        sections[w] = RStepFunction(tuple(breaks), tuple(values))
    return MixedST(sections)


def mixed_of_distribution(space: FilteredSpace,
                          delta: DistributionST) -> MixedST:
    return mixed_of_randomized(space, randomized_of_distribution(space, delta))


def cdf_of_mixed(space: FilteredSpace, mu: MixedST, outcome,
                 grid_index: int) -> Fraction:
    """Lebesgue mass of {r : section value <= grid_index} for one outcome."""
    if not 0 <= grid_index < space.n_times:
        raise IndexError(f"grid index {grid_index} out of range")
    return mu.sections[outcome].cdf(grid_index)


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
        require_rows(space, eta.numerators(), "RandomizedST")
        return delta_of_randomized(space, eta)
    if isinstance(eta, DistributionST):
        require_rows(space, eta.numerators(), "DistributionST")
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
