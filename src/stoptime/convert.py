"""Constructive conversions between stopping-time kinds, and equivalence.

Two random stopping times are equivalent when they induce the same joint
mass on outcomes x grid times.  Every kind is normalized to a
DistributionST; the mixed<->randomized cumulative criterion is evaluated
as a redundant cross-check whenever it applies.
"""

from __future__ import annotations

from fractions import Fraction

from .space import FilteredSpace, IncompatibleSpaces
from .times import (DistributionST, MixedST, PureST, RStepFunction,
                    RandomizedST, ZERO, embed_pure, prefix_sums)


def delta_of_mixed(space: FilteredSpace, mu: MixedST) -> DistributionST:
    """Push the product of P and Lebesgue measure forward through mu."""
    rows = mu.mass_rows(space.n_times)
    return DistributionST({w: tuple(space.prob(w) * m for m in rows[w])
                           for w in space.outcomes})


def delta_of_randomized(space: FilteredSpace, rho: RandomizedST) -> DistributionST:
    """Joint mass from a cumulative path; the jump at time 0 is included."""
    mass = {}
    for w in space.outcomes:
        row = rho.paths[w]
        p = space.prob(w)
        prev = ZERO
        out = []
        for x in row:
            out.append(p * (x - prev))
            prev = x
        mass[w] = tuple(out)
    return DistributionST(mass)


def randomized_of_distribution(space: FilteredSpace,
                               delta: DistributionST) -> RandomizedST:
    """Cumulative conditional densities: the unique equivalent randomized time.

    Path entry j of outcome w is rn_derivative(space, delta, j)[w], read off
    the one-pass prefix_sums table divided by P(w).
    """
    prefix = prefix_sums(space, delta)
    return RandomizedST({w: tuple(c / space.prob(w) for c in prefix[w])
                         for w in space.outcomes})


def mixed_of_randomized(space: FilteredSpace, rho: RandomizedST) -> MixedST:
    """Generalized right-continuous inverse of each cumulative path.

    The section value at r is the smallest grid index whose path value
    reaches r; at a break equal to a path value the smaller index applies,
    which costs nothing in measure and makes the cumulative identity exact.
    """
    sections = {}
    for w in space.outcomes:
        row = rho.paths[w]
        breaks = [ZERO]
        values = []
        for v in sorted(set(row)):
            if v > breaks[-1]:
                breaks.append(v)
                # smallest index whose path value covers this interval
                values.append(next(j for j, x in enumerate(row) if x >= v))
        sections[w] = RStepFunction(tuple(breaks), tuple(values)).canonical()
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
    """Normalize any stopping-time kind to its joint mass."""
    if isinstance(eta, PureST):
        eta = embed_pure(eta)
    if isinstance(eta, MixedST):
        return delta_of_mixed(space, eta)
    if isinstance(eta, RandomizedST):
        return delta_of_randomized(space, eta)
    if isinstance(eta, DistributionST):
        return eta
    raise TypeError(f"not a stopping time: {type(eta).__name__}")


def _check_shape(space: FilteredSpace, eta):
    table = (eta.stop_index if isinstance(eta, PureST)
             else eta.sections if isinstance(eta, MixedST)
             else eta.paths if isinstance(eta, RandomizedST)
             else eta.mass)
    if set(table) != set(space.outcomes):
        raise IncompatibleSpaces(
            f"{type(eta).__name__} outcomes {sorted(map(str, table))} "
            f"do not match the space")


def equivalent(space: FilteredSpace, a, b) -> bool:
    """True iff a and b induce the same joint mass, entry for entry."""
    _check_shape(space, a)
    _check_shape(space, b)
    da = to_distribution(space, a)
    db = to_distribution(space, b)
    result = all(da.mass[w] == db.mass[w] for w in space.outcomes)

    # cumulative criterion for a mixed/randomized pair; must agree with
    # the joint-mass route
    pair = {type(a): a, type(b): b}
    if MixedST in pair and RandomizedST in pair:
        mu, rho = pair[MixedST], pair[RandomizedST]
        cdf = mu.cdf_rows(space.n_times)
        by_cdf = all(cdf[w] == tuple(rho.paths[w]) for w in space.outcomes)
        if by_cdf != result:
            raise AssertionError(
                "equivalence routes disagree: "
                f"joint-mass={result} cumulative={by_cdf}")
    return result


def first_difference(space: FilteredSpace, a, b):
    """The first differing (outcome, time, mass_a, mass_b), or None."""
    da = to_distribution(space, a)
    db = to_distribution(space, b)
    for w in space.outcomes:
        for j in range(space.n_times):
            if da.mass[w][j] != db.mass[w][j]:
                return (w, space.grid[j], da.mass[w][j], db.mass[w][j])
    return None
