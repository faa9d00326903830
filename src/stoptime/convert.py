"""Constructive conversions between stopping-time kinds, and equivalence.

Two random stopping times are equivalent when they induce the same joint
mass on outcomes x grid times: as every P(w) > 0, the same stop-index law
given each outcome.  _given, the one place that maps a kind to its table,
reads those laws as int rows; to_distribution weights them by P(w) in
_weighted, and equivalence compares them, once per distinct row pair.
randomized_of_distribution, the path of a mass, is defined in times.
cdf_of_mixed reads cdf_row; the cumulative criterion (a mixed time's
cumulative equal to a path) is not run here but in the fuzz campaign.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .space import FilteredSpace, require_rows
from .times import (DistributionST, MixedST, PureST, RStepFunction,
                    RandomizedST, embed_pure, per_object,
                    randomized_of_distribution)


def _weighted(space: FilteredSpace, rows: dict) -> DistributionST:
    """The joint mass P(w) * rows[w] from per-outcome int rows (row, d),
    reduced by gcd(k * d, n * gcd(*row)) for P(w) = n / k, as from_rows."""
    cut, mass = {}, {}  # cut: (g, row / g) once per distinct row object
    nums, k = space.prob_row
    for w, n in zip(space.outcomes, nums):
        row, d = rows[w]
        if (cut_row := cut.get(id(row))) is None:
            g = gcd(*row)
            cut_row = cut[id(row)] = g, [x // g for x in row] if g > 1 else row
        g, base = cut_row
        c = gcd(kd := k * d, ng := n * g)
        m = ng // c
        mass[w] = tuple([x * m for x in base]), kd // c
    return DistributionST._of_canonical(mass)


def delta_of_mixed(space: FilteredSpace, mu: MixedST) -> DistributionST:
    """Push the product of P and Lebesgue measure forward through mu."""
    return _weighted(space, _given(space, mu))


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


def _given(space: FilteredSpace, eta) -> dict:
    """{w: (row, d)}, the stop-index law row[j] / d given w: a section's mass
    row, a path's increments, a mass row over P(w) = p / k as (nums * k,
    d * p), one (row, d) object per distinct section or path object;
    IncompatibleSpaces when the kind's table fails the space's row check."""
    if isinstance(eta, PureST):
        require_rows(space, eta.stop_index, "PureST")
        sections = embed_pure(eta).sections
    elif isinstance(eta, MixedST):
        require_rows(space, eta.sections, "MixedST")
        sections = eta.sections
    elif isinstance(eta, RandomizedST):
        require_rows(space, eta, "RandomizedST")
        return eta.increments()
    elif isinstance(eta, DistributionST):
        require_rows(space, eta, "DistributionST")
        probs, k = space.prob_row
        rows = map(eta.rows.__getitem__, space.outcomes)
        return {w: ([x * k for x in nums], d * p)
                for w, p, (nums, d) in zip(space.outcomes, probs, rows)}
    else:
        raise TypeError(f"not a stopping time: {type(eta).__name__}")
    n = space.n_times
    return per_object(sections, lambda s: s.mass_numerators(n)[1:])


def to_distribution(space: FilteredSpace, eta) -> DistributionST:
    """Normalize any stopping-time kind to its joint mass: a mass as it is,
    any other kind as its _given rows weighted by P(w)."""
    if isinstance(eta, DistributionST):
        require_rows(space, eta, "DistributionST")
        return eta
    return _weighted(space, _given(space, eta))


def equivalent(space: FilteredSpace, a, b) -> bool:
    """True iff a and b induce the same joint mass, entry for entry."""
    return first_difference(space, a, b) is None


def first_difference(space: FilteredSpace, a, b):
    """The first differing (outcome, time, mass_a, mass_b), or None: the laws
    given w walked once in outcome order, cross-multiplied once per distinct
    row pair, the witness masses P(w) * x / d (for a mass, its own entry)."""
    ga, gb = _given(space, a), _given(space, b)
    probs, k = space.prob_row
    seen = set()
    for w, p in zip(space.outcomes, probs):
        (na, da), (nb, db) = ra, rb = ga[w], gb[w]
        if (pair := (id(ra), id(rb))) not in seen:
            seen.add(pair)
            for t, x, y in zip(space.grid, na, nb):
                if x * db != y * da:
                    return w, t, Fraction(p * x, k * da), Fraction(p * y, k * db)
    return None
