"""A small worked example: two equally likely outcomes, times {0, 1},
full information from time 0, and the stop law that is uniform over the
four (outcome, time) atoms as a mixed time, a path and a joint mass.  The
fuzz campaign's Monte Carlo rows sample it as a known target.
"""

from __future__ import annotations

from fractions import Fraction

from .space import FilteredSpace, build_space
from .times import (DistributionST, MixedST, RStepFunction, RandomizedST)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def coin_space() -> FilteredSpace:
    """Two outcomes, uniform P, grid {0, 1}, singleton blocks throughout."""
    singletons = (frozenset({"w1"}), frozenset({"w2"}))
    return build_space(outcomes=("w1", "w2"), probs=(HALF, HALF), grid=(0, 1),
                       partitions=(singletons, singletons))


def coin_mixed() -> MixedST:
    """Stop at 0 on r <= 1/2, at 1 on r > 1/2, for both outcomes."""
    section = RStepFunction(((0, 1, 2), 2), (0, 1))
    return MixedST({"w1": section, "w2": section})


def coin_randomized() -> RandomizedST:
    """Cumulative stop probability 1/2 at time 0, 1 at time 1."""
    return RandomizedST({"w1": (HALF, Fraction(1)), "w2": (HALF, Fraction(1))})


def coin_uniform_delta() -> DistributionST:
    """Mass 1/4 on each of the four (outcome, time) atoms."""
    return DistributionST({"w1": (QUARTER, QUARTER), "w2": (QUARTER, QUARTER)})
