"""A small worked example: two equally likely outcomes, times {0, 1},
full information from time 0, and the stop law that is uniform over the
four (outcome, time) atoms.

The uniform stop law has a unique cumulative-path representation but
infinitely many interval representations; two of them are provided here
(the second flips the coin's role of the randomizer on one outcome).
Used by the test suite and by the Monte Carlo harness as a known target.
"""

from __future__ import annotations

from fractions import Fraction

from .space import FilteredSpace, build_space
from .times import (DistributionST, MixedST, RStepFunction, RandomizedST)

HALF = Fraction(1, 2)
QUARTER = Fraction(1, 4)


def coin_space() -> FilteredSpace:
    """Two outcomes, uniform P, grid {0, 1}, singleton blocks throughout."""
    return _coin_space((frozenset({"w1"}), frozenset({"w2"})))


def coin_space_coarse() -> FilteredSpace:
    """Same space but with no information at time 0 (one block)."""
    return _coin_space((frozenset({"w1", "w2"}),))


def _coin_space(level_0) -> FilteredSpace:
    """The two-outcome uniform space on grid {0, 1} whose time-0 partition
    is level_0; time 1 reveals the outcome."""
    return build_space(
        outcomes=("w1", "w2"),
        probs=(HALF, HALF),
        grid=(0, 1),
        partitions=(level_0, (frozenset({"w1"}), frozenset({"w2"}))),
    )


def coin_mixed() -> MixedST:
    """Stop at 0 on r <= 1/2, at 1 on r > 1/2, for both outcomes."""
    section = RStepFunction(((0, 1, 2), 2), (0, 1))
    return MixedST({"w1": section, "w2": section})


def coin_mixed_flipped() -> MixedST:
    """Same stop law; the second outcome uses the opposite half of [0,1]."""
    section = RStepFunction(((0, 1, 2), 2), (0, 1))
    flipped = RStepFunction(((0, 1, 2), 2), (1, 0))
    return MixedST({"w1": section, "w2": flipped})


def coin_randomized() -> RandomizedST:
    """Cumulative stop probability 1/2 at time 0, 1 at time 1."""
    return RandomizedST({"w1": (HALF, Fraction(1)), "w2": (HALF, Fraction(1))})


def coin_uniform_delta() -> DistributionST:
    """Mass 1/4 on each of the four (outcome, time) atoms."""
    return DistributionST({"w1": (QUARTER, QUARTER), "w2": (QUARTER, QUARTER)})
