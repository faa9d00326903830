"""Payoff evaluation for single-agent stopping problems.

The reward table need not be adapted; evaluation only needs the value of
the reward at each (outcome, grid time).  All four stopping-time kinds
are supported and equivalent times yield the same exact payoff.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .space import AdaptedProcess, FilteredSpace, require_rows
from .times import (DistributionST, MixedST, PureST, RandomizedST,
                    fraction_dot, over_common)


@dataclass(frozen=True)
class StoppingProblem:
    space: FilteredSpace
    reward: AdaptedProcess

    def __post_init__(self):
        require_rows(self.space, self.reward.values, "reward")


def payoff_pure(problem: StoppingProblem, sigma: PureST) -> Fraction:
    space, R = problem.space, problem.reward
    return fraction_dot(space.probs, (R.at(w, sigma.stop_index[w])
                                      for w in space.outcomes))


def payoff_mixed(problem: StoppingProblem, mu: MixedST) -> Fraction:
    """Sum over outcomes of P(w) / d times the integer interval lengths
    (over the section's common denominator d) against the rewards."""
    space, R = problem.space, problem.reward
    scales, inner = [], []
    for w, p in zip(space.outcomes, space.probs):
        s = mu.sections[w]
        nums, d = over_common(s.breaks)
        row = R.values[w]
        scales.append(p / d)
        inner.append(fraction_dot((b - a for a, b in zip(nums, nums[1:])),
                                  (row[v] for v in s.values)))
    return fraction_dot(scales, inner)


def payoff_randomized(problem: StoppingProblem, rho: RandomizedST) -> Fraction:
    """Stieltjes sum against the path increments; the jump at time 0 counts.

    The increments are integers over the path's common denominator d."""
    space, R = problem.space, problem.reward
    scales, inner = [], []
    for w, p in zip(space.outcomes, space.probs):
        nums, d = over_common(rho.paths[w])
        increments = (x - prev for prev, x in zip((0,) + nums, nums))
        scales.append(p / d)
        inner.append(fraction_dot(increments, R.values[w]))
    return fraction_dot(scales, inner)


def payoff_distribution(problem: StoppingProblem, delta: DistributionST) -> Fraction:
    space, R = problem.space, problem.reward
    return fraction_dot(
        (m for w in space.outcomes for m in delta.mass[w]),
        (r for w in space.outcomes for r in R.values[w]))


def payoff(problem: StoppingProblem, eta) -> Fraction:
    """Dispatch on the stopping-time kind."""
    if isinstance(eta, PureST):
        return payoff_pure(problem, eta)
    if isinstance(eta, MixedST):
        return payoff_mixed(problem, eta)
    if isinstance(eta, RandomizedST):
        return payoff_randomized(problem, eta)
    if isinstance(eta, DistributionST):
        return payoff_distribution(problem, eta)
    raise TypeError(f"not a stopping time: {type(eta).__name__}")
