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
                    fraction_dot, fraction_sum)


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
    (the section's break_ints, over d) against the rewards."""
    space, R = problem.space, problem.reward
    scales, inner = [], []
    for w, p in zip(space.outcomes, space.probs):
        s = mu.sections[w]
        nums, d = s.break_ints
        row = R.values[w]
        scales.append(p / d)
        inner.append(fraction_dot((b - a for a, b in zip(nums, nums[1:])),
                                  (row[v] for v in s.values)))
    return fraction_dot(scales, inner)


def payoff_randomized(problem: StoppingProblem, rho: RandomizedST) -> Fraction:
    """Stieltjes sum against the path increments; the jump at time 0 counts.

    The increments are integers over the path's common denominator d."""
    space, R = problem.space, problem.reward
    increments = rho.increments()
    scales, inner = [], []
    for w, p in zip(space.outcomes, space.probs):
        row, d = increments[w]
        scales.append(p / d)
        inner.append(fraction_dot(row, R.values[w]))
    return fraction_dot(scales, inner)


def payoff_distribution(problem: StoppingProblem, delta: DistributionST) -> Fraction:
    """Each row's ints n over d against the rewards r: n * r.numerator summed
    per denominator d * r.denominator over all rows, normalised once."""
    space, R = problem.space, problem.reward
    by_den = {}
    for w in space.outcomes:
        nums, d = delta.rows[w]
        for n, r in zip(nums, R.values[w], strict=True):
            if n:
                k = d * r.denominator
                by_den[k] = by_den.get(k, 0) + n * r.numerator
    return fraction_sum(by_den)


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
