"""Payoff evaluation for single-agent stopping problems.

The reward table need not be adapted; evaluation only needs the value of
the reward at each (outcome, grid time).  payoff prices the joint mass of
a time of any kind, so equivalent times get the same exact payoff by
construction; the per-kind routes price each kind's own table and serve
as oracles for that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .convert import to_distribution
from .space import AdaptedProcess, FilteredSpace, require_rows
from .times import (DistributionST, MixedST, PureST, RandomizedST,
                    add_term, fraction_sum, int_dot)


@dataclass(frozen=True)
class StoppingProblem:
    space: FilteredSpace
    reward: AdaptedProcess

    def __post_init__(self):
        require_rows(self.space, self.reward.numerators(), "reward")


# Each route sums ints per denominator with add_term: with P(w) = p, the
# reward row of w as ints over d_R and the stop weights of w as ints over
# d, outcome w adds p.numerator * (weights . reward ints) under the key
# p.denominator * d * d_R; fraction_sum normalises the value once.


def payoff_pure(problem: StoppingProblem, sigma: PureST) -> Fraction:
    space, rewards = problem.space, problem.reward.rows
    stop = sigma.stop_index
    by_den = {}
    for w, p in zip(space.outcomes, space.probs):
        r, d_r = rewards[w]
        add_term(by_den, p.denominator * d_r, p.numerator * r[stop[w]])
    return fraction_sum(by_den)


def payoff_mixed(problem: StoppingProblem, mu: MixedST) -> Fraction:
    """The integer interval lengths of each section (its break_ints, over
    d) against the rewards at the interval values."""
    space, rewards = problem.space, problem.reward.rows
    by_den = {}
    for w, p in zip(space.outcomes, space.probs):
        s = mu.sections[w]
        nums, d = s.break_ints
        r, d_r = rewards[w]
        lengths = [b - a for a, b in zip(nums, nums[1:])]
        add_term(by_den, p.denominator * d * d_r,
                 p.numerator * int_dot(lengths, [r[v] for v in s.values]))
    return fraction_sum(by_den)


def payoff_randomized(problem: StoppingProblem, rho: RandomizedST) -> Fraction:
    """Stieltjes sum against the path increments; the jump at time 0 counts.

    The increments are integers over the path's common denominator d."""
    space, rewards = problem.space, problem.reward.rows
    increments = rho.increments()
    by_den = {}
    for w, p in zip(space.outcomes, space.probs):
        row, d = increments[w]
        r, d_r = rewards[w]
        add_term(by_den, p.denominator * d * d_r,
                 p.numerator * int_dot(row, r))
    return fraction_sum(by_den)


def payoff_distribution(problem: StoppingProblem, delta: DistributionST) -> Fraction:
    """Each row's ints over d against the reward ints over d_R, summed per
    d * d_R over all rows (the mass already carries P)."""
    rewards = problem.reward.rows
    by_den = {}
    for w in problem.space.outcomes:
        nums, d = delta.rows[w]
        r, d_r = rewards[w]
        add_term(by_den, d * d_r, int_dot(nums, r))
    return fraction_sum(by_den)


def payoff(problem: StoppingProblem, eta) -> Fraction:
    """The price of eta's joint mass, whatever eta's kind."""
    return payoff_distribution(problem, to_distribution(problem.space, eta))
