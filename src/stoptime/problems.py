"""Payoff evaluation for single-agent stopping problems.

The reward table need not be adapted; evaluation only needs the value of
the reward at each (outcome, grid time).  payoff prices the joint mass of
a time of any kind, so equivalent times get the same exact payoff by
construction; the per-kind routes price each kind's own table and serve
as oracles for that.
"""

from __future__ import annotations

from fractions import Fraction

from .convert import to_distribution
from .space import AdaptedProcess, FilteredSpace, Record, require_rows
from .times import (DistributionST, MixedST, PureST, RandomizedST,
                    add_term, fraction_sum, int_dot, per_object)


class StoppingProblem(Record):
    def __init__(self, space: FilteredSpace, reward: AdaptedProcess):
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "reward", reward)
        self.__post_init__()

    def __post_init__(self):
        require_rows(self.space, self.reward, "reward")


# Each route sums ints per denominator with add_term: with P(w) = p / k from
# the space's prob_row, the reward row of w as ints over d_R and the stop
# weights of w as ints over d, outcome w adds p * (weights . reward ints)
# under the key k * d * d_R; fraction_sum normalises the value once.


def payoff_pure(problem: StoppingProblem, sigma: PureST) -> Fraction:
    space, rewards = problem.space, problem.reward.rows
    stop = sigma.stop_index
    probs, k = space.prob_row
    by_den = {}
    for w, p in zip(space.outcomes, probs):
        r, d_r = rewards[w]
        add_term(by_den, k * d_r, p * r[stop[w]])
    return fraction_sum(by_den)


def payoff_mixed(problem: StoppingProblem, mu: MixedST) -> Fraction:
    """The integer interval lengths of each section (its break_ints, over
    d), taken once per distinct section, against the rewards at the
    interval values."""
    space, rewards = problem.space, problem.reward.rows
    probs, k = space.prob_row

    def part(s):
        nums, d = s.break_ints
        return s.values, k * d, [b - a for a, b in zip(nums, nums[1:])]
    parts = per_object(mu.sections, part)
    by_den = {}
    for w, p in zip(space.outcomes, probs):
        (values, d, lengths), (r, d_r) = parts[w], rewards[w]
        add_term(by_den, d * d_r, p * int_dot(lengths, [r[v] for v in values]))
    return fraction_sum(by_den)


def payoff_randomized(problem: StoppingProblem, rho: RandomizedST) -> Fraction:
    """Stieltjes sum against the path increments; the jump at time 0 counts.

    The increments are integers over the path's common denominator d."""
    space, rewards = problem.space, problem.reward.rows
    increments = rho.increments()
    probs, k = space.prob_row
    by_den = {}
    for w, p in zip(space.outcomes, probs):
        (row, d), (r, d_r) = increments[w], rewards[w]
        add_term(by_den, k * d * d_r, p * int_dot(row, r))
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
