"""Kuhn's theorem against the normal form on small spaces.

On a space of at most 5 outcomes and 4 grid points every pure stopping
time can be listed: per block, stop now, or continue into the blocks that
refine it.  Payoffs are linear in the joint mass and every valid mass
mixes pure ones, so the best pure payoff is the value of the stopping
problem, which a plain-Fraction backward induction computes without any
of the library's routes.  Game payoffs of pure pairs are a plain triple
sum over outcomes.  Nothing here shares the joint-mass code it checks.
"""

from fractions import Fraction
from itertools import product

import numpy as np
from hypothesis import given, settings, strategies as st

from stoptime import (PureST, StoppingGame, StoppingProblem, fuzz,
                      game_payoff_player2_view, game_payoff_symmetric,
                      game_payoff_via_lift, payoff, validate)

BOUNDS = fuzz.FuzzBounds(max_outcomes=5, max_grid_points=4)
seeds = st.integers(min_value=0, max_value=2**63 - 1)


def small_instance(seed):
    return fuzz.random_instance(np.random.Generator(np.random.PCG64(seed)),
                                BOUNDS)


def children(space, j, block) -> list:
    """The level-(j + 1) blocks inside a level-j block."""
    return [c for c in space.partitions[j + 1] if c <= block]


def pure_times(space) -> list:
    """Every pure stopping time, as {outcome: stop index}: each level-j
    block stops whole at j or, before the last time, continues into its
    level-(j + 1) blocks, each of which chooses on its own."""
    def from_block(j, block):
        out = [dict.fromkeys(block, j)]
        if j < space.last_index:
            for parts in product(*(from_block(j + 1, c)
                                   for c in children(space, j, block))):
                out.append({w: i for part in parts for w, i in part.items()})
        return out

    return [{w: i for part in parts for w, i in part.items()}
            for parts in product(*(from_block(0, b)
                                   for b in space.partitions[0]))]


def backward_induction(space, reward) -> Fraction:
    """V* = E[V_0]: per level-j block B, Y_j(B) = E[R_j | B] and V_j(B) =
    max(Y_j(B), E[V_{j+1} | B]), with V = Y at the last time."""
    p = dict(zip(space.outcomes, space.probs))
    values = reward.values

    def mass(block):
        return sum(p[w] for w in block)

    def value(j, block):
        y = sum(p[w] * values[w][j] for w in block) / mass(block)
        if j == space.last_index:
            return y
        go_on = sum(mass(c) * value(j + 1, c)
                    for c in children(space, j, block)) / mass(block)
        return max(y, go_on)

    return sum(mass(b) * value(0, b) for b in space.partitions[0])


def triple_sum(space, game, stop1, stop2) -> Fraction:
    """Player 1's payoff of a pure pair: X at Player 1's stop when it comes
    first, Y at Player 2's when that comes first, Z on a tie."""
    x, y, z = game.x.values, game.y.values, game.z.values
    total = Fraction(0)
    for w, p in zip(space.outcomes, space.probs):
        j1, j2 = stop1[w], stop2[w]
        total += p * (x[w][j1] if j1 < j2 else y[w][j2] if j2 < j1
                      else z[w][j1])
    return total


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_the_best_pure_payoff_is_the_backward_induction_value(seed):
    inst = small_instance(seed)
    space = inst.space
    problem = StoppingProblem(space, inst.reward)
    times = [PureST(stop) for stop in pure_times(space)]
    assert all(validate(space, sigma) == [] for sigma in times)
    assert (max(payoff(problem, sigma) for sigma in times)
            == backward_induction(space, inst.reward))


@settings(max_examples=60, deadline=None)
@given(seeds)
def test_no_drawn_time_pays_more_than_the_value(seed):
    inst = small_instance(seed)
    problem = StoppingProblem(inst.space, inst.reward)
    v = backward_induction(inst.space, inst.reward)
    for kind in ("pure", "mixed", "randomized", "distribution", "mixed2",
                 "randomized2"):
        assert payoff(problem, getattr(inst, kind)) <= v, kind


@settings(max_examples=50, deadline=None)
@given(seeds)
def test_game_routes_are_the_triple_sum_on_every_pure_pair(seed):
    inst = small_instance(seed)
    space = inst.space
    game = StoppingGame(space, inst.x, inst.y, inst.z)
    stops = pure_times(space)
    for stop1, stop2 in product(stops, stops):
        want = triple_sum(space, game, stop1, stop2)
        tau1, tau2 = PureST(stop1), PureST(stop2)
        for route in (game_payoff_via_lift, game_payoff_player2_view,
                      game_payoff_symmetric):
            assert route(game, tau1, tau2) == want, route.__name__
