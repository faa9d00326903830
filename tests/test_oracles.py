"""Independent oracles: the plain Fraction formulas for the payoffs, the
symmetric game value and the lifted rewards, written out here so that the
library's integer routes are compared with code they share nothing with."""

from fractions import Fraction

import numpy as np
from conftest import at, mass_of_index
from hypothesis import given, settings, strategies as st

from stoptime import (AdaptedProcess, DistributionST, FilteredSpace, PureST,
                      StoppingGame, StoppingProblem, build_space,
                      delta_of_mixed, embed_pure, experiment, fuzz,
                      game_payoff_player2_view, game_payoff_symmetric,
                      game_payoff_via_lift, lift, lift_distribution,
                      lift_mixed, lift_randomized, mixed_of_distribution,
                      over_common, payoff_distribution, payoff_mixed,
                      payoff_pure, payoff_randomized, problems,
                      to_distribution)
from stoptime.experiment import ExperimentConfig, check_instance
from stoptime.games import lift_player2

ZERO = Fraction(0)
F = Fraction
seeds = st.integers(min_value=0, max_value=2**63 - 1)
bounds = st.sampled_from([fuzz.FuzzBounds(),
                          fuzz.FuzzBounds(max_outcomes=16, max_grid_points=8,
                                          max_breaks=16, max_denominator=97)])


def oracle_pure(problem, sigma):
    space, R = problem.space, problem.reward
    return sum((space.prob(w) * at(R, w, sigma.stop_index[w])
                for w in space.outcomes), ZERO)


def oracle_mixed(problem, mu):
    space, R = problem.space, problem.reward
    total = ZERO
    for w in space.outcomes:
        s = mu.sections[w]
        inner = sum(((s.breaks[i + 1] - s.breaks[i]) * at(R, w, v)
                     for i, v in enumerate(s.values)), ZERO)
        total += space.prob(w) * inner
    return total


def oracle_randomized(problem, rho):
    space, R = problem.space, problem.reward
    total = ZERO
    for w in space.outcomes:
        prev = ZERO
        inner = ZERO
        for j, x in enumerate(rho.paths[w]):
            inner += at(R, w, j) * (x - prev)
            prev = x
        total += space.prob(w) * inner
    return total


def oracle_distribution(problem, delta):
    space, R = problem.space, problem.reward
    return sum((delta.mass[w][j] * at(R, w, j)
                for w in space.outcomes for j in range(space.n_times)), ZERO)


def oracle_symmetric(game, mu1, mu2):
    """Triple expectation over (outcome, r1, r2) from per-index masses."""
    space = game.space
    total = ZERO
    for w in space.outcomes:
        s1, s2 = mu1.sections[w], mu2.sections[w]
        inner = ZERO
        for j1 in range(space.n_times):
            q1 = mass_of_index(s1, j1)
            for j2 in range(space.n_times):
                q2 = mass_of_index(s2, j2)
                if j1 < j2:
                    r = at(game.x, w, j1)
                elif j1 > j2:
                    r = at(game.y, w, j2)
                else:
                    r = at(game.z, w, j1)
                inner += q1 * q2 * r
        total += space.prob(w) * inner
    return total


def first_stopper_reward(first, second, tie, w, my_index, opp_index):
    """The seed's per-index rule: first is paid when the lifted player stops
    strictly first, second (at the opponent's stop) when the opponent does,
    tie on a tie."""
    if my_index < opp_index:
        return at(first, w, my_index)
    if my_index > opp_index:
        return at(second, w, opp_index)
    return at(tie, w, my_index)


def seed_lifted_space(base, delta):
    """The seed's lifted space, built directly: positive-mass atoms, and
    each base block pulled back to the atoms of its outcomes."""
    pos = tuple((w, s) for w in base.outcomes for s in range(base.n_times)
                if delta.mass[w][s] > 0)
    partitions = tuple(
        tuple(frozenset(a for a in pos if a[0] in block) for block in part)
        for part in base.partitions)
    return FilteredSpace(outcomes=pos, probs=tuple(delta.mass[w][s] for w, s in pos),
                         grid=base.grid, partitions=partitions)


def oracle_lift_distribution(delta, base, lifted_space):
    """Each base row of delta reweighted by p(w, s) / P(w), in Fractions."""
    return {(w, s): tuple(x * p / base.prob(w) for x in delta.mass[w])
            for (w, s), p in zip(lifted_space.outcomes, lifted_space.probs)}


def make_instance(seed, fuzz_bounds):
    rng = np.random.Generator(np.random.PCG64(seed))
    return fuzz.random_instance(rng, fuzz_bounds)


def assert_payoffs_match_oracles(problem, pure, mixed, randomized, delta):
    assert payoff_pure(problem, pure) == oracle_pure(problem, pure)
    assert payoff_mixed(problem, mixed) == oracle_mixed(problem, mixed)
    assert (payoff_randomized(problem, randomized)
            == oracle_randomized(problem, randomized))
    assert (payoff_distribution(problem, delta)
            == oracle_distribution(problem, delta))


@settings(max_examples=60, deadline=None)
@given(seeds, bounds)
def test_payoffs_match_fraction_oracles(seed, fuzz_bounds):
    inst = make_instance(seed, fuzz_bounds)
    problem = StoppingProblem(inst.space, inst.reward)
    assert_payoffs_match_oracles(problem, inst.pure, inst.mixed,
                                 inst.randomized, inst.distribution)
    # the second family is not equivalent to the first: other values
    assert (payoff_randomized(problem, inst.randomized2)
            == oracle_randomized(problem, inst.randomized2))


@settings(max_examples=30, deadline=None)
@given(seeds, bounds)
def test_lifted_payoffs_match_fraction_oracles(seed, fuzz_bounds):
    inst = make_instance(seed, fuzz_bounds)
    game = StoppingGame(inst.space, inst.x, inst.y, inst.z)
    lifted = lift(game, delta_of_mixed(inst.space, inst.mixed2))
    # the pure time, like the others, is constant in the opponent's stop
    pure = PureST({(w, s): inst.pure.stop_index[w]
                   for w, s in lifted.space.outcomes})
    assert_payoffs_match_oracles(
        lifted, pure, lift_mixed(inst.mixed, lifted.space),
        lift_randomized(inst.randomized, lifted.space),
        lift_distribution(inst.distribution, inst.space, lifted.space))


@settings(max_examples=30, deadline=None)
@given(seeds, bounds)
def test_lift_distribution_matches_fraction_oracle(seed, fuzz_bounds):
    # each player's mass on the space lifted by the other's, and on its own
    # lift; a copy with one row zeroed and one negated takes the gcd's
    # edge cases (a row of zeros, negative entries)
    inst = make_instance(seed, fuzz_bounds)
    space = inst.space
    game = StoppingGame(space, inst.x, inst.y, inst.z)
    delta1 = delta_of_mixed(space, inst.mixed)
    delta2 = delta_of_mixed(space, inst.mixed2)
    first, last = space.outcomes[0], space.outcomes[-1]
    skewed = DistributionST({**inst.distribution.mass,
                             first: (ZERO,) * space.n_times,
                             last: tuple(-x for x in delta1.mass[last])})
    for lift_fn, opponent, own in ((lift, delta2, delta1),
                                   (lift_player2, delta1, delta2)):
        lifted = lift_fn(game, opponent).space
        for delta in (own, opponent, inst.distribution, skewed):
            expected = oracle_lift_distribution(delta, space, lifted)
            reweighted = lift_distribution(delta, space, lifted)
            assert reweighted.mass == expected
            assert reweighted == DistributionST(expected)


@settings(max_examples=30, deadline=None)
@given(seeds, bounds)
def test_lifted_rewards_match_first_stopper_rule(seed, fuzz_bounds):
    inst = make_instance(seed, fuzz_bounds)
    space = inst.space
    game = StoppingGame(space, inst.x, inst.y, inst.z)
    for lift_fn, mu, first, second in ((lift, inst.mixed2, game.x, game.y),
                                       (lift_player2, inst.mixed, game.y, game.x)):
        delta = delta_of_mixed(space, mu)
        lifted = lift_fn(game, delta)
        assert lifted.space == seed_lifted_space(space, delta)
        rows = lifted.reward.values
        assert set(rows) == set(lifted.space.outcomes)
        for w, s in lifted.space.outcomes:
            assert rows[(w, s)] == tuple(
                first_stopper_reward(first, second, game.z, w, j, s)
                for j in range(space.n_times))


@settings(max_examples=40, deadline=None)
@given(seeds, bounds)
def test_symmetric_game_matches_fraction_oracle(seed, fuzz_bounds):
    inst = make_instance(seed, fuzz_bounds)
    game = StoppingGame(inst.space, inst.x, inst.y, inst.z)
    for mu1, mu2 in ((inst.mixed, inst.mixed2), (inst.mixed2, inst.mixed),
                     (inst.mixed, inst.mixed)):
        assert (game_payoff_symmetric(game, mu1, mu2)
                == oracle_symmetric(game, mu1, mu2))


def wide_process(rng, space):
    """A table with large denominators and both signs, so that each route's
    per-denominator sums meet over a large lcm."""
    return AdaptedProcess({w: tuple(
        Fraction(int(rng.integers(-10**9, 10**9)), int(rng.integers(1, 10**9)))
        for _ in space.grid) for w in space.outcomes})


def game_tables(inst, seed, wide):
    if not wide:
        return inst.x, inst.y, inst.z
    rng = np.random.Generator(np.random.PCG64(seed))
    return tuple(wide_process(rng, inst.space) for _ in range(3))


@settings(max_examples=30, deadline=None)
@given(seeds, bounds)
def test_payoffs_on_wide_rewards_match_fraction_oracles(seed, fuzz_bounds):
    inst = make_instance(seed, fuzz_bounds)
    rng = np.random.Generator(np.random.PCG64(seed))
    problem = StoppingProblem(inst.space, wide_process(rng, inst.space))
    assert_payoffs_match_oracles(problem, inst.pure, inst.mixed,
                                 inst.randomized, inst.distribution)


@settings(max_examples=30, deadline=None)
@given(seeds, bounds, st.booleans())
def test_game_routes_match_fraction_oracle(seed, fuzz_bounds, wide):
    inst = make_instance(seed, fuzz_bounds)
    space = inst.space
    game = StoppingGame(space, *game_tables(inst, seed, wide))
    expected = oracle_symmetric(game, inst.mixed, inst.mixed2)
    delta1 = delta_of_mixed(space, inst.mixed)
    delta2 = delta_of_mixed(space, inst.mixed2)
    assert game_payoff_symmetric(game, inst.mixed, inst.mixed2) == expected
    assert game_payoff_via_lift(game, inst.mixed, delta2) == expected
    assert game_payoff_player2_view(game, delta1, inst.mixed2) == expected


def as_mixed(space, tau):
    """A mixed time equivalent to tau, the only kind oracle_symmetric reads."""
    if isinstance(tau, PureST):
        return embed_pure(tau)
    return mixed_of_distribution(space, to_distribution(space, tau))


@settings(max_examples=20, deadline=None)
@given(seeds, bounds)
def test_game_routes_price_any_two_kinds(seed, fuzz_bounds):
    # every route reads each player's time only through its joint mass,
    # so any kind on either side prices like the equivalent mixed time
    inst = make_instance(seed, fuzz_bounds)
    space = inst.space
    game = StoppingGame(space, inst.x, inst.y, inst.z)
    side1 = (inst.pure, inst.mixed, inst.randomized, inst.distribution)
    side2 = (inst.pure, inst.mixed2, inst.randomized, inst.distribution)
    for tau1 in side1:
        for tau2 in side2:
            expected = oracle_symmetric(game, as_mixed(space, tau1),
                                        as_mixed(space, tau2))
            for route in (game_payoff_symmetric, game_payoff_via_lift,
                          game_payoff_player2_view):
                assert route(game, tau1, tau2) == expected, route.__name__


def seed_lifted_rewards(first, second, tie, lifted_space):
    """The seed's lifted reward table, sliced from the Fraction rows: first
    before the opponent's stop s, tie at s, second frozen at s after it."""
    n = lifted_space.n_times
    first, second, tie = first.values, second.values, tie.values
    return {(w, s): first[w][:s] + (tie[w][s],) + (second[w][s],) * (n - s - 1)
            for w, s in lifted_space.outcomes}


@settings(max_examples=30, deadline=None)
@given(seeds, bounds, st.booleans())
def test_lifted_rows_match_the_fraction_slicing(seed, fuzz_bounds, wide):
    inst = make_instance(seed, fuzz_bounds)
    space = inst.space
    game = StoppingGame(space, *game_tables(inst, seed, wide))
    for lift_fn, mu, first, second in (
            (lift, inst.mixed2, game.x, game.y),
            (lift_player2, inst.mixed, game.y, game.x)):
        lifted = lift_fn(game, delta_of_mixed(space, mu))
        expected = seed_lifted_rewards(first, second, game.z, lifted.space)
        reward = lifted.reward
        assert reward.values == expected
        assert reward.rows == {a: over_common(row)
                               for a, row in expected.items()}



def test_lifted_rows_reduce_by_the_entries_they_hold():
    # one shared block at level 0; each outcome stops at 0 or at the
    # horizon, so both s = 0 and s = n - 1 are lifted atoms.  Over the
    # lcm 24, row (w1, 0) is (t0, g0, g1) = (6, 12, 12), reduced by 6;
    # g2 = 3 would cut that gcd to 3 if it were counted in.  Row (w1, 2)
    # is (f0, f1, t2) = (12, 12, 12), reduced by 12; t0 = 6 or g2 = 3
    # would cut it.
    space = build_space(("w1", "w2"), (F(1, 2), F(1, 2)), (0, 1, 2),
                        [[{"w1", "w2"}], [{"w1"}, {"w2"}], [{"w1"}, {"w2"}]])
    delta = DistributionST({w: (F(1, 4), 0, F(1, 4)) for w in space.outcomes})
    tables = (
        {"w1": (F(1, 2), F(1, 2), F(1, 3)), "w2": (F(3, 5), F(3, 5), F(1))},
        {"w1": (F(1, 4), F(1, 2), F(1, 2)), "w2": (F(1, 7), F(1), F(1))},
        {"w1": (F(1, 2), F(1, 2), F(1, 8)), "w2": (F(1, 5), F(2, 5), F(1, 9))},
    )
    x, z, y = (AdaptedProcess(t) for t in tables)
    game = StoppingGame(space, x, y, z)
    for lift_fn, first, second in ((lift, x, y), (lift_player2, y, x)):
        lifted = lift_fn(game, delta)
        assert set(lifted.space.outcomes) == {
            (w, s) for w in space.outcomes for s in (0, 2)}
        expected = seed_lifted_rewards(first, second, z, lifted.space)
        assert lifted.reward.rows == {
            a: over_common(row) for a, row in expected.items()}
    assert lift(game, delta).reward.rows[("w1", 0)] == ((1, 2, 2), 4)
    assert lift(game, delta).reward.rows[("w1", 2)] == ((1, 1, 1), 2)

def test_payoff_invariance_fails_on_planted_defect(monkeypatch):
    config = ExperimentConfig(seed=5)
    rows = check_instance(config, 0)
    assert next(r.status for r in rows
                if r.check == "payoff_invariance") == "pass"
    exact = problems.payoff_randomized
    monkeypatch.setattr(experiment.problems, "payoff_randomized",
                        lambda problem, rho: exact(problem, rho)
                        + Fraction(1, 10**9))
    rows = check_instance(config, 0)
    assert next(r.status for r in rows
                if r.check == "payoff_invariance") == "fail"
