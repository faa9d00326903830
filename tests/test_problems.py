from fractions import Fraction

import numpy as np
import pytest
from conftest import time_process

from stoptime import (AdaptedProcess, PureST, RandomizedST, StoppingProblem,
                      delta_of_mixed, embed_pure, payoff, payoff_distribution,
                      payoff_mixed, payoff_pure, payoff_randomized)
from stoptime import fuzz, problems
from stoptime.experiment import ExperimentConfig, draw

F = Fraction
H = F(1, 2)


@pytest.fixture
def time_problem(coin_space):
    return StoppingProblem(coin_space, time_process(coin_space))


@pytest.fixture
def const_problem(coin_space):
    return StoppingProblem(coin_space, AdaptedProcess(
        {w: (F(7, 3),) * coin_space.n_times for w in coin_space.outcomes}))


def test_payoff_pure_constant(const_problem):
    assert payoff_pure(const_problem, PureST({"w1": 0, "w2": 1})) == F(7, 3)


def test_payoff_pure_time_process(time_problem):
    assert payoff_pure(time_problem, PureST({"w1": 1, "w2": 1})) == 1
    assert payoff_pure(time_problem, PureST({"w1": 0, "w2": 1})) == H


def test_payoff_mixed(time_problem, const_problem, coin_mixed):
    assert payoff_mixed(time_problem, coin_mixed) == H
    assert payoff_mixed(const_problem, coin_mixed) == F(7, 3)


def test_payoff_mixed_embedding_consistency(time_problem):
    sigma = PureST({"w1": 0, "w2": 1})
    assert payoff_mixed(time_problem, embed_pure(sigma)) == payoff_pure(
        time_problem, sigma)


def test_payoff_randomized(time_problem, const_problem, coin_randomized):
    assert payoff_randomized(time_problem, coin_randomized) == H
    assert payoff_randomized(const_problem, coin_randomized) == F(7, 3)


def test_payoff_randomized_all_mass_at_zero(time_problem, coin_space):
    rho = RandomizedST({"w1": (F(1), F(1)), "w2": (F(1), F(1))})
    assert payoff_randomized(time_problem, rho) == 0


def test_payoff_distribution(time_problem, const_problem, coin_delta):
    assert payoff_distribution(time_problem, coin_delta) == H
    assert payoff_distribution(const_problem, coin_delta) == F(7, 3)


def test_payoff_invariance_on_coin(time_problem, coin_mixed, coin_randomized,
                                   coin_delta):
    assert (payoff_mixed(time_problem, coin_mixed)
            == payoff_randomized(time_problem, coin_randomized)
            == payoff_distribution(time_problem, coin_delta))


def test_payoff_dispatch(time_problem, coin_mixed, coin_delta):
    assert payoff(time_problem, coin_mixed) == payoff(time_problem, coin_delta)
    with pytest.raises(TypeError):
        payoff(time_problem, object())


def test_reward_need_not_be_adapted(coin_space_coarse, coin_mixed):
    # information at time 0 is trivial but the reward may still separate
    # the outcomes
    reward = AdaptedProcess({"w1": (F(1), F(0)), "w2": (F(0), F(1))})
    problem = StoppingProblem(coin_space_coarse, reward)
    assert payoff_mixed(problem, coin_mixed) == H


def test_linearity_and_bounds_fuzzed():
    rng = np.random.Generator(np.random.PCG64(42))
    for _ in range(30):
        inst = fuzz.random_instance(rng)
        pa = StoppingProblem(inst.space, inst.reward)
        pb = StoppingProblem(inst.space, inst.x)
        combo = AdaptedProcess({
            w: tuple(3 * a - H * b for a, b in
                     zip(inst.reward.values[w], inst.x.values[w]))
            for w in inst.space.outcomes})
        pc = StoppingProblem(inst.space, combo)
        for route, eta in ((payoff_pure, inst.pure),
                           (payoff_mixed, inst.mixed),
                           (payoff_randomized, inst.randomized),
                           (payoff_distribution, inst.distribution)):
            va, vb, vc = route(pa, eta), route(pb, eta), route(pc, eta)
            assert vc == 3 * va - H * vb
            rows = inst.reward.values.values()
            assert min(map(min, rows)) <= va <= max(map(max, rows))


def test_payoff_prices_the_joint_mass_of_every_kind(monkeypatch):
    # payoff reads the joint mass only: with the three per-kind routes
    # refusing, every kind of the first seed-7 instances still gets the
    # value its own route gave
    config = ExperimentConfig(seed=7)
    cases = []
    for index in range(20):
        inst, _ = draw(config, index)
        problem = StoppingProblem(inst.space, inst.reward)
        for route, eta in ((payoff_pure, inst.pure),
                           (payoff_mixed, inst.mixed),
                           (payoff_randomized, inst.randomized),
                           (payoff_distribution, inst.distribution)):
            cases.append((problem, eta, route(problem, eta)))

    def refuse(*args):
        raise AssertionError("payoff ran a per-kind route")

    for name in ("payoff_pure", "payoff_mixed", "payoff_randomized"):
        monkeypatch.setattr(problems, name, refuse)
    for problem, eta, value in cases:
        assert payoff(problem, eta) == value
