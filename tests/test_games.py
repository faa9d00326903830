from fractions import Fraction

import numpy as np
import pytest
from conftest import at
from hypothesis import given, settings, strategies as st

from stoptime import (AdaptedProcess, DistributionST, FilteredSpace, PureST,
                      StoppingGame, build_space, delta_of_mixed, equivalent,
                      game_payoff_player2_view, game_payoff_symmetric,
                      game_payoff_via_lift, lift, lift_mixed, lift_randomized)
from stoptime import convert, experiment, fuzz, games
from stoptime import space as space_module
from stoptime.cli import main
from stoptime.games import lift_player2
from stoptime.serialize import (dump_json, process_to_dict, space_to_dict,
                                stopping_time_to_dict)
from stoptime.space import check_space

F = Fraction
H = F(1, 2)


@pytest.fixture
def coin_game(coin_space):
    # distinct tables so any indexing mistake shows up in values
    x = AdaptedProcess({"w1": (F(10), F(11)), "w2": (F(12), F(13))})
    y = AdaptedProcess({"w1": (F(20), F(21)), "w2": (F(22), F(23))})
    z = AdaptedProcess({"w1": (F(30), F(31)), "w2": (F(32), F(33))})
    return StoppingGame(coin_space, x, y, z)


@pytest.fixture
def const_game(coin_space):
    c = AdaptedProcess({w: (F(5), F(5)) for w in coin_space.outcomes})
    return StoppingGame(coin_space, c, c, c)


def point_mass_at(space, j):
    rows = {}
    for w in space.outcomes:
        row = [F(0)] * space.n_times
        row[j] = space.prob(w)
        rows[w] = tuple(row)
    return DistributionST(rows)


def test_lift_point_mass_at_horizon(coin_game, coin_space):
    delta2 = point_mass_at(coin_space, 1)
    lifted = lift(coin_game, delta2)
    # two positive atoms, both with opponent stop at the horizon
    assert set(lifted.space.outcomes) == {("w1", 1), ("w2", 1)}
    # before the horizon Player 1 is first (X); at the horizon a tie (Z)
    assert at(lifted.reward, ("w1", 1), 0) == F(10)
    assert at(lifted.reward, ("w1", 1), 1) == F(31)


def test_lift_constant_game(const_game, coin_space, coin_delta):
    lifted = lift(const_game, coin_delta)
    assert len(lifted.space.outcomes) == 4
    assert all(v == F(5) for row in lifted.reward.values.values()
               for v in row)


def test_lift_uniform_delta_four_atoms(coin_game, coin_delta):
    lifted = lift(coin_game, coin_delta)
    assert len(lifted.space.outcomes) == 4
    assert all(lifted.space.prob(a) == F(1, 4) for a in lifted.space.outcomes)


def test_game_payoff_constant(const_game, coin_mixed, coin_delta):
    assert game_payoff_via_lift(const_game, coin_mixed, coin_delta) == F(5)
    assert game_payoff_symmetric(const_game, coin_mixed, coin_mixed) == F(5)


def test_game_payoff_both_stop_at_zero(coin_game, coin_space):
    sigma = PureST({"w1": 0, "w2": 0})
    from stoptime import embed_pure
    mu0 = embed_pure(sigma)
    delta0 = point_mass_at(coin_space, 0)
    expected = H * F(30) + H * F(32)  # E[Z at time 0]
    assert game_payoff_via_lift(coin_game, mu0, delta0) == expected
    assert game_payoff_symmetric(coin_game, mu0, mu0) == expected


def test_game_payoff_opponent_stops_at_zero(coin_game, coin_space, coin_mixed):
    # Player 1 uniform over {0,1}; ties at 0 give Z_0, stopping at 1 means
    # Player 2 already stopped at 0, giving Y_0
    delta0 = point_mass_at(coin_space, 0)
    expected = H * (H * F(30) + H * F(20)) + H * (H * F(32) + H * F(22))
    assert game_payoff_via_lift(coin_game, coin_mixed, delta0) == expected


def test_symmetric_matches_lift(coin_game, coin_mixed, coin_space):
    from stoptime import embed_pure
    mu2 = embed_pure(PureST({"w1": 0, "w2": 0}))
    delta2 = delta_of_mixed(coin_space, mu2)
    assert (game_payoff_symmetric(coin_game, coin_mixed, mu2)
            == game_payoff_via_lift(coin_game, coin_mixed, delta2))


def test_player2_view_constant(const_game, coin_mixed, coin_delta):
    assert game_payoff_player2_view(const_game, coin_delta, coin_mixed) == F(5)


def test_player2_view_matches_symmetric(coin_game, coin_space, coin_mixed,
                                        coin_mixed_flipped):
    delta1 = delta_of_mixed(coin_space, coin_mixed)
    assert (game_payoff_player2_view(coin_game, delta1, coin_mixed_flipped)
            == game_payoff_symmetric(coin_game, coin_mixed, coin_mixed_flipped))


def test_lift_preserves_equivalence(coin_game, coin_space, coin_mixed,
                                    coin_randomized, coin_delta):
    lifted = lift(coin_game, coin_delta)
    mu_l = lift_mixed(coin_mixed, lifted.space)
    rho_l = lift_randomized(coin_randomized, lifted.space)
    assert equivalent(lifted.space, mu_l, rho_l)


def test_lift_rejects_invalid_opponent(coin_game):
    bad = DistributionST({"w1": (F(1), F(0)), "w2": (F(0), F(0))})
    with pytest.raises(ValueError):
        lift(coin_game, bad)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**63 - 1),
       st.sampled_from([fuzz.FuzzBounds(),
                        fuzz.FuzzBounds(max_outcomes=16, max_grid_points=8,
                                        max_breaks=16, max_denominator=97)]))
def test_lifted_space_is_what_build_space_makes_of_it(seed, bounds):
    # the lift pulls the space back without check_space: rebuilt from its
    # own fields it comes back unchanged (blocks in canonical order), and
    # check_space finds nothing to report
    inst = fuzz.random_instance(np.random.Generator(np.random.PCG64(seed)),
                                bounds)
    game = StoppingGame(inst.space, inst.x, inst.y, inst.z)
    for lift_fn, mu in ((lift, inst.mixed2), (lift_player2, inst.mixed)):
        lifted = lift_fn(game, delta_of_mixed(inst.space, mu)).space
        fields = (lifted.outcomes, lifted.probs, lifted.grid,
                  lifted.partitions)
        assert check_space(*fields) == []
        assert build_space(*fields) == lifted


def test_lift_neither_checks_nor_builds_a_space(monkeypatch, coin_game,
                                                coin_delta):
    def refuse(*args):
        raise AssertionError("the lifted space was checked again")

    for module in (space_module, games):
        for name in ("check_space", "build_space"):
            monkeypatch.setattr(module, name, refuse, raising=False)
    lifted = (lift(coin_game, coin_delta), lift_player2(coin_game, coin_delta))
    monkeypatch.undo()
    for problem in lifted:
        assert len(problem.space.outcomes) == 4
        assert check_space(problem.space.outcomes, problem.space.probs,
                           problem.space.grid, problem.space.partitions) == []


def test_no_game_route_builds_lifted_partitions(monkeypatch, tmp_path,
                                                capsys):
    # the lifted partitions are built on first read, and no game route
    # reads them: not the lift, not the player-2 view, not the CLI, not the
    # campaign's game checks
    built = []
    get = FilteredSpace.__getattr__  # what a read of a field not set calls

    def counted(space, name):
        built.append(name)
        return get(space, name)

    monkeypatch.setattr(FilteredSpace, "__getattr__", counted)
    rng = np.random.Generator(np.random.PCG64(3))
    inst = fuzz.random_instance(rng)
    game = StoppingGame(inst.space, inst.x, inst.y, inst.z)
    game_payoff_via_lift(game, inst.mixed, inst.mixed2)
    game_payoff_player2_view(game, inst.randomized, inst.distribution)
    paths = {k: str(tmp_path / f"{k}.json") for k in
             ("space", "x", "y", "z", "p1", "p2")}
    dump_json(space_to_dict(inst.space), paths["space"])
    for k in ("x", "y", "z"):
        dump_json(process_to_dict(getattr(inst, k)), paths[k])
    dump_json(stopping_time_to_dict(inst.mixed), paths["p1"])
    dump_json(stopping_time_to_dict(inst.mixed2), paths["p2"])
    for route in ("lift", "p2view", "both"):
        assert main(["game", *(f"--{k}={v}" for k, v in paths.items()),
                     "--route", route]) == 0
    capsys.readouterr()
    list(experiment.run_checks(experiment.ExperimentConfig(), inst, rng))
    assert "partitions" not in built
    lifted = lift(game, convert.to_distribution(inst.space, inst.mixed2))
    first = lifted.space.partitions
    assert lifted.space.partitions is first
    assert built.count("partitions") == 1
    assert len(first) == inst.space.n_times


def test_zero_sum_negation_fuzzed():
    rng = np.random.Generator(np.random.PCG64(11))
    for _ in range(20):
        inst = fuzz.random_instance(rng)
        game = StoppingGame(inst.space, inst.x, inst.y, inst.z)
        neg = StoppingGame(
            inst.space,
            AdaptedProcess({w: tuple(-v for v in row)
                            for w, row in inst.x.values.items()}),
            AdaptedProcess({w: tuple(-v for v in row)
                            for w, row in inst.y.values.items()}),
            AdaptedProcess({w: tuple(-v for v in row)
                            for w, row in inst.z.values.items()}))
        val = game_payoff_symmetric(game, inst.mixed, inst.mixed2)
        assert game_payoff_symmetric(neg, inst.mixed, inst.mixed2) == -val
