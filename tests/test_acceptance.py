"""Acceptance suite: one criterion per test, one printed pass/fail line.

Exact criteria run over 200 seed-fixed fuzzed instances (outcomes <= 8,
grid <= 6 points, interval breaks <= 8) with zero tolerance; the Monte
Carlo criterion is statistical with a fixed seed and TV tolerance 0.01.
"""

import time
from fractions import Fraction
from pathlib import Path

import pytest

from stoptime import (cdf_of_mixed, delta_of_mixed, delta_of_randomized,
                      embed_pure, equivalent, game_payoff_player2_view,
                      game_payoff_symmetric, game_payoff_via_lift,
                      mixed_of_randomized, randomized_of_distribution,
                      validate_mixed_product, validate_mixed_sections)
from stoptime import convert, demo, fuzz, games, problems
from stoptime.cli import main
from stoptime.experiment import (ExperimentConfig, _mutated_mixed, _rng_for,
                                 monte_carlo_rows)

F = Fraction
SEED = 7
N_INSTANCES = 200


def report(criterion: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'}: {criterion}")
    assert ok, criterion


@pytest.fixture(scope="module")
def instances():
    config = ExperimentConfig(seed=SEED, n_instances=N_INSTANCES)
    out = []
    for i in range(N_INSTANCES):
        rng = _rng_for(SEED, i)
        out.append((fuzz.random_instance(rng, config.bounds()), rng, config))
    return out


def test_criterion_1_two_interval_representations_of_one_law():
    space = demo.coin_space()
    mu, mu_tilde = demo.coin_mixed(), demo.coin_mixed_flipped()
    uniform = demo.coin_uniform_delta()
    ok = (delta_of_mixed(space, mu) == uniform
          and delta_of_mixed(space, mu_tilde) == uniform
          and equivalent(space, mu, mu_tilde)
          and mu.canonical() != mu_tilde.canonical())
    report("1 two-state example: same stop law, different canonical forms", ok)


def test_criterion_2_path_to_interval_conversion(instances):
    ok = True
    for inst, _, _ in instances:
        space, rho = inst.space, inst.randomized
        mu = mixed_of_randomized(space, rho)
        ok = ok and equivalent(space, rho, mu)
        ok = ok and all(
            cdf_of_mixed(space, mu, w, j) == rho.paths[w][j]
            for w in space.outcomes for j in range(space.n_times))
        if not ok:
            break
    report("2 interval representation of every path: equivalent, "
           "matching cumulatives (200 instances, exact)", ok)


def test_criterion_3_mass_round_trip_and_uniqueness(instances):
    ok = True
    for inst, _, _ in instances:
        space, delta = inst.space, inst.distribution
        rho = randomized_of_distribution(space, delta)
        ok = ok and delta_of_randomized(space, rho) == delta
        # equal induced mass forces equal paths
        ok = ok and all(rho.paths[w] == inst.randomized.paths[w]
                        for w in space.outcomes)
        if not ok:
            break
    report("3 mass round trip exact; path representation unique "
           "(200 instances, exact)", ok)


def test_criterion_4_payoff_routes_identical(instances):
    ok = True
    for inst, _, _ in instances:
        problem = problems.StoppingProblem(inst.space, inst.reward)
        vals = {problems.payoff_mixed(problem, inst.mixed),
                problems.payoff_randomized(problem, inst.randomized),
                problems.payoff_distribution(problem, inst.distribution)}
        ok = ok and len(vals) == 1
        sigma = inst.pure
        emb = embed_pure(sigma)
        pure_vals = {
            problems.payoff_pure(problem, sigma),
            problems.payoff_mixed(problem, emb),
            problems.payoff_randomized(
                problem, randomized_of_distribution(
                    inst.space, delta_of_mixed(inst.space, emb))),
            problems.payoff_distribution(
                problem, delta_of_mixed(inst.space, emb)),
        }
        ok = ok and len(pure_vals) == 1
        if not ok:
            break
    report("4 one payoff per equivalence class across all routes "
           "(200 instances, exact)", ok)


def test_criterion_5_game_routes_and_lifting(instances):
    ok = True
    for inst, _, _ in instances:
        space = inst.space
        game = games.StoppingGame(space, inst.x, inst.y, inst.z)
        delta1 = delta_of_mixed(space, inst.mixed)
        delta2 = delta_of_mixed(space, inst.mixed2)
        via_lift = game_payoff_via_lift(game, inst.mixed, delta2)
        symmetric = game_payoff_symmetric(game, inst.mixed, inst.mixed2)
        p2view = game_payoff_player2_view(game, delta1, inst.mixed2)
        ok = ok and via_lift == symmetric == p2view
        lifted = games.lift(game, delta2)
        ok = ok and equivalent(
            lifted.space,
            games.lift_mixed(inst.mixed, lifted.space),
            games.lift_randomized(inst.randomized, lifted.space))
        if not ok:
            break
    report("5 game payoff equal via lift, symmetric formula, and the other "
           "player's view; lifting preserves equivalence (200 games, exact)",
           ok)


def test_criterion_6_monte_carlo_law_check():
    config = ExperimentConfig(seed=0, n_samples=100_000, tv_tolerance=0.01)
    start = time.time()
    rows_a = monte_carlo_rows(config)
    rows_b = monte_carlo_rows(config)
    elapsed = time.time() - start
    ok = (len(rows_a) == 3
          and all(r.status == "pass" for r in rows_a)
          and rows_a == rows_b          # deterministic under the default seed
          and elapsed <= 5.0)
    report(f"6 Monte Carlo: 1e5 samples of each representation within "
           f"TV 0.01 of the exact law, deterministic, {elapsed:.2f}s", ok)


def test_criterion_7_mixed_validator_agreement(instances):
    ok = True
    n_mutated = 0
    for inst, rng, config in instances:
        space, mu = inst.space, inst.mixed
        ok = ok and (bool(validate_mixed_sections(space, mu))
                     == bool(validate_mixed_product(space, mu)))
        mutated, mspace = _mutated_mixed(config, rng, inst)
        sec = bool(validate_mixed_sections(mspace, mutated))
        prod = bool(validate_mixed_product(mspace, mutated))
        ok = ok and sec == prod and sec
        n_mutated += 1
        if not ok:
            break
    ok = ok and n_mutated == N_INSTANCES
    report("7 section-wise and product-measurability validators agree on "
           "200 valid and 200 mutated-invalid instances", ok)


def test_criterion_8_fuzz_reports_byte_identical(tmp_path):
    args = ["fuzz", "--instances", str(N_INSTANCES), "--seed", str(SEED)]
    paths = [str(tmp_path / f"report{i}.csv") for i in range(3)]
    codes = [
        main(args + ["-o", paths[0]]),
        main(args + ["-o", paths[1]]),
        main(args + ["--jobs", "4", "-o", paths[2]]),
    ]
    blobs = [Path(p).read_bytes() for p in paths]
    ok = (codes == [0, 0, 0] and blobs[0] == blobs[1] == blobs[2]
          and len(blobs[0]) > 0)
    report("8 repeated fuzz campaigns byte-identical, sequential and "
           "parallel", ok)
