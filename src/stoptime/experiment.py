"""Fuzzed property campaigns and the Monte Carlo law check.

Every instance gets its own RNG stream derived from (seed, instance id)
by seed-sequence spawn keys, so results do not depend on execution order
or worker count; reports are assembled keyed by instance id and sorted
before serialization.
"""

from __future__ import annotations

import concurrent.futures  # its process pool loads on first use
import io
import math
import os
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain

import numpy as np

from . import convert, demo, fuzz, games, problems, sampling
from .times import (DistributionST, embed_pure, validate,
                    validate_mixed_product, validate_mixed_sections)

CSV_HEADER = "instance,check,status,witness"

# offset so the Monte Carlo stream can never collide with an instance stream
MC_STREAM = 1 << 32


@dataclass(frozen=True)
class ExperimentConfig:
    seed: int = 0
    n_instances: int = 200
    n_samples: int = 100_000
    max_outcomes: int = fuzz.FuzzBounds.max_outcomes
    max_grid_points: int = fuzz.FuzzBounds.max_grid_points
    max_breaks: int = fuzz.FuzzBounds.max_breaks
    max_denominator: int = fuzz.FuzzBounds.max_denominator
    tv_tolerance: float = 0.01
    jobs: int = 1

    def __post_init__(self):
        if self.n_instances < 1 or self.n_samples < 1 or self.jobs < 1:
            raise ValueError("counts must be positive")
        if not 0 < self.tv_tolerance < math.inf:
            raise ValueError("tv_tolerance must be positive and finite")
        self.bounds()  # FuzzBounds rejects bad bounds here, not per instance

    def bounds(self) -> fuzz.FuzzBounds:
        return fuzz.FuzzBounds(
            max_outcomes=self.max_outcomes,
            max_grid_points=self.max_grid_points,
            max_breaks=self.max_breaks,
            max_denominator=self.max_denominator)


@dataclass(frozen=True)
class CheckRow:
    instance: str
    check: str
    status: str  # "pass" | "fail"
    witness: str = ""


@dataclass(frozen=True)
class ExperimentReport:
    rows: tuple
    n_failed: int

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write(CSV_HEADER + "\n")
        for row in self.rows:
            witness = row.witness.replace('"', "'")
            if "," in witness:
                witness = f'"{witness}"'
            out.write(f"{row.instance},{row.check},{row.status},{witness}\n")
        return out.getvalue()

    @property
    def ok(self) -> bool:
        return self.n_failed == 0


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(stream,))))


def _row(results: list, instance: str, check: str, ok: bool, witness: str = ""):
    results.append(CheckRow(instance, check, "pass" if ok else "fail",
                            "" if ok else witness))


def _cdf_matches(cdf_rows: dict, ints: dict) -> bool:
    """The cumulative criterion lambda{r : mu_w(r) <= t_j} == nums[j] / k
    for every ints[w] == (nums, k): each cdf row (cum, d) against it,
    compared as ints by cross-multiplication."""
    return all(len(cum) == len(nums)
               and all(c * k == x * d for c, x in zip(cum, nums))
               for (cum, d), (nums, k) in ((cdf_rows[w], ints[w])
                                           for w in ints))


def check_instance(config: ExperimentConfig, index: int) -> list:
    """Run every exact property on one fuzzed instance."""
    rng = _rng_for(config.seed, index)
    inst = fuzz.random_instance(rng, config.bounds())
    space = inst.space
    name = str(index)
    results: list = []

    # every generated object passes its validator
    kinds = ("pure", "mixed", "randomized", "distribution")
    reports = {k: validate(space, getattr(inst, k)) for k in kinds}
    bad = {k: v for k, v in reports.items() if v}
    _row(results, name, "validators", not bad, f"invalid: {bad}")

    # interval representation from a path: equivalent, matching cumulatives
    mu_from_rho = convert.mixed_of_randomized(space, inst.randomized)
    ok = convert.equivalent(space, inst.randomized, mu_from_rho)
    cdf_ok = _cdf_matches(mu_from_rho.cdf_rows(space.n_times),
                          inst.randomized.rows)
    _row(results, name, "path_to_intervals", ok and cdf_ok,
         f"equivalent={ok} cdf_match={cdf_ok}")

    # joint-mass round trip and uniqueness of the path representation
    rho_back = convert.randomized_of_distribution(space, inst.distribution)
    delta_back = convert.delta_of_randomized(space, rho_back)
    round_ok = delta_back == inst.distribution
    unique_ok = rho_back == inst.randomized
    _row(results, name, "mass_round_trip", round_ok and unique_ok,
         f"round={round_ok} unique={unique_ok}")

    # cumulative densities of the pushed-forward mass match the sections
    delta1 = convert.delta_of_mixed(space, inst.mixed)
    dens_ok = _cdf_matches(inst.mixed.cdf_rows(space.n_times),
                           convert.randomized_of_distribution(space, delta1).rows)
    _row(results, name, "density_vs_cdf", dens_ok, "densities differ")

    # one payoff per equivalence class, through all routes
    problem = problems.StoppingProblem(space, inst.reward)
    vals = {
        "mixed": problems.payoff_mixed(problem, inst.mixed),
        "randomized": problems.payoff_randomized(problem, inst.randomized),
        "distribution": problems.payoff_distribution(problem, inst.distribution),
    }
    pay_ok = len(set(vals.values())) == 1
    pure_val = problems.payoff_pure(problem, inst.pure)
    embedded = embed_pure(inst.pure)
    emb_val = problems.payoff_mixed(problem, embedded)
    pure_ok = pure_val == emb_val
    _row(results, name, "payoff_invariance", pay_ok and pure_ok,
         f"values={[str(v) for v in vals.values()]} "
         f"pure={pure_val} embedded={emb_val}")

    # the two mixed validators agree, on valid times and on a mutated instance
    agree_valid = all(
        bool(validate_mixed_sections(space, mu)) == bool(product)
        for mu, product in ((inst.mixed, reports["mixed"]),
                            (embedded, validate_mixed_product(space, embedded))))
    mutated, mspace = _mutated_mixed(config, rng, inst)
    sec = validate_mixed_sections(mspace, mutated)
    prod = validate_mixed_product(mspace, mutated)
    agree_mut = bool(sec) == bool(prod) and bool(sec)
    _row(results, name, "mixed_validators_agree", agree_valid and agree_mut,
         f"valid_agree={agree_valid} mutated: sections={bool(sec)} "
         f"product={bool(prod)}")

    results.extend(_game_checks(name, inst, delta1))
    return results


def _mutated_mixed(config, rng, inst):
    """A guaranteed-invalid interval representation; drawn on a fresh
    coarse space when the instance's own space has no shared block."""
    mutated = fuzz.corrupt_mixed(inst.space, inst.mixed)
    if mutated is not None:
        return mutated, inst.space
    outcomes = max(2, min(config.max_outcomes, fuzz.MAX_CELLS // 2))
    bounds = replace(config.bounds(), max_outcomes=outcomes,
                     max_grid_points=max(2, min(config.max_grid_points,
                                                fuzz.MAX_CELLS // outcomes)))
    space = fuzz.random_space(rng, bounds, min_outcomes=2)
    rho = fuzz.random_randomized(rng, space, bounds)
    mu = convert.mixed_of_randomized(space, rho)
    return fuzz.corrupt_mixed(space, mu), space


def _game_checks(name: str, inst: fuzz.Instance,
                 delta1: DistributionST) -> list:
    space = inst.space
    results: list = []
    game = games.StoppingGame(space, inst.x, inst.y, inst.z)
    delta2 = convert.delta_of_mixed(space, inst.mixed2)
    lifted = games.lift(game, delta2)

    # both evaluation routes and both perspectives give one value
    via_lift = games.payoff_on_lift(lifted, delta1)
    symmetric = games.game_payoff_symmetric(game, inst.mixed, inst.mixed2)
    p2view = games.game_payoff_player2_view(game, delta1, delta2)
    _row(results, name, "game_routes_agree",
         via_lift == symmetric == p2view,
         f"lift={via_lift} symmetric={symmetric} p2view={p2view}")

    # equivalent strategies of Player 1 cannot change the payoff: each
    # kind's own payoff route on the same lifted problem, and the lift route;
    # the distribution entry reuses via_lift when its rows equal delta1's
    mu_l = games.lift_mixed(inst.mixed, lifted.space)
    rho_l = games.lift_randomized(inst.randomized, lifted.space)
    vals = (problems.payoff_mixed(lifted.problem, mu_l),
            problems.payoff_randomized(lifted.problem, rho_l),
            via_lift if inst.distribution == delta1
            else games.payoff_on_lift(lifted, inst.distribution))
    _row(results, name, "game_strategy_equivalence",
         vals[0] == vals[1] == vals[2] == via_lift,
         "mixed={} randomized={} distribution={} lift={}".format(
             *vals, via_lift))

    # lifting preserves equivalence of the base pair, by joint mass and by
    # the cumulative criterion (cdf rows against paths)
    cdf_ok = _cdf_matches(mu_l.cdf_rows(space.n_times), rho_l.rows)
    _row(results, name, "lift_preserves_equivalence",
         convert.equivalent(lifted.space, mu_l, rho_l) and cdf_ok,
         f"lifted pair not equivalent (cdf_match={cdf_ok})")

    # zero-sum sanity: negating all payoff tables negates the value
    neg = games.StoppingGame(space, *(
        games.AdaptedProcess.from_rows({w: ([-n for n in nums], d)
                                        for w, (nums, d) in p.rows.items()})
        for p in (inst.x, inst.y, inst.z)))
    neg_val = games.game_payoff_symmetric(neg, inst.mixed, inst.mixed2)
    _row(results, name, "zero_sum_negation", neg_val == -symmetric,
         f"negated={neg_val} original={symmetric}")
    return results


def monte_carlo_rows(config: ExperimentConfig) -> list:
    """Sample the three representations of the uniform two-state stop law
    and compare each table of draw counts to the exact one."""
    space = demo.coin_space()
    reference = demo.coin_uniform_delta()
    stoppers = {
        "mc_mixed": demo.coin_mixed(),
        "mc_randomized": demo.coin_randomized(),
        "mc_distribution": reference,
    }
    results: list = []
    for i, (label, eta) in enumerate(sorted(stoppers.items())):
        rng = _rng_for(config.seed, MC_STREAM + i)
        counts = sampling.sample_counts(space, eta, rng, config.n_samples)
        _, tv = sampling.frequencies(space, counts, reference)
        _row(results, label, "tv_within_tolerance", tv <= config.tv_tolerance,
             f"tv={tv:.6f} tolerance={config.tv_tolerance}")
    return results


def run_experiment(config: ExperimentConfig) -> ExperimentReport:
    # bound per call: a check_instance replaced at run time is the one used
    check = partial(check_instance, config)
    indices = range(config.n_instances)
    # no more workers than instances or cores: the pool starts them all
    workers = min(config.jobs, config.n_instances, os.cpu_count() or 1)
    if workers == 1:
        rows = list(chain.from_iterable(map(check, indices)))
    else:  # pool.map, like map, keeps instance order
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            rows = list(chain.from_iterable(pool.map(check, indices)))
    rows.extend(monte_carlo_rows(config))
    rows.sort(key=lambda r: (_instance_key(r.instance), r.check))
    n_failed = sum(1 for r in rows if r.status != "pass")
    return ExperimentReport(tuple(rows), n_failed)


def _instance_key(instance: str):
    return (0, int(instance), "") if instance.isdigit() else (1, 0, instance)
