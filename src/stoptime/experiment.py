"""Fuzzed property campaigns and the Monte Carlo law check.

Every instance gets its own RNG stream derived from (seed, instance id)
by seed-sequence spawn keys, so results do not depend on execution order
or worker count; reports are assembled keyed by instance id and sorted
before serialization.  draw(config, index) is an instance with its
stream, run_checks(config, inst, rng) runs the exact checks on any
instance, and check_instance(config, index) is the two composed.  The
cumulative criterion rows compare a mixed time's cumulative, a
RandomizedST, with a path by ==.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from functools import partial
from itertools import chain

import numpy as np

from . import convert, demo, fuzz, games, problems, sampling
from .config import MAX_CELLS, ExperimentConfig, FuzzBounds
from .space import AdaptedProcess
from .times import (embed_pure, validate, validate_mixed_product,
                    validate_mixed_sections)

CSV_HEADER = "instance,check,status,witness"

# offset so the Monte Carlo stream can never collide with an instance stream
MC_STREAM = 1 << 32


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


def _rng_for(seed: int, *stream: int) -> np.random.Generator:
    """The campaign's seed rule; `stoptime sample` draws with no stream."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=stream)))


def draw(config: ExperimentConfig, index: int):
    """Instance `index` of the campaign and the stream it was drawn from,
    which run_checks reads on."""
    rng = _rng_for(config.seed, index)
    return fuzz.random_instance(rng, config.bounds()), rng


def check_instance(config: ExperimentConfig, index: int) -> list:
    """Run every exact property on one fuzzed instance."""
    return [CheckRow(str(index), check, "pass" if ok else "fail",
                     "" if ok else witness())
            for check, ok, witness in run_checks(config, *draw(config, index))]


def run_checks(config: ExperimentConfig, inst: fuzz.Instance, rng):
    """Yield (check, ok, witness) per exact property of inst, in report
    order; witness() builds the failure text, and builds the same text
    after later checks.  Only the mutated mixed time reads on from rng."""
    space = inst.space

    # every generated object passes its validator
    kinds = ("pure", "mixed", "randomized", "distribution")
    reports = {k: validate(space, getattr(inst, k)) for k in kinds}
    bad = {k: v for k, v in reports.items() if v}
    yield "validators", not bad, lambda: f"invalid: {bad}"

    # interval representation from a path: equivalent, matching cumulatives
    mu_from_rho = convert.mixed_of_randomized(space, inst.randomized)
    ok = convert.equivalent(space, inst.randomized, mu_from_rho)
    cdf_ok = mu_from_rho.cumulative(space.n_times) == inst.randomized
    yield ("path_to_intervals", ok and cdf_ok,
           lambda: f"equivalent={ok} cdf_match={cdf_ok}")

    # joint-mass round trip and uniqueness of the path representation
    rho_back = convert.randomized_of_distribution(space, inst.distribution)
    delta_back = convert.delta_of_randomized(space, rho_back)
    round_ok = delta_back == inst.distribution
    unique_ok = rho_back == inst.randomized
    yield ("mass_round_trip", round_ok and unique_ok,
           lambda: f"round={round_ok} unique={unique_ok}")

    # cumulative densities of the pushed-forward mass match the sections
    delta1 = convert.delta_of_mixed(space, inst.mixed)
    dens_ok = (inst.mixed.cumulative(space.n_times)
               == convert.randomized_of_distribution(space, delta1))
    yield "density_vs_cdf", dens_ok, lambda: "densities differ"

    # one payoff per equivalence class, through all routes
    problem = problems.StoppingProblem(space, inst.reward)
    pays = (problems.payoff_mixed(problem, inst.mixed),
            problems.payoff_randomized(problem, inst.randomized),
            problems.payoff_distribution(problem, inst.distribution))
    pay_ok = len(set(pays)) == 1
    pure_val = problems.payoff_pure(problem, inst.pure)
    embedded = embed_pure(inst.pure)
    emb_val = problems.payoff_mixed(problem, embedded)
    pure_ok = pure_val == emb_val
    yield ("payoff_invariance", pay_ok and pure_ok,
           lambda: f"values={[str(v) for v in pays]} "
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
    yield ("mixed_validators_agree", agree_valid and agree_mut,
           lambda: f"valid_agree={agree_valid} "
           f"mutated: sections={bool(sec)} product={bool(prod)}")

    game = games.StoppingGame(space, inst.x, inst.y, inst.z)
    delta2 = convert.delta_of_mixed(space, inst.mixed2)
    lifted = games.lift(game, delta2)

    # both evaluation routes and both perspectives give one value
    via_lift = games.payoff_on_lift(space, lifted, delta1)
    symmetric = games.game_payoff_symmetric(game, delta1, delta2)
    p2view = games.game_payoff_player2_view(game, delta1, delta2)
    yield ("game_routes_agree", via_lift == symmetric == p2view,
           lambda: f"lift={via_lift} symmetric={symmetric} p2view={p2view}")

    # equivalent strategies of Player 1 cannot change the payoff: each
    # kind's own payoff route on the same lifted problem, and the lift route;
    # the distribution entry prices a lifted mass, which no game route builds
    mu_l = games.lift_mixed(inst.mixed, lifted.space)
    rho_l = games.lift_randomized(inst.randomized, lifted.space)
    lift_vals = (problems.payoff_mixed(lifted, mu_l),
                 problems.payoff_randomized(lifted, rho_l),
                 problems.payoff_distribution(lifted, games.lift_distribution(
                     inst.distribution, space, lifted.space)))
    yield ("game_strategy_equivalence",
           lift_vals[0] == lift_vals[1] == lift_vals[2] == via_lift,
           lambda: "mixed={} randomized={} distribution={} lift={}".format(
               *lift_vals, via_lift))

    # lifting preserves equivalence of the base pair, by joint mass and by
    # the cumulative criterion (the sections' cumulative is the path)
    lift_cdf_ok = mu_l.cumulative(space.n_times) == rho_l
    yield ("lift_preserves_equivalence",
           convert.equivalent(lifted.space, mu_l, rho_l) and lift_cdf_ok,
           lambda: f"lifted pair not equivalent (cdf_match={lift_cdf_ok})")

    # zero-sum sanity: negating all payoff tables negates the value
    neg = games.StoppingGame(space, *(
        AdaptedProcess._of_canonical({
            w: (tuple([-n for n in nums]), d) for w, (nums, d) in p.rows.items()})
        for p in (inst.x, inst.y, inst.z)))
    neg_val = games.game_payoff_symmetric(neg, delta1, delta2)
    yield ("zero_sum_negation", neg_val == -symmetric,
           lambda: f"negated={neg_val} original={symmetric}")


def _mutated_mixed(config, rng, inst):
    """A guaranteed-invalid interval representation; drawn on a fresh
    coarse space when the instance's own space has no shared block."""
    mutated = fuzz.corrupt_mixed(inst.space, inst.mixed)
    if mutated is not None:
        return mutated, inst.space
    outcomes = max(2, min(config.max_outcomes, MAX_CELLS // 2))
    bounds = FuzzBounds(outcomes, max(2, min(config.max_grid_points,
                                             MAX_CELLS // outcomes)),
                        config.max_breaks, config.max_denominator)
    space = fuzz.random_space(rng, bounds, min_outcomes=2)
    rho = fuzz.random_randomized(rng, space, bounds)
    mu = convert.mixed_of_randomized(space, rho)
    return fuzz.corrupt_mixed(space, mu), space


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
        ok = tv <= config.tv_tolerance
        witness = "" if ok else f"tv={tv:.6f} tolerance={config.tv_tolerance}"
        results.append(CheckRow(label, "tv_within_tolerance",
                                "pass" if ok else "fail", witness))
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
        import concurrent.futures  # only a campaign with a pool loads it
        with concurrent.futures.ProcessPoolExecutor(workers) as pool:
            rows = list(chain.from_iterable(pool.map(check, indices)))
    rows.extend(monte_carlo_rows(config))
    rows.sort(key=lambda r: (_instance_key(r.instance), r.check))
    n_failed = sum(1 for r in rows if r.status != "pass")
    return ExperimentReport(tuple(rows), n_failed)


def _instance_key(instance: str):
    return (0, int(instance), "") if instance.isdigit() else (1, 0, instance)
