import concurrent.futures
import dataclasses
import hashlib
import tracemalloc
import types
from collections import Counter
from fractions import Fraction

import pytest

from stoptime import build_space, convert, experiment, fuzz, games, times
from stoptime.config import MAX_CELLS
from stoptime.experiment import (CheckRow, ExperimentConfig, ExperimentReport,
                                 _rng_for, check_instance, draw,
                                 monte_carlo_rows, run_checks, run_experiment)
from stoptime.space import AdaptedProcess
from stoptime.times import DistributionST, RandomizedST


def _first_instance(config, accept):
    """(index, instance) of the first fuzzed instance that passes accept."""
    for index in range(200):
        inst, _ = draw(config, index)
        if accept(inst):
            return index, inst
    raise AssertionError("no such instance in the first 200")


def _status(rows, check):
    return next(r.status for r in rows if r.check == check)


def test_small_campaign_all_pass():
    report = run_experiment(ExperimentConfig(seed=3, n_instances=10,
                                             n_samples=5000,
                                             tv_tolerance=0.05))
    assert report.ok
    checks = {r.check for r in report.rows}
    assert {"validators", "path_to_intervals", "mass_round_trip",
            "density_vs_cdf", "payoff_invariance", "mixed_validators_agree",
            "game_routes_agree", "game_strategy_equivalence",
            "lift_preserves_equivalence", "zero_sum_negation",
            "tv_within_tolerance"} <= checks


def test_repeat_runs_are_byte_identical():
    config = ExperimentConfig(seed=9, n_instances=6, n_samples=2000,
                              tv_tolerance=0.05)
    a = run_experiment(config).to_csv()
    b = run_experiment(config).to_csv()
    assert a == b


def test_instance_stream_is_order_independent():
    config = ExperimentConfig(seed=9, n_instances=4, n_samples=2000,
                              tv_tolerance=0.05)
    rows_3 = check_instance(config, 3)
    # computing instance 3 alone must match its rows in the full run
    full = [r for r in run_experiment(config).rows if r.instance == "3"]
    assert sorted(rows_3, key=lambda r: r.check) == full


def test_monte_carlo_rows_pass_at_default_size():
    rows = monte_carlo_rows(
        ExperimentConfig(seed=0, n_samples=20_000, tv_tolerance=0.02))
    assert len(rows) == 3
    assert all(r.status == "pass" for r in rows)


def test_monte_carlo_rows_draw_in_a_small_working_set():
    # the coin's 10**5 draws per row come in 2**14-draw chunks: 2**16-draw
    # chunks traced a 3.3 MiB peak here
    monte_carlo_rows(ExperimentConfig(seed=7, n_samples=1))  # lazy imports
    tracemalloc.start()
    try:
        rows = monte_carlo_rows(ExperimentConfig(seed=7))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.status for r in rows] == ["pass"] * 3
    assert peak < 1.5 * 2**20


def test_monte_carlo_rows_tally_counts_not_records(monkeypatch):
    # the rows once drew one SampleRecord per draw; their TVs must stay the
    # record path's floats, bit for bit
    from stoptime import demo, sampling

    space, reference = demo.coin_space(), demo.coin_uniform_delta()
    # in the rows' label order: mc_distribution, mc_mixed, mc_randomized
    stoppers = (reference, demo.coin_mixed(), demo.coin_randomized())
    configs = [ExperimentConfig(seed=seed, n_samples=20_000)
               for seed in range(5)]
    expected = [sampling.empirical_delta(space, sampling.sample_many(
        space, eta, _rng_for(config.seed, experiment.MC_STREAM + i),
        config.n_samples), reference)[1]
        for config in configs for i, eta in enumerate(stoppers)]

    def no_records(*args):
        raise AssertionError("monte_carlo_rows drew SampleRecords")

    tvs = []
    honest = sampling.frequencies

    def spy(*args):
        freq, tv = honest(*args)
        tvs.append(tv)
        return freq, tv

    monkeypatch.setattr(sampling, "sample_many", no_records)
    monkeypatch.setattr(sampling, "frequencies", spy)
    for config in configs:
        assert len(monte_carlo_rows(config)) == 3
    assert tvs == expected


def test_failure_is_reported_with_witness():
    report = ExperimentReport(
        (CheckRow("0", "demo", "fail", "expected 1, got 2"),), 1)
    assert not report.ok
    assert "expected 1" in report.to_csv()


def test_planted_failures_keep_their_witness_text(monkeypatch):
    # witnesses are built only for failing rows; the text of a failing
    # row, exact or Monte Carlo, is what it was when every row built one
    honest = games.game_payoff_player2_view
    monkeypatch.setattr(games, "game_payoff_player2_view",
                        lambda *args: honest(*args) + 1)
    rows = check_instance(ExperimentConfig(seed=7), 1)
    assert [(r.check, r.witness) for r in rows if r.status == "fail"] == [
        ("game_routes_agree",
         "lift=-541/182 symmetric=-541/182 p2view=-359/182")]
    assert all(r.witness == "" for r in rows if r.status == "pass")
    mc = monte_carlo_rows(ExperimentConfig(seed=7, n_samples=1000,
                                           tv_tolerance=1e-9))
    assert [(r.instance, r.status, r.witness) for r in mc] == [
        ("mc_distribution", "fail", "tv=0.032000 tolerance=1e-09"),
        ("mc_mixed", "fail", "tv=0.015000 tolerance=1e-09"),
        ("mc_randomized", "fail", "tv=0.023000 tolerance=1e-09")]


def test_config_rejects_bad_values():
    with pytest.raises(ValueError):
        ExperimentConfig(n_instances=0)
    with pytest.raises(ValueError):
        ExperimentConfig(tv_tolerance=0.0)


@pytest.mark.parametrize("field, value", [
    ("max_outcomes", 0), ("max_grid_points", 0), ("max_breaks", -1),
    ("max_denominator", 0), ("tv_tolerance", float("nan")),
    ("tv_tolerance", float("inf"))])
def test_config_rejects_bad_bounds_when_built(field, value):
    # bad fuzz bounds once surfaced only inside check_instance, and a NaN
    # tolerance failed every Monte Carlo row instead of the input
    with pytest.raises(ValueError):
        ExperimentConfig(**{field: value})


def test_config_caps_outcomes_times_grid_points():
    # an uncapped bound let one instance grow until memory ran out
    ExperimentConfig(max_outcomes=128, max_grid_points=32)
    ExperimentConfig(max_outcomes=1, max_grid_points=MAX_CELLS)
    for outcomes, points in ((129, 32), (128, 33), (100_000_000, 6)):
        with pytest.raises(ValueError, match="max_outcomes"):
            ExperimentConfig(max_outcomes=outcomes, max_grid_points=points)


def test_config_rejects_a_max_denominator_numpy_cannot_draw():
    # numpy draws int64: a larger bound once died inside rng.integers
    for build in (fuzz.FuzzBounds, ExperimentConfig):
        build(max_denominator=2**63 - 1)
        with pytest.raises(ValueError, match="max_denominator"):
            build(max_denominator=2**63)


def test_campaign_at_the_largest_max_denominator_passes():
    report = run_experiment(ExperimentConfig(
        n_instances=2, n_samples=1000, tv_tolerance=1.0,
        max_denominator=2**63 - 1))
    assert report.ok
    assert {row.instance for row in report.rows} >= {"0", "1"}
    assert all(row.status == "pass" for row in report.rows)


def test_mutated_bounds_stay_under_the_cap():
    # the mutated time is drawn on at least two outcomes and two grid
    # points, which must not push an accepted bound over the cap; a
    # single-outcome bound gives exactly two outcomes, a single-point
    # bound exactly two grid points
    space = build_space(("w",), (1,), (0, 1), ([{"w"}], [{"w"}]))
    inst = types.SimpleNamespace(
        space=space, mixed=times.embed_pure(times.PureST({"w": 0})))
    for outcomes, points in ((1, MAX_CELLS), (2049, 1), (4096, 1)):
        config = ExperimentConfig(max_outcomes=outcomes,
                                  max_grid_points=points)
        mutated, mspace = experiment._mutated_mixed(config, _rng_for(0, 0),
                                                    inst)
        n = len(mspace.outcomes)
        assert n == 2 if outcomes == 1 else n >= 2
        assert mspace.n_times == 2 if points == 1 else mspace.n_times >= 2
        assert n * mspace.n_times <= MAX_CELLS
        assert times.validate_mixed_sections(mspace, mutated)


def test_single_outcome_bound_campaign_passes():
    # the mutated-mixed check needs two outcomes; a bound of one must not crash
    report = run_experiment(ExperimentConfig(max_outcomes=1, n_instances=20,
                                             n_samples=1000,
                                             tv_tolerance=0.05))
    assert report.ok
    assert len({r.instance for r in report.rows}) == 20 + 3


def test_density_vs_cdf_fails_on_moved_mass(monkeypatch):
    # one outcome: every block is a singleton, so the moved mass stays a
    # valid stop law and only the density identity can catch it
    config = ExperimentConfig(seed=2, max_outcomes=1)
    index, _ = _first_instance(config, lambda i: i.space.n_times >= 2)
    assert _status(check_instance(config, index), "density_vs_cdf") == "pass"

    def moved(space, mu):
        delta = convert.delta_of_mixed(space, mu)
        w = space.outcomes[0]
        row = list(delta.mass[w])
        j = next(j for j, m in enumerate(row) if m > 0)
        k = (j + 1) % len(row)
        row[k], row[j] = row[k] + row[j], Fraction(0)
        return DistributionST({**delta.mass, w: tuple(row)})

    planted = types.SimpleNamespace(**vars(convert))
    planted.delta_of_mixed = moved
    monkeypatch.setattr(experiment, "convert", planted)
    assert _status(check_instance(config, index), "density_vs_cdf") == "fail"


def test_check_instance_prefix_work_is_linear(monkeypatch):
    # the density check once took one sub_measure per (outcome, time) pair
    config = ExperimentConfig(seed=5, max_outcomes=24, max_grid_points=8)
    index, inst = _first_instance(
        config, lambda i: len(i.space.outcomes) >= 16 and i.space.n_times >= 4)
    calls = []
    honest = times.sub_measure

    def counted(*args, **kwargs):
        calls.append(args[2] if len(args) > 2 else kwargs["grid_index"])
        return honest(*args, **kwargs)

    monkeypatch.setattr(times, "sub_measure", counted)
    rows = check_instance(config, index)
    assert all(r.status == "pass" for r in rows)
    assert calls == []  # the densities table is read once instead


def test_check_instance_builds_no_process_view(monkeypatch):
    # the payoff routes, the lifts and the zero-sum game once read the
    # reward and game tables as Fractions; they read the int rows now
    config = ExperimentConfig(seed=5, max_outcomes=24, max_grid_points=8)
    index, inst = _first_instance(
        config, lambda i: len(i.space.outcomes) >= 16 and i.space.n_times >= 4)
    reads = []
    values = AdaptedProcess.values

    def counted_values(self):
        reads.append("values")
        return values.fget(self)

    monkeypatch.setattr(AdaptedProcess, "values", property(counted_values))
    rows = check_instance(config, index)
    assert all(r.status == "pass" for r in rows)
    assert reads == []
    assert inst.reward.values and reads == ["values"]


def test_lift_check_compares_cumulatives_exactly(monkeypatch):
    # with the joint-mass test forced to agree, the int cumulative
    # criterion alone must see one lifted path moved to stop at time 0
    config = ExperimentConfig(seed=5)
    index, _ = _first_instance(
        config, lambda i: i.space.n_times >= 2
        and any(p[0] < 1 for p in i.randomized.paths.values()))
    assert _status(check_instance(config, index),
                   "lift_preserves_equivalence") == "pass"

    def moved(rho, lifted_space):
        paths = dict(games.lift_randomized(rho, lifted_space).paths)
        a = next(a for a, p in paths.items() if p[0] < 1)
        paths[a] = (Fraction(1),) * len(paths[a])
        return RandomizedST(paths)

    planted_games = types.SimpleNamespace(**vars(games))
    planted_games.lift_randomized = moved
    planted_convert = types.SimpleNamespace(**vars(convert))
    planted_convert.equivalent = lambda space, a, b: True
    monkeypatch.setattr(experiment, "games", planted_games)
    monkeypatch.setattr(experiment, "convert", planted_convert)
    assert _status(check_instance(config, index),
                   "lift_preserves_equivalence") == "fail"


def test_a_wrong_cumulative_row_fails_every_cdf_check(monkeypatch):
    # the three rows compare the sections' cumulative path with ==: a path
    # planted 1/d off at its end fails each of them
    config = ExperimentConfig(seed=5)
    checks = ("path_to_intervals", "density_vs_cdf",
              "lift_preserves_equivalence")
    rows = check_instance(config, 0)
    assert [_status(rows, c) for c in checks] == ["pass"] * 3
    honest = times.MixedST.cumulative

    def wrong(self, n_times):
        rows = dict(honest(self, n_times).rows)
        w = next(iter(rows))
        nums, d = rows[w]
        rows[w] = (nums[:-1] + (nums[-1] + 1,), d)
        return RandomizedST.from_rows(rows)

    monkeypatch.setattr(times.MixedST, "cumulative", wrong)
    rows = check_instance(config, 0)
    assert [_status(rows, c) for c in checks] == ["fail"] * 3


def test_pool_starts_no_more_workers_than_instances_or_cores(monkeypatch):
    # a fork pool starts every worker on its first submit: --jobs 1000 on
    # a 3-instance campaign once forked 1000 processes
    started = []

    class FakePool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    base = dict(seed=9, n_samples=2000, tv_tolerance=0.05)
    serial = {n: run_experiment(ExperimentConfig(n_instances=n, **base))
              for n in (3, 6)}
    assert started == []
    # (cores, jobs, instances, workers started; None: no pool)
    for cores, jobs, n, workers in ((4, 1000, 3, 3), (4, 1000, 6, 4),
                                    (8, 2, 6, 2), (None, 1000, 6, None),
                                    (1, 64, 6, None), (4, 1, 6, None)):
        monkeypatch.setattr(experiment.os, "cpu_count", lambda: cores)
        started.clear()
        report = run_experiment(ExperimentConfig(n_instances=n, jobs=jobs,
                                                 **base))
        assert started == ([] if workers is None else [workers])
        assert report.to_csv() == serial[n].to_csv()


def test_check_instance_converts_each_mixed_time_once(monkeypatch):
    # check_instance once pushed inst.mixed forward three times and
    # inst.mixed2 twice; the later rows now read the first joint mass
    config = ExperimentConfig(seed=5, max_outcomes=32, max_grid_points=8)
    index, _ = _first_instance(config, lambda i: len(i.space.outcomes) >= 16)
    converted = []  # held, so no id is reused while check_instance runs
    honest = convert.delta_of_mixed

    def counted(space, mu):
        converted.append(mu)
        return honest(space, mu)

    monkeypatch.setattr(convert, "delta_of_mixed", counted)
    rows = check_instance(config, index)
    assert all(r.status == "pass" for r in rows)
    assert len(converted) >= 2
    assert max(Counter(map(id, converted)).values()) == 1


def test_game_checks_lift_once_per_sound_instance(monkeypatch):
    # the lift routes price the lifted player's path and build no lifted
    # mass, so the one built is the oracle entry of game_strategy_equivalence
    config = ExperimentConfig(seed=5, max_outcomes=32, max_grid_points=8)
    index, _ = _first_instance(config, lambda i: len(i.space.outcomes) >= 16)
    lifted = []
    honest = games.lift_distribution

    def counted(*args, **kwargs):
        lifted.append(args[0])
        return honest(*args, **kwargs)

    monkeypatch.setattr(games, "lift_distribution", counted)
    rows = check_instance(config, index)
    assert all(r.status == "pass" for r in rows)
    assert len(lifted) == 1


def test_negated_game_tables_equal_from_rows(monkeypatch):
    # zero_sum_negation negates canonical rows, which stay canonical, and
    # keeps them without a gcd: each table equals from_rows of its rows
    built = []

    class Recorded(games.StoppingGame):
        def __post_init__(self):
            super().__post_init__()
            built.append(self)

    monkeypatch.setattr(games, "StoppingGame", Recorded)
    config = ExperimentConfig(seed=7)
    for index in range(5):
        assert _status(check_instance(config, index),
                       "zero_sum_negation") == "pass"
    monkeypatch.undo()
    # the game, the mirror Player 2's lift builds, then the negation
    assert len(built) == 15
    for game, mirror, neg in zip(built[::3], built[1::3], built[2::3]):
        assert (mirror.x, mirror.y, mirror.z) == (game.y, game.x, game.z)
        for table, negated in ((game.x, neg.x), (game.y, neg.y),
                               (game.z, neg.z)):
            assert negated == AdaptedProcess.from_rows(
                {w: ([-n for n in nums], d)
                 for w, (nums, d) in table.rows.items()})


def _planted_distribution():
    """(config, instance, planted, rng): the first seed-5 instance of 16
    or more outcomes at 32 x 8, its copy with the joint mass doubled, and
    its stream."""
    config = ExperimentConfig(seed=5, max_outcomes=32, max_grid_points=8)
    index, _ = _first_instance(config, lambda i: len(i.space.outcomes) >= 16)
    inst, rng = draw(config, index)
    return config, inst, dataclasses.replace(inst, distribution=DistributionST(
        {w: tuple(2 * m for m in row)
         for w, row in inst.distribution.mass.items()})), rng


def test_game_strategy_equivalence_fails_on_a_planted_distribution():
    # when inst.distribution differs from delta1 it is lifted and priced on
    # its own, so a wrong joint mass still fails the row
    config, inst, planted, rng = _planted_distribution()
    space = inst.space
    lifted = games.lift(games.StoppingGame(space, inst.x, inst.y, inst.z),
                        convert.delta_of_mixed(space, inst.mixed2))
    assert games.payoff_on_lift(space, lifted, inst.distribution) != 0
    verdicts = {check: ok
                for check, ok, _ in run_checks(config, planted, rng)}
    assert not verdicts["game_strategy_equivalence"]
    assert verdicts["game_routes_agree"]


def test_witnesses_called_late_build_the_texts_read_at_once():
    # every check's witness reads one scope: a name bound there twice, as
    # the payoff and the game checks each bound vals, once changed the text
    # of a witness called after the generator had moved on
    config, _, planted, rng = _planted_distribution()
    at_once = [(check, witness())
               for check, ok, witness in run_checks(config, planted, rng)
               if not ok]
    config, _, planted, rng = _planted_distribution()
    late = [(check, witness())
            for check, ok, witness in list(run_checks(config, planted, rng))
            if not ok]
    assert [check for check, _ in at_once] == [
        "validators", "mass_round_trip", "payoff_invariance",
        "game_strategy_equivalence"]
    assert late == at_once


def test_run_experiment_runs_the_check_instance_set_on_the_module(
        monkeypatch):
    # benchmarks/workloads.py times each instance by setting its own
    # check_instance on the module: run_experiment must look it up per run
    seen = []
    honest = experiment.check_instance

    def timed(config, index):
        seen.append(index)
        return honest(config, index)

    monkeypatch.setattr(experiment, "check_instance", timed)
    config = ExperimentConfig(seed=9, n_instances=3, n_samples=2000,
                              tv_tolerance=0.05)
    report = run_experiment(config)
    assert seen == [0, 1, 2]
    assert [r for r in report.rows if r.instance.isdigit()] == sorted(
        (r for i in range(3) for r in honest(config, i)),
        key=lambda r: (int(r.instance), r.check))


# SHA-256 of the seed-7 report below, recorded before the exact core moved
# to integer numerators; any change to a row, witness or ordering shows here.
GOLDEN_SEED_7_SHA256 = (
    "36bf70edbd996f812c83fa2f7862b8a8e1ca77d5e05a83ae1fcb3919196355a1")


def test_golden_csv_seed_7():
    report = run_experiment(ExperimentConfig(seed=7, n_instances=60,
                                             n_samples=1000, tv_tolerance=1.0))
    digest = hashlib.sha256(report.to_csv().encode()).hexdigest()
    assert digest == GOLDEN_SEED_7_SHA256


# SHA-256 of the CSV of a campaign at 32 outcomes, 12 grid points and 16
# breaks, where the seed-7 goldens reach only 8 outcomes.
GOLDEN_SCALED_SHA256 = (
    "719bbd3a573057c73d18f1c43ee47d3d0c10e2eed9544960acd98500774a9778")


def test_golden_csv_scaled_bounds():
    report = run_experiment(ExperimentConfig(
        seed=3, n_instances=40, n_samples=1000, tv_tolerance=1.0,
        max_outcomes=32, max_grid_points=12, max_breaks=16))
    digest = hashlib.sha256(report.to_csv().encode()).hexdigest()
    assert digest == GOLDEN_SCALED_SHA256


def _golden_values(n_instances: int) -> list:
    """Exact values of every route on the first seed-7 instances: each
    kind's joint mass and payoff, every payoff and game route, every
    validator's violations, and seeded sample draws."""
    from stoptime import demo, games, problems, sampling
    from stoptime.convert import to_distribution

    config = ExperimentConfig(seed=7)
    validators = (times.validate_pure, times.validate_mixed,
                  times.validate_mixed_sections, times.validate_mixed_product,
                  times.validate_randomized, times.validate_distribution)
    out = []
    for index in range(n_instances):
        inst, rng = draw(config, index)
        space = inst.space
        kinds = (inst.pure, inst.mixed, inst.randomized, inst.distribution,
                 inst.mixed2, inst.randomized2)
        out.append([to_distribution(space, eta) for eta in kinds])
        problem = problems.StoppingProblem(space, inst.reward)
        out.append([problems.payoff(problem, eta) for eta in kinds])
        out.append([problems.payoff_pure(problem, inst.pure),
                    problems.payoff_mixed(problem, inst.mixed),
                    problems.payoff_randomized(problem, inst.randomized),
                    problems.payoff_distribution(problem, inst.distribution)])
        game = games.StoppingGame(space, inst.x, inst.y, inst.z)
        delta1 = to_distribution(space, inst.mixed)
        delta2 = to_distribution(space, inst.mixed2)
        out.append([games.game_payoff_via_lift(game, eta, delta2)
                    for eta in (inst.mixed, inst.randomized,
                                inst.distribution)])
        out.append(games.game_payoff_symmetric(game, inst.mixed, inst.mixed2))
        out.append(games.game_payoff_player2_view(game, delta1, inst.mixed2))
        mutated, mspace = experiment._mutated_mixed(config, rng, inst)
        for check in validators:
            eta = {times.validate_pure: inst.pure,
                   times.validate_randomized: inst.randomized,
                   times.validate_distribution: inst.distribution}.get(
                       check, inst.mixed)
            out.append(check(space, eta))
        out.append([check(mspace, mutated) for check in validators[1:4]])
    coin = demo.coin_space()
    for i, eta in enumerate((demo.coin_mixed(), demo.coin_randomized(),
                             demo.coin_uniform_delta())):
        out.append(sampling.sample_many(coin, eta, _rng_for(7, i), 50))
    return out


# SHA-256 of the str() of _golden_values(20), recorded before the per-kind
# dispatches and inline cross-checks left the library path.
GOLDEN_VALUES_SEED_7_SHA256 = (
    "19ec26ea7160365bf8989b78b9e87e17421aca4fb3af201e9a9b30348cc8d8d4")


def test_golden_values_seed_7():
    text = "\n".join(str(v) for v in _golden_values(20))
    assert hashlib.sha256(text.encode()).hexdigest() == (
        GOLDEN_VALUES_SEED_7_SHA256)
