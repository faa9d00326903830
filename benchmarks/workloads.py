"""The benchmark's workloads: inputs built from a seed, a timed loop of
ops, and a check on every output.

Each workload has three parts:

* ``build(seed, sizes, work_dir)`` makes the inputs (timed as set-up);
* ``measure(inputs, seconds)`` runs ops until ``seconds`` have passed or
  the inputs run out, and returns a ``Measurement``;
* ``trace_pass(inputs, tracer)`` runs a fixed set of ops, the same on
  every call, for the traced run.

An op fails when it raises or when its output fails the workload's
checks. Checks run outside the timed region and are never skipped.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from stoptime import (cli, convert, experiment, fuzz, games, problems,
                      sampling, serialize, times)

from speed import Speed

# the ten rows check_instance writes for every instance
INSTANCE_CHECKS = frozenset({
    "validators", "path_to_intervals", "mass_round_trip", "density_vs_cdf",
    "payoff_invariance", "mixed_validators_agree", "game_routes_agree",
    "game_strategy_equivalence", "lift_preserves_equivalence",
    "zero_sum_negation"})
MC_ROWS = frozenset({("mc_distribution", "tv_within_tolerance"),
                     ("mc_mixed", "tv_within_tolerance"),
                     ("mc_randomized", "tv_within_tolerance")})

TV_LIMIT = 0.01


@dataclass(frozen=True)
class Sizes:
    """Every size a workload uses; ``SIZES`` holds the benchmark's."""

    seconds: float = 20                 # measured time the pools are sized for
    campaign_instances: int = 200      # fuzz-default: one `stoptime fuzz`
    trace_campaign_instances: int = 40
    large_bounds: tuple = (32, 8, 16)   # outcomes, grid points, breaks
    large_per_second: float = 3.5       # instances built per measured second
    trace_large_instances: int = 4
    sample_outcomes: int = 32
    sample_grid_points: int = 12
    sample_draws: int = 1_000_000
    sample_batches: int = 10
    cli_bounds: tuple = (32, 12, 16)
    cli_instances: int = 64
    cli_requests_per_second: float = 26
    trace_cli_requests: int = 27


SIZES = Sizes()


@dataclass
class Measurement:
    latencies: list = field(default_factory=list)  # reference s, one per op
    attempted: int = 0
    failed: int = 0
    work: int = 0        # units of ops_per_s: instances, draws or requests
    wall: float = 0.0    # reference seconds the work took
    speed: Speed = field(default_factory=Speed)


def stream(seed: int, index: int) -> np.random.Generator:
    """The per-instance stream `experiment` derives from (seed, index)."""
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))))


def sized_indices(seed, bounds, drawn_from, n_outcomes, n_points,
                  count) -> list:
    """The first `count` stream indices whose instance, drawn by
    `fuzz.random_instance(rng, bounds, min_outcomes=drawn_from)`, has
    exactly `n_outcomes` outcomes and `n_points` grid points.

    `fuzz.random_instance` draws its space first and `fuzz.random_space`
    draws the outcome count first, so one integer from a fresh copy of the
    stream predicts the outcome count; replaying `fuzz.random_space` on
    another copy confirms both sizes."""
    found = []
    index = 0
    while len(found) < count:
        predicted = int(stream(seed, index).integers(
            drawn_from, bounds.max_outcomes + 1))
        if predicted == n_outcomes:
            space = fuzz.random_space(stream(seed, index), bounds,
                                      min_outcomes=drawn_from)
            if len(space.outcomes) != predicted:
                raise RuntimeError("fuzz.random_space no longer draws the "
                                   "outcome count first")
            if space.n_times == n_points:
                found.append(index)
        index += 1
    return found


def _report_error(what: str):
    print(f"op failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _rows_by_instance(rows) -> dict:
    out: dict = {}
    for row in rows:
        out.setdefault(row.instance, []).append(row)
    return out


def instance_ok(rows) -> bool:
    """Exactly the ten instance checks, each passing."""
    checks = [r.check for r in rows]
    return (len(checks) == len(INSTANCE_CHECKS)
            and set(checks) == INSTANCE_CHECKS
            and all(r.status == "pass" for r in rows))


# ---------------------------------------------------------------------------
# fuzz-default: `stoptime fuzz` at its defaults, campaign after campaign

def campaign_seed(seed: int, k: int) -> int:
    return seed + k * 1_000_003


class FuzzDefault:
    name = "fuzz-default"

    def bounds(self, sizes):
        c = experiment.ExperimentConfig()
        return {"instances": sizes.campaign_instances,
                "samples": c.n_samples,
                "outcomes": c.max_outcomes, "grid_points": c.max_grid_points,
                "breaks": c.max_breaks, "jobs": 1}

    def build(self, seed, sizes, work_dir):
        return {"seed": seed, "sizes": sizes}

    def _config(self, inputs, k, n_instances):
        return experiment.ExperimentConfig(
            seed=campaign_seed(inputs["seed"], k), n_instances=n_instances,
            jobs=1)

    @staticmethod
    def score(report, n_instances, m: Measurement):
        """Count the instances and the Monte Carlo block of one campaign:
        every row passes and the row set is exactly ids x checks + MC."""
        groups = _rows_by_instance(report.rows)
        ids = {str(i) for i in range(n_instances)}
        for i in ids:
            m.attempted += 1
            m.failed += not instance_ok(groups.pop(i, []))
        mc = [r for rows in groups.values() for r in rows]
        m.attempted += 1
        m.failed += not ({(r.instance, r.check) for r in mc} == MC_ROWS
                         and len(mc) == len(MC_ROWS)
                         and all(r.status == "pass" for r in mc))

    def _campaign(self, config, m: Measurement):
        started = len(m.latencies)
        first = len(m.speed.factors)
        spent = m.speed.spent
        m.speed.factor()
        t0 = time.perf_counter()
        try:
            report = experiment.run_experiment(config)
        except Exception:
            _report_error(f"campaign seed {config.seed}")
            m.attempted += len(m.latencies) - started + 1
            m.failed += 1
            return
        wall = time.perf_counter() - t0 - (m.speed.spent - spent)
        m.speed.factor()
        factors = m.speed.factors[first:]
        m.wall += wall * sum(factors) / len(factors)
        m.work += config.n_instances
        self.score(report, config.n_instances, m)

    def measure(self, inputs, seconds) -> Measurement:
        m = Measurement()
        # the only instrumentation of a timed run: a timer per instance,
        # which also reads the speed between instances
        original = experiment.check_instance

        def timed(config, index):
            rows, elapsed = m.speed.timed(original, config, index)
            m.latencies.append(elapsed)
            return rows

        experiment.check_instance = timed
        try:
            start = time.perf_counter()
            k = 0
            while time.perf_counter() - start < seconds:
                self._campaign(self._config(
                    inputs, k, inputs["sizes"].campaign_instances), m)
                k += 1
        finally:
            experiment.check_instance = original
        return m

    def trace_pass(self, inputs, tracer) -> Measurement:
        m = Measurement()
        self._campaign(self._config(
            inputs, 0, inputs["sizes"].trace_campaign_instances), m)
        return m


# ---------------------------------------------------------------------------
# fuzz-large: the campaign's largest instances, one check_instance per op

class FuzzLarge:
    name = "fuzz-large"

    def bounds(self, sizes):
        o, g, b = sizes.large_bounds
        return {"outcomes": o, "grid_points": g, "breaks": b,
                "sizes": "only instances at the outcome and grid bounds"}

    def build(self, seed, sizes, work_dir):
        o, g, b = sizes.large_bounds
        config = experiment.ExperimentConfig(
            seed=seed, max_outcomes=o, max_grid_points=g, max_breaks=b)
        # pool sized for the measured time at the seed commit's speed
        count = max(sizes.trace_large_instances,
                    math.ceil(sizes.large_per_second * sizes.seconds))
        # check_instance draws from 1 outcome up
        indices = sized_indices(seed, config.bounds(), 1, o, g, count)
        return {"config": config, "indices": indices, "sizes": sizes}

    def _op(self, config, index, m: Measurement):
        m.attempted += 1
        try:
            rows, elapsed = m.speed.timed(experiment.check_instance, config,
                                          index)
        except Exception:
            _report_error(f"instance {index}")
            m.failed += 1
            return
        m.latencies.append(elapsed)
        m.wall += elapsed
        m.work += 1
        m.failed += not (instance_ok(rows)
                         and all(r.instance == str(index) for r in rows))

    def measure(self, inputs, seconds) -> Measurement:
        m = Measurement()
        start = time.perf_counter()
        for index in inputs["indices"]:
            if time.perf_counter() - start >= seconds:
                break
            self._op(inputs["config"], index, m)
        return m

    def trace_pass(self, inputs, tracer) -> Measurement:
        m = Measurement()
        for index in inputs["indices"][:inputs["sizes"].trace_large_instances]:
            self._op(inputs["config"], index, m)
        return m


# ---------------------------------------------------------------------------
# sample-large: 10^6 draws per op from each representation in turn

class SampleLarge:
    name = "sample-large"
    kinds = ("mixed", "randomized", "distribution")

    def bounds(self, sizes):
        return {"outcomes": sizes.sample_outcomes,
                "grid_points": sizes.sample_grid_points,
                "draws_per_op": sizes.sample_draws,
                "sample_many_calls_per_op": sizes.sample_batches}

    def build(self, seed, sizes, work_dir):
        bounds = fuzz.FuzzBounds(max_outcomes=sizes.sample_outcomes,
                                 max_grid_points=sizes.sample_grid_points)
        inst = fuzz.random_instance(stream(seed, 0), bounds,
                                    min_outcomes=sizes.sample_outcomes)
        stoppers = {k: getattr(inst, k) for k in self.kinds}
        exact = {k: convert.to_distribution(inst.space, eta)
                 for k, eta in stoppers.items()}
        return {"seed": seed, "space": inst.space, "stoppers": stoppers,
                "exact": exact, "draws": sizes.sample_draws,
                "batches": sizes.sample_batches}

    def _op(self, inputs, k, m: Measurement, tracer=None):
        """Draw in `sample_batches` calls, so that the speed is read every
        tenth of a second, then tally all draws in one call."""
        kind = self.kinds[k % len(self.kinds)]
        space, n, batches = inputs["space"], inputs["draws"], inputs["batches"]
        eta = inputs["stoppers"][kind]
        rng = stream(inputs["seed"], 1 + k)
        m.attempted += 1
        span = tracer.span("bench.op") if tracer else contextlib.nullcontext()
        try:
            with span:
                samples, elapsed = [], 0.0
                for _ in range(batches):
                    batch, took = m.speed.timed(
                        sampling.sample_many, space, eta, rng, n // batches)
                    samples.extend(batch)
                    elapsed += took
                (freq, tv), took = m.speed.timed(
                    sampling.empirical_delta, space, samples,
                    inputs["exact"][kind])
                elapsed += took
            drawn = len(samples)
            del samples, batch
        except Exception:
            _report_error(f"sampling {kind}")
            m.failed += 1
            return
        m.latencies.append(elapsed)
        m.wall += elapsed
        m.work += n
        counted = sum(round(f * n) for f in freq.values())
        m.failed += not (drawn == n and counted == n and tv <= TV_LIMIT)

    def measure(self, inputs, seconds) -> Measurement:
        m = Measurement()
        start = time.perf_counter()
        k = 0
        while time.perf_counter() - start < seconds:
            self._op(inputs, k, m)
            k += 1
        return m

    def trace_pass(self, inputs, tracer) -> Measurement:
        m = Measurement()
        for k in range(len(self.kinds)):
            self._op(inputs, k, m, tracer)
        return m


# ---------------------------------------------------------------------------
# cli-requests: one closed-loop client calling stoptime.cli.main

def relabel(doc: dict, prefix: str) -> dict:
    """The document with every outcome name prefixed: same law, new text."""
    def names(table):
        return {prefix + w: v for w, v in table.items()}
    if "partitions" in doc:
        return {**doc, "outcomes": [prefix + w for w in doc["outcomes"]],
                "partitions": [[[prefix + w for w in block] for block in part]
                               for part in doc["partitions"]]}
    if "values" in doc:
        return {"values": names(doc["values"])}
    return {key: (value if key == "kind" else names(value))
            for key, value in doc.items()}


@dataclass(frozen=True)
class Request:
    instance: int
    kind: str
    prefix: str
    argv: tuple


# (request kind, CLI arguments with {doc} placeholders for documents)
REQUEST_MIX = (
    ("validate", ("validate", "{mixed}", "--space", "{space}")),
    ("convert-distribution", ("convert", "{mixed}", "--to", "distribution",
                              "--space", "{space}")),
    ("convert-mixed", ("convert", "{randomized}", "--to", "mixed",
                       "--space", "{space}")),
    ("convert-randomized", ("convert", "{distribution}", "--to", "randomized",
                            "--space", "{space}")),
    ("equiv-same", ("equiv", "{mixed}", "{randomized}", "--space", "{space}")),
    ("equiv-different", ("equiv", "{distribution}", "{mixed2}",
                         "--space", "{space}")),
    ("validate-corrupt", ("validate", "{corrupt}", "--space", "{space}")),
    ("payoff", ("payoff", "--space", "{space}", "--reward", "{reward}",
                "--stop", "{randomized}", "--check-kuhn")),
    ("game", ("game", "--space", "{space}", "--x", "{x}", "--y", "{y}",
              "--z", "{z}", "--p1", "{mixed}", "--p2", "{mixed2}",
              "--route", "both")),
)


def _instance_docs(inst, corrupt) -> dict:
    docs = {"space": serialize.space_to_dict(inst.space)}
    for key in ("mixed", "randomized", "distribution", "mixed2"):
        docs[key] = serialize.stopping_time_to_dict(getattr(inst, key))
    docs["corrupt"] = serialize.stopping_time_to_dict(corrupt)
    for key in ("reward", "x", "y", "z"):
        docs[key] = serialize.process_to_dict(getattr(inst, key))
    return docs


def _valued(value) -> str:
    return f"{value} ({float(value):.10g})"


def _oracle(inst, corrupt, kind):
    """What the library computes for the documents of one request kind."""
    space = inst.space
    if kind == "validate":
        return times.validate_mixed(space, inst.mixed)
    if kind == "validate-corrupt":
        return times.validate_mixed(space, corrupt)
    if kind == "convert-distribution":
        return convert.to_distribution(space, inst.mixed)
    if kind == "convert-mixed":
        return convert.mixed_of_distribution(
            space, convert.to_distribution(space, inst.randomized))
    if kind == "convert-randomized":
        return convert.randomized_of_distribution(space, inst.distribution)
    if kind == "equiv-same":
        return convert.equivalent(space, inst.mixed, inst.randomized)
    if kind == "equiv-different":
        return convert.equivalent(space, inst.distribution, inst.mixed2)
    if kind == "payoff":
        return problems.payoff_distribution(
            problems.StoppingProblem(space, inst.reward),
            convert.to_distribution(space, inst.randomized))
    if kind == "game":
        game = games.StoppingGame(space, inst.x, inst.y, inst.z)
        return games.game_payoff_symmetric(game, inst.mixed, inst.mixed2)
    raise ValueError(f"unknown request kind {kind!r}")


class CliRequests:
    name = "cli-requests"

    def bounds(self, sizes):
        o, g, b = sizes.cli_bounds
        return {"outcomes": o, "grid_points": g, "breaks": b,
                "sizes": "only instances at the outcome and grid bounds",
                "instances": sizes.cli_instances,
                "request_kinds": len(REQUEST_MIX)}

    def build(self, seed, sizes, work_dir):
        """Request q is kind q mod 9 on instance q mod I, with every outcome
        renamed for q, so no two requests read the same document."""
        o, g, b = sizes.cli_bounds
        bounds = fuzz.FuzzBounds(max_outcomes=o, max_grid_points=g,
                                 max_breaks=b)
        indices = sized_indices(seed, bounds, o, o, g, sizes.cli_instances)
        instances, docs = [], []
        for index in indices:
            inst = fuzz.random_instance(stream(seed, index), bounds,
                                        min_outcomes=o)
            corrupt = fuzz.corrupt_mixed(inst.space, inst.mixed)
            if corrupt is None:
                raise RuntimeError("instance has no block to corrupt")
            instances.append((inst, corrupt))
            docs.append(_instance_docs(inst, corrupt))
        n_requests = max(sizes.trace_cli_requests, math.ceil(
            sizes.cli_requests_per_second * sizes.seconds))
        os.makedirs(work_dir, exist_ok=True)
        requests = []
        for q in range(n_requests):
            kind, template = REQUEST_MIX[q % len(REQUEST_MIX)]
            i = q % len(instances)
            prefix = f"q{q}."
            argv = []
            for arg in template:
                if arg.startswith("{"):
                    key = arg[1:-1]
                    arg = os.path.join(work_dir, f"q{q}-{key}.json")
                    with open(arg, "w") as f:
                        json.dump(relabel(docs[i][key], prefix), f)
                argv.append(arg)
            requests.append(Request(i, kind, prefix, tuple(argv)))
        return {"instances": instances, "requests": requests,
                "sizes": sizes}

    @staticmethod
    def _call(request):
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                code = cli.main(list(request.argv))
        except SystemExit as e:
            code = e.code
        except Exception:
            _report_error(f"request {request.argv}")
            code = None
        return code, out.getvalue()

    def _run(self, inputs, requests, seconds) -> Measurement:
        m = Measurement()
        outputs = []
        start = time.perf_counter()
        for request in requests:
            if time.perf_counter() - start >= seconds:
                break
            (code, stdout), elapsed = m.speed.timed(self._call, request)
            m.latencies.append(elapsed)
            outputs.append((request, code, stdout))
        m.wall = sum(m.latencies)
        m.work = m.attempted = len(outputs)
        for request, code, stdout in outputs:
            inst, corrupt = inputs["instances"][request.instance]
            try:
                want = _oracle(inst, corrupt, request.kind)
            except Exception:
                _report_error(f"library result for {request.kind}")
                m.failed += 1
                continue
            m.failed += not self.check(request, want, code, stdout)
        return m

    def measure(self, inputs, seconds) -> Measurement:
        return self._run(inputs, inputs["requests"], seconds)

    def trace_pass(self, inputs, tracer) -> Measurement:
        n = inputs["sizes"].trace_cli_requests
        return self._run(inputs, inputs["requests"][:n], math.inf)

    @staticmethod
    def check(request, want, code, stdout) -> bool:
        """Exit code per the 0/1/2 contract, and output equal to the
        library's own result for the same documents."""
        kind = request.kind
        if kind in ("validate", "validate-corrupt"):
            if want:
                return code == 1 and len(stdout.splitlines()) == len(want)
            return code == 0 and stdout == "valid\n"
        if kind.startswith("convert-"):
            if code != 0:
                return False
            expected = relabel(serialize.stopping_time_to_dict(want),
                               request.prefix)
            try:
                return json.loads(stdout) == expected
            except json.JSONDecodeError:
                return False
        if kind.startswith("equiv-"):
            if want:
                return code == 0 and stdout == "equivalent\n"
            return code == 1 and stdout.startswith("not equivalent: ")
        if kind == "payoff":
            return code == 0 and stdout == (
                f"{_valued(want)}\nall representation routes agree\n")
        if kind == "game":
            return code == 0 and stdout == (
                f"lift:      {_valued(want)}\nsymmetric: {_valued(want)}\n")
        raise ValueError(f"unknown request kind {kind!r}")


WORKLOADS = {w.name: w for w in (FuzzDefault(), FuzzLarge(), SampleLarge(),
                                 CliRequests())}
