"""Command-line surface.

Exit codes: 0 success, 1 check failure, 2 input error, 141 when stdout's
reader has gone.  STOPTIME_SEED overrides --seed wherever a seed is taken.
Only sample and fuzz load numpy, when they run.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from functools import cache

from . import convert, games, problems
from .config import ExperimentConfig
from .serialize import (InputError, dump_json, load_json, process_from_dict,
                        space_from_dict, stopping_time_from_dict,
                        stopping_time_to_dict)
from .space import row_violations
from .times import validate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT_ERROR = 2
EXIT_BROKEN_PIPE = 141  # 128 + SIGPIPE, a shell's status for a writer it kills


def _seed(args) -> int:
    return int(os.environ.get("STOPTIME_SEED", args.seed))


def _exact(x: Fraction) -> str:
    """The exact value, then its float; inf or -inf beyond float range."""
    try:
        approx = f"{float(x):.10g}"
    except OverflowError:
        approx = "inf" if x > 0 else "-inf"
    return f"{x} ({approx})"


def _load_space(path):
    return space_from_dict(load_json(path))


def _load_valid_stop(path, space):
    """The stopping time in the file; an InputError unless it is valid."""
    eta = stopping_time_from_dict(load_json(path))
    bad = validate(space, eta)
    if bad:
        raise InputError(f"{path}: invalid stopping time: {bad[0]}")
    return eta


def cmd_validate(args) -> int:
    doc = load_json(args.file)
    if "kind" in doc:
        if args.space is None:
            raise InputError("validating a stopping time needs --space")
        space = _load_space(args.space)
        report = validate(space, stopping_time_from_dict(doc))
    elif "partitions" in doc:
        space_from_dict(doc)
        report = []
    elif "values" in doc:
        process = process_from_dict(doc)
        report = [] if args.space is None else row_violations(
            _load_space(args.space), process, "values")
    else:
        raise InputError("unrecognized document (no kind/partitions/values)")
    for v in report:
        print(v)
    if report:
        return EXIT_CHECK_FAILED
    print("valid")
    return EXIT_OK


def cmd_convert(args) -> int:
    space = _load_space(args.space)
    delta = convert.to_distribution(space, _load_valid_stop(args.file, space))
    if args.to == "distribution":
        out = delta
    elif args.to == "randomized":
        out = convert.randomized_of_distribution(space, delta)
    else:  # argparse restricts --to to the three kinds
        out = convert.mixed_of_distribution(space, delta)
    dump_json(stopping_time_to_dict(out), args.output or sys.stdout)
    return EXIT_OK


def cmd_equiv(args) -> int:
    space = _load_space(args.space)
    a = _load_valid_stop(args.a, space)
    b = _load_valid_stop(args.b, space)
    diff = convert.first_difference(space, a, b)
    if diff is None:
        print("equivalent")
        return EXIT_OK
    w, t, ma, mb = diff
    print(f"not equivalent: outcome {w} time {t}: {ma} != {mb}")
    return EXIT_CHECK_FAILED


def cmd_payoff(args) -> int:
    space = _load_space(args.space)
    reward = process_from_dict(load_json(args.reward))
    problem = problems.StoppingProblem(space, reward)
    delta = convert.to_distribution(space, _load_valid_stop(args.stop, space))
    value = problems.payoff_distribution(problem, delta)
    print(_exact(value))
    if args.check_kuhn:
        rho = convert.randomized_of_distribution(space, delta)
        routes = {
            "distribution": value,
            "randomized": problems.payoff_randomized(problem, rho),
            "mixed": problems.payoff_mixed(
                problem, convert.mixed_of_randomized(space, rho)),
        }
        if any(v != value for v in routes.values()):
            print(f"route mismatch: {routes}")
            return EXIT_CHECK_FAILED
        print("all representation routes agree")
    return EXIT_OK


def cmd_game(args) -> int:
    space = _load_space(args.space)
    game = games.StoppingGame(
        space,
        process_from_dict(load_json(args.x)),
        process_from_dict(load_json(args.y)),
        process_from_dict(load_json(args.z)))
    tau1 = convert.to_distribution(space, _load_valid_stop(args.p1, space))
    tau2 = convert.to_distribution(space, _load_valid_stop(args.p2, space))
    routes = {"lift": games.game_payoff_via_lift,
              "symmetric": games.game_payoff_symmetric,
              "p2view": games.game_payoff_player2_view}
    if args.route != "both":
        print(_exact(routes[args.route](game, tau1, tau2)))
        return EXIT_OK
    via_lift = games.game_payoff_via_lift(game, tau1, tau2)
    symmetric = games.game_payoff_symmetric(game, tau1, tau2)
    print(f"lift:      {_exact(via_lift)}")
    print(f"symmetric: {_exact(symmetric)}")
    if via_lift != symmetric:
        print("routes disagree")
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_sample(args) -> int:
    from . import sampling
    from .experiment import _rng_for
    space = _load_space(args.space)
    eta = _load_valid_stop(args.stop, space)
    reference = None
    if args.ref:
        reference = convert.to_distribution(
            space, _load_valid_stop(args.ref, space))
    rng = _rng_for(_seed(args))
    try:
        counts = sampling.sample_counts(space, eta, rng, args.n)
    except MemoryError:  # draws come in chunks: this guards the count array
        raise InputError(f"--n {args.n}: too many draws for memory")
    freq, tv = sampling.frequencies(space, counts, reference)
    for (w, j), f in sorted(freq.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])):
        print(f"{w},{space.grid[j]},{f:.6f}")
    if tv is not None:
        print(f"tv,{tv:.6f}")
    return EXIT_OK


def cmd_fuzz(args) -> int:
    values = {name: getattr(args, name) for name in ExperimentConfig._fields}
    config = ExperimentConfig(**{**values, "seed": _seed(args)})
    from . import experiment
    try:
        report = experiment.run_experiment(config)
    except MemoryError:  # as in sample, a guard of the count arrays
        raise InputError(f"--samples {args.n_samples}: too many draws for memory")
    csv_text = report.to_csv()
    if args.output:
        with open(args.output, "w") as f:
            f.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    n_checks = len(report.rows)
    print(f"# {n_checks} checks, {report.n_failed} failed", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stoptime",
        description="Random stopping times on finite filtered spaces: "
                    "validation, conversion, payoffs, games, sampling, fuzzing.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a space, process, or stopping time")
    p.add_argument("file")
    p.add_argument("--space", help="space file (required for stopping times; "
                   "checks a process's rows against it)")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("convert", help="convert a stopping time to another kind")
    p.add_argument("file")
    p.add_argument("--to", required=True,
                   choices=["mixed", "randomized", "distribution"])
    p.add_argument("--space", required=True)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("equiv", help="test two stopping times for equivalence")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--space", required=True)
    p.set_defaults(func=cmd_equiv)

    p = sub.add_parser("payoff", help="evaluate a stopping problem payoff")
    p.add_argument("--space", required=True)
    p.add_argument("--reward", required=True)
    p.add_argument("--stop", required=True)
    p.add_argument("--check-kuhn", action="store_true",
                   help="also evaluate every representation route and compare")
    p.set_defaults(func=cmd_payoff)

    p = sub.add_parser("game", help="evaluate a two-player stopping game payoff")
    p.add_argument("--space", required=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--z", required=True)
    p.add_argument("--p1", required=True)
    p.add_argument("--p2", required=True)
    p.add_argument("--route", default="both",
                   choices=["lift", "symmetric", "both", "p2view"])
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("sample", help="draw Monte Carlo samples of a stopping time")
    p.add_argument("--space", required=True)
    p.add_argument("--stop", required=True)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--ref", help="reference stop law for a TV distance")
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("fuzz", help="run the fuzzed property campaign")
    defaults = ExperimentConfig()
    for name in defaults._fields:  # one option per campaign setting
        flag = name.removeprefix("n_").replace("_", "-")
        default = getattr(defaults, name)
        p.add_argument(f"--{flag}", dest=name, type=type(default),
                       default=default)
    p.add_argument("-o", "--output", help="write the CSV report here")
    p.set_defaults(func=cmd_fuzz)
    return parser


@cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built on the first main call of a process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)  # exact values may pass 4300 digits
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:  # the reader left; the exit flush writes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except (ValueError, KeyError, OSError) as e:  # InputError, SpaceError too
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
