import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import (coin_mixed_flipped, coin_space_coarse, permute, refine,
                      split)
from hypothesis import example, given, settings, strategies as st

from stoptime import (build_space, cli, convert, demo, experiment, fuzz, games,
                      problems, sampling)
from stoptime.cli import main
from stoptime.config import MAX_CELLS
from stoptime.experiment import ExperimentConfig, ExperimentReport
from stoptime.serialize import (dump_json, process_from_dict,
                                process_to_dict, space_to_dict,
                                stopping_time_to_dict)
from stoptime.times import PureST, embed_pure, validate


@pytest.fixture
def files(tmp_path):
    space = demo.coin_space()
    paths = {"space": tmp_path / "space.json"}
    dump_json(space_to_dict(space), paths["space"])
    for name, eta in (("mixed", demo.coin_mixed()),
                      ("flipped", coin_mixed_flipped()),
                      ("randomized", demo.coin_randomized()),
                      ("delta", demo.coin_uniform_delta())):
        paths[name] = tmp_path / f"{name}.json"
        dump_json(stopping_time_to_dict(eta), paths[name])
    paths["reward"] = tmp_path / "reward.json"
    dump_json({"values": {"w1": ["0", "1"], "w2": ["0", "1"]}}, paths["reward"])
    paths["tmp"] = tmp_path
    return {k: str(v) for k, v in paths.items()}


def test_validate_space(files, capsys):
    assert main(["validate", files["space"]]) == 0
    assert "valid" in capsys.readouterr().out


def test_validate_stopping_time(files):
    assert main(["validate", files["mixed"], "--space", files["space"]]) == 0


def test_validate_needs_space_for_stopping_time(files):
    assert main(["validate", files["mixed"]]) == 2


def test_validate_invalid_stopping_time(files, tmp_path):
    bad = tmp_path / "bad.json"
    dump_json({"kind": "randomized",
               "paths": {"w1": ["1", "1/2"], "w2": ["1", "1"]}}, bad)
    assert main(["validate", str(bad), "--space", files["space"]]) == 1


def test_validate_garbage_json(tmp_path):
    path = tmp_path / "garbage.json"
    path.write_text("{nope")
    assert main(["validate", str(path)]) == 2


def test_validate_refuses_a_block_that_lists_an_outcome_twice(tmp_path,
                                                              capsys):
    path = tmp_path / "space.json"
    dump_json({"grid": ["0", "1"], "outcomes": ["w1", "w2"],
               "probs": ["1/2", "1/2"],
               "partitions": [[["w1", "w2", "w1"]], [["w1"], ["w2"]]]}, path)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: NotAPartition: level 0: bad block ['w1', 'w1', 'w2']\n")


@pytest.mark.parametrize("text, key", [
    ('{"kind": "pure", "stop_index": {"w1": 0, "w2": 1, "w1": 1}}', "w1"),
    ('{"grid": ["0", "1"], "outcomes": ["w1", "w2"], "probs": ["1/2", "1/2"],'
     ' "grid": ["0", "1/2"], "partitions": [[["w1", "w2"]], [["w1"], ["w2"]]]}',
     "grid"),
], ids=["stop-index", "space-grid"])
def test_validate_refuses_a_repeated_key(text, key, files, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["validate", str(path), "--space", files["space"]]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {path}: repeated key {key!r}\n")


@pytest.mark.parametrize("partitions, text", [
    ([[["w1", "w3"], ["w3", "w2", "w4"]], [["w1"], ["w2"], ["w3"], ["w4"]]],
     "NotAPartition: level 0: bad block ['w2', 'w3', 'w4']"),
    ([[["w1", "w3"], ["w2", "w4"]], [["w1", "w2"], ["w3"], ["w4"]]],
     "RefinementViolated: block ['w1', 'w2'] at level 1 not inside a "
     "level-0 block"),
])
def test_space_errors_print_the_same_under_every_hash_seed(partitions, text,
                                                           tmp_path):
    # a block's members print sorted, not in string-hash order
    path = tmp_path / "space.json"
    dump_json({"grid": ["0", "1"], "outcomes": ["w1", "w2", "w3", "w4"],
               "probs": ["1/4"] * 4, "partitions": partitions}, path)
    src = str(Path(cli.__file__).parents[1])
    errs = {subprocess.run(
        [sys.executable, "-m", "stoptime.cli", "validate", str(path)],
        env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH":
             os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])},
        capture_output=True, text=True).stderr for seed in range(6)}
    assert errs == {f"error: {text}\n"}


@pytest.mark.parametrize("unbuffered", ["1", ""], ids=["raw", "buffered"])
def test_a_closed_stdout_is_no_input_error(files, unbuffered):
    # the reader left before the output was written, as `| head` may: no
    # error line, and a shell's status for a writer that SIGPIPE killed,
    # not the input error's 2 (a buffered stdout fails at its exit flush)
    read, write = os.pipe()
    os.close(read)
    env = {**os.environ, "PYTHONUNBUFFERED": unbuffered, "PYTHONPATH":
           os.pathsep.join([str(Path(cli.__file__).parents[1]),
                            os.environ.get("PYTHONPATH", "")])}
    try:
        done = subprocess.run(
            [sys.executable, "-m", "stoptime.cli", "validate", files["mixed"],
             "--space", files["space"]], stdout=write, stderr=subprocess.PIPE,
            text=True, env=env, timeout=60)
    finally:
        os.close(write)
    assert (done.returncode, done.stderr) == (141, "")


def test_convert_to_randomized(files, capsys):
    out = files["tmp"] + "/rho.json"
    assert main(["convert", files["mixed"], "--to", "randomized",
                 "--space", files["space"], "-o", out]) == 0
    doc = json.loads(Path(out).read_text())
    assert doc["kind"] == "randomized"
    assert doc["paths"]["w1"] == ["1/2", "1"]


def test_convert_round_prints_to_stdout(files, capsys):
    assert main(["convert", files["delta"], "--to", "mixed",
                 "--space", files["space"]]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "mixed"


def test_equiv_true(files, capsys):
    assert main(["equiv", files["mixed"], files["flipped"],
                 "--space", files["space"]]) == 0
    assert "equivalent" in capsys.readouterr().out


def test_equiv_false_prints_witness(files, tmp_path, capsys):
    other = tmp_path / "other.json"
    dump_json({"kind": "randomized",
               "paths": {"w1": ["1/3", "1"], "w2": ["1/3", "1"]}}, other)
    assert main(["equiv", files["mixed"], str(other),
                 "--space", files["space"]]) == 1
    out = capsys.readouterr().out
    assert "w1" in out and "1/4" in out and "1/6" in out


def test_equiv_normalises_each_argument_once(files, tmp_path, monkeypatch,
                                             capsys):
    # equiv once asked equivalent and then first_difference, so a pair
    # that differs was normalised four times; each argument is now read
    # once as its laws given each outcome
    other = tmp_path / "other.json"
    dump_json({"kind": "randomized",
               "paths": {"w1": ["1/3", "1"], "w2": ["1/3", "1"]}}, other)
    calls = []
    honest = convert._given

    def counted(space, eta):
        calls.append(eta)
        return honest(space, eta)

    monkeypatch.setattr(convert, "_given", counted)
    assert main(["equiv", files["mixed"], str(other),
                 "--space", files["space"]]) == 1
    assert "not equivalent" in capsys.readouterr().out
    assert len(calls) == 2


def test_payoff_prints_exact_and_decimal(files, capsys):
    assert main(["payoff", "--space", files["space"],
                 "--reward", files["reward"], "--stop", files["mixed"]]) == 0
    assert "1/2 (0.5)" in capsys.readouterr().out


def test_payoff_check_kuhn(files, capsys):
    assert main(["payoff", "--space", files["space"],
                 "--reward", files["reward"], "--stop", files["randomized"],
                 "--check-kuhn"]) == 0
    assert "routes agree" in capsys.readouterr().out


def test_game_both_routes(files, capsys):
    assert main(["game", "--space", files["space"],
                 "--x", files["reward"], "--y", files["reward"],
                 "--z", files["reward"], "--p1", files["mixed"],
                 "--p2", files["randomized"], "--route", "both"]) == 0
    out = capsys.readouterr().out
    assert "lift:" in out and "symmetric:" in out


def test_payoff_check_kuhn_reports_a_route_mismatch(files, capsys,
                                                   monkeypatch):
    honest = problems.payoff_randomized
    monkeypatch.setattr(problems, "payoff_randomized",
                        lambda problem, rho: honest(problem, rho) + 1)
    assert main(["payoff", "--space", files["space"],
                 "--reward", files["reward"], "--stop", files["randomized"],
                 "--check-kuhn"]) == 1
    out = capsys.readouterr().out
    assert "route mismatch: " in out and "routes agree" not in out


def test_game_both_routes_report_a_disagreement(files, capsys, monkeypatch):
    honest = games.game_payoff_symmetric
    monkeypatch.setattr(games, "game_payoff_symmetric",
                        lambda game, a, b: honest(game, a, b) + 1)
    assert main(["game", "--space", files["space"],
                 "--x", files["reward"], "--y", files["reward"],
                 "--z", files["reward"], "--p1", files["mixed"],
                 "--p2", files["randomized"], "--route", "both"]) == 1
    assert capsys.readouterr().out.endswith("routes disagree\n")


@pytest.mark.parametrize("doc, message", [
    ({"outcomes": [], "probs": [], "grid": ["0", "1"],
      "partitions": [[], []]},
     "EmptyOutcomes: need at least one outcome"),
    ({"outcomes": ["w1", "w1"], "probs": ["1/2", "1/2"], "grid": ["0"],
      "partitions": [[["w1"]]]},
     "DuplicateOutcome: outcome labels must be distinct"),
    ({"outcomes": ["w1", "w2"], "probs": ["1"], "grid": ["0"],
      "partitions": [[["w1", "w2"]]]},
     "ProbShapeMismatch: 1 probs for 2 outcomes"),
], ids=["empty", "duplicate", "prob-shape"])
def test_validate_names_an_outcome_or_prob_shape_violation(doc, message,
                                                           tmp_path, capsys):
    path = tmp_path / "space.json"
    dump_json(doc, path)
    assert main(["validate", str(path)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_game_normalises_each_time_once(files, tmp_path, capsys,
                                        monkeypatch):
    # each route once pushed the two loaded mixed times forward itself, so
    # --route both pushed each of them twice; a push reads the time's laws
    # given each outcome, _given, once
    tables = {}
    for name, values in (("x", ["1", "2"]), ("y", ["5", "-3"]),
                         ("z", ["7/2", "11"])):
        tables[name] = tmp_path / f"{name}.json"
        dump_json({"values": {"w1": values, "w2": values[::-1]}},
                  tables[name])
    pushed = []
    honest = convert._given

    def counted(space, mu):
        pushed.append(mu)
        return honest(space, mu)

    monkeypatch.setattr(convert, "_given", counted)
    assert main(["game", "--space", files["space"], "--x", str(tables["x"]),
                 "--y", str(tables["y"]), "--z", str(tables["z"]),
                 "--p1", files["mixed"], "--p2", files["flipped"],
                 "--route", "both"]) == 0
    assert len(pushed) == 2
    monkeypatch.undo()
    game = games.StoppingGame(demo.coin_space(), *(
        process_from_dict(json.loads(tables[k].read_text())) for k in "xyz"))
    value = cli._exact(games.game_payoff_symmetric(
        game, demo.coin_mixed(), coin_mixed_flipped()))
    assert capsys.readouterr().out == (f"lift:      {value}\n"
                                       f"symmetric: {value}\n")


HUGE = "1" + "0" * 400  # an exact reward far beyond float range


def test_payoff_beyond_float_range_prints_inf(files, tmp_path, capsys):
    for sign in ("", "-"):
        reward = tmp_path / f"huge{sign}.json"
        dump_json({"values": {"w1": [sign + HUGE] * 2,
                              "w2": [sign + HUGE] * 2}}, reward)
        assert main(["payoff", "--space", files["space"],
                     "--reward", str(reward), "--stop", files["mixed"]]) == 0
        out, err = capsys.readouterr()
        assert out == f"{sign}{HUGE} ({sign}inf)\n"
        assert err == ""


def test_game_beyond_float_range_prints_inf(files, tmp_path, capsys):
    table = tmp_path / "huge.json"
    dump_json({"values": {"w1": [HUGE] * 2, "w2": [HUGE] * 2}}, table)
    assert main(["game", "--space", files["space"], "--x", str(table),
                 "--y", str(table), "--z", str(table), "--p1", files["mixed"],
                 "--p2", files["randomized"], "--route", "both"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"lift:      {HUGE} (inf)",
                                f"symmetric: {HUGE} (inf)"]
    assert err == ""


@contextlib.contextmanager
def unlimited_int_digits():
    """Lift Python's int-string digit limit (4300 by default) for a block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def test_game_prints_exact_values_beyond_the_int_digit_limit(tmp_path,
                                                              capsys):
    # instance 1 of `fuzz --seed 1 --max-outcomes 8 --max-grid-points 64
    # --max-denominator 9223372036854775807`: its game value has over 7000
    # digits in numerator and denominator
    config = ExperimentConfig(seed=1, max_outcomes=8, max_grid_points=64,
                              max_denominator=2**63 - 1)
    inst, _ = experiment.draw(config, 1)
    docs = {"space": space_to_dict(inst.space),
            "p1": stopping_time_to_dict(inst.mixed),
            "p2": stopping_time_to_dict(inst.mixed2),
            **{k: process_to_dict(getattr(inst, k)) for k in "xyz"}}
    args = ["game", "--route", "both"]
    for name, doc in docs.items():
        dump_json(doc, tmp_path / f"{name}.json")
        args += [f"--{name}", str(tmp_path / f"{name}.json")]
    limit = sys.get_int_max_str_digits()
    assert main(args) == 0
    assert sys.get_int_max_str_digits() == limit
    out, err = capsys.readouterr()
    value = games.game_payoff_via_lift(
        games.StoppingGame(inst.space, inst.x, inst.y, inst.z),
        inst.mixed, inst.mixed2)
    with unlimited_int_digits():
        assert len(str(value.denominator)) > 4300
        assert out.splitlines() == [f"lift:      {cli._exact(value)}",
                                    f"symmetric: {cli._exact(value)}"]
    assert err == ""


def test_convert_output_beyond_the_int_digit_limit_loads_back(files,
                                                               tmp_path,
                                                               capsys):
    # a joint mass with a 4342-digit denominator converts, and its
    # converted document validates and is equivalent to it, all through
    # the CLI
    d = 3**9100
    with unlimited_int_digits():
        row = [f"1/{2 * d}", f"{d - 1}/{2 * d}"]
    delta = tmp_path / "long.json"
    dump_json({"kind": "distribution", "mass": {"w1": row, "w2": row}}, delta)
    limit = sys.get_int_max_str_digits()
    for kind in ("randomized", "mixed"):
        out = tmp_path / f"long-{kind}.json"
        assert main(["convert", str(delta), "--to", kind, "--space",
                     files["space"], "-o", str(out)]) == 0
        assert main(["validate", str(out), "--space", files["space"]]) == 0
        assert main(["equiv", str(out), str(delta),
                     "--space", files["space"]]) == 0
        assert capsys.readouterr() == ("valid\nequivalent\n", "")
    assert sys.get_int_max_str_digits() == limit


def test_game_prints_the_same_for_every_kind_of_one_law(files, tmp_path,
                                                         capsys):
    # the uniform law as mixed, randomized and distribution documents, and
    # a point law as pure and mixed ones: every route prints for each kind
    # what it prints for the law's mixed document
    point = PureST({"w1": 0, "w2": 1})
    for name, eta in (("pure", point), ("point", embed_pure(point))):
        dump_json(stopping_time_to_dict(eta), tmp_path / f"{name}.json")
    laws = {files["mixed"]: (files["randomized"], files["delta"]),
            str(tmp_path / "point.json"): (str(tmp_path / "pure.json"),)}
    tables = {}
    for name, values in (("x", ["1", "2"]), ("y", ["5", "-3"]),
                         ("z", ["7/2", "11"])):
        tables[name] = tmp_path / f"{name}.json"
        dump_json({"values": {"w1": values, "w2": values[::-1]}},
                  tables[name])

    def out(route, p1, p2):
        assert main(["game", "--space", files["space"], "--x",
                     str(tables["x"]), "--y", str(tables["y"]), "--z",
                     str(tables["z"]), "--p1", p1, "--p2", p2,
                     "--route", route]) == 0
        return capsys.readouterr().out

    for mixed1, others1 in laws.items():
        for mixed2, others2 in laws.items():
            value = out("lift", mixed1, mixed2)
            expected = {"lift": value, "symmetric": value, "p2view": value,
                        "both": f"lift:      {value}symmetric: {value}"}
            for route, text in expected.items():
                for p1 in (mixed1, *others1):
                    for p2 in (mixed2, *others2):
                        assert out(route, p1, p2) == text, (route, p1, p2)


def test_game_p2view(files, capsys):
    assert main(["game", "--space", files["space"],
                 "--x", files["reward"], "--y", files["reward"],
                 "--z", files["reward"], "--p1", files["delta"],
                 "--p2", files["mixed"], "--route", "p2view"]) == 0


def test_game_routes_build_no_lifted_mass(tmp_path, monkeypatch, capsys):
    # payoff_on_lift once pushed the lifted player's joint mass onto the
    # lifted space through lift_distribution; every game route now prices
    # that player's path, so none of them needs a lifted mass
    config = ExperimentConfig(seed=5, max_outcomes=32, max_grid_points=8)
    inst = next(i for i, _ in (experiment.draw(config, k) for k in range(50))
                if len(i.space.outcomes) >= 8)
    space = inst.space
    game = games.StoppingGame(space, inst.x, inst.y, inst.z)
    paths = {key: str(tmp_path / f"{key}.json")
             for key in ("space", *"xyz", "mixed", "mixed2")}
    dump_json(space_to_dict(space), paths["space"])
    for key in "xyz":
        dump_json(process_to_dict(getattr(inst, key)), paths[key])
    for key in ("mixed", "mixed2"):
        dump_json(stopping_time_to_dict(getattr(inst, key)), paths[key])
    args = ["game", "--space", paths["space"], "--x", paths["x"], "--y",
            paths["y"], "--z", paths["z"], "--p1", paths["mixed"], "--p2",
            paths["mixed2"], "--route"]

    def values() -> list:
        lifted = games.lift(game, convert.delta_of_mixed(space, inst.mixed2))
        out = [games.payoff_on_lift(space, lifted, getattr(inst, kind))
               for kind in ("pure", "mixed", "randomized", "distribution")]
        out += [route(game, inst.mixed, inst.mixed2)
                for route in (games.game_payoff_via_lift,
                              games.game_payoff_player2_view)]
        for route in ("lift", "both", "p2view"):
            assert main(args + [route]) == 0
            out.append(capsys.readouterr().out)
        return out

    want = values()
    assert len(set(want[1:6])) == 1

    def refused(*args, **kwargs):
        raise AssertionError("a game route built a lifted mass")

    monkeypatch.setattr(games, "lift_distribution", refused)
    assert values() == want


def test_sample_with_reference(files, capsys):
    assert main(["sample", "--space", files["space"], "--stop", files["mixed"],
                 "--n", "2000", "--seed", "3", "--ref", files["delta"]]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 5  # four atoms plus the TV line
    tv = float(out.strip().splitlines()[-1].split(",")[1])
    assert tv < 0.05


def test_sample_prints_the_record_path(files, capsys, monkeypatch):
    # the draws are tallied as counts; the lines are those of the records
    monkeypatch.delenv("STOPTIME_SEED", raising=False)
    assert main(["sample", "--space", files["space"], "--stop", files["mixed"],
                 "--n", "2000", "--seed", "3", "--ref", files["delta"]]) == 0
    space = demo.coin_space()
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(3)))
    records = sampling.sample_many(space, demo.coin_mixed(), rng, 2000)
    freq, tv = sampling.empirical_delta(space, records,
                                        demo.coin_uniform_delta())
    expected = [f"{w},{space.grid[j]},{f:.6f}"
                for (w, j), f in sorted(freq.items())] + [f"tv,{tv:.6f}"]
    assert capsys.readouterr().out.splitlines() == expected


def test_sample_of_a_mass_below_float_range_prints_its_path_draws(
        tmp_path, capsys, monkeypatch):
    # atom a has P = 10**-400: its float cdf row was 0 / 0, and numpy
    # printed a RuntimeWarning
    monkeypatch.delenv("STOPTIME_SEED", raising=False)
    tiny = Fraction(1, 10**400)
    space = build_space(("a", "b"), (tiny, 1 - tiny), (0, 1),
                        (({"a"}, {"b"}),) * 2)
    paths = {key: str(tmp_path / f"{key}.json") for key in ("space", "mass")}
    dump_json(space_to_dict(space), paths["space"])
    dump_json({"kind": "distribution",
               "mass": {"a": [f"1/{3 * 10**400}", f"2/{3 * 10**400}"],
                        "b": [str(Fraction(1, 2) - tiny), "1/2"]}},
              paths["mass"])
    on = ("--space", paths["space"])
    assert main(["convert", paths["mass"], "--to", "randomized", *on,
                 "-o", str(tmp_path / "rho.json")]) == 0
    outs = []
    for stop in (paths["mass"], str(tmp_path / "rho.json")):
        assert main(["sample", *on, "--stop", stop, "--n", "5000",
                     "--seed", "2"]) == 0
        outs.append(capsys.readouterr())
    assert outs[0] == outs[1]
    assert outs[0].err == ""
    assert outs[0].out.startswith("a,0,0.000000\na,1,0.000000\n")


def test_sample_beyond_memory_is_an_input_error(files, capsys, monkeypatch):
    # a draw count numpy cannot allocate; the sampler is stubbed so the
    # host is never asked for the memory
    def out_of_memory(space, eta, rng, n):
        raise MemoryError

    monkeypatch.setattr(sampling, "sample_counts", out_of_memory)
    assert main(["sample", "--space", files["space"], "--stop",
                 files["delta"], "--n", "100000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --n 100000000000000:")
    assert "Traceback" not in err


def test_fuzz_samples_beyond_memory_is_an_input_error(capsys, monkeypatch):
    # as for sample: the campaign's Monte Carlo draws are stubbed to fail
    def out_of_memory(space, eta, rng, n):
        raise MemoryError

    monkeypatch.setattr(sampling, "sample_counts", out_of_memory)
    assert main(["fuzz", "--instances", "1",
                 "--samples", "100000000000000"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --samples 100000000000000:")
    assert "Traceback" not in err


# Linux starts a child's ru_maxrss at the peak of the process it replaced
# when it exec'd, here the test process's; a small launcher spawns the child
WAIT4 = """
import os, subprocess, sys
child = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_sample_of_ten_million_draws_runs_in_bounded_memory(files):
    # the draws come in chunks; drawing all 10^7 at once peaked at 427 MiB
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    launched = subprocess.run(
        [sys.executable, "-c", WAIT4, sys.executable, "-m", "stoptime.cli",
         "sample", "--space", files["space"], "--stop", files["mixed"],
         "--n", "10000000"], env=env, capture_output=True, text=True,
        check=True)
    code, maxrss = map(int, launched.stdout.split())
    assert code == 0
    kib = maxrss / (1024 if sys.platform == "darwin" else 1)
    assert kib < 100 * 1024


def test_sample_seed_env_override(files, capsys, monkeypatch):
    main(["sample", "--space", files["space"], "--stop", files["delta"],
          "--n", "500", "--seed", "1"])
    base = capsys.readouterr().out
    monkeypatch.setenv("STOPTIME_SEED", "1")
    main(["sample", "--space", files["space"], "--stop", files["delta"],
          "--n", "500", "--seed", "999"])
    assert capsys.readouterr().out == base


def test_sample_draws_through_the_campaign_seed_rule(files, capsys,
                                                     monkeypatch):
    # `sample` draws from the campaign's seed rule with no stream, which is
    # the seed's own SeedSequence: its output is pinned by the seed alone
    for seed in (0, 1, 3, 2**32 + 5):
        assert (experiment._rng_for(seed).bit_generator.state
                == np.random.Generator(np.random.PCG64(
                    np.random.SeedSequence(seed))).bit_generator.state)
    monkeypatch.delenv("STOPTIME_SEED", raising=False)
    assert main(["sample", "--space", files["space"], "--stop", files["delta"],
                 "--n", "10", "--seed", "-1"]) == 2
    assert capsys.readouterr().out == ""


def test_fuzz_small_campaign(files, capsys):
    out = files["tmp"] + "/report.csv"
    assert main(["fuzz", "--instances", "5", "--seed", "1",
                 "--samples", "2000", "--tv-tolerance", "0.05", "-o", out]) == 0
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "instance,check,status,witness"
    assert all(line.split(",")[2] == "pass" for line in lines[1:])


@pytest.mark.parametrize("command", [
    ["convert", "{mixed}", "--to", "randomized", "--space", "{space}",
     "-o", "{tmp}"],  # a directory
    ["fuzz", "--instances", "1", "--samples", "100",
     "-o", "{tmp}/missing/dir/x.csv"],
])
def test_unwritable_output_is_an_input_error(command, files, capsys):
    assert main([arg.format(**files) for arg in command]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_validate_pure_with_extra_outcome(files, tmp_path, capsys):
    pure = tmp_path / "pure.json"
    dump_json({"kind": "pure", "stop_index": {"w1": 1, "w2": 1, "zz": 0}}, pure)
    assert main(["validate", str(pure), "--space", files["space"]]) == 1
    out = capsys.readouterr().out
    assert "ExtraOutcome" in out and "'zz'" in out
    assert "valid\n" not in out


SPACE_DOC = {"grid": ["0", "1"], "outcomes": ["w1", "w2"],
             "probs": ["1/2", "1/2"],
             "partitions": [[["w1", "w2"]], [["w1"], ["w2"]]]}


def test_fuzz_bound_over_the_cap_is_an_input_error(monkeypatch, capsys):
    # the config is rejected when built; the campaign must never start
    def never(config):
        raise AssertionError("campaign started")

    monkeypatch.setattr(experiment, "run_experiment", never)
    assert main(["fuzz", "--max-outcomes", "100000000"]) == 2
    assert "max_outcomes" in capsys.readouterr().err


def test_fuzz_max_denominator_over_int64_is_an_input_error(monkeypatch,
                                                            capsys):
    # a bound numpy cannot draw once failed inside the first instance
    def never(config):
        raise AssertionError("campaign started")

    monkeypatch.setattr(experiment, "run_experiment", never)
    assert main(["fuzz", "--max-denominator", str(2**63)]) == 2
    assert "max_denominator" in capsys.readouterr().err


def _fuzz_config(argv, monkeypatch):
    """The one config `stoptime fuzz argv` hands to the campaign."""
    seen = []

    def record(config):
        seen.append(config)
        return ExperimentReport((), 0)

    monkeypatch.setattr(experiment, "run_experiment", record)
    assert main(["fuzz", *argv]) == 0
    (config,) = seen
    return config


def test_fuzz_defaults_are_the_config_defaults(monkeypatch, capsys):
    # `stoptime fuzz` with no flags runs ExperimentConfig(), whose bounds
    # are FuzzBounds' defaults: one source for every campaign default
    monkeypatch.delenv("STOPTIME_SEED", raising=False)
    assert _fuzz_config([], monkeypatch) == ExperimentConfig()
    assert ExperimentConfig().bounds() == fuzz.FuzzBounds()
    capsys.readouterr()


@pytest.mark.parametrize("flag, field, value", [
    ("--seed", "seed", 3),
    ("--instances", "n_instances", 7),
    ("--samples", "n_samples", 500),
    ("--max-outcomes", "max_outcomes", 5),
    ("--max-grid-points", "max_grid_points", 4),
    ("--max-breaks", "max_breaks", 3),
    ("--max-denominator", "max_denominator", 17),
    ("--tv-tolerance", "tv_tolerance", 0.25),
    ("--jobs", "jobs", 2),
])
def test_each_fuzz_option_sets_its_config_field(flag, field, value,
                                                monkeypatch, capsys):
    monkeypatch.delenv("STOPTIME_SEED", raising=False)
    assert (_fuzz_config([flag, str(value)], monkeypatch)
            == ExperimentConfig(**{field: value}))
    capsys.readouterr()


def test_fuzz_seed_env_beats_the_seed_option(monkeypatch, capsys):
    monkeypatch.setenv("STOPTIME_SEED", "11")
    assert (_fuzz_config(["--seed", "3", "--jobs", "2"], monkeypatch)
            == ExperimentConfig(seed=11, jobs=2))
    capsys.readouterr()


def test_fuzz_passing_rows_build_no_witness(capsys):
    # at these accepted bounds a passing game row holds a payoff of more
    # than 4300 digits; building its unused witness text once raised
    # Python's int-to-str limit and the campaign exited 2 with no CSV
    assert main(["fuzz", "--instances", "2", "--seed", "1",
                 "--max-outcomes", "8", "--max-grid-points", "64",
                 "--max-denominator", "9223372036854775807",
                 "--samples", "1000", "--tv-tolerance", "1"]) == 0
    out, err = capsys.readouterr()
    assert err == "# 23 checks, 0 failed\n"
    assert out.startswith("instance,check,status,witness\n")


@pytest.mark.parametrize("doc, with_space", [
    (dict(SPACE_DOC, outcomes=5), False),
    (dict(SPACE_DOC, outcomes=[["a"], "b"]), False),
    ({"kind": "pure", "stop_index": {"w1": [1], "w2": 1}}, True),
    ({"kind": "mixed", "sections": {"w1": 5, "w2": 5}}, True),
    ({"kind": "randomized", "paths": 7}, True),
    ({"values": 3}, False),
    ({"kind": "distribution", "mass": {"w1": "10", "w2": ["0", "1/2"]}}, True),
    ({"kind": "distribution", "mass": {"w1": ["1e3", "0"], "w2": ["0", "1/2"]}},
     True),
], ids=["outcomes-int", "outcomes-list-label", "pure-list-index",
        "mixed-int-section", "randomized-int-paths", "process-int-values",
        "mass-string-row", "mass-exponent"])
def test_malformed_document_is_an_input_error(doc, with_space, files,
                                              tmp_path, capsys):
    path = tmp_path / "doc.json"
    dump_json(doc, path)
    argv = ["validate", str(path)]
    if with_space:
        argv += ["--space", files["space"]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("cell, text", [
    (True, "bad rational True: a boolean is not a rational"),
    (None, "bad rational None: null is not a rational"),
    ("seven", "bad rational 'seven': Invalid literal for Fraction: 'seven'"),
    ("1e\u0663", "bad rational '1e\u0663': exponents are not accepted; "
                 "write p/q"),
])
def test_validate_names_what_a_bad_rational_is(cell, text, files, tmp_path,
                                               capsys):
    path = tmp_path / "rho.json"
    dump_json({"kind": "randomized", "paths": {"w1": [cell, "1"],
                                               "w2": ["1", "1"]}}, path)
    assert main(["validate", str(path), "--space", files["space"]]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"


def test_deeply_nested_json_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", str(path)]) == 2
    assert capsys.readouterr().err.startswith("error:")


def _value_paths(doc, prefix=()):
    """Every key or index path to a value inside a JSON document."""
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield prefix + (key,)
        yield from _value_paths(value, prefix + (key,))


def _replaced(doc, path, value):
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


def _valid_documents():
    space = demo.coin_space()
    docs = {"space": space_to_dict(space),
            "process": {"values": {"w1": ["0", "1"], "w2": ["1/2", "1"]}},
            "pure": {"kind": "pure", "stop_index": {"w1": 0, "w2": 1}}}
    for name, eta in (("mixed", demo.coin_mixed()),
                      ("randomized", demo.coin_randomized()),
                      ("distribution", demo.coin_uniform_delta())):
        docs[name] = stopping_time_to_dict(eta)
    return docs


VALID_DOCS = _valid_documents()
JSON_VALUES = st.one_of(
    st.integers(-3, 3), st.text(max_size=4),
    st.lists(st.integers(-1, 2), max_size=3),
    st.dictionaries(st.sampled_from(["w1", "w2", "x"]), st.integers(0, 2),
                    max_size=2),
    st.none())


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(VALID_DOCS)), st.data(), JSON_VALUES)
def test_validate_exit_code_on_retyped_documents(name, data, value):
    """Swap one value of a valid document for another JSON type: validate
    answers 0, 1 or 2 and raises nothing."""
    paths = list(_value_paths(VALID_DOCS[name]))
    path = data.draw(st.sampled_from(paths))
    broken = _replaced(VALID_DOCS[name], path, value)
    with tempfile.TemporaryDirectory() as tmp:
        space = os.path.join(tmp, "space.json")
        doc = os.path.join(tmp, "doc.json")
        dump_json(broken if name == "space" else VALID_DOCS["space"], space)
        dump_json(broken if name != "space" else VALID_DOCS["mixed"], doc)
        runs = [["validate", doc, "--space", space]]
        if name == "space":
            runs.append(["validate", space])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes = [main(argv) for argv in runs]
    assert set(codes) <= {0, 1, 2}
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("tolerance", ["nan", "inf"])
def test_fuzz_non_finite_tolerance_is_an_input_error(tolerance, capsys):
    assert main(["fuzz", "--instances", "1", "--samples", "10",
                 "--tv-tolerance", tolerance]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("doc, with_space", [
    ({"kind": "pure", "stop_index": {"w1": 0, "w2": 1}, "typo_key": 1}, True),
    ({"kind": "mixed", "sections": {
        "w1": {"breaks": ["0", "1"], "values": [0], "extra": []},
        "w2": {"breaks": ["0", "1"], "values": [1]}}}, True),
    ({"kind": "randomized", "paths": {"w1": ["1", "1"], "w2": ["1", "1"]},
      "mass": {}}, True),
    ({"kind": "distribution", "mass": {"w1": ["1/4", "1/4"],
                                       "w2": ["1/4", "1/4"]}, "note": ""},
     True),
    (dict(SPACE_DOC, comment="x"), False),
    ({"values": {"w1": ["0", "1"]}, "unit": "s"}, False),
], ids=["pure", "mixed-section", "randomized", "distribution", "space",
        "process"])
def test_unknown_key_is_an_input_error(doc, with_space, files, tmp_path,
                                       capsys):
    path = tmp_path / "doc.json"
    dump_json(doc, path)
    argv = ["validate", str(path)]
    if with_space:
        argv += ["--space", files["space"]]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "valid" not in out
    assert err.startswith("error:") and "unexpected key" in err


# argv templates per subcommand; {space}, {process}, {stop} and {other}
# name files holding a space, a process and two stopping times
SUBCOMMANDS = {
    "convert": ("convert", "{stop}", "--to", "mixed", "--space", "{space}"),
    "equiv": ("equiv", "{stop}", "{other}", "--space", "{space}"),
    "payoff": ("payoff", "--space", "{space}", "--reward", "{process}",
               "--stop", "{stop}", "--check-kuhn"),
    "game": ("game", "--space", "{space}", "--x", "{process}",
             "--y", "{process}", "--z", "{process}", "--p1", "{stop}",
             "--p2", "{other}"),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMANDS))
@settings(max_examples=30, deadline=None)
@given(name=st.sampled_from(sorted(VALID_DOCS)), data=st.data(),
       value=JSON_VALUES)
def test_subcommand_exit_code_on_retyped_documents(command, name, data,
                                                   value):
    """The same retyped documents fed to convert, equiv, payoff and game:
    each answers 0, 1 or 2 and raises nothing."""
    paths = list(_value_paths(VALID_DOCS[name]))
    path = data.draw(st.sampled_from(paths))
    broken = _replaced(VALID_DOCS[name], path, value)
    role = name if name in ("space", "process") else "stop"
    docs = {"space": VALID_DOCS["space"], "process": VALID_DOCS["process"],
            "stop": VALID_DOCS["mixed"], "other": VALID_DOCS["randomized"],
            role: broken}
    with tempfile.TemporaryDirectory() as tmp:
        files = {}
        for key, doc in docs.items():
            files[key] = os.path.join(tmp, f"{key}.json")
            dump_json(doc, files[key])
        argv = [arg.format(**files) for arg in SUBCOMMANDS[command]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in {0, 1, 2}
    assert "Traceback" not in err.getvalue()


def test_sample_rejects_invalid_reference(files, tmp_path, capsys):
    ref = tmp_path / "ref.json"
    dump_json({"kind": "distribution",
               "mass": {"w1": ["1", "-1/2"], "w2": ["0", "0"]}}, ref)
    assert main(["sample", "--space", files["space"], "--stop", files["mixed"],
                 "--n", "1000", "--ref", str(ref)]) == 2
    out, err = capsys.readouterr()
    assert "tv," not in out
    assert err.startswith("error:") and "invalid stopping time" in err


def _reward_with_extra_row(tmp_path):
    path = tmp_path / "extra.json"
    dump_json({"values": {"w1": ["0", "1"], "w2": ["0", "1"],
                          "zz": ["5", "5"]}}, path)
    return str(path)


def test_payoff_rejects_reward_with_extra_outcome(files, tmp_path, capsys):
    assert main(["payoff", "--space", files["space"],
                 "--reward", _reward_with_extra_row(tmp_path),
                 "--stop", files["mixed"]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "ExtraOutcome" in err and "'zz'" in err


def test_game_rejects_table_with_extra_outcome(files, tmp_path, capsys):
    assert main(["game", "--space", files["space"],
                 "--x", _reward_with_extra_row(tmp_path),
                 "--y", files["reward"], "--z", files["reward"],
                 "--p1", files["mixed"], "--p2", files["randomized"]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "ExtraOutcome" in err and "x: 'zz'" in err


def test_validate_process_rows_against_space(files, tmp_path, capsys):
    short = tmp_path / "short.json"
    dump_json({"values": {"w1": ["0"], "w2": ["0", "1"]}}, short)
    assert main(["validate", str(short), "--space", files["space"]]) == 1
    out = capsys.readouterr().out
    assert out.splitlines() == ["RowShapeMismatch: values: row for 'w1' "
                                "has length 1"]
    # the rejection validate now reports is the one payoff makes
    assert main(["payoff", "--space", files["space"], "--reward", str(short),
                 "--stop", files["mixed"]]) == 2
    capsys.readouterr()
    # without --space only the document itself is checked
    assert main(["validate", str(short)]) == 0
    assert capsys.readouterr().out == "valid\n"
    assert main(["validate", files["reward"], "--space", files["space"]]) == 0


# rationals a document may carry: beyond float range, beyond the
# int-string limit, malformed, and JSON numbers where strings belong
EXTREME_VALUES = st.sampled_from([
    HUGE, "-" + HUGE, "1/" + HUGE, "-7/" + HUGE, HUGE + "/3", "9" * 4000,
    "9" * 5000, "1/0", "0/0", "1e999", "nan", "inf", "-", "", " 1 ",
    "1/2/3", 10**400, -(10**400), 1.5, 1e308, True, None, [HUGE], {}])
RATIONAL = re.compile(r"-?\d+(/\d+)?$")


def _huge_rationals(doc, sign):
    """doc with every rational string scaled by 10**400 (sign: negated)."""
    if isinstance(doc, dict):
        return {k: _huge_rationals(v, sign) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_huge_rationals(v, sign) for v in doc]
    if isinstance(doc, str) and RATIONAL.match(doc):
        return str(Fraction(doc) * 10**400 * (-1 if sign else 1))
    return doc


def _renamed(doc, path, new_key):
    """doc with the key at path renamed: a foreign outcome or field."""
    doc = copy.deepcopy(doc)
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[new_key] = target.pop(path[-1])
    return doc


@st.composite
def broken_documents(draw):
    """(role, document): one valid document made malformed or extreme."""
    name = draw(st.sampled_from(sorted(VALID_DOCS)))
    doc = VALID_DOCS[name]
    paths = list(_value_paths(doc))
    how = draw(st.sampled_from(["value", "retype", "rename", "huge"]))
    if how == "value":
        doc = _replaced(doc, draw(st.sampled_from(paths)),
                        draw(EXTREME_VALUES))
    elif how == "retype":
        doc = _replaced(doc, draw(st.sampled_from(paths)), draw(JSON_VALUES))
    elif how == "rename":
        keyed = [p for p in paths if isinstance(p[-1], str)]
        doc = _renamed(doc, draw(st.sampled_from(keyed)),
                       draw(st.sampled_from(["zz", "w3", "w2", "", "kind"])))
    else:
        doc = _huge_rationals(doc, draw(st.booleans()))
    return (name if name in ("space", "process") else "stop"), doc


CONTRACT_COMMANDS = dict(SUBCOMMANDS, validate=("validate", "{stop}",
                                                "--space", "{space}"),
                         validate_process=("validate", "{process}",
                                           "--space", "{space}"))


@settings(max_examples=100, deadline=None)
@given(command=st.sampled_from(sorted(CONTRACT_COMMANDS)),
       broken=broken_documents(), stop=st.sampled_from(
           ["mixed", "randomized", "distribution", "pure"]))
def test_exit_code_contract_on_malformed_and_extreme_documents(command,
                                                               broken, stop):
    """validate, convert, equiv, payoff and game on one malformed or
    extreme document: exit 0, 1 or 2, and never a traceback."""
    role, doc = broken
    docs = {"space": VALID_DOCS["space"], "process": VALID_DOCS["process"],
            "stop": VALID_DOCS[stop], "other": VALID_DOCS["randomized"],
            role: doc}
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for key, value in docs.items():
            paths[key] = os.path.join(tmp, f"{key}.json")
            dump_json(value, paths[key])
        argv = [arg.format(**paths) for arg in CONTRACT_COMMANDS[command]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in {0, 1, 2}
    assert "Traceback" not in err.getvalue()
    if code == 2:
        assert err.getvalue().startswith("error:")


# the nine request kinds of the benchmark's cli-requests workload
REQUEST_KINDS = {
    "validate": ("validate", "{mixed}", "--space", "{space}"),
    "convert-distribution": ("convert", "{mixed}", "--to", "distribution",
                             "--space", "{space}"),
    "convert-mixed": ("convert", "{randomized}", "--to", "mixed",
                      "--space", "{space}"),
    "convert-randomized": ("convert", "{distribution}", "--to", "randomized",
                           "--space", "{space}"),
    "equiv-same": ("equiv", "{mixed}", "{randomized}", "--space", "{space}"),
    "equiv-different": ("equiv", "{distribution}", "{mixed2}",
                        "--space", "{space}"),
    "validate-corrupt": ("validate", "{corrupt}", "--space", "{space}"),
    "payoff": ("payoff", "--space", "{space}", "--reward", "{reward}",
               "--stop", "{randomized}", "--check-kuhn"),
    "game": ("game", "--space", "{space}", "--x", "{x}", "--y", "{y}",
             "--z", "{z}", "--p1", "{mixed}", "--p2", "{mixed2}",
             "--route", "both"),
}

# (exit code, first 16 hex digits of the SHA-256 of stdout) per kind
REQUEST_OUTPUTS = {
    "validate": (0, "009d962905920ad0"),
    "convert-distribution": (0, "da3764038c55da04"),
    "convert-mixed": (0, "a7703c60edd7fbdd"),
    "convert-randomized": (0, "f347046a5431a1bc"),
    "equiv-same": (0, "82318cd9ffcc16fc"),
    "equiv-different": (1, "6b5c654cc4c52970"),
    "validate-corrupt": (1, "bc96ea64c24c04c3"),
    "payoff": (0, "1bf2ea263fec872d"),
    "game": (0, "3982970b3b1aa9ff"),
}


def test_request_outputs_are_byte_identical(tmp_path, capsys):
    # the first stream of seed 11 with exactly 32 outcomes and 12 grid
    # points, at the workload's bounds
    bounds = fuzz.FuzzBounds(max_outcomes=32, max_grid_points=12,
                             max_breaks=16)
    inst = next(inst for inst in (
        fuzz.random_instance(np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(11, spawn_key=(index,)))), bounds,
            min_outcomes=32) for index in range(100))
        if inst.space.n_times == 12)
    paths = {"space": tmp_path / "space.json"}
    dump_json(space_to_dict(inst.space), paths["space"])
    for key in ("mixed", "randomized", "distribution", "mixed2", "corrupt"):
        eta = (fuzz.corrupt_mixed(inst.space, inst.mixed) if key == "corrupt"
               else getattr(inst, key))
        paths[key] = tmp_path / f"{key}.json"
        dump_json(stopping_time_to_dict(eta), paths[key])
    for key in ("reward", "x", "y", "z"):
        paths[key] = tmp_path / f"{key}.json"
        dump_json(process_to_dict(getattr(inst, key)), paths[key])
    seen = {}
    for kind, template in REQUEST_KINDS.items():
        code = main([arg.format(**paths) for arg in template])
        out = capsys.readouterr().out
        seen[kind] = (code, hashlib.sha256(out.encode()).hexdigest()[:16])
    assert seen == REQUEST_OUTPUTS


def test_main_builds_one_parser_per_process(files, monkeypatch, capsys):
    built = []
    build = cli.build_parser

    def counted():
        built.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counted)
    cli._parser.cache_clear()
    try:
        assert main(["validate", files["space"]]) == 0
        assert main(["equiv", files["mixed"], files["flipped"],
                     "--space", files["space"]]) == 0
    finally:
        cli._parser.cache_clear()
    assert len(built) == 1
    assert capsys.readouterr().out == "valid\nequivalent\n"


def test_redundant_break_prints_what_its_merged_form_prints(tmp_path,
                                                           capsys):
    # a break at 1/4 splits w1's first interval into two of one value; the
    # coarse coin space cuts the flipped sections apart, so validate
    # reports there, and convert and equiv take the time on the fine space
    spaces = {}
    for name, space in (("coarse", coin_space_coarse()),
                        ("fine", demo.coin_space())):
        spaces[name] = tmp_path / f"{name}.json"
        dump_json(space_to_dict(space), spaces[name])
    other = tmp_path / "other.json"
    dump_json({"kind": "randomized",
               "paths": {"w1": ["1/3", "1"], "w2": ["1/3", "1"]}}, other)
    merged = {"w1": {"breaks": ["0", "1/2", "1"], "values": [0, 1]},
              "w2": {"breaks": ["0", "1/2", "1"], "values": [1, 0]}}
    split = {**merged,
             "w1": {"breaks": ["0", "1/4", "1/2", "1"], "values": [0, 0, 1]}}
    seen = []
    for name, sections in (("merged", merged), ("split", split)):
        doc = tmp_path / f"{name}.json"
        dump_json({"kind": "mixed", "sections": sections}, doc)
        outputs = []
        for argv, space in ((["validate", doc], "coarse"),
                            (["convert", doc, "--to", "distribution"], "fine"),
                            (["equiv", doc, other], "fine"),
                            (["equiv", doc, doc], "fine")):
            code = main([*map(str, argv), "--space", str(spaces[space])])
            outputs.append((code, capsys.readouterr()))
        seen.append(outputs)
    assert seen[0] == seen[1]
    assert [code for code, _ in seen[0]] == [1, 0, 1, 0]
    assert "NotJointlyMeasurable" in seen[0][0][1].out


# Most draws are at the default scale.  The rest reach either MAX_CELLS
# cells at the default denominator or a denominator up to 2**63 - 1 on at
# most 16 x 16 cells.  A wide grid with wide denominators makes numbers of
# grid x 63 bits, on which every command is slow, convert most of all: the
# 246-point @example below takes about 7 s, 1 s of it in the game route,
# and a 501-point instance about 48 s, so only the example draws one.
@st.composite
def accepted_bounds(draw):
    """FuzzBounds from the range ExperimentConfig accepts."""
    scale = draw(st.sampled_from(["default"] * 3 + ["cells", "denominator"]))
    if scale == "default":
        outcomes, grid = draw(st.integers(1, 8)), draw(st.integers(1, 6))
        denominator = draw(st.integers(1, 64))
    elif scale == "cells":
        outcomes = draw(st.integers(1, 128))
        grid = draw(st.integers(1, MAX_CELLS // outcomes))
        denominator = draw(st.integers(1, 64))
    else:
        outcomes, grid = draw(st.integers(1, 16)), draw(st.integers(1, 16))
        denominator = draw(st.integers(1, 2**63 - 1))
    return fuzz.FuzzBounds(max_outcomes=outcomes, max_grid_points=grid,
                           max_breaks=draw(st.integers(1, 16)),
                           max_denominator=denominator)


def _cli(argv) -> tuple:
    """(exit code, stdout) of one in-process call, which writes no stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in argv])
    assert err.getvalue() == ""
    return code, out.getvalue()


@settings(max_examples=8, deadline=None)
@given(bounds=accepted_bounds(), seed=st.integers(0, 2**32),
       index=st.integers(0, 2**16))
# the instance whose game value once passed Python's int-string limit
@example(bounds=ExperimentConfig(seed=1, max_outcomes=8, max_grid_points=64,
                                 max_denominator=2**63 - 1).bounds(),
         seed=1, index=1)
# a wide grid with wide denominators: 246 grid points over 2**63 - 1
@example(bounds=fuzz.FuzzBounds(1, 512, 8, 2**63 - 1), seed=1, index=22)
def test_cli_prints_the_library_answer_for_accepted_bounds(bounds, seed,
                                                           index):
    """validate, convert, equiv, payoff --check-kuhn, game --route both and
    sample on a fuzzed instance: each exits 0 (equiv 1 on a pair that
    differs) and prints the library's answer, a mass's draws those of its
    path; a corrupted mixed time is rejected with exit 1."""
    inst, _ = experiment.draw(ExperimentConfig(seed=seed, **vars(bounds)),
                              index)
    space = inst.space
    stops = ("pure", "mixed", "randomized", "distribution", "mixed2")
    corrupt = fuzz.corrupt_mixed(space, inst.mixed)
    game = games.StoppingGame(space, inst.x, inst.y, inst.z)
    with unlimited_int_digits(), tempfile.TemporaryDirectory() as tmp:
        paths = {key: os.path.join(tmp, f"{key}.json")
                 for key in ("space", "reward", *"xyz", *stops, "corrupt",
                             "rho")}
        dump_json(space_to_dict(space), paths["space"])
        for key in ("reward", *"xyz"):
            dump_json(process_to_dict(getattr(inst, key)), paths[key])
        for key in stops:
            dump_json(stopping_time_to_dict(getattr(inst, key)), paths[key])
        on = ("--space", paths["space"])

        for key in stops:
            assert _cli(["validate", paths[key], *on]) == (0, "valid\n")
        for key in stops[:4]:  # one time of each kind
            delta = convert.to_distribution(space, getattr(inst, key))
            rho = convert.randomized_of_distribution(space, delta)
            want = {"distribution": delta, "randomized": rho,
                    "mixed": convert.mixed_of_randomized(space, rho)}
            for kind, eta in want.items():
                code, out = _cli(["convert", paths[key], "--to", kind, *on])
                assert code == 0
                assert json.loads(out) == stopping_time_to_dict(eta)

        for a, b in (("mixed", "randomized"), ("distribution", "pure"),
                     ("mixed2", "distribution")):
            diff = convert.first_difference(space, getattr(inst, a),
                                            getattr(inst, b))
            want = ((0, "equivalent\n") if diff is None else (
                1, "not equivalent: outcome {} time {}: {} != {}\n".format(
                    *diff)))
            assert _cli(["equiv", paths[a], paths[b], *on]) == want

        value = cli._exact(problems.payoff(
            problems.StoppingProblem(space, inst.reward), inst.mixed))
        assert _cli(["payoff", *on, "--reward", paths["reward"], "--stop",
                     paths["mixed"], "--check-kuhn"]) == (
            0, f"{value}\nall representation routes agree\n")
        value = cli._exact(games.game_payoff_via_lift(game, inst.mixed,
                                                      inst.mixed2))
        assert _cli(["game", *on, "--x", paths["x"], "--y", paths["y"],
                     "--z", paths["z"], "--p1", paths["mixed"], "--p2",
                     paths["mixed2"], "--route", "both"]) == (
            0, f"lift:      {value}\nsymmetric: {value}\n")

        reference = convert.to_distribution(space, inst.distribution)
        draws = ("--n", 2000, "--seed", seed, "--ref", paths["distribution"])
        for key in stops[:4]:
            rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(
                cli._seed(argparse.Namespace(seed=seed)))))
            freq, tv = sampling.frequencies(space, sampling.sample_counts(
                space, getattr(inst, key), rng, 2000), reference)
            want = "".join(f"{w},{space.grid[j]},{f:.6f}\n"
                           for (w, j), f in sorted(freq.items()))
            assert _cli(["sample", *on, "--stop", paths[key], *draws]) == (
                0, f"{want}tv,{tv:.6f}\n")
        code, out = _cli(["convert", paths["distribution"], "--to",
                          "randomized", *on])
        assert code == 0
        Path(paths["rho"]).write_text(out)
        assert (_cli(["sample", *on, "--stop", paths["rho"], *draws])
                == _cli(["sample", *on, "--stop", paths["distribution"],
                         *draws]))

        if corrupt is not None:
            dump_json(stopping_time_to_dict(corrupt), paths["corrupt"])
            report = "".join(f"{v}\n" for v in validate(space, corrupt))
            assert report
            assert _cli(["validate", paths["corrupt"], *on]) == (1, report)


TYPED_SPACE = {"grid": ["0", "1/2", "1"], "outcomes": ["w1", "w2", "w3"],
               "probs": ["1/3", "1/3", "1/3"],
               "partitions": [[["w1", "w2", "w3"]], [["w1", "w2"], ["w3"]],
                              [["w1"], ["w2"], ["w3"]]]}


def _with_block(block) -> dict:
    return {**TYPED_SPACE, "partitions": [[["w1", "w2", "w3"]],
                                          [block, ["w3"]],
                                          [["w1"], ["w2"], ["w3"]]]}


def _with_values(w, values) -> dict:
    sections = {v: {"breaks": ["0", "1/2", "1"], "values": [0, 1]}
                for v in ("w1", "w2", "w3")}
    sections[w]["values"] = values
    return {"kind": "mixed", "sections": sections}


@pytest.mark.parametrize("doc, on_space, text", [
    # outcome labels: the offender first, in the middle and last, with a
    # later offender of another type where there is room for one
    ({**TYPED_SPACE, "outcomes": [7, "w2", None]}, False,
     "outcome label must be a string, not int"),
    ({**TYPED_SPACE, "outcomes": ["w1", 7.5, None]}, False,
     "outcome label must be a string, not float"),
    ({**TYPED_SPACE, "outcomes": ["w1", "w2", False]}, False,
     "outcome label must be a string, not bool"),
    # a partition block
    (_with_block([3, "w2", None]), False,
     "outcome label must be a string, not int"),
    (_with_block(["w1", None, 4]), False,
     "outcome label must be a string, not NoneType"),
    (_with_block(["w1", "w2", ["w3"]]), False,
     "outcome label must be a string, not list"),
    # section values: a `true` among ints
    (_with_values("w1", [True, "1"]), True,
     "bad section for 'w1': section value must be an integer, not bool"),
    (_with_values("w2", [0, True, "2"]), True,
     "bad section for 'w2': section value must be an integer, not bool"),
    (_with_values("w3", [0, False]), True,
     "bad section for 'w3': section value must be an integer, not bool"),
    # stop indices
    ({"kind": "pure", "stop_index": {"w1": True, "w2": "1", "w3": 2}}, True,
     "stop index of 'w1' must be an integer, not bool"),
    ({"kind": "pure", "stop_index": {"w1": 0, "w2": None, "w3": 2.0}}, True,
     "stop index of 'w2' must be an integer, not NoneType"),
    ({"kind": "pure", "stop_index": {"w1": 0, "w2": 1, "w3": [2]}}, True,
     "stop index of 'w3' must be an integer, not list"),
])
def test_one_pass_type_checks_name_the_first_offender(doc, on_space, text,
                                                      tmp_path, capsys):
    # a list is type-checked in one pass and walked only to word the
    # error: the text names the first offender, as the per-element walk did
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    argv = ["validate", str(path)]
    if on_space:
        space = tmp_path / "space.json"
        space.write_text(json.dumps(TYPED_SPACE))
        argv += ["--space", str(space)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {text}\n")


# ---------------------------------------------------------------------------
# the exact commands print the same on an instance and on its split,
# refined or permuted copy

TIMES = ("pure", "mixed", "randomized", "distribution", "mixed2")
PROCESSES = ("reward", "x", "y", "z")
TRANSFORMS = {
    "split": split,
    "refine": lambda inst: refine(inst, inst.space.n_times // 2),
    "permute": lambda inst: permute(
        inst, range(len(inst.space.outcomes))[::-1]),
}


def _dump_instance(inst, folder) -> dict:
    """The path of each of the instance's documents, written in folder."""
    folder.mkdir()
    docs = {"space": space_to_dict(inst.space),
            **{k: stopping_time_to_dict(getattr(inst, k)) for k in TIMES},
            **{k: process_to_dict(getattr(inst, k)) for k in PROCESSES}}
    for name, doc in docs.items():
        dump_json(doc, folder / f"{name}.json")
    return {name: str(folder / f"{name}.json") for name in docs}


def _exact_verdicts(paths, capsys) -> list:
    """(exit code, output) of validate, equiv, payoff --check-kuhn and game
    --route both on the documents; a non-equivalence witness names an
    outcome and a time, so only its verdict is kept."""
    space = ["--space", paths["space"]]
    runs = [["validate", paths["space"]]]
    runs += [["validate", paths[k], *space] for k in TIMES + PROCESSES]
    runs += [["equiv", paths[a], paths[b], *space]
             for a, b in (("mixed", "distribution"),
                          ("randomized", "distribution"), ("mixed", "mixed2"))]
    runs += [["payoff", *space, "--reward", paths["reward"], "--stop",
              paths[k], "--check-kuhn"] for k in TIMES]
    runs.append(["game", *space, "--x", paths["x"], "--y", paths["y"],
                 "--z", paths["z"], "--p1", paths["mixed"], "--p2",
                 paths["mixed2"], "--route", "both"])
    seen = []
    for argv in runs:
        code = main(argv)
        out = capsys.readouterr().out
        seen.append((code, out.split(":")[0] if code == 1 else out))
    return seen


@pytest.mark.parametrize("transform", sorted(TRANSFORMS))
def test_exact_commands_print_the_same_on_a_transformed_instance(
        transform, tmp_path, capsys):
    # instance 31 of the seed-7 campaign: 8 outcomes, 6 grid points, every
    # level but the first with shared blocks, and two mixed times that differ
    inst, _ = experiment.draw(ExperimentConfig(seed=7), 31)
    want = _exact_verdicts(_dump_instance(inst, tmp_path / "original"),
                           capsys)
    moved = TRANSFORMS[transform](inst)
    assert _exact_verdicts(_dump_instance(moved, tmp_path / transform),
                           capsys) == want
    assert [code for code, _ in want].count(1) == 1
    assert want[-1][1].startswith("lift:")
