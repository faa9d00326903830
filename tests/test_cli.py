import json

import pytest

from stoptime import demo
from stoptime.cli import main
from stoptime.serialize import (dump_json, space_to_dict,
                                stopping_time_to_dict)


@pytest.fixture
def files(tmp_path):
    space = demo.coin_space()
    paths = {"space": tmp_path / "space.json"}
    dump_json(space_to_dict(space), paths["space"])
    for name, eta in (("mixed", demo.coin_mixed()),
                      ("flipped", demo.coin_mixed_flipped()),
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


def test_convert_to_randomized(files, capsys):
    out = files["tmp"] + "/rho.json"
    assert main(["convert", files["mixed"], "--to", "randomized",
                 "--space", files["space"], "-o", out]) == 0
    doc = json.load(open(out))
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


def test_game_p2view(files, capsys):
    assert main(["game", "--space", files["space"],
                 "--x", files["reward"], "--y", files["reward"],
                 "--z", files["reward"], "--p1", files["delta"],
                 "--p2", files["mixed"], "--route", "p2view"]) == 0


def test_sample_with_reference(files, capsys):
    assert main(["sample", "--space", files["space"], "--stop", files["mixed"],
                 "--n", "2000", "--seed", "3", "--ref", files["delta"]]) == 0
    out = capsys.readouterr().out
    assert out.count("\n") == 5  # four atoms plus the TV line
    tv = float(out.strip().splitlines()[-1].split(",")[1])
    assert tv < 0.05


def test_sample_seed_env_override(files, capsys, monkeypatch):
    main(["sample", "--space", files["space"], "--stop", files["delta"],
          "--n", "500", "--seed", "1"])
    base = capsys.readouterr().out
    monkeypatch.setenv("STOPTIME_SEED", "1")
    main(["sample", "--space", files["space"], "--stop", files["delta"],
          "--n", "500", "--seed", "999"])
    assert capsys.readouterr().out == base


def test_fuzz_small_campaign(files, capsys):
    out = files["tmp"] + "/report.csv"
    assert main(["fuzz", "--instances", "5", "--seed", "1",
                 "--samples", "2000", "--tv-tolerance", "0.05", "-o", out]) == 0
    lines = open(out).read().splitlines()
    assert lines[0] == "instance,check,status,witness"
    assert all(line.split(",")[2] == "pass" for line in lines[1:])


def test_validate_pure_with_extra_outcome(files, tmp_path, capsys):
    pure = tmp_path / "pure.json"
    dump_json({"kind": "pure", "stop_index": {"w1": 1, "w2": 1, "zz": 0}}, pure)
    assert main(["validate", str(pure), "--space", files["space"]]) == 1
    out = capsys.readouterr().out
    assert "ExtraOutcome" in out and "'zz'" in out
    assert "valid\n" not in out
