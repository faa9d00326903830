import contextlib
import copy
import io
import json
import os
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stoptime import cli, convert, demo, fuzz, sampling
from stoptime.cli import main
from stoptime.experiment import ExperimentConfig, ExperimentReport
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
    # that differs was normalised four times
    other = tmp_path / "other.json"
    dump_json({"kind": "randomized",
               "paths": {"w1": ["1/3", "1"], "w2": ["1/3", "1"]}}, other)
    calls = []
    honest = convert.to_distribution

    def counted(space, eta):
        calls.append(eta)
        return honest(space, eta)

    monkeypatch.setattr(convert, "to_distribution", counted)
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
    lines = Path(out).read_text().splitlines()
    assert lines[0] == "instance,check,status,witness"
    assert all(line.split(",")[2] == "pass" for line in lines[1:])


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

    monkeypatch.setattr(cli, "run_experiment", never)
    assert main(["fuzz", "--max-outcomes", "100000000"]) == 2
    assert "max_outcomes" in capsys.readouterr().err


def test_fuzz_defaults_are_the_config_defaults(monkeypatch, capsys):
    # `stoptime fuzz` with no flags runs ExperimentConfig(), whose bounds
    # are FuzzBounds' defaults: one source for every campaign default
    seen = []

    def record(config):
        seen.append(config)
        return ExperimentReport((), 0)

    monkeypatch.delenv("STOPTIME_SEED", raising=False)
    monkeypatch.setattr(cli, "run_experiment", record)
    assert main(["fuzz"]) == 0
    assert seen == [ExperimentConfig()]
    assert ExperimentConfig().bounds() == fuzz.FuzzBounds()
    capsys.readouterr()


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
