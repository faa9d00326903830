"""The benchmark's traced run wraps the layer functions named in
benchmarks/spans.py::LAYERS; each name must resolve in its module, so a
rename or deletion fails here instead of breaking the traced run.

The filtration is read in one place: spaces are made by build_space (a
lifted space is pulled back from a valid one, in space.py too) and level
partitions are indexed only in space.py (and by the fuzz generators), so
a bypass of either fails here too.  Library callers of
the sampler tally draws as counts, never as one record per draw.  Only
the modules that draw import numpy, and the package root loads none of
them, nor dataclasses; the exact CLI commands load neither."""

import ast
import importlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from stoptime import convert, demo, experiment, fuzz, times
from stoptime.serialize import (dump_json, process_from_dict, process_to_dict,
                                space_to_dict, stopping_time_from_dict,
                                stopping_time_to_dict)

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "benchmarks" / "spans.py"
SRC = ROOT / "src" / "stoptime"


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("module", sorted(LAYERS))
def test_every_layer_name_resolves(module):
    mod = importlib.import_module(f"stoptime.{module}")
    for name in LAYERS[module]:
        assert callable(getattr(mod, name, None)), f"stoptime.{module}.{name}"


def _uses(pattern: str, allowed: set) -> list:
    """file:line of every match of pattern in a library module not allowed."""
    return [f"{path.name}:{n}"
            for path in sorted(SRC.glob("*.py")) if path.name not in allowed
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(pattern, line)]


def test_spaces_are_built_by_build_space():
    assert _uses(r"\bFilteredSpace\s*\(", {"space.py"}) == []


def test_build_space_called_only_where_spaces_enter():
    # spaces from documents, the fuzz generators and the demo are checked
    # by build_space; the lift pulls its space back from a valid one and
    # must not route it through check_space again
    assert _uses(r"\bbuild_space\s*\(",
                 {"space.py", "fuzz.py", "serialize.py", "demo.py"}) == []


def test_section_masses_read_only_where_sections_become_joint_masses():
    # every other consumer, the game routes included, reads a joint mass
    assert _uses(r"\bmass_numerators\b", {"times.py", "convert.py"}) == []


def test_cumulative_rows_read_only_where_sections_become_paths():
    # a mixed time's cumulative path is a RandomizedST, built by
    # MixedST.cumulative; cdf_of_mixed reads one entry of a section's row
    assert _uses(r"\bcdf_row\(", {"times.py", "convert.py"}) == []


def test_joint_masses_built_from_int_rows_only_by_pushes_and_loads():
    # convert weights a stop law by P(w) in one place, serialize loads a
    # document; the lift writes canonical rows through _of_canonical
    assert _uses(r"\bDistributionST\.from_rows\(",
                 {"convert.py", "serialize.py"}) == []


def test_partitions_indexed_only_in_space_and_fuzz():
    assert _uses(r"\.partitions\s*\[", {"space.py", "fuzz.py"}) == []


def test_mass_view_read_only_where_fractions_are_the_output():
    # the library reads a joint mass and the cumulative paths as their
    # canonical int rows, sampling's floats included; the Fraction views
    # .mass and .paths are read only where they are defined (an object's
    # own self.mass would not be the view)
    assert _uses(r"(?<!self)\.(mass|paths)\b", {"times.py"}) == []


def test_breaks_view_read_only_where_sections_meet_text():
    # a section's breaks are its int break_ints, which documents are
    # written from too; the Fraction view .breaks is read only in times
    assert _uses(r"\.breaks\b", {"times.py"}) == []


def test_no_library_module_writes_a_hidden_per_object_cache():
    # a frozen value is equal to what its fields say: no memo is written
    # into an object's __dict__ behind its constructor
    assert _uses(r"__dict__", set()) == []


def _unread_imports(path: Path) -> list:
    """file:line name of every name path imports and never reads."""
    tree = ast.parse(path.read_text())
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{path.name}:{node.lineno} {name}"
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
            if (name := alias.asname or alias.name.split(".")[0]) not in read]


def test_no_library_module_imports_a_name_it_never_reads():
    # __init__ imports to re-export; every other import is read
    assert [hit for path in sorted(SRC.glob("*.py"))
            if path.name != "__init__.py"
            for hit in _unread_imports(path)] == []


def test_library_callers_tally_draws_as_counts():
    # the Monte Carlo rows and `stoptime sample` read sample_counts; one
    # record per draw is built only inside sampling.py
    assert _uses(r"\b(sample_many|SampleRecord)\s*\(", {"sampling.py"}) == []


def test_campaign_instances_drawn_only_by_experiment_draw():
    # a campaign instance is experiment.draw(config, index), and its checks
    # run on any instance through run_checks: no other module draws one
    assert _uses(r"\brandom_instance\(", {"fuzz.py", "experiment.py"}) == []


def test_campaign_streams_made_only_by_the_campaign_and_sample():
    # the seed rule is the campaign's; `stoptime sample` reads it unstreamed
    assert _uses(r"\b_rng_for\(", {"experiment.py", "cli.py"}) == []


def test_documents_load_and_print_without_a_fraction_per_cell(monkeypatch):
    # stopping times and processes load into canonical int rows and print
    # from them: no Fraction is built from an integer or "p/q" cell (the
    # space alone holds Fraction probs and grid, and is loaded first)
    bounds = fuzz.FuzzBounds(max_outcomes=32, max_grid_points=12,
                             max_breaks=16)
    inst = next(inst for inst in (
        fuzz.random_instance(np.random.Generator(np.random.PCG64(seed)),
                             bounds, min_outcomes=32) for seed in range(100))
        if inst.space.n_times == 12)
    docs = [stopping_time_to_dict(getattr(inst, key))
            for key in ("randomized", "distribution", "mixed")]
    reward = process_to_dict(inst.reward)
    converted = convert.mixed_of_distribution(inst.space, inst.distribution)

    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    loaded = [stopping_time_from_dict(doc) for doc in docs]
    process = process_from_dict(reward)
    texts = stopping_time_to_dict(converted), process_to_dict(process)
    monkeypatch.undo()
    assert built == []
    assert loaded == [inst.randomized, inst.distribution, inst.mixed]
    assert process == inst.reward
    assert texts[1] == reward and stopping_time_from_dict(texts[0]) == converted


def test_fuzz_instances_build_no_fraction_per_cell(monkeypatch):
    # the generators, the shuffle, the corruption and the common refinement
    # work on int rows and int cuts: a 40-instance seed-7 campaign builds
    # no Fraction inside any of them (elsewhere it still builds results,
    # probs and violation texts)
    depth = [0]
    inside = []
    built = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        (inside if depth[0] else built).append(args)
        return new(cls, *args, **kwargs)

    def entered(fn):
        def call(*args, **kwargs):
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                depth[0] -= 1
        return call

    for module, name in ((fuzz, "random_randomized"),
                         (fuzz, "shuffle_sections"), (fuzz, "corrupt_mixed"),
                         (fuzz, "common_refinement"),
                         (times, "common_refinement")):
        monkeypatch.setattr(module, name, entered(getattr(module, name)))
    monkeypatch.setattr(Fraction, "__new__", counted)
    config = experiment.ExperimentConfig(seed=7, n_instances=40)
    rows = [row for i in range(config.n_instances)
            for row in experiment.check_instance(config, i)]
    monkeypatch.undo()
    assert all(row.status == "pass" for row in rows)
    assert inside == [] and built


# the modules `import stoptime` runs: the root and what it imports
ROOT_MODULES = ("__init__.py", "space.py", "times.py", "convert.py",
                "problems.py", "games.py")


def test_the_package_root_loads_no_numpy():
    # the root is the exact core; the sampler and the campaign, which draw,
    # load numpy only when they are imported by their module.  Its records
    # stand on space.Record: no dataclasses, inspect or typing is imported
    # (site may load typing before the probe, so the sources are read)
    assert {name for path in ROOT_MODULES
            for name in _absolute_imports(SRC / path)} & {
                "dataclasses", "inspect", "typing"} == set()
    probe = ("import sys, stoptime; "
             "print(sorted(set(sys.modules) & {'numpy', 'stoptime.sampling', "
             "'stoptime.experiment', 'stoptime.fuzz', 'dataclasses', "
             "'inspect'})); "
             "from stoptime.sampling import sample_counts; "
             "from stoptime.experiment import run_experiment; "
             "print(callable(sample_counts) and callable(run_experiment))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True,
                          timeout=60)
    assert done.stdout.splitlines() == ["[]", "True"]


def test_the_cli_loads_no_process_pool_and_no_random_module(tmp_path):
    # the exact commands never draw and never start a pool: fuzz loads
    # concurrent.futures only with a pool, and sample and fuzz load numpy
    # only when they run; the parser reads config's Records, not dataclasses
    paths = {}
    for name, doc in (("space", space_to_dict(demo.coin_space())),
                      ("mixed", stopping_time_to_dict(demo.coin_mixed())),
                      ("delta", stopping_time_to_dict(
                          demo.coin_uniform_delta())),
                      ("reward", {"values": {"w1": ["0", "1"],
                                             "w2": ["0", "1"]}})):
        paths[name] = str(tmp_path / f"{name}.json")
        dump_json(doc, paths[name])
    space, mixed, delta, reward = paths.values()
    commands = [
        ["validate", mixed, "--space", space],
        ["convert", mixed, "--to", "randomized", "--space", space,
         "-o", str(tmp_path / "out.json")],
        ["equiv", mixed, delta, "--space", space],
        ["payoff", "--space", space, "--reward", reward, "--stop", mixed],
        ["game", "--space", space, "--x", reward, "--y", reward, "--z",
         reward, "--p1", mixed, "--p2", delta]]
    probe = ("import json, sys, stoptime.cli; "
             "codes = [stoptime.cli.main(argv) "
             "for argv in json.loads(sys.argv[1])]; "
             "print(codes, sorted(set(sys.modules) & {'concurrent.futures', "
             "'numpy', 'numpy.random', 'dataclasses'}))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", probe, json.dumps(commands)],
                          env=env, capture_output=True, text=True,
                          check=True, timeout=60)
    assert done.stdout.splitlines()[-1] == "[0, 0, 0, 0, 0] []"


def _absolute_imports(path: Path) -> set:
    """The top-level package of every absolute import in path."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module)
    return {name.split(".")[0] for name in names}


def test_only_the_modules_that_draw_import_numpy():
    assert [path.name for path in sorted(SRC.glob("*.py"))
            if "numpy" in _absolute_imports(path)] == [
                "experiment.py", "fuzz.py", "sampling.py"]
