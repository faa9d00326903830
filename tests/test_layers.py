"""The benchmark's traced run wraps the layer functions named in
benchmarks/spans.py::LAYERS; each name must resolve in its module, so a
rename or deletion fails here instead of breaking the traced run.

The filtration is read in one place: spaces are made by build_space and
level partitions are indexed only in space.py (and by the fuzz
generators), so a bypass of either fails here too.  Library callers of
the sampler tally draws as counts, never as one record per draw."""

import importlib
import importlib.util
import re
from pathlib import Path

import pytest

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


def test_partitions_indexed_only_in_space_and_fuzz():
    assert _uses(r"\.partitions\s*\[", {"space.py", "fuzz.py"}) == []


def test_mass_view_read_only_where_fractions_are_the_output():
    # the library reads a joint mass and the cumulative paths as their
    # canonical int rows, sampling's floats included; the Fraction views
    # .mass and .paths are read only where they are defined (a class's own
    # self.mass, such as SubMeasure's, is not the view)
    assert _uses(r"(?<!self)\.(mass|paths)\b", {"times.py"}) == []


def test_library_callers_tally_draws_as_counts():
    # the Monte Carlo rows and `stoptime sample` read sample_counts; one
    # record per draw is built only inside sampling.py
    assert _uses(r"\b(sample_many|SampleRecord)\s*\(", {"sampling.py"}) == []
