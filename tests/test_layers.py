"""The benchmark's traced run wraps the layer functions named in
benchmarks/spans.py::LAYERS; each name must resolve in its module, so a
rename or deletion fails here instead of breaking the traced run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"


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
