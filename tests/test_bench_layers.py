"""Every layer the benchmark traces still exists in the package.

bench/spans.py is run from its path (no byte code is written next to it),
so a renamed or moved kernel fails here rather than only in a bench run.
"""

import importlib
import pathlib
import runpy

import pytest

SPANS = pathlib.Path(__file__).resolve().parents[1] / "bench" / "spans.py"
LAYERS = runpy.run_path(str(SPANS))["LAYERS"]


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_layer_resolves(layer):
    module, attr = LAYERS[layer]
    mod = importlib.import_module(f"tribessel.{module}")
    assert callable(vars(mod).get(attr)), f"{layer}: tribessel.{module}.{attr}"
