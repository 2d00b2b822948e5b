"""The benchmark's layer tracer still finds every name it wraps.

``perfbench/layers.py`` measures each layer by wrapping functions it looks
up by module and attribute path, and reports a name it cannot find as an
absent layer rather than an error.  A refactor that moves or renames one of
them (``CDCLBackend.solve`` for the ``sat`` layer, say) would silently drop
that layer from every traced run; this test makes it fail instead.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _load_layers():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_layers = _load_layers()


@pytest.mark.parametrize(
    "layer,module,path",
    [entry[:3] for entry in _layers.WRAPPED],
    ids=[f"{entry[0]}:{entry[2]}" for entry in _layers.WRAPPED],
)
def test_wrapped_name_resolves(layer, module, path):
    assert _layers._resolve(module, path) is not None, (
        f"perfbench layer {layer!r} would be absent: {module}.{path} not found"
    )
