"""The benchmark's trace hooks must name functions that exist.

``perfbench/tracing.py`` wraps each ``LAYERS`` entry, a module and a dotted
attribute path, by lookup at run time.  A renamed or deleted function
would break ``perfbench/run.py --trace 1``; this test fails first.  The file
is loaded read-only, by path, and it imports only the standard library.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves_in_degseq():
    layers = load_tracing().LAYERS
    assert "mcmc.switch_connected" in layers
    for layer, (module_name, path, _payload) in layers.items():
        assert module_name == "degseq" or module_name.startswith("degseq."), layer
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{layer}: {module_name}.{path} is missing"
            owner = getattr(owner, part)
        assert callable(owner), layer
