"""Every layer the benchmark's tracer times names a function that exists.

``perfbench/tracer.py`` wraps each ``(module, name)`` of its ``LAYERS``
table by ``getattr``, so a renamed or removed function would break a
traced benchmark run.  The file is loaded as it stands, not imported as
a package.
"""

import importlib
import importlib.util
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "tracer.py")


def _layers() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.LAYERS


LAYERS = _layers()


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_layer_resolves(layer):
    module, names = LAYERS[layer]
    mod = importlib.import_module(module)
    for name in names:
        assert callable(getattr(mod, name, None)), f"{layer}: {module}.{name} does not resolve"
