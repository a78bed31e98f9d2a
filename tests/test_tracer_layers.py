"""Every layer the benchmark's tracer times names a function that exists,
and a jittered heterodyne frame calls the synthesis layers by those names.

``perfbench/tracer.py`` wraps each ``(module, name)`` of its ``LAYERS``
table by ``getattr``, so a renamed or removed function would break a
traced benchmark run.  The file is loaded as it stands, not imported as
a package.
"""

import importlib
import importlib.util
import os

import pytest

from sqzbeat.config import merge_config, preset_config
from sqzbeat.runner import run

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench", "tracer.py")


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER_MODULE = _tracer_module()
LAYERS = TRACER_MODULE.LAYERS


@pytest.mark.parametrize("layer", sorted(LAYERS))
def test_traced_layer_resolves(layer):
    module, names = LAYERS[layer]
    mod = importlib.import_module(module)
    for name in names:
        assert callable(getattr(mod, name, None)), f"{layer}: {module}.{name} does not resolve"


def test_a_jittered_target_frame_runs_through_the_traced_layers(tmp_path):
    # the tracer times a layer only where the run calls it by that name:
    # a jittered target frame must still squeeze, pick off and compose
    # through them, once per block (two frames, the fewest a run takes,
    # are one block: reference and target, two beams each, squeezed on
    # the target only)
    cfg = merge_config(preset_config("fig4-demod"), {
        name: {"squeezer": {"angle_jitter_rms_rad": 0.05}} for name in ("pickoff1", "pickoff2")
    })
    tracer = TRACER_MODULE.Tracer()
    tracer.install()
    try:
        run(cfg, frames=2, workers=1, out_dir=str(tmp_path))
    finally:
        tracer.uninstall()
    assert tracer.calls["fields.apply_squeezer"] == 2
    assert tracer.calls["interferometer.pickoff_noise_field"] == 2
    assert tracer.calls["interferometer.compose_beam"] == 4
