"""Every noise input of a heterodyne run draws from its own substream.

The generator of every stream one frame of each acquisition uses is
recorded by its (entropy, spawn_key); a port that reused another's stream
would show up as a duplicate key.  The keys must also follow stream
layout 3 (see ``sqzbeat.rng``): each optical path draws its one vacuum
row straight from its beam's port, every other input from its own port.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

from sqzbeat import rng
from sqzbeat.config import list_presets, preset_config
from sqzbeat.runner import run

HETERODYNE = [name for name, _ in list_presets() if preset_config(name).kind == "heterodyne"]


def _jittered(name):
    # Squeeze-angle jitter adds a per-frame stream of its own.
    cfg = preset_config(name)
    sq = replace(cfg.pickoff1.squeezer, angle_jitter_rms_rad=0.01)
    return replace(cfg, name=f"{name}+jitter", pickoff1=replace(cfg.pickoff1, squeezer=sq))


CONFIGS = [preset_config(name) for name in HETERODYNE] + [_jittered("fig4-demod")]


@pytest.fixture
def stream_log(monkeypatch):
    """Wrap ``rng.generator`` in every sqzbeat module that binds it."""
    log = []
    original = rng.generator

    def recording(seed, *path):
        key = rng.stream_key(seed, *path)
        log.append((key.entropy, key.spawn_key))
        return original(seed, *path)

    for name, module in list(sys.modules.items()):
        if name.startswith("sqzbeat") and getattr(module, "generator", None) is original:
            monkeypatch.setattr(module, "generator", recording)
    return log


@pytest.mark.parametrize("cfg", CONFIGS, ids=[cfg.name for cfg in CONFIGS])
def test_one_frame_uses_each_stream_once(cfg, stream_log):
    run(cfg, frames=1, workers=1, write_outputs=False)
    assert stream_log, "no generator was built"
    assert len(stream_log) == len(set(stream_log))
    assert {entropy for entropy, _ in stream_log} == {cfg.seed}
    runs = {key[0] for _, key in stream_log}
    # Dark frames draw nothing without electronic or arm noise.
    assert {rng.RUN_REFERENCE, rng.RUN_TARGET} <= runs <= {
        rng.RUN_BACKGROUND, rng.RUN_REFERENCE, rng.RUN_TARGET
    }
    assert {key[1] for _, key in stream_log} == {0}  # frame index
    if cfg.name.endswith("+jitter"):
        assert (rng.RUN_TARGET, 0, rng.PORT_JITTER) in {key for _, key in stream_log}


# (run, frame, port) keys one fig4-demod frame index draws: dark frames
# read electronic and arm noise, the reference and the target one vacuum
# row per beam (the target's path loss is folded into its squeezer).
FIG4_KEYS = sorted(
    [(rng.RUN_BACKGROUND, 0, port) for port in (rng.PORT_DETECTOR, rng.PORT_ARM1, rng.PORT_ARM2)]
    + [
        (run, 0, port)
        for run in (rng.RUN_REFERENCE, rng.RUN_TARGET)
        for port in (
            rng.PORT_BEAM1, rng.PORT_BEAM2, rng.PORT_DETECTOR, rng.PORT_PHASE, rng.PORT_ARM1, rng.PORT_ARM2
        )
    ]
)


def test_fig4_demod_frame_index_builds_one_generator_per_key(stream_log):
    run(preset_config("fig4-demod"), frames=1, workers=1, write_outputs=False)
    assert len(stream_log) == len(FIG4_KEYS) == 15
    assert sorted(key for _, key in stream_log) == FIG4_KEYS


def test_auto_spectrum_readout_never_draws_arm_2(stream_log):
    # appendixD-no-cross reads arm 1 alone, from the same streams as fig4-demod
    run(preset_config("appendixD-no-cross"), frames=1, workers=1, write_outputs=False)
    assert sorted(key for _, key in stream_log) == [k for k in FIG4_KEYS if k[2] != rng.PORT_ARM2]


class _CountingGenerator:
    """A generator that adds the normals each draw returns to its count."""

    def __init__(self, gen, counts):
        self._gen, self._counts, self._row = gen, counts, len(counts)
        counts.append(0)

    def _count(self, values):
        self._counts[self._row] += np.size(values)
        return values

    def standard_normal(self, *args, **kwargs):
        return self._count(self._gen.standard_normal(*args, **kwargs))

    def normal(self, *args, **kwargs):
        return self._count(self._gen.normal(*args, **kwargs))


@pytest.fixture
def normal_counts(monkeypatch):
    """Normals drawn by each generator built, in build order."""
    counts = []
    original = rng.generator
    for name, module in list(sys.modules.items()):
        if name.startswith("sqzbeat") and getattr(module, "generator", None) is original:
            monkeypatch.setattr(module, "generator", lambda seed: _CountingGenerator(original(seed), counts))
    return counts


# The counts the ``sqzbeat.rng`` docstring gives for one frame index.  A
# sweep frame draws one row of the 2m + 1 = 1299 sidebands its quadratures
# read, real and imaginary parts, per pump power.
@pytest.mark.parametrize(
    "name, counts",
    [
        ("fig4-demod", (15, 95000)),
        ("fig3-raw", (9, 65000)),
        ("appendixE-pump-sweep", (4, 4 * 2598)),
    ],
)
def test_one_frame_index_draws_the_documented_normals(name, counts, normal_counts):
    run(preset_config(name), frames=1, workers=1, write_outputs=False)
    assert (len(normal_counts), sum(normal_counts)) == counts
    if name == "appendixE-pump-sweep":
        assert normal_counts == [2598] * 4
