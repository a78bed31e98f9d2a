"""Every noise input of a heterodyne run draws from its own substream.

The generator of every stream one frame of each acquisition uses is
recorded by its (entropy, spawn_key); a port that reused another's stream
would show up as a duplicate key.  The keys must also follow stream
layout 2 (see ``sqzbeat.rng``): each optical path draws from sub-streams
of its beam's port, every other input straight from its own port.
"""

import sys
from dataclasses import replace

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


# (run, frame, port, sub-stream...) keys one fig4-demod frame index draws:
# dark frames read electronic and arm noise, the reference one vacuum row
# per beam, the target two per beam (squeezer input and path loss).
FIG4_KEYS = sorted(
    [(rng.RUN_BACKGROUND, 0, port) for port in (rng.PORT_DETECTOR, rng.PORT_ARM1, rng.PORT_ARM2)]
    + [
        (run, 0, port)
        for run in (rng.RUN_REFERENCE, rng.RUN_TARGET)
        for port in (rng.PORT_DETECTOR, rng.PORT_PHASE, rng.PORT_ARM1, rng.PORT_ARM2)
    ]
    + [(rng.RUN_REFERENCE, 0, beam, 0) for beam in (rng.PORT_BEAM1, rng.PORT_BEAM2)]
    + [(rng.RUN_TARGET, 0, beam, sub) for beam in (rng.PORT_BEAM1, rng.PORT_BEAM2) for sub in (0, 1)]
)


def test_fig4_demod_frame_index_builds_17_generators(stream_log):
    run(preset_config("fig4-demod"), frames=1, workers=1, write_outputs=False)
    assert len(stream_log) == 17
    assert sorted(key for _, key in stream_log) == FIG4_KEYS
