"""Every noise input of a heterodyne run draws from its own substream.

The generator of every stream one frame of each acquisition uses is
recorded by its (entropy, spawn_key); a port that reused another's stream
would show up as a duplicate key.
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
