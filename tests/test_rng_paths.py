"""Every noise input of a run draws from its own stream.

A run draws each block's noise through its chunk's ``rng.ChunkStreams``,
which sets one reused generator to each stream's (run, frame, port) key;
every key opened is recorded with its entropy, so a port that reused
another's stream would show up as a duplicate key.  The keys must also
follow the stream layout (``STREAM_LAYOUT``, see ``sqzbeat.rng``): each
optical path draws its one vacuum row straight from its beam's port,
every other input from its own port.  The rows a chunk draws must be
those of numpy's own jumped PCG64 on the (run, port) base, bit for bit.
"""

from dataclasses import replace

import numpy as np
import pytest

from sqzbeat import rng
from sqzbeat.config import MAX_FRAMES, list_presets, preset_config
from sqzbeat.runner import run

from helpers import frame_stream

HETERODYNE = [name for name, _ in list_presets() if preset_config(name).kind == "heterodyne"]


def _jittered(name):
    # Squeeze-angle jitter adds a per-frame stream of its own.
    cfg = preset_config(name)
    sq = replace(cfg.pickoff1.squeezer, angle_jitter_rms_rad=0.01)
    return replace(cfg, name=f"{name}-jitter", pickoff1=replace(cfg.pickoff1, squeezer=sq))


CONFIGS = [preset_config(name) for name in HETERODYNE] + [_jittered("fig4-demod")]


@pytest.fixture
def stream_log(monkeypatch):
    """Wrap the key -> state step of ``rng.ChunkStreams``."""
    log = []
    original = rng.ChunkStreams.generator

    def recording(streams, frame, port):
        log.append((streams.entropy, (streams.run, frame, port)))
        return original(streams, frame, port)

    monkeypatch.setattr(rng.ChunkStreams, "generator", recording)
    return log


@pytest.mark.parametrize("cfg", CONFIGS, ids=[*HETERODYNE, "fig4-demod+jitter"])
def test_one_frame_uses_each_stream_once(cfg, stream_log, tmp_path):
    # two frames, the fewest a run takes: each frame index opens the same
    # (run, port) streams, each once
    run(cfg, frames=2, workers=1, out_dir=str(tmp_path))
    assert stream_log, "no stream was opened"
    assert len(stream_log) == len(set(stream_log))
    assert {entropy for entropy, _ in stream_log} == {cfg.seed}
    runs = {key[0] for _, key in stream_log}
    # Dark frames draw nothing without electronic or arm noise.
    assert {rng.RUN_REFERENCE, rng.RUN_TARGET} <= runs <= {
        rng.RUN_BACKGROUND, rng.RUN_REFERENCE, rng.RUN_TARGET
    }
    per_frame = [{(run_id, port) for _, (run_id, f, port) in stream_log if f == frame} for frame in (0, 1)]
    assert {key[1] for _, key in stream_log} == {0, 1}  # frame index
    assert per_frame[0] == per_frame[1]
    if cfg.name.endswith("-jitter"):
        assert (rng.RUN_TARGET, rng.PORT_JITTER) in per_frame[0]


# (run, frame, port) keys of the two frame indices of a two-frame
# fig4-demod run, 15 each: dark frames read electronic and arm noise, the
# reference and the target one vacuum row per beam (the target's path
# loss is folded into its squeezer).
FIG4_KEYS = sorted(
    [(rng.RUN_BACKGROUND, frame, port) for frame in (0, 1) for port in (rng.PORT_DETECTOR, rng.PORT_ARM1, rng.PORT_ARM2)]
    + [
        (run, frame, port)
        for run in (rng.RUN_REFERENCE, rng.RUN_TARGET)
        for frame in (0, 1)
        for port in (
            rng.PORT_BEAM1, rng.PORT_BEAM2, rng.PORT_DETECTOR, rng.PORT_PHASE, rng.PORT_ARM1, rng.PORT_ARM2
        )
    ]
)


def test_fig4_demod_frame_index_builds_one_generator_per_key(stream_log, tmp_path):
    run(preset_config("fig4-demod"), frames=2, workers=1, out_dir=str(tmp_path))
    assert len(stream_log) == len(FIG4_KEYS) == 2 * 15
    assert sorted(key for _, key in stream_log) == FIG4_KEYS


def test_auto_spectrum_readout_never_draws_arm_2(stream_log, tmp_path):
    # appendixD-no-cross reads arm 1 alone, from the same streams as fig4-demod
    run(preset_config("appendixD-no-cross"), frames=2, workers=1, out_dir=str(tmp_path))
    assert sorted(key for _, key in stream_log) == [k for k in FIG4_KEYS if k[2] != rng.PORT_ARM2]


class _CountingGenerator:
    """A generator that adds the normals each draw returns to its count,
    the second entry of its row [frame, count]."""

    def __init__(self, gen, frame, counts):
        self._gen, self._row = gen, [frame, 0]
        counts.append(self._row)

    def _count(self, values):
        self._row[1] += np.size(values)
        return values

    def standard_normal(self, *args, **kwargs):
        return self._count(self._gen.standard_normal(*args, **kwargs))

    def normal(self, *args, **kwargs):
        return self._count(self._gen.normal(*args, **kwargs))


@pytest.fixture
def normal_counts(monkeypatch):
    """[frame, normals drawn] of each stream opened, in opening order."""
    counts = []
    original = rng.ChunkStreams.generator
    monkeypatch.setattr(
        rng.ChunkStreams,
        "generator",
        lambda streams, frame, port: _CountingGenerator(original(streams, frame, port), frame, counts),
    )
    return counts


# The counts the ``sqzbeat.rng`` docstring gives for one frame index, of
# each of a two-frame run's two.  A sweep frame draws one row of the
# 2m + 1 = 1299 sidebands its quadratures read, real and imaginary parts,
# which every pump power squeezes.
@pytest.mark.parametrize(
    "name, counts",
    [
        ("fig4-demod", (15, 95000)),
        ("fig3-raw", (9, 65000)),
        ("appendixE-pump-sweep", (1, 2598)),
    ],
)
def test_one_frame_index_draws_the_documented_normals(name, counts, normal_counts, tmp_path):
    run(preset_config(name), frames=2, workers=1, out_dir=str(tmp_path))
    for frame in (0, 1):
        drawn = [count for f, count in normal_counts if f == frame]
        assert (len(drawn), sum(drawn)) == counts, frame
    assert len(normal_counts) == 2 * counts[0]


# Entropies of one word, of two and longer than SeedSequence's 4-word
# pool; every run id, the sweep's included; frames up to MAX_FRAMES.
RUN_IDS = (rng.RUN_BACKGROUND, rng.RUN_REFERENCE, rng.RUN_TARGET, rng.RUN_SWEEP)


@pytest.mark.parametrize("run_id", RUN_IDS)
@pytest.mark.parametrize("entropy", [0, 2**32 + 7, 2**130 + 7], ids=["0", "2^32+7", "2^130+7"])
def test_chunk_streams_draw_numpys_jumped_streams(entropy, run_id):
    streams = rng.ChunkStreams(entropy, run_id, rng.PORTS)
    for frame in (129, 0, MAX_FRAMES, 1):
        for port in rng.PORTS:
            want = frame_stream(entropy, run_id, frame, port).standard_normal(500)
            rows = streams.fill(range(frame, frame + 1), port, np.empty((1, 500)))
            assert np.array_equal(rows[0], want), (frame, port)
            # Opened again after another stream, it starts over.
            streams.generator(frame, (port + 1) % len(rng.PORTS)).normal(0.0, 1.0, 7)
            assert np.array_equal(streams.generator(frame, port).normal(0.0, 1.0, 500), want)


def test_chunk_streams_of_no_port_seed_no_base():
    # a chunk seeds only the ports it is given, and no port is a valid set
    streams = rng.ChunkStreams(1, rng.RUN_BACKGROUND, ())
    with pytest.raises(KeyError):
        streams.generator(0, rng.PORT_BEAM1)
