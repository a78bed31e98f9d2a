"""Deterministic random substreams.

Every stochastic input of a run (each vacuum port, the electronic noise,
the per-arm readout noise, ...) draws from its own counter-keyed substream
of one master seed.  Streams are addressed by integer paths, so frame
order, scheme variants and worker counts can never change a realization.

A path is extended with ``stream_key``, which only concatenates the key:
the ``SeedSequence`` of a stream is built once, in ``generator``, straight
from ``(entropy=seed, spawn_key=path)``.  Functions that take a ``seed``
accept an int, a ``SeedSequence``, a ``StreamKey``, or a list of per-frame
seeds for a block of frames.

Stream layout 2 of a heterodyne frame, keyed (run, frame index, port):

=================  ==========================================================
port               stream
=================  ==========================================================
``PORT_BEAM1``     beam 1's optical path: sub-stream 0 is the vacuum at the
``PORT_BEAM2``     squeezer input (the whole path noise when unsqueezed),
                   sub-stream 1 the vacuum its pickoff and detector losses
                   admit, drawn only on a squeezed path with efficiency < 1
``PORT_DETECTOR``  white electronic noise of the balanced detector
``PORT_PHASE``     classical phase noise on beam 2
``PORT_ARM1``      readout noise of demod arm 1 (drive-induced excess
``PORT_ARM2``      included on lit acquisitions) and of arm 2
``PORT_JITTER``    squeeze-angle jitter of both squeezers
=================  ==========================================================

On ``fig4-demod`` one frame index (background, reference and target)
builds 17 generators and draws 115000 normals: 3 dark rows of 5000
(electronic noise, two arms), 2 unsqueezed vacuum rows and 4 rows of
5000 on the reference, 4 vacuum rows of two squeezed paths and 4 rows of
5000 on the target; a vacuum row is 10000 normals.  The pump sweep keys
(10 + pump, frame index, 0) and the EPR identity run substreams 900 and
901 of the master seed.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

# Version of the port layout below; heterodyne summaries record it.
STREAM_LAYOUT = 2

# Port indices used to key the per-frame substreams of a run.  The triple
# (run kind, frame index, port) fully addresses one noise input.
RUN_BACKGROUND = 0
RUN_REFERENCE = 1
RUN_TARGET = 2

PORT_BEAM1 = 0
PORT_BEAM2 = 1
PORT_DETECTOR = 2
PORT_PHASE = 3
PORT_ARM1 = 4
PORT_ARM2 = 5
PORT_JITTER = 6


class StreamKey(NamedTuple):
    """Address of one substream: the master entropy and the spawn key."""

    entropy: int
    spawn_key: tuple[int, ...]


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an int, StreamKey or SeedSequence into a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, StreamKey):
        return np.random.SeedSequence(entropy=seed.entropy, spawn_key=seed.spawn_key)
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed))
    raise TypeError(f"seed must be an int or SeedSequence, got {type(seed).__name__}")


def stream_key(seed, *path: int):
    """Key of the substream addressed by ``path``, without building it.

    A list of seeds maps to the list of their keys.
    """
    if isinstance(seed, list):
        return [stream_key(s, *path) for s in seed]
    if isinstance(seed, (StreamKey, np.random.SeedSequence)):
        entropy, key = seed.entropy, tuple(seed.spawn_key)
    elif isinstance(seed, (int, np.integer)):
        entropy, key = int(seed), ()
    else:
        raise TypeError(f"seed must be an int, SeedSequence or StreamKey, got {type(seed).__name__}")
    return StreamKey(entropy, key + tuple(map(int, path)))


def seed_rows(seed) -> list:
    """Seeds of a block's rows: the list itself, or one row for one frame."""
    return seed if isinstance(seed, list) else [seed]


def substream(seed, *path: int) -> np.random.SeedSequence:
    """Child SeedSequence addressed by an integer path.

    Extending the spawn key (rather than calling ``spawn``) keeps the
    derivation stateless: the same (seed, path) always yields the same
    stream no matter how many other streams were derived before it.
    """
    return as_seed_sequence(stream_key(seed, *path))


def generator(seed) -> np.random.Generator:
    """PCG64 generator on the stream of ``seed``."""
    return np.random.default_rng(as_seed_sequence(seed))


def frame_seed(master_seed: int, run_kind: int, frame_index: int, port: int) -> StreamKey:
    """Key of the substream for one (run, frame, port) triple of an experiment."""
    return stream_key(master_seed, run_kind, frame_index, port)
