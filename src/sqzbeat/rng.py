"""Deterministic random substreams.

Every stochastic input of a run (each vacuum port, the electronic noise,
the per-arm readout noise, ...) draws from its own counter-keyed substream
of one master seed.  Streams are addressed by integer paths, so frame
order, scheme variants and worker counts can never change a realization.
"""

from __future__ import annotations

import numpy as np

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
PORT_ARM1_EXCESS = 6
PORT_ARM2_EXCESS = 7
PORT_JITTER = 8


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an int or SeedSequence into a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed))
    raise TypeError(f"seed must be an int or SeedSequence, got {type(seed).__name__}")


def substream(seed, *path: int) -> np.random.SeedSequence:
    """Child SeedSequence addressed by an integer path.

    Extending the spawn key (rather than calling ``spawn``) keeps the
    derivation stateless: the same (seed, path) always yields the same
    stream no matter how many other streams were derived before it.
    """
    ss = as_seed_sequence(seed)
    key = tuple(ss.spawn_key) + tuple(int(p) for p in path)
    return np.random.SeedSequence(entropy=ss.entropy, spawn_key=key)


def generator(seed, *path: int) -> np.random.Generator:
    """PCG64 generator on the substream addressed by ``path``."""
    if isinstance(seed, np.random.Generator):
        if path:
            raise ValueError("cannot derive a substream from a Generator")
        return seed
    return np.random.default_rng(substream(seed, *path) if path else as_seed_sequence(seed))


def frame_seed(master_seed: int, run_kind: int, frame_index: int, port: int) -> np.random.SeedSequence:
    """Substream for one (run, frame, port) triple of an experiment."""
    return substream(master_seed, run_kind, frame_index, port)
