"""Shared test utilities: plain estimators and the noise draw, kept
independent of the package."""

import numpy as np


def naive_psd(frames):
    """Mean rectangular-window periodogram, two-sided per-bin values.

    Deliberately minimal so it can serve as an independent check of the
    package's calibrated estimators: a white unit-variance input gives a
    flat 1.0.
    """
    acc = None
    count = 0
    for x in frames:
        x = np.asarray(x, dtype=float)
        p = np.abs(np.fft.rfft(x)) ** 2 / len(x)
        acc = p if acc is None else acc + p
        count += 1
    return acc / count


def band_mean(freqs, values, lo, hi):
    m = (freqs >= lo) & (freqs <= hi)
    return float(np.mean(values[m]))


def normals(seed, *shape):
    """Standard normals of ``shape`` from the start of the stream of
    ``seed`` (an int or a ``SeedSequence``, such as ``rng.substream``'s),
    in C order.  ``normals(seed, 2, n)`` is the noise of one vacuum row of
    n bins, real parts then imaginary parts."""
    return np.random.default_rng(seed).standard_normal(shape)


def frame_stream(entropy, run, frame, port):
    """Generator on stream (run, frame, port) of the master seed ``entropy``
    as stream layout 7 defines it, from numpy's public API alone: the PCG64
    seeded by the spawn key (run, port), jumped ``frame`` times."""
    base = np.random.PCG64(np.random.SeedSequence(entropy, spawn_key=(run, port)))
    return np.random.Generator(base.jumped(frame))
