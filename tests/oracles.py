"""First-order models of the balanced output, kept as test oracles."""

from __future__ import annotations

import numpy as np

from sqzbeat.fields import FrequencyGrid, SqueezerSpec, quadrature_series
from sqzbeat.interferometer import (
    BeamSpec,
    PhotocurrentTrace,
    PickoffSpec,
    phase_series,
    pickoff_noise_field,
)
from sqzbeat.rng import substream


def linearized_output(
    grid: FrequencyGrid,
    beams: tuple[BeamSpec, BeamSpec],
    pickoffs: tuple[PickoffSpec, PickoffSpec],
    seed,
    extra_phase: np.ndarray | None = None,
) -> PhotocurrentTrace:
    """First-order model of the balanced output (ideal detector).

    Emits the classical beat plus sqrt(2) E_other times the noise
    quadrature of each beam read at the opposing carrier frequency and
    angle.  Uses the same seed layout as ``compose_beam`` +
    ``balanced_detect`` with a unit-efficiency detector, so the residual
    against the exact product isolates the dropped second-order terms.
    """
    b1, b2 = beams
    t = grid.times()
    theta1 = phase_series(grid, b1)
    theta2 = phase_series(grid, b2, extra_phase)
    beat_hz = b2.carrier_freq_hz - b1.carrier_freq_hz

    n1 = pickoff_noise_field(grid, pickoffs[0], substream(seed, 0, 0))
    n2 = pickoff_noise_field(grid, pickoffs[1], substream(seed, 1, 0))
    qa = quadrature_series(n1, b2.carrier_freq_hz)
    qb = quadrature_series(n2, b1.carrier_freq_hz)

    dp = 2.0 * b1.amplitude * b2.amplitude * np.cos(2.0 * np.pi * beat_hz * t + theta2 - theta1)
    root2 = np.sqrt(2.0)
    dp = dp + root2 * b2.amplitude * qa.at_angle(-b2.static_phase_rad)
    dp = dp + root2 * b1.amplitude * qb.at_angle(-b1.static_phase_rad)
    dp = dp - dp.mean()
    return PhotocurrentTrace(dp, grid)


def straightforward_variant(
    grid: FrequencyGrid,
    beams: tuple[BeamSpec, BeamSpec],
    squeezers: tuple[SqueezerSpec | None, SqueezerSpec | None],
    seed,
    extra_phase: np.ndarray | None = None,
) -> PhotocurrentTrace:
    """First-order output when each beam carries squeezing at its own
    carrier frequency.

    The noise envelopes then ride on cos/sin of the beat instead of
    appearing at baseband, which folds anti-squeezed components from
    twice the beat frequency into the phase quadrature.
    """
    b1, b2 = beams
    t = grid.times()
    theta1 = phase_series(grid, b1)
    theta2 = phase_series(grid, b2, extra_phase)
    beat = 2.0 * np.pi * (b2.carrier_freq_hz - b1.carrier_freq_hz) * t

    own1 = PickoffSpec(1.0, squeezers[0])
    own2 = PickoffSpec(1.0, squeezers[1])
    n1 = pickoff_noise_field(grid, own1, substream(seed, 0, 0))
    n2 = pickoff_noise_field(grid, own2, substream(seed, 1, 0))
    qa = quadrature_series(n1, b1.carrier_freq_hz)
    qb = quadrature_series(n2, b2.carrier_freq_hz)

    root2 = np.sqrt(2.0)
    dp = 2.0 * b1.amplitude * b2.amplitude * np.cos(beat + theta2 - theta1)
    dp = dp + root2 * b2.amplitude * (qa.a1 * np.cos(beat) - qa.a2 * np.sin(beat))
    dp = dp + root2 * b1.amplitude * (qb.a1 * np.cos(beat) + qb.a2 * np.sin(beat))
    dp = dp - dp.mean()
    return PhotocurrentTrace(dp, grid)
