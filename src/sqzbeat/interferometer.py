"""Optical paths, beam assembly and balanced beat-note detection.

Two beams at carriers separated by the beat frequency are built as
classical carriers riding on injected noise fields.  The balanced
detector output is evaluated as the exact sample-wise product

    dP(t) = 2 Re[conj(E1(t)) E2(t)]

so every second-order noise term survives.  So does one no detector
sees: the fields are Wigner samples, exact to first order in the noise
(``fields``), and their product adds a state-independent white PSD of 2
(shot units) to every lit acquisition (Gardiner & Zoller, *Quantum
Noise*), negligible at the presets' carriers and dominant at weak ones.

Every lossy step between a squeezer and the photocurrent (the pickoff of
reflectivity R, the detector of quantum efficiency qe) is a beam splitter
that admits vacuum, so together they act as one loss of efficiency R * qe:
an ``OpticalPath``.  A squeezed path realizes sqrt(eta) S(v0) +
sqrt(1 - eta) v1 from v0 alone, squeezing at escape efficiency times eta;
loss leaves vacuum vacuum, so an unsqueezed one is one row of time
samples.  The path also carries the rms jitter of its squeeze angle,
which the budget folds into the angle error.  Every function takes its
noise as drawn standard normals (a vacuum row is real parts then
imaginary parts, ``fields.vacuum_rows``) and draws none; a jittered
path's angle is its squeezer's plus the rms times one drawn normal per
frame.
The carrier (``BeamCarrier``: amplitude, frequency and phase signal),
scaled by sqrt(qe), joins the path noise in the time domain, so a beam
arrives at the detector as a plain array of complex time samples, one row
per frame of a block.  The photocurrent is a real array of the same shape;
the detector is the run's ``DetectorConfig``, and every photocurrent,
dark or lit, ends in ``detector_readout``, which refuses non-finite samples.

Sign conventions (fixed by the field time series exp(-2j pi f t)): the
classical beat is 2 E1 E2 cos(2 pi beat t + theta2 - theta1), and the
noise riding on beam i is detected at quadrature angle -theta_other.
The scheme fixes the squeeze angle the measurement reads
(``base_squeeze_angle``); a squeezer set away from it, the only angle a
path has, mixes in the anti-squeezed quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .fields import (
    FrequencyGrid,
    SqueezerSpec,
    apply_squeezer,
    make_vacuum_field,
    vacuum_rows,
)

if TYPE_CHECKING:
    from .config import DetectorConfig

SCHEMES = ("proposed", "straightforward", "unsqueezed")


def base_squeeze_angle(scheme: str) -> float:
    """Squeeze angle a scheme's squeezers sit at when aligned: the
    straightforward scheme must squeeze the phase quadrature."""
    return np.pi / 2.0 if scheme == "straightforward" else 0.0


@dataclass(frozen=True)
class OpticalPath:
    """Path of one beam's injected noise from its squeezer to the photocurrent.

    ``efficiency`` is the product of every power efficiency on the way
    (pickoff reflectivity times detector quantum efficiency);
    ``squeezer=None`` injects plain vacuum.  The squeezer's
    ``squeeze_angle_rad`` is the one angle of the path, and
    ``jitter_rms_rad`` the rms of the per-frame jitter about it: a frame
    turns the squeezer by ``jitter_rms_rad`` times its jitter normal.
    """

    efficiency: float = 1.0
    squeezer: SqueezerSpec | None = None
    jitter_rms_rad: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")


def unsqueezed_shot_psd(e1: float, e2: float, quantum_efficiency: float = 1.0) -> float:
    """Per-bin PSD of the unsqueezed shot floor near the beat: 2 qe (E1^2 + E2^2)."""
    return 2.0 * quantum_efficiency * (e1 * e1 + e2 * e2)


def classical_phase_variance(
    fraction: float, e1: float, e2: float, quantum_efficiency: float = 1.0
) -> float:
    """Per-sample variance of white phase noise on the beat phase that
    makes the classical term a given fraction of the total demodulated
    reference floor: classical / (shot + classical) = fraction.

    White phase noise rides the carrier, so demodulating at the beat
    folds its components from twice the beat frequency into the phase
    band; the demodulated classical PSD is 3/2 of the raw-band one, and
    the calibration below pins the demodulated fraction.
    """
    if not 0.0 <= fraction < 1.0:
        raise ValueError("fraction must be in [0, 1)")
    if fraction == 0.0:
        return 0.0
    if e1 <= 0 or e2 <= 0:
        raise ValueError("classical phase noise needs both carriers on")
    ratio = fraction / (1.0 - fraction)
    return (2.0 / 3.0) * ratio * (e1 * e1 + e2 * e2) / (quantum_efficiency * e1 * e1 * e2 * e2)


def pickoff_noise_field(
    grid: FrequencyGrid, path: OpticalPath, normals: np.ndarray, jitter: np.ndarray | None = None
) -> np.ndarray:
    """Noise field that an optical path delivers to the detector, for one
    frame or, with normals of shape (frames, 2, n), a block of them.

    The vacuum of ``normals`` (``make_vacuum_field``) is squeezed with the
    path efficiency eta folded into the escape efficiency: gains
    sqrt(eta s + 1 - eta) and sqrt(eta a + 1 - eta), as a loss eta after
    the squeezer would give.  ``jitter`` holds the standard normal of each
    frame's angle jitter, read only on a jittered path.
    """
    vac = make_vacuum_field(grid, normals)
    if path.squeezer is None:
        return vac
    sq = path.squeezer
    angle = sq.squeeze_angle_rad
    if path.jitter_rms_rad > 0:
        if jitter is None:
            raise ValueError("a jittered path needs its jitter normals")
        angle = angle + path.jitter_rms_rad * jitter
    return apply_squeezer(grid, vac, replace(sq, escape_efficiency=sq.escape_efficiency * path.efficiency), angle)


class BeamCarrier:
    """Frame-invariant carrier terms of one beam at the detector.

    The classical carrier of amplitude ``amplitude`` (shot-noise amplitude
    units) at ``carrier_freq_hz``, optionally carrying the phase signal
    mod_depth * sin(2 pi mod_freq t).  ``ramp`` is 2 pi f_c t and
    ``theta0`` the deterministic phase (the phase signal), so a frame
    forms only ramp + (theta0 + extra).  The amplitude is scaled by
    sqrt(quantum_efficiency), and the carrier without extra phase is
    synthesized once, here.
    """

    def __init__(
        self,
        grid: FrequencyGrid,
        amplitude: float,
        carrier_freq_hz: float,
        quantum_efficiency: float,
        mod_freq_hz: float = 0.0,
        mod_depth_rad: float = 0.0,
    ):
        grid.bin_index(carrier_freq_hz)
        if amplitude < 0:
            raise ValueError("amplitude must be >= 0")
        if not 0.0 < quantum_efficiency <= 1.0:
            raise ValueError("quantum_efficiency must be in (0, 1]")
        if mod_depth_rad != 0.0 and mod_freq_hz <= 0:
            raise ValueError("a nonzero mod_depth_rad needs mod_freq_hz > 0")
        self.grid = grid
        self.amplitude = np.sqrt(quantum_efficiency) * amplitude
        self.ramp = 2.0 * np.pi * carrier_freq_hz * grid.times()
        self.theta0 = mod_depth_rad * np.sin(2.0 * np.pi * mod_freq_hz * grid.times())
        self.steady = self._series(self.theta0)

    def _series(self, theta: np.ndarray) -> np.ndarray:
        z = -1j * (self.ramp + theta)
        np.exp(z, out=z)
        z *= self.amplitude
        return z

    def series(self, extra_phase: np.ndarray | None = None) -> np.ndarray:
        """Carrier samples of a frame, one row per row of ``extra_phase``."""
        if extra_phase is None:
            return self.steady
        return self._series(self.theta0 + extra_phase)


def compose_beam(
    carrier: BeamCarrier,
    path: OpticalPath,
    normals: np.ndarray,
    extra_phase: np.ndarray | None = None,
    jitter: np.ndarray | None = None,
) -> np.ndarray:
    """One beam at the detector, as complex time samples in shot-noise
    amplitude units: its path noise plus its carrier.

    The path noise comes from the standard normals ``normals`` of its
    vacuum row, shape (2, n): squeezed bins (``pickoff_noise_field``, with
    the angle-jitter normals ``jitter``) after an FFT or, unsqueezed,
    vacuum time samples.  The carrier is synthesized in the time domain
    (so phase modulation is exact) and added there.  ``extra_phase``
    carries any phase-noise realization synthesized by the caller.  For a
    block of frames ``normals`` has shape (frames, 2, n), ``jitter`` one
    normal per frame and ``extra_phase`` one row per frame; the field then
    has one row per frame.
    """
    if path.squeezer is None:
        samples = vacuum_rows(normals, np.sqrt(0.5))
    else:
        samples = np.fft.fft(pickoff_noise_field(carrier.grid, path, normals, jitter))
    if carrier.amplitude != 0.0:
        samples += carrier.series(extra_phase)
    return samples


def balanced_detect(
    grid: FrequencyGrid,
    e1: np.ndarray,
    e2: np.ndarray,
    det: DetectorConfig,
    noise: np.ndarray | None,
    reference_shot_psd: float | None = None,
) -> np.ndarray:
    """Exact balanced beat-note detection of two detected beams on ``grid``
    by the run's detector ``det`` (``cfg.detector``).

    The product form keeps every second-order noise term.  The gain
    ripple, a smooth +-ripple/2 cosine tilt across 5-15 MHz, shapes the
    product; ``detector_readout`` follows with the electronic noise's
    standard normals ``noise``.  Block fields give one row per frame.
    """
    beat = np.conjugate(e1)
    beat *= e2
    dp = 2.0 * beat.real
    if det.gain_ripple_db != 0.0:
        dp = _apply_gain_ripple(dp, grid, det.gain_ripple_db)
    return detector_readout(dp, det, noise, reference_shot_psd)


def detector_readout(
    dp: np.ndarray, det: DetectorConfig, noise: np.ndarray | None, reference_shot_psd: float | None = None
) -> np.ndarray:
    """Detector electronics on one photocurrent frame or a block of them.

    Adds white electronic noise at ``det.electronic_noise_rel_db``
    relative to ``reference_shot_psd`` (None disables it), ``noise``
    (standard normals shaped like ``dp``; unread without electronic
    noise) scaled to that level, clips symmetrically at ``det.clip_level``
    (None disables it), and removes each frame's mean last.  A dark frame
    (``dp`` all zeros) is the background acquisition.  Non-finite samples
    (an overflowing carrier, say) raise FloatingPointError, which the CLI
    reports as a numerical error.
    """
    if det.electronic_noise_rel_db is not None:
        if reference_shot_psd is None or noise is None:
            raise ValueError("electronic noise needs its normals and reference_shot_psd to set its level")
        p_e = 10.0 ** (det.electronic_noise_rel_db / 10.0) * reference_shot_psd
        dp = dp + noise * np.sqrt(p_e)
    if det.clip_level is not None:
        if det.clip_level <= 0:
            raise ValueError("clip_level must be positive when present")
        dp = np.clip(dp, -det.clip_level, det.clip_level)
    dp = dp - dp.mean(axis=-1, keepdims=True)
    if not np.all(np.isfinite(dp)):
        raise FloatingPointError("photocurrent samples must be finite")
    return dp


def _apply_gain_ripple(dp: np.ndarray, grid: FrequencyGrid, ripple_db: float) -> np.ndarray:
    # Smooth +-ripple/2 cosine tilt pinned to the 5-15 MHz analysis span.
    f = np.fft.rfftfreq(grid.n_samples, d=1.0 / grid.sample_rate)
    tilt_db = 0.5 * ripple_db * np.cos(np.pi * (f - 5e6) / 10e6)
    gain = 10.0 ** (tilt_db / 20.0)
    return np.fft.irfft(np.fft.rfft(dp) * gain, n=grid.n_samples)
