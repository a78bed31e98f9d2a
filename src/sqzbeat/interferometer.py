"""Optical paths, beam assembly and balanced beat-note detection.

Two beams at carriers separated by the beat frequency are built as
classical carriers riding on injected noise fields.  The balanced
detector output is evaluated as the exact sample-wise product

    dP(t) = 2 Re[conj(E1(t)) E2(t)]

so every second-order noise term survives.

Every lossy step between a squeezer and the photocurrent (the pickoff of
reflectivity R, the detector of quantum efficiency qe) is a beam splitter
that admits vacuum, so together they act as one loss of efficiency R * qe:
an ``OpticalPath``.  A squeezed path realizes sqrt(eta) S(v0) +
sqrt(1 - eta) v1 from v0 alone, squeezing at escape efficiency times eta;
loss leaves vacuum vacuum, so an unsqueezed one is one row of time
samples.  The path also carries the rms jitter of its squeeze angle, which
the runner draws per frame and the budget folds into the angle error.
The carrier, scaled by sqrt(qe), joins the path noise in the time domain,
so a beam arrives at the detector as a ``DetectedField``.

Sign conventions (fixed by the field time series exp(-2j pi f t)): the
classical beat is 2 E1 E2 cos(2 pi beat t + theta2 - theta1), and the
noise riding on beam i is detected at quadrature angle -theta_other.
The scheme fixes the squeeze angle the measurement reads
(``base_squeeze_angle``); a squeezer set away from it, the only angle a
path has, mixes in the anti-squeezed quadrature.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fields import (
    FieldRealization,
    FrequencyGrid,
    SqueezerSpec,
    apply_squeezer,
    circular_gaussian,
    make_vacuum_field,
)
from .rng import generator, seed_rows

SCHEMES = ("proposed", "straightforward", "unsqueezed")


def base_squeeze_angle(scheme: str) -> float:
    """Squeeze angle a scheme's squeezers sit at when aligned: the
    straightforward scheme must squeeze the phase quadrature."""
    return np.pi / 2.0 if scheme == "straightforward" else 0.0


@dataclass(frozen=True)
class PhaseSignalSpec:
    """Relative-phase signal carried by a beam: mod_depth * sin(2 pi
    mod_freq t), none at a depth of 0."""

    mod_freq_hz: float = 0.0
    mod_depth_rad: float = 0.0

    def __post_init__(self):
        if self.mod_depth_rad != 0.0 and self.mod_freq_hz <= 0:
            raise ValueError("a nonzero mod_depth_rad needs mod_freq_hz > 0")


@dataclass(frozen=True)
class BeamSpec:
    """Classical carrier of one beam, in shot-noise amplitude units."""

    amplitude: float
    carrier_freq_hz: float
    phase_signal: PhaseSignalSpec = PhaseSignalSpec()
    static_phase_rad: float = 0.0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ValueError("amplitude must be >= 0")


@dataclass(frozen=True)
class OpticalPath:
    """Path of one beam's injected noise from its squeezer to the photocurrent.

    ``efficiency`` is the product of every power efficiency on the way
    (pickoff reflectivity times detector quantum efficiency);
    ``squeezer=None`` injects plain vacuum.  The squeezer's
    ``squeeze_angle_rad`` is the one angle of the path, and
    ``jitter_rms_rad`` the rms of the per-frame jitter about it.
    """

    efficiency: float = 1.0
    squeezer: SqueezerSpec | None = None
    jitter_rms_rad: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.efficiency <= 1.0:
            raise ValueError("efficiency must be in [0, 1]")


@dataclass(frozen=True)
class DetectorSpec:
    """Balanced detector electronics.

    electronic_noise_rel_db is the white electronic-noise PSD relative to
    the unsqueezed shot floor (None disables it); clip_level saturates the
    photocurrent symmetrically; gain_ripple_db tilts the response by a
    smooth +-ripple/2 cosine across 5-15 MHz.  The quantum efficiency
    belongs to the optical paths and the carriers.
    """

    electronic_noise_rel_db: float | None = None
    clip_level: float | None = None
    gain_ripple_db: float = 0.0

    def __post_init__(self):
        if self.clip_level is not None and self.clip_level <= 0:
            raise ValueError("clip_level must be positive when present")


@dataclass(frozen=True)
class DetectedField:
    """One beam at the detector as complex time samples, in shot-noise
    amplitude units: its path noise plus its carrier scaled by sqrt(qe).
    A block of frames has one row per frame."""

    grid: FrequencyGrid
    samples: np.ndarray

    def __post_init__(self):
        if np.shape(self.samples)[-1:] != (self.grid.n_samples,):
            raise ValueError("samples length must equal grid.n_samples")


@dataclass(frozen=True)
class PhotocurrentTrace:
    """Balanced detector output in shot units: one frame, or a block of
    frames with one row each.

    Non-finite samples (an overflowing carrier, say) raise
    FloatingPointError, which the CLI reports as a numerical error.
    """

    samples: np.ndarray
    grid: FrequencyGrid

    def __post_init__(self):
        if np.shape(self.samples)[-1:] != (self.grid.n_samples,):
            raise ValueError("samples length must equal grid.n_samples")
        if not np.all(np.isfinite(self.samples)):
            raise FloatingPointError("photocurrent samples must be finite")


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


def phase_series(grid: FrequencyGrid, beam: BeamSpec, extra_phase: np.ndarray | None = None) -> np.ndarray:
    """Deterministic part of the beam phase plus an optional noise series."""
    theta = np.full(grid.n_samples, beam.static_phase_rad, dtype=float)
    sig = beam.phase_signal
    if sig.mod_depth_rad != 0.0:
        theta = theta + sig.mod_depth_rad * np.sin(2.0 * np.pi * sig.mod_freq_hz * grid.times())
    if extra_phase is not None:
        theta = theta + extra_phase
    return theta


def pickoff_noise_field(grid: FrequencyGrid, path: OpticalPath, seed) -> FieldRealization:
    """Noise field that an optical path delivers to the detector, for one
    frame or, with a list of per-frame seeds, a block of them.

    The vacuum row of ``seed`` is squeezed with the path efficiency eta
    folded into the escape efficiency: gains sqrt(eta s + 1 - eta) and
    sqrt(eta a + 1 - eta), as a loss eta after the squeezer would give.
    """
    vac = make_vacuum_field(grid, seed)
    if path.squeezer is None:
        return vac
    sq = path.squeezer
    return apply_squeezer(vac, replace(sq, escape_efficiency=sq.escape_efficiency * path.efficiency))


def path_noise(grid: FrequencyGrid, path: OpticalPath | list[OpticalPath], seed) -> np.ndarray:
    """A path's noise at the detector as time samples (a row per seed and
    path of a list): squeezed bins after an FFT, or vacuum drawn directly."""
    if isinstance(path, list):
        return np.stack([path_noise(grid, p, k) for p, k in zip(path, seed)])
    if path.squeezer is None:
        return circular_gaussian(seed, grid.n_samples, np.sqrt(0.5))
    return np.fft.fft(pickoff_noise_field(grid, path, seed).amplitudes)


class BeamCarrier:
    """Frame-invariant carrier terms of one beam at the detector.

    ``ramp`` is 2 pi f_c t and ``theta0`` the deterministic phase (static
    plus phase signal), so a frame forms only ramp + (theta0 + extra).
    The amplitude is scaled by sqrt(quantum_efficiency), and the carrier
    without extra phase is synthesized once, here.
    """

    def __init__(self, grid: FrequencyGrid, beam: BeamSpec, quantum_efficiency: float = 1.0):
        grid.bin_index(beam.carrier_freq_hz)
        if not 0.0 < quantum_efficiency <= 1.0:
            raise ValueError("quantum_efficiency must be in (0, 1]")
        self.grid = grid
        self.amplitude = np.sqrt(quantum_efficiency) * beam.amplitude
        self.ramp = 2.0 * np.pi * beam.carrier_freq_hz * grid.times()
        self.theta0 = phase_series(grid, beam)
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
    path: OpticalPath | list[OpticalPath],
    seed,
    extra_phase: np.ndarray | None = None,
) -> DetectedField:
    """One beam at the detector: its path noise plus its carrier.

    The carrier is synthesized in the time domain (so phase modulation is
    exact) and added to the path noise there (``path_noise``).
    ``extra_phase`` carries any phase-noise realization synthesized by the
    caller.  For a block of frames ``seed`` is the list of per-frame
    seeds, ``path`` one record or one per frame, and ``extra_phase`` has
    one row per frame; the field then has one row per frame.
    """
    samples = path_noise(carrier.grid, path, seed)
    if carrier.amplitude != 0.0:
        samples += carrier.series(extra_phase)
    return DetectedField(carrier.grid, samples)


def balanced_detect(
    e1: DetectedField,
    e2: DetectedField,
    det: DetectorSpec,
    seed,
    reference_shot_psd: float | None = None,
) -> PhotocurrentTrace:
    """Exact balanced beat-note detection of two detected beams.

    The product form keeps every second-order noise term.  The gain
    ripple shapes the product, and ``detector_readout`` follows.  Block
    fields take the list of per-frame seeds and give one photocurrent row
    per frame.
    """
    if e1.grid != e2.grid:
        raise ValueError("beams must share one grid")
    beat = np.conjugate(e1.samples)
    beat *= e2.samples
    dp = 2.0 * beat.real
    if det.gain_ripple_db != 0.0:
        dp = _apply_gain_ripple(dp, e1.grid, det.gain_ripple_db)
    return PhotocurrentTrace(detector_readout(dp, det, seed, reference_shot_psd), e1.grid)


def detector_readout(
    dp: np.ndarray, det: DetectorSpec, seed, reference_shot_psd: float | None = None
) -> np.ndarray:
    """Detector electronics on one photocurrent frame or a block of them.

    Adds white electronic noise at electronic_noise_rel_db relative to
    ``reference_shot_psd`` (drawn from each frame's seed), clips, and
    removes each frame's mean last.  A dark frame (``dp`` all zeros) is
    the background acquisition.
    """
    if det.electronic_noise_rel_db is not None:
        if reference_shot_psd is None:
            raise ValueError("electronic noise needs reference_shot_psd to set its level")
        p_e = 10.0 ** (det.electronic_noise_rel_db / 10.0) * reference_shot_psd
        n = np.shape(dp)[-1]
        noise = [generator(k).normal(0.0, np.sqrt(p_e), n) for k in seed_rows(seed)]
        dp = dp + np.reshape(noise, np.shape(dp))
    if det.clip_level is not None:
        dp = np.clip(dp, -det.clip_level, det.clip_level)
    return dp - dp.mean(axis=-1, keepdims=True)


def _apply_gain_ripple(dp: np.ndarray, grid: FrequencyGrid, ripple_db: float) -> np.ndarray:
    # Smooth +-ripple/2 cosine tilt pinned to the 5-15 MHz analysis span.
    f = np.fft.rfftfreq(grid.n_samples, d=1.0 / grid.sample_rate)
    tilt_db = 0.5 * ripple_db * np.cos(np.pi * (f - 5e6) / 10e6)
    gain = 10.0 ** (tilt_db / 20.0)
    return np.fft.irfft(np.fft.rfft(dp) * gain, n=grid.n_samples)
