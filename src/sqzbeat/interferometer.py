"""Beam assembly, pickoff injection and balanced beat-note detection.

Two beams at carriers separated by the beat frequency are built as
classical carriers riding on injected noise fields.  The balanced
detector output is evaluated as the exact sample-wise product

    dP(t) = 2 Re[conj(E1(t)) E2(t)]

so every second-order noise term survives.

Sign conventions (fixed by the field time series exp(-2j pi f t)): the
classical beat is 2 E1 E2 cos(2 pi beat t + theta2 - theta1), and the
noise riding on beam i is detected at quadrature angle -theta_other, so
matching the pickoff injection phase to the opposing carrier phase keeps
the squeezed quadrature in the measurement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import (
    FieldRealization,
    FrequencyGrid,
    SqueezerSpec,
    apply_loss,
    apply_squeezer,
    make_vacuum_field,
)
from .rng import generator, seed_rows, stream_key

PHASE_KINDS = ("none", "sinusoid")
SCHEMES = ("proposed", "straightforward", "unsqueezed")


@dataclass(frozen=True)
class PhaseSignalSpec:
    """Relative-phase signal carried by a beam.

    ``sinusoid`` adds mod_depth * sin(2 pi mod_freq t).
    """

    kind: str = "none"
    mod_freq_hz: float = 0.0
    mod_depth_rad: float = 0.0

    def __post_init__(self):
        if self.kind not in PHASE_KINDS:
            raise ValueError(f"kind must be one of {PHASE_KINDS}")
        if self.kind == "sinusoid" and self.mod_freq_hz <= 0:
            raise ValueError("sinusoid needs mod_freq_hz > 0")


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
class PickoffSpec:
    """High-reflectivity injection port for squeezed vacuum.

    The squeezed field takes a (1 - R) loss at the pickoff; the matching
    fresh vacuum enters through the open port.  ``squeezer=None`` injects
    plain vacuum.
    """

    reflectivity: float = 1.0
    squeezer: SqueezerSpec | None = None
    injection_phase_rad: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.reflectivity <= 1.0:
            raise ValueError("reflectivity must be in (0, 1]")


@dataclass(frozen=True)
class DetectorSpec:
    """Balanced detector imperfections.

    electronic_noise_rel_db is the white electronic-noise PSD relative to
    the unsqueezed shot floor (None disables it); clip_level saturates the
    photocurrent symmetrically; gain_ripple_db tilts the response by a
    smooth +-ripple/2 cosine across 5-15 MHz.
    """

    quantum_efficiency: float = 1.0
    electronic_noise_rel_db: float | None = None
    clip_level: float | None = None
    gain_ripple_db: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.quantum_efficiency <= 1.0:
            raise ValueError("quantum_efficiency must be in (0, 1]")
        if self.clip_level is not None and self.clip_level <= 0:
            raise ValueError("clip_level must be positive when present")


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
    if sig.kind == "sinusoid" and sig.mod_depth_rad != 0.0:
        theta = theta + sig.mod_depth_rad * np.sin(2.0 * np.pi * sig.mod_freq_hz * grid.times())
    if extra_phase is not None:
        theta = theta + extra_phase
    return theta


def pickoff_noise_field(grid: FrequencyGrid, pickoff: PickoffSpec, seed) -> FieldRealization:
    """Noise field entering a beam through its pickoff port, for one frame."""
    vac = make_vacuum_field(grid, stream_key(seed, 0))
    out = apply_squeezer(vac, pickoff.squeezer) if pickoff.squeezer is not None else vac
    amps = out.amplitudes
    if pickoff.injection_phase_rad != 0.0:
        amps = amps * np.exp(-1j * pickoff.injection_phase_rad)
    r = pickoff.reflectivity
    if r < 1.0:
        port = make_vacuum_field(grid, stream_key(seed, 1))
        amps = np.sqrt(r) * amps + np.sqrt(1.0 - r) * port.amplitudes
    return FieldRealization(grid, amps)


class BeamCarrier:
    """Frame-invariant carrier terms of one beam on one grid.

    ``ramp`` is 2 pi f_c t and ``theta0`` the deterministic phase (static
    plus phase signal), so a frame forms only ramp + (theta0 + extra).
    The carrier without extra phase is transformed once, here.
    """

    def __init__(self, grid: FrequencyGrid, beam: BeamSpec):
        grid.bin_index(beam.carrier_freq_hz)
        self.amplitude = beam.amplitude
        self.ramp = 2.0 * np.pi * beam.carrier_freq_hz * grid.times()
        self.theta0 = phase_series(grid, beam)
        self.steady = self._bins(self.theta0)

    def _bins(self, theta: np.ndarray) -> np.ndarray:
        z = -1j * (self.ramp + theta)
        np.exp(z, out=z)
        z *= self.amplitude
        return np.fft.ifft(z)

    def amplitudes(self, extra_phase: np.ndarray | None = None) -> np.ndarray:
        """Carrier bins of a frame, one row per row of ``extra_phase``."""
        if extra_phase is None:
            return self.steady
        return self._bins(self.theta0 + extra_phase)


def compose_beam(
    grid: FrequencyGrid,
    beam: BeamSpec,
    pickoff: PickoffSpec | list[PickoffSpec],
    seed,
    extra_phase: np.ndarray | None = None,
    carrier: BeamCarrier | None = None,
) -> FieldRealization:
    """Carrier plus injected noise for one beam path.

    The carrier is synthesized in the time domain (so phase modulation is
    exact) and added onto the noise bins.  ``extra_phase`` carries any
    phase-noise realization synthesized by the caller.  For a block of
    frames ``seed`` is the list of per-frame seeds, ``pickoff`` one spec
    or one per frame, and ``extra_phase`` has one row per frame; the field
    then has one row per frame.  ``carrier`` reuses the beam's prebuilt
    ``BeamCarrier``.
    """
    if carrier is None:
        carrier = BeamCarrier(grid, beam)
    keys = seed_rows(stream_key(seed, 0))
    picks = pickoff if isinstance(pickoff, list) else [pickoff] * len(keys)
    amps = np.empty((len(keys), grid.n_samples), dtype=complex)
    for row, p, k in zip(amps, picks, keys):
        row[:] = pickoff_noise_field(grid, p, k).amplitudes
    if beam.amplitude != 0.0:
        amps += carrier.amplitudes(extra_phase)
    return FieldRealization(grid, amps if isinstance(seed, list) else amps[0])


def balanced_detect(
    e1: FieldRealization,
    e2: FieldRealization,
    det: DetectorSpec,
    seed,
    reference_shot_psd: float | None = None,
) -> PhotocurrentTrace:
    """Exact balanced beat-note detection of two beams.

    The product form keeps every second-order noise term.  Detection
    inefficiency is applied as vacuum-admixing loss on both fields before
    the product; the gain ripple shapes the product, and
    ``detector_readout`` follows.  Block fields take the list of per-frame
    seeds and give one photocurrent row per frame.
    """
    if e1.grid != e2.grid:
        raise ValueError("beams must share one grid")
    qe = det.quantum_efficiency

    # Each field is transformed right after its loss, so only one lossy
    # block is alive at a time.
    def detected(field: FieldRealization, port: int) -> np.ndarray:
        if qe < 1.0:
            field = apply_loss(field, qe, stream_key(seed, port))
        return field.time_series()

    beat = detected(e1, 0)
    np.conjugate(beat, out=beat)
    beat *= detected(e2, 1)
    dp = 2.0 * beat.real

    if det.gain_ripple_db != 0.0:
        dp = _apply_gain_ripple(dp, e1.grid, det.gain_ripple_db)
    return PhotocurrentTrace(detector_readout(dp, det, seed, reference_shot_psd), e1.grid)


def detector_readout(
    dp: np.ndarray, det: DetectorSpec, seed, reference_shot_psd: float | None = None
) -> np.ndarray:
    """Detector electronics on one photocurrent frame or a block of them.

    Adds white electronic noise at electronic_noise_rel_db relative to
    ``reference_shot_psd`` (drawn from substream 2 of each frame's seed),
    clips, and removes each frame's mean last.  A dark frame (``dp`` all
    zeros) is the background acquisition.
    """
    if det.electronic_noise_rel_db is not None:
        if reference_shot_psd is None:
            raise ValueError("electronic noise needs reference_shot_psd to set its level")
        p_e = 10.0 ** (det.electronic_noise_rel_db / 10.0) * reference_shot_psd
        n = np.shape(dp)[-1]
        noise = [generator(k).normal(0.0, np.sqrt(p_e), n) for k in seed_rows(stream_key(seed, 2))]
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
