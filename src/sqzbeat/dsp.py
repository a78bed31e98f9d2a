"""Measurement chain: filters, mixer, periodograms, compensation, band metrics.

Spectral convention: two-sided per-bin power, reported on the one-sided
frequency axis.  A white sequence with unit per-sample variance estimates
a flat PSD of 1.0, which makes the shot-noise unit carry through from the
field layer unchanged.  This module computes the Hamming-windowed
periodogram of each frame; the runner's chunk engine averages them over
non-overlapping frames in frame-index order.

The per-frame steps (``filter_frame``, ``mix_down``, ``frame_spectrum``
and the periodograms) work along the last axis, so one call handles one
frame or a block of frames with one row each; numpy's FFTs give every
row of a block the same bits as the frame alone.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy import signal as sps

from .fields import FrequencyGrid

FILTER_KINDS = ("band-stop", "low-pass", "high-pass", "gain")


class DspError(ValueError):
    pass


class DegenerateSubtractionError(DspError):
    """Background subtraction left a nonpositive band mean."""


@dataclass(frozen=True)
class FilterSpec:
    """One stage of an emulated analog filter chain.

    Band-stop stages are Chebyshev type I (ripple_db in the passband);
    low/high-pass stages are Butterworth; ``gain`` is a flat scale.
    Corners are given in Hz and must stay below Nyquist.
    """

    kind: str
    corners: tuple[float, ...] = ()
    order: int = 5
    ripple_db: float = 1.0
    gain_db: float = 0.0

    def __post_init__(self):
        if self.kind not in FILTER_KINDS:
            raise ValueError(f"kind must be one of {FILTER_KINDS}")
        corners = tuple(float(c) for c in np.atleast_1d(np.asarray(self.corners, dtype=float))) if self.corners != () else ()
        object.__setattr__(self, "corners", corners)
        if self.kind == "band-stop" and len(corners) != 2:
            raise ValueError("band-stop needs two corners")
        if self.kind in ("low-pass", "high-pass") and len(corners) != 1:
            raise ValueError(f"{self.kind} needs one corner")
        if self.order < 1:
            raise ValueError("order must be >= 1")


@dataclass(frozen=True)
class BandSpec:
    """Analysis band: center +- half_width with an inner exclusion zone."""

    center_hz: float
    half_width_hz: float
    exclusion_half_width_hz: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.exclusion_half_width_hz < self.half_width_hz:
            raise ValueError("need 0 <= exclusion_half_width < half_width")

    def mask(self, freqs: np.ndarray) -> np.ndarray:
        # Edge bins land on the boundaries up to float fuzz in the
        # frequency axis; the tolerance keeps them on one fixed side.
        tol = 1e-6 * max(self.half_width_hz, 1.0)
        d = np.abs(freqs - self.center_hz)
        return (d <= self.half_width_hz + tol) & (d > self.exclusion_half_width_hz + tol)


@dataclass(frozen=True)
class SpectrumEstimate:
    """Averaged (cross-)spectral density over frames."""

    freqs: np.ndarray
    values: np.ndarray
    n_frames: int
    kind: str = "auto"
    compensated: bool = False
    background_subtracted: bool = False

    def __post_init__(self):
        if self.n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        if len(self.freqs) != len(self.values):
            raise ValueError("freqs and values must align")
        if np.any(np.diff(self.freqs) <= 0):
            raise ValueError("freqs must be strictly increasing")
        if self.kind == "auto" and not self.background_subtracted and np.any(self.values < 0):
            raise ValueError("auto-spectra must be nonnegative before subtraction")


@lru_cache(maxsize=128)
def _design_sos(spec: FilterSpec, sample_rate: float) -> np.ndarray | None:
    nyq = sample_rate / 2.0
    if spec.kind == "gain":
        return None
    if any(c >= nyq for c in spec.corners) or any(c <= 0 for c in spec.corners):
        raise DspError(f"filter corners {spec.corners} must lie in (0, Nyquist)")
    if spec.kind == "band-stop":
        return sps.cheby1(
            spec.order, spec.ripple_db, list(spec.corners), btype="bandstop", fs=sample_rate, output="sos"
        )
    btype = "lowpass" if spec.kind == "low-pass" else "highpass"
    return sps.butter(spec.order, spec.corners[0], btype=btype, fs=sample_rate, output="sos")


def filter_frame(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Run a frame (or each row of a block) through a chain of
    precomputed response ``h``.

    The chain is applied in the frequency domain (circular convolution),
    which is the steady-state response of the continuously running analog
    chain: synthesized frames are exactly frame-periodic, so this carries
    no start-up transient.
    """
    return np.fft.irfft(np.fft.rfft(x) * h, n=np.shape(x)[-1])


def chain_response(chain: list[FilterSpec], freqs_hz: np.ndarray, sample_rate: float) -> np.ndarray:
    """Complex frequency response of the designed chain at ``freqs_hz``."""
    h = np.ones(len(freqs_hz), dtype=complex)
    for spec in chain:
        sos = _design_sos(spec, sample_rate)
        if sos is not None:
            _, hs = sps.sosfreqz(sos, worN=freqs_hz, fs=sample_rate)
            h = h * hs
        h = h * 10.0 ** (spec.gain_db / 20.0)
    return h


def compensate_spectrum(estimate: SpectrumEstimate, chain: list[FilterSpec], sample_rate: float) -> SpectrumEstimate:
    """Divide out the designed chain power response.

    Rejects estimates that were already compensated, so the correction
    cannot be applied twice.
    """
    if estimate.compensated:
        raise DspError("spectrum is already compensated")
    h = chain_response(chain, estimate.freqs, sample_rate)
    power = np.abs(h) ** 2
    floor = np.max(power) * 1e-12
    return replace(estimate, values=estimate.values / np.maximum(power, floor), compensated=True)


def local_oscillator(grid: FrequencyGrid, freq_hz: float, phase_rad: float) -> np.ndarray:
    """Unit mixer drive cos(2 pi f t + phase) over one frame."""
    return np.cos(2.0 * np.pi * freq_hz * grid.times() + phase_rad)


def mix_down(x: np.ndarray, lo: np.ndarray, lpf_h: np.ndarray) -> np.ndarray:
    """Mixer and low-pass of a frame or block: LPF[x * lo]."""
    return filter_frame(x * lo, lpf_h)


def demod_lpf_spec(lo_freq_hz: float) -> FilterSpec:
    """The mixer low-pass: eighth order, corner at half the LO frequency."""
    return FilterSpec("low-pass", (lo_freq_hz / 2.0,), order=8)


def hamming_window(n: int) -> tuple[np.ndarray, float]:
    """Hamming window of ``n`` samples and its power sum, which
    normalizes the periodograms so a white input of PSD p estimates p."""
    window = np.hamming(n)
    return window, float(np.sum(window**2))


def frame_spectrum(x: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Windowed spectrum V = rfft(w * x) of a frame or of each block row."""
    return np.fft.rfft(window * x)


def auto_periodogram(v: np.ndarray, wnorm: float) -> np.ndarray:
    """|V|^2 / sum(w^2) of windowed frame spectra."""
    return np.abs(v) ** 2 / wnorm


def cross_periodogram(v1: np.ndarray, v2: np.ndarray, wnorm: float) -> np.ndarray:
    """Re(V1 conj(V2)) / sum(w^2) of aligned windowed frame spectra."""
    return np.real(v1 * np.conj(v2)) / wnorm


@dataclass(frozen=True)
class PostprocessResult:
    reduction_db: float
    stderr_db: float
    n_bins: int


def _window_variance_factor(n_fft: int) -> float:
    # Windowing correlates neighboring periodogram bins: for Gaussian
    # inputs cov(P_k, P_{k+m}) scales as |R_{w^2}(m)|^2, so a band mean
    # fluctuates sum_m |rho(m)|^2 times more than independent bins would
    # (about 1.82 for Hamming).  Band means here span many bins, so the
    # few-lag truncation is accurate.
    if n_fft < 16:
        return 1.0
    w2 = np.hamming(n_fft) ** 2
    r = np.fft.rfft(w2)[:8]
    rho2 = np.abs(r / r[0]) ** 2
    return float(rho2[0] + 2.0 * np.sum(rho2[1:]))


def postprocess(
    target: SpectrumEstimate,
    reference: SpectrumEstimate,
    background: SpectrumEstimate,
    band: BandSpec,
) -> PostprocessResult:
    """Background-subtracted band-averaged noise reduction in dB.

    reduction = -10 log10( mean_band(target - background)
                         / mean_band(reference - background) )

    with the exclusion zone removed from the band.  The standard error
    propagates the bin scatter of both subtracted band means, inflated by
    the window correlation factor since neighboring bins of a windowed
    periodogram are not independent.  Raises DegenerateSubtractionError
    when a subtracted band mean is not positive (electronic noise
    dominates the light).
    """
    for est in (target, reference, background):
        if est.background_subtracted:
            raise DspError("inputs must not be background-subtracted already")
    if not (np.array_equal(target.freqs, reference.freqs) and np.array_equal(target.freqs, background.freqs)):
        raise DspError("spectra must share one frequency axis")

    m = band.mask(target.freqs)
    n_bins = int(np.count_nonzero(m))
    if n_bins < 2:
        raise DspError("band must contain at least two bins")
    t = target.values[m] - background.values[m]
    r = reference.values[m] - background.values[m]
    t_mean = float(np.mean(t))
    r_mean = float(np.mean(r))
    if t_mean <= 0.0 or r_mean <= 0.0:
        raise DegenerateSubtractionError(
            "band mean is not positive after background subtraction"
        )
    reduction_db = -10.0 * np.log10(t_mean / r_mean)
    corr = np.sqrt(_window_variance_factor(2 * (len(target.freqs) - 1)))
    se_t = float(np.std(t, ddof=1) / np.sqrt(n_bins)) * corr
    se_r = float(np.std(r, ddof=1) / np.sqrt(n_bins)) * corr
    rel = np.hypot(se_t / t_mean, se_r / r_mean)
    stderr_db = float(10.0 / np.log(10.0) * rel)
    return PostprocessResult(float(reduction_db), stderr_db, n_bins)


def raw_measurement_chain() -> list[FilterSpec]:
    """Filter chain of the direct beat-signal measurement.

    Beat-notch band-stop, 15 MHz low-pass, 1.2 MHz high-pass and a 20 dB
    amplifier.  The guard low-pass far above the analysis band sits beyond
    Nyquist at the simulated rate and is omitted.
    """
    return [
        FilterSpec("band-stop", (8.0e6, 12.5e6), order=5, ripple_db=1.0),
        FilterSpec("low-pass", (15e6,), order=5),
        FilterSpec("high-pass", (1.2e6,), order=5),
        FilterSpec("gain", gain_db=20.0),
    ]


def demod_measurement_chain() -> list[FilterSpec]:
    """Per-arm chain after the mixer low-pass: high-pass plus amplifier."""
    return [
        FilterSpec("high-pass", (1.2e6,), order=5),
        FilterSpec("gain", gain_db=20.0),
    ]
