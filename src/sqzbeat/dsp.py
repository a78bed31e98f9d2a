"""Measurement chain: filters, mixer, periodograms, compensation, and the
band metric over a mask.

Spectral convention: two-sided per-bin power, reported on the one-sided
frequency axis.  A white sequence with unit per-sample variance estimates
a flat PSD of 1.0, which makes the shot-noise unit carry through from the
field layer unchanged.  This module computes the Hamming-windowed
periodogram of each frame; the runner's chunk engine averages them over
non-overlapping frames in frame-index order.

The chain works on rfft bins: a filter multiplies them by its response
(``chain_response``), the steady-state response of the running analog
chain, since synthesized frames are exactly frame-periodic.  The window
is the periodic (DFT-even) Hamming window, 0.54 - 0.46 cos(2 pi t / n),
whose spectrum has three taps, so ``hamming_from_bins`` windows the bins
with no FFT.  These steps work along the last axis, so one call handles
one frame or a block of frames with one row each.

The filter chain is designed here from its poles and zeros (analog
prototype, band transform, bilinear transform) in numpy, so no run loads
scipy, whose ``signal`` module takes over a second and about 70 MB.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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
    Corners are given in Hz and must lie in (0, Nyquist), a band-stop's
    in increasing order; ripple_db must be positive.
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
        if self.kind == "band-stop" and not corners[0] < corners[1]:
            raise ValueError("band-stop corners must increase")
        if self.kind in ("low-pass", "high-pass") and len(corners) != 1:
            raise ValueError(f"{self.kind} needs one corner")
        if self.order < 1:
            raise ValueError("order must be >= 1")
        if not self.ripple_db > 0:
            raise ValueError("ripple_db must be > 0")


@lru_cache(maxsize=128)
def _design_zpk(spec: FilterSpec, sample_rate: float) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Digital zeros, poles and gain of one stage, or None for a flat gain.

    The analog low-pass prototype on a unit corner has no zeros: its poles
    lie on the unit circle (Butterworth) or on an ellipse with the gain set
    by the passband ripple (Chebyshev type I).  It is moved to the stage's
    corners, pre-warped to a sample rate of 2, by s -> w s (low-pass),
    s -> w / s (high-pass) or s -> s b / (s^2 + w0^2) (band-stop, with w0^2
    the corners' product and b their difference).  The bilinear transform
    z = (4 + s) / (4 - s) then gives the digital filter, the zeros at
    infinity landing on Nyquist.  The expressions are scipy.signal's
    butter and cheby1 (``output="zpk"``) step for step.
    """
    if spec.kind == "gain":
        return None
    nyq = sample_rate / 2.0
    if not all(0.0 < c < nyq for c in spec.corners):
        raise DspError(f"filter corners {spec.corners} must lie in (0, Nyquist)")
    n = spec.order
    m = np.arange(-n + 1, n, 2, dtype=float)
    if spec.kind == "band-stop":
        eps = math.sqrt(10 ** (0.1 * spec.ripple_db) - 1.0)
        mu = 1.0 / n * math.asinh(1 / eps)
        p = -np.sinh(mu + 1j * (np.pi * m / (2 * n)))
        k = np.real(np.prod(-p))
        if n % 2 == 0:
            k = k / math.sqrt(1 + eps * eps)
    else:
        p = -np.exp(1j * np.pi * m / (2 * n))
        k = 1.0
    warped = 4.0 * np.tan(np.pi * (np.asarray(spec.corners) / nyq) / 2.0)
    if spec.kind == "low-pass":
        z, p, k = np.zeros(0), warped[0] * p, k * warped[0] ** n
    elif spec.kind == "high-pass":
        z, p, k = np.zeros(n), warped[0] / p, k * np.real(1.0 / np.prod(-p))
    else:
        w0 = np.sqrt(warped[0] * warped[1])
        hp = (warped[1] - warped[0]) / 2 / p
        root = np.sqrt(hp**2 - w0**2)
        z = np.concatenate((np.full(n, 1j * w0), np.full(n, -1j * w0)))
        p, k = np.concatenate((hp + root, hp - root)), k * np.real(1.0 / np.prod(-p))
    zd = np.concatenate(((4.0 + z) / (4.0 - z), -np.ones(len(p) - len(z))))
    return zd, (4.0 + p) / (4.0 - p), k * np.real(np.prod(4.0 - z) / np.prod(4.0 - p))


def chain_response(chain: list[FilterSpec], freqs_hz: np.ndarray, sample_rate: float) -> np.ndarray:
    """Complex frequency response of the designed chain at ``freqs_hz``.

    Each stage's k prod(z - z_i) / prod(z - p_i) is taken on the unit
    circle one factor at a time, so no temporary is wider than the bins.
    """
    z = np.exp(2j * np.pi * np.asarray(freqs_hz, dtype=float) / sample_rate)
    h = np.ones(len(z), dtype=complex)
    for spec in chain:
        zpk = _design_zpk(spec, sample_rate)
        if zpk is not None:
            zeros, poles, k = zpk
            h *= k
            for zero in zeros:
                h *= z - zero
            for pole in poles:
                h /= z - pole
        h *= 10.0 ** (spec.gain_db / 20.0)
    return h


# Where a chain's power response lies below this fraction of its peak,
# the filtered value is the filtering's rounding residue, not a measurement.
CHAIN_FLOOR = 1e-12


def chain_floor(h: np.ndarray) -> tuple[np.ndarray, float]:
    """The power response |h|^2 of a chain and its floor, CHAIN_FLOOR of its peak."""
    power = np.abs(h) ** 2
    return power, np.max(power) * CHAIN_FLOOR


def compensate_spectrum(values: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Spectra ``values`` (one per row) with the power response of a chain
    divided out, its complex response ``h`` (from ``chain_response``)
    given on their bins and held at CHAIN_FLOOR of its peak."""
    power, floor = chain_floor(h)
    return values / np.maximum(power, floor)


def local_oscillator(grid: FrequencyGrid, freq_hz: float, phase_rad: float) -> np.ndarray:
    """Unit mixer drive cos(2 pi f t + phase) over one frame."""
    return np.cos(2.0 * np.pi * freq_hz * grid.times() + phase_rad)


def demod_lpf_spec(lo_freq_hz: float) -> FilterSpec:
    """The mixer low-pass: eighth order, corner at half the LO frequency."""
    return FilterSpec("low-pass", (lo_freq_hz / 2.0,), order=8)


# The Hamming window's two coefficients, w(t) = A0 - A1 cos(2 pi t / n).
_HAMMING_A0 = 0.54
_HAMMING_A1 = 0.46


def hamming_window(n: int) -> tuple[np.ndarray, float]:
    """Periodic (DFT-even) Hamming window of ``n`` samples and its power
    sum, which normalizes the periodograms so a white input of PSD p
    estimates p."""
    window = _HAMMING_A0 - _HAMMING_A1 * np.cos(2.0 * np.pi * np.arange(n) / n)
    return window, float(np.sum(window**2))


def hamming_from_bins(bins: np.ndarray) -> np.ndarray:
    """Windowed spectrum V = rfft(w x) of real rows x given as their rfft
    bins X, for the periodic Hamming window w.

    The periodic window has three DFT taps (Harris, Proc. IEEE 66, 51,
    1978): V_j = A0 X_j - (A1 / 2) (X_{j-1} + X_{j+1}), with the bins
    beyond either end of the rfft layout wrapped as a real row's are,
    X_{-1} = conj X_1 and X_{n/2+1} = conj X_{n/2-1}.
    """
    out = np.empty_like(bins)
    np.add(bins[..., :-2], bins[..., 2:], out=out[..., 1:-1])
    # At either end the two neighbours are a bin and its conjugate.
    out[..., 0] = 2.0 * bins[..., 1].real
    out[..., -1] = 2.0 * bins[..., -2].real
    out *= -_HAMMING_A1 / 2.0
    out += _HAMMING_A0 * bins
    return out


def auto_periodogram(v: np.ndarray, wnorm: float) -> np.ndarray:
    """|V|^2 / sum(w^2) of windowed frame spectra."""
    return np.abs(v) ** 2 / wnorm


def cross_periodogram(v1: np.ndarray, v2: np.ndarray, wnorm: float) -> np.ndarray:
    """Re(V1 conj(V2)) / sum(w^2) of aligned windowed frame spectra."""
    return np.real(v1 * np.conj(v2)) / wnorm


def _window_variance_factor(n_fft: int) -> float:
    # Windowing correlates neighboring periodogram bins: for Gaussian
    # inputs cov(P_k, P_{k+m}) scales as |R_{w^2}(m)|^2, so a band mean
    # fluctuates sum_m |rho(m)|^2 times more than independent bins would
    # (about 1.82 for Hamming).  Band means here span many bins, so the
    # few-lag truncation is accurate.
    if n_fft < 16:
        return 1.0
    w2 = hamming_window(n_fft)[0] ** 2
    r = np.fft.rfft(w2)[:8]
    rho2 = np.abs(r / r[0]) ** 2
    return float(rho2[0] + 2.0 * np.sum(rho2[1:]))


def postprocess(target: np.ndarray, reference: np.ndarray, mask: np.ndarray) -> tuple[float, float, int]:
    """Band-averaged noise reduction in dB and its standard error, and the
    band's bin count, of background-subtracted spectra on the bins of ``mask``:

    reduction = -10 log10( mean_band(target) / mean_band(reference) )

    The standard error propagates the bin scatter of both band means,
    inflated by the window correlation factor since neighboring bins of a
    windowed periodogram are not independent.  Raises
    DegenerateSubtractionError when a band mean is not positive
    (electronic noise dominates the light).
    """
    n_bins = int(np.count_nonzero(mask))
    if n_bins < 2:
        raise DspError("band must contain at least two bins")
    t = target[mask]
    r = reference[mask]
    t_mean = float(np.mean(t))
    r_mean = float(np.mean(r))
    if t_mean <= 0.0 or r_mean <= 0.0:
        raise DegenerateSubtractionError(
            "band mean is not positive after background subtraction"
        )
    reduction_db = -10.0 * np.log10(t_mean / r_mean)
    corr = np.sqrt(_window_variance_factor(2 * (len(target) - 1)))
    se_t = float(np.std(t, ddof=1) / np.sqrt(n_bins)) * corr
    se_r = float(np.std(r, ddof=1) / np.sqrt(n_bins)) * corr
    rel = np.hypot(se_t / t_mean, se_r / r_mean)
    stderr_db = float(10.0 / np.log(10.0) * rel)
    return float(reduction_db), stderr_db, n_bins


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
