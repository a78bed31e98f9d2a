"""Frequency-domain Gaussian noise fields and two-photon quadratures.

One optical band is represented by a complex amplitude per FFT bin of a
baseband grid; carriers and squeezers sit at baseband frequencies on it
(a config's ``anchor_hz`` and the beat above it).  Amplitudes are scaled
so that every quadrature extracted from a fresh vacuum has power spectral
density exactly 1.0: this is the shot-noise unit used everywhere in the
package.

The grid samples the Wigner distribution of the Gaussian state, so linear
transformations (squeezing, loss, interference) reproduce the noise
statistics of the corresponding quantum state exactly to first order in
the noise.  At second order they do not: the product of Wigner samples
adds a state-independent white term of PSD 2 (shot units) to the
photocurrent of every lit acquisition (``interferometer``; Gardiner &
Zoller, *Quantum Noise*).  Noise enters as drawn standard normals, a
vacuum row as real parts then imaginary parts (``vacuum_rows``).  A field
is a plain complex array of bins, one row per frame of a block; each
function that needs the grid takes it as its first argument.

Sideband pairs about a squeezer center transform jointly: the quadrature
at the squeeze angle is multiplied by sqrt(S_minus(eps)) and the orthogonal
one by sqrt(S_plus(eps)), which realizes the below-threshold cavity model
with escape efficiency, and later losses (``detected_squeezer``), folded in.
Deterministic gains and an explicit vacuum admixture (``apply_loss``, the
tests' reference) produce the same Gaussian state; gains are used so the
operation stays a pure function of the field, the spec and the squeeze
angle, and needs no vacuum.  At angle 0 a quadrature bin is its vacuum bin
times one gain, which is all a pump sweep applies (``runner``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_GRID_TOL = 1e-6


class BandError(ValueError):
    """A requested frequency or band does not fit the grid."""


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform baseband frequency grid for one frame.

    Parameters
    ----------
    sample_rate : float
        Samples per second of the synthesized photocurrent.
    n_samples : int
        Samples per frame; must be even and at least 16.
    """

    sample_rate: float
    n_samples: int

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.n_samples < 16 or self.n_samples % 2 != 0:
            raise ValueError("n_samples must be even and >= 16")

    @property
    def bin_hz(self) -> float:
        return self.sample_rate / self.n_samples

    def freqs(self) -> np.ndarray:
        """Bin frequencies in FFT layout (positive block, then negative)."""
        return np.fft.fftfreq(self.n_samples, d=1.0 / self.sample_rate)

    def times(self) -> np.ndarray:
        return np.arange(self.n_samples) / self.sample_rate

    def bin_index(self, freq_hz: float) -> int:
        """Index of an on-grid frequency; BandError if off-grid or outside."""
        ratio = freq_hz / self.bin_hz
        idx = round(ratio)
        if abs(ratio - idx) > _GRID_TOL:
            raise BandError(f"{freq_hz} Hz is not a grid frequency (bin {self.bin_hz} Hz)")
        half = self.n_samples // 2
        if not (-half < idx < half):
            raise BandError(f"{freq_hz} Hz lies outside the open band (+-{self.sample_rate / 2} Hz)")
        return idx % self.n_samples

    def edge_margin(self, center_hz: float) -> float:
        """Largest sideband offset with both partners strictly in band."""
        half = self.sample_rate / 2 - self.bin_hz
        return min(half - center_hz, center_hz + half)


@dataclass(frozen=True)
class SqueezerSpec:
    """Below-threshold cavity squeezer parameters.

    pump_ratio is sqrt(P_pump / P_threshold); hwhm_hz the cavity half width
    at half maximum; escape_efficiency the fraction of the squeezed field
    that survives to the output; squeeze_angle_rad the quadrature that is
    de-amplified; center_freq_hz the baseband anchor of the squeezer;
    jitter_rms_rad the rms of a per-frame jitter about the squeeze angle.
    """

    pump_ratio: float
    hwhm_hz: float
    escape_efficiency: float = 1.0
    squeeze_angle_rad: float = 0.0
    center_freq_hz: float = 0.0
    jitter_rms_rad: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.pump_ratio < 1.0:
            raise ValueError("pump_ratio must be in [0, 1): below threshold only")
        if self.hwhm_hz <= 0:
            raise ValueError("hwhm_hz must be positive")
        if not 0.0 <= self.escape_efficiency <= 1.0:
            raise ValueError("escape_efficiency must be in [0, 1]")
        if self.jitter_rms_rad < 0:
            raise ValueError("jitter_rms_rad must be >= 0")

    def squeezing_spectrum(self, eps_hz):
        """(squeezed, anti-squeezed) PSD pair at sideband offset eps_hz.

        S_minus = 1 - eta * 4x / ((1 + x)^2 + (eps/hwhm)^2)
        S_plus  = 1 + eta * 4x / ((1 - x)^2 + (eps/hwhm)^2)

        The pair satisfies S_minus * S_plus >= 1 with equality only at
        unit escape efficiency.  This is the single source of truth for
        the squeezing spectrum; the analytic budgets reuse it.
        """
        x = self.pump_ratio
        eta = self.escape_efficiency
        # A tiny hwhm overflows nu to inf, and S = 1 exactly: no squeezing.
        with np.errstate(over="ignore"):
            nu = np.square(np.asarray(eps_hz, dtype=float) / self.hwhm_hz)
        s = 1.0 - eta * 4.0 * x / ((1.0 + x) ** 2 + nu)
        a = 1.0 + eta * 4.0 * x / ((1.0 - x) ** 2 + nu)
        return s, a


def vacuum_rows(normals: np.ndarray, scale: float) -> np.ndarray:
    """Circular complex Gaussian rows from standard normals of shape
    (..., 2, n), real parts then imaginary parts, each scaled by ``scale``;
    at scale sqrt(1/2), ``fft`` of a vacuum field."""
    out = np.empty(normals.shape[:-2] + normals.shape[-1:], dtype=complex)
    np.multiply(normals[..., 0, :], scale, out=out.real)
    np.multiply(normals[..., 1, :], scale, out=out.imag)
    return out


def make_vacuum_field(grid: FrequencyGrid, normals: np.ndarray) -> np.ndarray:
    """Fresh vacuum: i.i.d. circular complex Gaussian bins.

    ``normals`` holds standard normals of shape (2, n_samples), or
    (frames, 2, n_samples) for a block with one row per frame (see
    ``vacuum_rows``).  Per-bin mean square is 1/n_samples so any extracted
    quadrature has PSD 1.0.
    """
    return vacuum_rows(normals, np.sqrt(0.5 / grid.n_samples))


# A run squeezes with at most a few specs (one per beam; a sweep only
# reads its first power's bins); the gains hold no angle, so angle jitter
# reuses them.  An entry holds 24 bytes per bin, so the cache stays small.
@lru_cache(maxsize=16)
def sideband_gains(grid: FrequencyGrid, spec: SqueezerSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Bins and pair gains of the sidebands a squeezer transforms.

    Offsets run -m..m about ``spec.center_freq_hz``, m the largest whose
    partners both lie strictly inside the grid.  Returns the bin of each
    offset and the angle-free gains gp = g1 + g2 and gm = g1 - g2, g1 =
    sqrt(S_minus) and g2 = sqrt(S_plus), built once per (grid, spec) and
    read-only; ``apply_squeezer`` turns gm by the squeeze angle.
    """
    kc = grid.bin_index(spec.center_freq_hz)
    df = grid.bin_hz
    m = int(np.floor(grid.edge_margin(spec.center_freq_hz) / df + _GRID_TOL))
    if m < 1:
        raise BandError("squeezer center leaves no sideband pairs inside the grid")
    offsets = np.arange(-m, m + 1)
    s, a = spec.squeezing_spectrum(offsets * df)
    g1 = np.sqrt(s)
    g2 = np.sqrt(a)
    out = ((kc + offsets) % grid.n_samples, g1 + g2, g1 - g2)
    for arr in out:
        arr.flags.writeable = False
    return out


def apply_squeezer(
    grid: FrequencyGrid, field: np.ndarray, spec: SqueezerSpec, angle: float | np.ndarray | None = None
) -> np.ndarray:
    """Squeeze sideband pairs about ``spec.center_freq_hz``.

    Pairs (center + eps, center - eps) are transformed jointly for every
    eps whose partners both lie strictly inside the grid, the center bin
    (eps = 0) included, where the pair map is its own single-mode limit.
    pump_ratio = 0 is an exact identity.  A block field is squeezed in one
    step.  ``angle`` is the squeeze angle: ``spec.squeeze_angle_rad`` when
    None, else a number or an array of one angle per row of a block.

    With z the sidebands in offset order -m..m, each pair (+eps, -eps) maps
    jointly to 0.5 (gp z + gm exp(2i angle) conj(z reversed)), gp and gm of
    ``sideband_gains``.
    """
    grid.bin_index(spec.center_freq_hz)
    if spec.pump_ratio == 0.0:
        return field.copy()
    index, gp, gm = sideband_gains(grid, spec)
    if angle is None:
        angle = spec.squeeze_angle_rad
    gmw = gm * np.exp(2j * np.asarray(angle))[..., None]

    # Bins run along the last axis.  Writing through the transpose keeps a
    # one-row call on numpy's 1-D fancy-index path, which out[..., k] is not.
    out = field.copy()
    z = np.take(field, index, axis=-1)
    out.T[index] = (0.5 * (gp * z + gmw * np.conj(z[..., ::-1]))).T
    return out


def apply_loss(grid: FrequencyGrid, field: np.ndarray, efficiency: float, normals: np.ndarray) -> np.ndarray:
    """Beam-splitter loss: sqrt(eff) * field + sqrt(1 - eff) * fresh vacuum.

    The vacuum port's field is ``make_vacuum_field`` of ``normals``, one
    (2, n_samples) row per row of the field.
    """
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError("efficiency must be in [0, 1]")
    if efficiency == 1.0:
        return field.copy()
    vac = make_vacuum_field(grid, normals)
    vac *= np.sqrt(1.0 - efficiency)
    amps = np.sqrt(efficiency) * field
    amps += vac
    return amps


def quadrature_series(
    grid: FrequencyGrid,
    field: np.ndarray,
    center_freq: float,
    eps_min: float = 0.0,
    eps_max: float | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-photon quadrature time series about ``center_freq``.

    a1(t) and a2(t) are the cosine and sine quadratures of the field
    envelope, built from the bins with sideband offset eps_min <= |eps| <=
    eps_max.  Linear in the field.  The default eps_max is the largest
    offset whose both sidebands stay strictly inside the grid.  Returns
    (a1, a2); a block field gives one row of each per frame.

    No run reads it: a pump sweep builds its quadratures' bins directly
    (``runner``).  Only the tests' oracles and the benchmark's tracer do.
    """
    kc = grid.bin_index(center_freq)
    margin = grid.edge_margin(center_freq)
    if eps_max is None:
        eps_max = margin
    if eps_max > margin + _GRID_TOL * grid.bin_hz:
        raise BandError(f"eps_max {eps_max} Hz exceeds the in-band margin {margin} Hz")
    if eps_min < 0 or eps_min > eps_max:
        raise BandError("need 0 <= eps_min <= eps_max")

    rolled = np.roll(field, -kc, axis=-1)
    g = np.abs(grid.freqs())
    tol = _GRID_TOL * grid.bin_hz
    mask = (g >= eps_min - tol) & (g <= eps_max + tol)
    z = np.fft.fft(np.where(mask, rolled, 0.0))
    root2 = np.sqrt(2.0)
    return root2 * z.real, root2 * z.imag
