"""Frequency-domain Gaussian noise fields and two-photon quadratures.

One optical band is represented by a complex amplitude per FFT bin of a
baseband grid; the optical carrier reference is anchored at a configurable
baseband offset.  Amplitudes are scaled so that every quadrature extracted
from a fresh vacuum has power spectral density exactly 1.0: this is the
shot-noise unit used everywhere in the package.

The grid samples the Wigner distribution of the Gaussian state, so linear
transformations (squeezing, loss, interference) reproduce the measured
noise statistics of the corresponding quantum state exactly, to all orders
that a photocurrent measurement can see.

Sideband pairs about a squeezer center transform jointly: the quadrature
at the squeeze angle is multiplied by sqrt(S_minus(eps)) and the orthogonal
one by sqrt(S_plus(eps)), which realizes the below-threshold cavity model
with escape efficiency folded in.  Deterministic gains and an explicit
vacuum admixture produce the same Gaussian state; gains are used so the
operation stays a pure function of (field, spec).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import generator, seed_rows

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
    center_offset : float
        Baseband frequency the optical carrier reference is anchored to.
    """

    sample_rate: float
    n_samples: int
    center_offset: float = 30e6

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.n_samples < 16 or self.n_samples % 2 != 0:
            raise ValueError("n_samples must be even and >= 16")
        if not (-self.sample_rate / 2 < self.center_offset < self.sample_rate / 2):
            raise ValueError("center_offset must lie strictly inside the grid")

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
class FieldRealization:
    """One realization of the noise state of a beam path.

    ``amplitudes`` holds one complex value per grid bin in units of
    sqrt(shot-noise quanta); a fresh vacuum bin has mean square 1/n_samples
    so that quadrature spectral densities come out at 1.0.  A block of
    frames stacks one row per frame, shape (frames, n_samples).
    """

    grid: FrequencyGrid
    amplitudes: np.ndarray

    def __post_init__(self):
        if np.shape(self.amplitudes)[-1:] != (self.grid.n_samples,):
            raise ValueError("amplitudes length must equal grid.n_samples")

    def time_series(self) -> np.ndarray:
        """Complex field samples; bin k contributes amp * exp(-2j pi f_k t)."""
        return np.fft.fft(self.amplitudes)

    def with_amplitudes(self, amplitudes: np.ndarray) -> "FieldRealization":
        return FieldRealization(self.grid, amplitudes)


@dataclass(frozen=True)
class QuadraturePair:
    """Real quadrature time series of a field envelope."""

    a1: np.ndarray
    a2: np.ndarray

    def at_angle(self, angle_rad: float) -> np.ndarray:
        return self.a1 * np.cos(angle_rad) + self.a2 * np.sin(angle_rad)


@dataclass(frozen=True)
class SqueezerSpec:
    """Below-threshold cavity squeezer parameters.

    pump_ratio is sqrt(P_pump / P_threshold); hwhm_hz the cavity half width
    at half maximum; escape_efficiency the fraction of the squeezed field
    that survives to the output; squeeze_angle_rad the quadrature that is
    de-amplified; center_freq_hz the baseband anchor of the squeezer.
    """

    pump_ratio: float
    hwhm_hz: float
    escape_efficiency: float = 1.0
    squeeze_angle_rad: float = 0.0
    center_freq_hz: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.pump_ratio < 1.0:
            raise ValueError("pump_ratio must be in [0, 1): below threshold only")
        if self.hwhm_hz <= 0:
            raise ValueError("hwhm_hz must be positive")
        if not 0.0 <= self.escape_efficiency <= 1.0:
            raise ValueError("escape_efficiency must be in [0, 1]")

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
        nu = np.square(np.asarray(eps_hz, dtype=float) / self.hwhm_hz)
        s = 1.0 - eta * 4.0 * x / ((1.0 + x) ** 2 + nu)
        a = 1.0 + eta * 4.0 * x / ((1.0 - x) ** 2 + nu)
        return s, a


def make_vacuum_field(grid: FrequencyGrid, seed) -> FieldRealization:
    """Fresh vacuum: i.i.d. circular complex Gaussian bins.

    Deterministic in (grid, seed).  Per-bin mean square is 1/n_samples so
    any extracted quadrature has PSD 1.0.  A list of per-frame seeds gives
    a block with one row per seed, each row drawn from its own stream.
    """
    seeds = seed_rows(seed)
    n = grid.n_samples
    scale = np.sqrt(0.5 / n)
    amps = np.empty((len(seeds), n), dtype=complex)
    for row, s in zip(amps, seeds):
        rng = generator(s)
        np.multiply(rng.standard_normal(n), scale, out=row.real)
        np.multiply(rng.standard_normal(n), scale, out=row.imag)
    return FieldRealization(grid, amps if isinstance(seed, list) else amps[0])


def apply_squeezer(field: FieldRealization, spec: SqueezerSpec) -> FieldRealization:
    """Squeeze sideband pairs about ``spec.center_freq_hz``.

    Pairs (center + eps, center - eps) are transformed jointly for every
    eps whose partners both lie strictly inside the grid; the center bin
    receives the single-mode limit of the same map.  pump_ratio = 0 is an
    exact identity.
    """
    grid = field.grid
    if spec.pump_ratio >= 1.0:
        raise ValueError("pump_ratio must be < 1 (below threshold)")
    kc = grid.bin_index(spec.center_freq_hz)
    if spec.pump_ratio == 0.0:
        return field.with_amplitudes(field.amplitudes.copy())

    df = grid.bin_hz
    m_max = int(np.floor(grid.edge_margin(spec.center_freq_hz) / df + _GRID_TOL))
    if m_max < 1:
        raise BandError("squeezer center leaves no sideband pairs inside the grid")

    n = grid.n_samples
    ms = np.arange(1, m_max + 1)
    ku = (kc + ms) % n
    kl = (kc - ms) % n
    s, a = spec.squeezing_spectrum(ms * df)
    g1 = np.sqrt(s)
    g2 = np.sqrt(a)
    w = np.exp(2j * spec.squeeze_angle_rad)

    amps = field.amplitudes
    out = amps.copy()
    upper = amps[ku]
    lower = amps[kl]
    out[ku] = 0.5 * ((g1 + g2) * upper + (g1 - g2) * w * np.conj(lower))
    out[kl] = 0.5 * ((g1 - g2) * w * np.conj(upper) + (g1 + g2) * lower)

    s0, a0 = spec.squeezing_spectrum(0.0)
    g10, g20 = np.sqrt(s0), np.sqrt(a0)
    out[kc] = 0.5 * ((g10 + g20) * amps[kc] + (g10 - g20) * w * np.conj(amps[kc]))
    return field.with_amplitudes(out)


def apply_loss(field: FieldRealization, efficiency: float, seed) -> FieldRealization:
    """Beam-splitter loss: sqrt(eff) * field + sqrt(1 - eff) * fresh vacuum.

    A block field takes a list of per-frame seeds, one vacuum row each.
    """
    if not 0.0 <= efficiency <= 1.0:
        raise ValueError("efficiency must be in [0, 1]")
    if efficiency == 1.0:
        return field.with_amplitudes(field.amplitudes.copy())
    vac = make_vacuum_field(field.grid, seed).amplitudes
    vac *= np.sqrt(1.0 - efficiency)
    amps = np.sqrt(efficiency) * field.amplitudes
    amps += vac
    return field.with_amplitudes(amps)


def quadrature_series(
    field: FieldRealization,
    center_freq: float,
    eps_min: float = 0.0,
    eps_max: float | None = None,
) -> QuadraturePair:
    """Two-photon quadrature time series about ``center_freq``.

    a1(t) and a2(t) are the cosine and sine quadratures of the field
    envelope, built from the bins with sideband offset eps_min <= |eps| <=
    eps_max.  Linear in the field.  The default eps_max is the largest
    offset whose both sidebands stay strictly inside the grid.
    """
    grid = field.grid
    kc = grid.bin_index(center_freq)
    margin = grid.edge_margin(center_freq)
    if eps_max is None:
        eps_max = margin
    if eps_max > margin + _GRID_TOL * grid.bin_hz:
        raise BandError(f"eps_max {eps_max} Hz exceeds the in-band margin {margin} Hz")
    if eps_min < 0 or eps_min > eps_max:
        raise BandError("need 0 <= eps_min <= eps_max")

    rolled = np.roll(field.amplitudes, -kc)
    g = np.abs(grid.freqs())
    tol = _GRID_TOL * grid.bin_hz
    mask = (g >= eps_min - tol) & (g <= eps_max + tol)
    z = np.fft.fft(np.where(mask, rolled, 0.0))
    root2 = np.sqrt(2.0)
    return QuadraturePair(root2 * z.real, root2 * z.imag)


def epr_identity_residual(
    field: FieldRealization,
    omega0_hz: float,
    beat_hz: float,
    half_width_hz: float | None = None,
) -> float:
    """Residual of the sideband-recombination identity on one realization.

    The quadrature of the band centered midway between ``omega0`` and
    ``omega0 + 2 * beat`` decomposes exactly into quadratures of the two
    outer bands carried on sin and cos of the beat:

        a1_mid[eps in beat +- W] =
            (a2_upper - a2_lower) * sin(2 pi beat t)
          + (a1_upper + a1_lower) * cos(2 pi beat t)

    with the outer extractions band-limited to |eps| <= W < beat so the
    decompositions cannot alias.  The identity is linear and holds
    realization by realization for any state; the residual measures only
    floating-point error.

    Returns max|lhs - rhs| / max|lhs|.
    """
    grid = field.grid
    df = grid.bin_hz
    if beat_hz <= 0:
        raise BandError("beat_hz must be positive")
    lower = omega0_hz
    mid = omega0_hz + beat_hz
    upper = omega0_hz + 2.0 * beat_hz
    for f in (lower - beat_hz, lower, mid, upper):
        grid.bin_index(f)

    w_edge = min(grid.edge_margin(lower), grid.edge_margin(upper))
    w_max = min(beat_hz - df, w_edge)
    if half_width_hz is None:
        half_width_hz = w_max
    if not 0 <= half_width_hz <= w_max + _GRID_TOL * df:
        raise BandError(f"half_width_hz must be in [0, {w_max}] Hz")

    t = grid.times()
    phase = 2.0 * np.pi * beat_hz * t
    up = quadrature_series(field, upper, eps_max=half_width_hz)
    lo = quadrature_series(field, lower, eps_max=half_width_hz)
    rhs = (up.a2 - lo.a2) * np.sin(phase) + (up.a1 + lo.a1) * np.cos(phase)
    lhs = quadrature_series(
        field, mid, eps_min=beat_hz - half_width_hz, eps_max=beat_hz + half_width_hz
    ).a1
    scale = np.max(np.abs(lhs))
    if scale == 0.0:
        return 0.0
    return float(np.max(np.abs(lhs - rhs)) / scale)
