"""Closed-form noise budgets for the beat-note detection schemes.

Every Monte-Carlo number the simulator produces has a prediction here:
expected noise reductions from measured squeezing levels, squeezing
spectra, the classical-noise ceiling, phase-jitter penalties, and the
leakage floor of same-frequency squeezing.  All functions are pure and
stateless.

Relative floors are linear power versus the unsqueezed shot-noise
reference, which is normalized to 1 including any classical phase-noise
admixture: a classical fraction f means the classical term contributes f
of the total reference floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .fields import SqueezerSpec

_BANDS = ("lower", "upper", "demod")


def _db_to_linear(db) -> np.ndarray:
    """Squeezing quoted in dB of reduction -> linear power factor."""
    return 10.0 ** (-np.asarray(db, dtype=float) / 10.0)


@dataclass(frozen=True)
class SqueezingLevels:
    """Measured squeezing levels of the two sources at both sidebands.

    Entry i of each pair belongs to source i.  Positive dB means noise
    reduction.  Weights are the carrier powers each source beats against:
    w1 = E2^2 for source 1, w2 = E1^2 for source 2.
    """

    s_lower_db: tuple[float, float]
    s_upper_db: tuple[float, float]
    w1: float = 1.0
    w2: float = 1.0


@dataclass(frozen=True)
class NoiseBudget:
    """Itemized relative noise floor of one band.

    ``floor`` is linear power versus the unsqueezed reference; ``terms``
    itemizes it (squeezed-quadrature, anti-squeezed leakage, classical,
    electronic) and sums to ``floor``.
    """

    floor: float
    terms: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.floor <= 0:
            raise ValueError("floor must be positive")
        total = sum(self.terms.values())
        if self.terms and abs(total - self.floor) > 1e-9 * max(1.0, self.floor):
            raise ValueError("budget terms must sum to the floor")

    @property
    def reduction_db(self) -> float:
        return float(-10.0 * np.log10(self.floor))


def predicted_reduction(levels: SqueezingLevels, band: str) -> float:
    """Expected noise reduction in dB for a band of the raw or demodulated
    measurement, from measured squeezing levels.

    The floor is the weight-averaged linear squeezing factor of the
    contributing sidebands: the lower (upper) raw band uses the lower
    (upper) sideband level of both sources; the demodulated band folds
    both sidebands together and uses all four.
    """
    if band not in _BANDS:
        raise ValueError(f"band must be one of {_BANDS}")
    if levels.w1 <= 0 or levels.w2 <= 0:
        raise ValueError("weights must be positive")
    s_low = _db_to_linear(levels.s_lower_db)
    s_up = _db_to_linear(levels.s_upper_db)
    if band == "lower":
        per_source = s_low
    elif band == "upper":
        per_source = s_up
    else:
        per_source = 0.5 * (s_low + s_up)
    w = np.array([levels.w1, levels.w2])
    floor = float(np.dot(w, per_source) / w.sum())
    return float(-10.0 * np.log10(floor))


def classical_noise_limit(classical_fraction: float, s_linear: float) -> float:
    """Noise reduction in dB when a classical fraction of the reference
    floor is immune to squeezing: -10 log10(f + (1 - f) s)."""
    if not 0.0 <= classical_fraction < 1.0:
        raise ValueError("classical_fraction must be in [0, 1)")
    if not 0.0 <= s_linear <= 1.0:
        raise ValueError("s_linear must be in (0, 1]")
    return float(-10.0 * np.log10(classical_fraction + (1.0 - classical_fraction) * s_linear))


def phase_jitter_penalty(s_linear: float, a_linear: float, theta_rms_rad: float) -> float:
    """Effective squeezed-quadrature power under quasi-static Gaussian
    angle jitter: s cos^2(theta) + a sin^2(theta)."""
    if theta_rms_rad < 0:
        raise ValueError("theta_rms_rad must be >= 0")
    c, s = np.cos(theta_rms_rad), np.sin(theta_rms_rad)
    return float(s_linear * c * c + a_linear * s * s)


def straightforward_phase_floor(s_linear: float, a_linear: float) -> float:
    """Demodulated phase-noise floor when each beam carries squeezing at
    its own carrier frequency, relative to vacuum: (3 s + a) / 4.

    Assumes the squeezing is flat across the folded bands.  Demodulating
    at the beat frequency keeps the squeezed phase quadrature (weight
    1/2 direct plus 1/4 folded from twice the beat) but also folds the
    anti-squeezed quadrature down from twice the beat with weight 1/4,
    so strong squeezing makes the phase noise worse, not better.
    """
    if s_linear <= 0 or a_linear <= 0:
        raise ValueError("inputs must be positive")
    return (3.0 * s_linear + a_linear) / 4.0


def detected_squeezing(spec: SqueezerSpec, eps_hz, path_efficiency: float = 1.0):
    """(s, a) pair seen by the detector after the injection loss chain.

    ``path_efficiency`` is the product of every power efficiency between
    the squeezer output and the photocurrent (pickoff reflectivity,
    detector quantum efficiency, ...); each step mixes in vacuum.
    """
    if not 0.0 <= path_efficiency <= 1.0:
        raise ValueError("path_efficiency must be in [0, 1]")
    s, a = spec.squeezing_spectrum(eps_hz)
    s = path_efficiency * s + (1.0 - path_efficiency)
    a = path_efficiency * a + (1.0 - path_efficiency)
    return s, a


def _pair(value) -> tuple[float, float]:
    arr = np.broadcast_to(np.asarray(value, dtype=float), (2,))
    return float(arr[0]), float(arr[1])


def heterodyne_budget(
    scheme: str,
    eps_hz,
    squeezers: tuple[SqueezerSpec | None, SqueezerSpec | None],
    weights: tuple[float, float],
    path_efficiency=1.0,
    classical_fraction: float = 0.0,
    angle_offset_rad=0.0,
    angle_jitter_rms_rad=0.0,
    band_kind: str = "demod",
    unsubtracted_electronic_rel: float = 0.0,
) -> NoiseBudget:
    """Budget for a simulated preset band.

    ``eps_hz`` are the sideband offsets of the analysis bins (the demod
    band passes the offsets of the raw bins folding into it); the floor
    averages the squeezing spectrum over them, mirroring the linear-power
    band mean of the estimator.  Per-source values may be passed for the
    efficiency and angle arguments.  The straightforward floor assumes the
    squeezing is flat across the folded bands.

    ``classical_fraction`` is defined against the demodulated reference
    floor; white phase noise carries only 2/3 of that relative weight in
    a raw band (no fold from twice the beat), so ``band_kind`` selects
    the weighting.  ``unsubtracted_electronic_rel`` carries readout noise
    (relative to the band's shot floor) that background subtraction does
    not remove, such as drive-induced post-splitter noise read without a
    cross-spectrum; it biases both floors toward unity.
    """
    if scheme not in ("proposed", "straightforward", "unsqueezed"):
        raise ValueError(f"unknown scheme {scheme!r}")
    eps = np.atleast_1d(np.asarray(eps_hz, dtype=float))
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("weights must be positive")
    path = _pair(path_efficiency)
    offsets = _pair(angle_offset_rad)
    jitters = _pair(angle_jitter_rms_rad)

    direct = np.ones(2)
    leak = np.zeros(2)
    if scheme != "unsqueezed":
        for i, spec in enumerate(squeezers):
            if spec is None or spec.pump_ratio == 0.0:
                s_bar, a_bar = 1.0, 1.0
            else:
                s, a = detected_squeezing(spec, eps, path[i])
                s_bar, a_bar = float(np.mean(s)), float(np.mean(a))
            theta = np.hypot(offsets[i], jitters[i])
            c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
            if scheme == "proposed":
                direct[i], leak[i] = s_bar * c2, a_bar * s2
            else:
                # (3 s' + a') / 4 with the angle error mixing s and a
                direct[i] = s_bar * (0.75 * c2 + 0.25 * s2)
                leak[i] = a_bar * (0.75 * s2 + 0.25 * c2)

    if band_kind not in ("raw", "demod"):
        raise ValueError("band_kind must be 'raw' or 'demod'")
    f = classical_fraction
    c = f / (1.0 - f) if f else 0.0
    if band_kind == "raw":
        c *= 2.0 / 3.0
    e = unsubtracted_electronic_rel
    norm = 1.0 + c + e
    terms = {
        "squeezed_quadrature": float(np.dot(w, direct) / w.sum()) / norm,
        "anti_squeezed_leakage": float(np.dot(w, leak) / w.sum()) / norm,
        "classical": c / norm,
        "electronic": e / norm,
    }
    floor = sum(terms.values())
    return NoiseBudget(floor=floor, terms=terms)
