"""Closed-form noise budgets for the beat-note detection schemes.

Every Monte-Carlo number the simulator produces has a prediction here:
expected noise reductions from measured squeezing levels, squeezing
spectra, the classical-noise ceiling, phase-jitter penalties, and the
leakage floor of same-frequency squeezing.  Each of these formulas is
written once, as a private helper that both its named function and the
per-band ``heterodyne_budget`` call; ``band_budget`` builds a config's
band budget without a run from ``cfg.detected_squeezer`` alone, the specs
synthesis squeezes with.  All functions are pure and stateless.

Relative floors are linear power versus the unsqueezed shot-noise
reference, which is normalized to 1 including any classical phase-noise
admixture: a classical fraction f means the classical term contributes f
of the total reference floor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .fields import SqueezerSpec
from .interferometer import SCHEMES, base_squeeze_angle

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
        # + 0.0 turns the -0.0 of a floor of exactly 1 into 0.0
        return float(-10.0 * np.log10(self.floor)) + 0.0


def _weighted_mean(w: np.ndarray, per_source) -> float:
    """Source average weighted by the carrier power each source beats against."""
    return float(np.dot(w, per_source) / w.sum())


def _fold(x, y):
    """(3 x + y) / 4: the straightforward demodulation keeps a quadrature
    with weight 3/4 and folds the orthogonal one in with weight 1/4."""
    return 0.75 * x + 0.25 * y


def _angle_mix(s, a, theta0, sigma, folded: bool = False) -> tuple[float, float]:
    """Squeezed and anti-squeezed parts of s cos^2 + a sin^2 averaged over a
    Gaussian angle error N(theta0, sigma^2), weights (1 +- cos 2theta0 e^(-2 sigma^2)) / 2;
    ``folded`` applies the straightforward fold (3 s' + a') / 4 to the pair."""
    # As a Python float, sigma * sigma overflows quietly to inf and the
    # contrast to 0, the fully random limit; a float's ** raises
    # OverflowError, and a numpy float's product warns.
    sigma = float(sigma)
    contrast = np.cos(2.0 * theta0) * np.exp(-2.0 * (sigma * sigma))
    c2, s2 = (1.0 + contrast) / 2.0, (1.0 - contrast) / 2.0
    if folded:
        c2, s2 = _fold(c2, s2), _fold(s2, c2)
    return s * c2, a * s2


def _admix(
    direct: float,
    leak: float,
    classical_fraction: float,
    electronic_rel: float = 0.0,
    classical_weight: float = 1.0,
) -> NoiseBudget:
    """Budget of a quantum floor direct + leak with the classical admixture.

    A classical fraction f of the reference floor is immune to squeezing:
    against the shot floor it adds c = f / (1 - f) (times
    ``classical_weight``), and readout noise adds ``electronic_rel``; the
    reference 1 + c + e normalizes every term, so with e = 0 the floor is
    f + (1 - f) (direct + leak).
    """
    c = classical_fraction / (1.0 - classical_fraction) * classical_weight
    norm = 1.0 + c + electronic_rel
    terms = {
        "squeezed_quadrature": direct / norm,
        "anti_squeezed_leakage": leak / norm,
        "classical": c / norm,
        "electronic": electronic_rel / norm,
    }
    return NoiseBudget(floor=sum(terms.values()), terms=terms)


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
    floor = _weighted_mean(np.array([levels.w1, levels.w2]), per_source)
    return float(-10.0 * np.log10(floor))


def classical_noise_limit(classical_fraction: float, s_linear: float) -> float:
    """Noise reduction in dB when a classical fraction of the reference
    floor is immune to squeezing: -10 log10(f + (1 - f) s).  Perfect
    squeezing (s = 0) gives the classical ceiling -10 log10(f)."""
    if not 0.0 <= classical_fraction < 1.0:
        raise ValueError("classical_fraction must be in [0, 1)")
    if not 0.0 <= s_linear <= 1.0:
        raise ValueError("s_linear must be in [0, 1]")
    if classical_fraction == 0.0 and s_linear == 0.0:
        raise ValueError(
            "classical_fraction and s_linear are both 0: a noiseless floor has no finite reduction"
        )
    return _admix(s_linear, 0.0, classical_fraction).reduction_db


def phase_jitter_penalty(s_linear: float, a_linear: float, theta_rms_rad: float) -> float:
    """Effective squeezed-quadrature power under quasi-static angle jitter of
    rms theta, the Gaussian average s (1 + e^(-2 theta^2)) / 2 + a (1 - e^(-2 theta^2)) / 2."""
    if theta_rms_rad < 0:
        raise ValueError("theta_rms_rad must be >= 0")
    direct, leak = _angle_mix(s_linear, a_linear, 0.0, theta_rms_rad)
    return float(direct + leak)


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
    return _fold(s_linear, a_linear)


def heterodyne_budget(
    scheme: str,
    eps_hz,
    squeezers: tuple[SqueezerSpec | None, SqueezerSpec | None],
    weights: tuple[float, float],
    classical_fraction: float = 0.0,
    band_kind: str = "demod",
    unsubtracted_electronic_rel: float = 0.0,
) -> NoiseBudget:
    """Budget for a simulated preset band.

    ``eps_hz`` are the sideband offsets of the analysis bins (the demod
    band passes the offsets of the raw bins folding into it); the floor
    averages the squeezing spectrum over them, mirroring the linear-power
    band mean of the estimator.  Each source's squeezer, as the detector
    sees it (None: vacuum), is averaged over a Gaussian angle error about
    its offset (squeeze angle less the scheme's base angle) of rms its
    jitter.  The straightforward floor assumes the squeezing is flat
    across the folded bands.

    ``classical_fraction`` is defined against the demodulated reference
    floor; white phase noise carries only 2/3 of that relative weight in
    a raw band (no fold from twice the beat), so ``band_kind`` selects
    the weighting.  ``unsubtracted_electronic_rel`` carries readout noise
    (relative to the band's shot floor) that background subtraction does
    not remove, such as drive-induced post-splitter noise read without a
    cross-spectrum; it biases both floors toward unity.
    """
    if scheme not in SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    eps = np.atleast_1d(np.asarray(eps_hz, dtype=float))
    w = np.asarray(weights, dtype=float)
    if np.any(w <= 0):
        raise ValueError("weights must be positive")

    direct = np.ones(2)
    leak = np.zeros(2)
    folded = scheme == "straightforward"
    for i, spec in enumerate(squeezers):
        s_bar, a_bar, theta0, sigma = 1.0, 1.0, 0.0, 0.0
        if spec is not None:
            s, a = spec.squeezing_spectrum(eps)
            s_bar, a_bar = float(np.mean(s)), float(np.mean(a))
            theta0 = spec.squeeze_angle_rad - base_squeeze_angle(scheme)
            sigma = spec.jitter_rms_rad
        direct[i], leak[i] = _angle_mix(s_bar, a_bar, theta0, sigma, folded)

    if band_kind not in ("raw", "demod"):
        raise ValueError("band_kind must be 'raw' or 'demod'")
    return _admix(
        _weighted_mean(w, direct),
        _weighted_mean(w, leak),
        classical_fraction,
        unsubtracted_electronic_rel,
        classical_weight=2.0 / 3.0 if band_kind == "raw" else 1.0,
    )


def band_budget(cfg: ExperimentConfig, freqs: np.ndarray) -> NoiseBudget:
    """Budget of the analysis bins ``freqs`` of a heterodyne config's band.

    Raw bands read the squeezing at the bins themselves; demodulated bands
    fold the bins of both sidebands of the beat.  The two squeezers (angle,
    jitter, path loss R * qe folded in) come only from
    ``cfg.detected_squeezer``, the specs the simulator squeezes with.
    """
    ms = cfg.measurement
    if ms.kind == "raw":
        eps = freqs
    else:
        beat = cfg.beams.beat_freq_hz
        eps = np.concatenate([beat - freqs, beat + freqs])
    excess = 0.0
    if ms.kind == "demod-no-cross" and ms.arm_noise_excess_rel_db is not None:
        # Drive-induced arm noise is absent from the background run, so an
        # auto-spectrum readout cannot subtract it.
        excess = 10.0 ** (ms.arm_noise_excess_rel_db / 10.0)
    return heterodyne_budget(
        cfg.scheme,
        eps,
        (cfg.detected_squeezer(0), cfg.detected_squeezer(1)),
        weights=(cfg.beams.e2**2, cfg.beams.e1**2),
        classical_fraction=cfg.beams.classical_fraction,
        band_kind="raw" if ms.kind == "raw" else "demod",
        unsubtracted_electronic_rel=excess,
    )
