"""Closed-form expectations for the benchmark's output checks.

Written from the paper's cavity model and loss chain, apart from
``sqzbeat.budgets``: the checks compare a run against these numbers and
never read the ``predicted_db`` the program prints next to its own.

A below-threshold cavity with pump ratio x, escape efficiency eta and
half width gamma squeezes sideband offset eps to

    S-(eps) = 1 - eta 4x / ((1 + x)^2 + (eps/gamma)^2)
    S+(eps) = 1 + eta 4x / ((1 - x)^2 + (eps/gamma)^2)

and every lossy step of power efficiency p after it maps S to
p S + (1 - p).  A classical phase-noise fraction f of the demodulated
reference floor adds c = f / (1 - f) to the floor; white phase noise
folds no image into a raw band, so there it weighs 2/3 of that.
"""

from __future__ import annotations

import math

import numpy as np


def cavity_spectra(pump_ratio: float, escape: float, hwhm_hz: float, eps_hz):
    """(S-, S+) of the below-threshold cavity at sideband offsets ``eps_hz``."""
    nu = (np.asarray(eps_hz, dtype=float) / hwhm_hz) ** 2
    gain = escape * 4.0 * pump_ratio
    return 1.0 - gain / ((1.0 + pump_ratio) ** 2 + nu), 1.0 + gain / ((1.0 - pump_ratio) ** 2 + nu)


def straightforward_floor(s: float, a: float) -> float:
    """Demodulated floor of same-frequency squeezing, relative to vacuum."""
    return (3.0 * s + a) / 4.0


def rfft_freqs(n_samples: int, sample_rate: float) -> np.ndarray:
    return np.arange(n_samples // 2 + 1) * (sample_rate / n_samples)


def band_freqs(n_samples: int, sample_rate: float, band) -> np.ndarray:
    """Frequencies of the analysis bins of ``band`` (its exclusion zone removed)."""
    f = rfft_freqs(n_samples, sample_rate)
    tol = 1e-6 * max(band.half_width_hz, 1.0)
    d = np.abs(f - band.center_hz)
    return f[(d <= band.half_width_hz + tol) & (d > band.exclusion_half_width_hz + tol)]


def band_floor(cfg, band) -> float:
    """Expected linear floor of one heterodyne band against the unsqueezed reference.

    Covers the proposed scheme with no squeezing-angle error and a
    cross-spectrum or raw readout, which is what the benchmark runs.
    """
    if cfg.scheme != "proposed":
        raise ValueError(f"no closed form here for scheme {cfg.scheme!r}")
    kind = cfg.measurement.kind
    if kind not in ("raw", "demod"):
        raise ValueError(f"no closed form here for measurement {kind!r}")
    f = band_freqs(cfg.grid.n_samples, cfg.grid.sample_rate_hz, band)
    # A demodulated band folds the beat's lower and upper sidebands together.
    eps = f if kind == "raw" else np.concatenate([cfg.beams.beat_freq_hz - f, cfg.beams.beat_freq_hz + f])
    qe = cfg.detector.quantum_efficiency
    per_source = []
    for pick in (cfg.pickoff1, cfg.pickoff2):
        sq = pick.squeezer
        if sq is None:
            per_source.append(1.0)
            continue
        if sq.angle_offset_rad or sq.angle_jitter_rms_rad:
            raise ValueError("no closed form here for a squeezing-angle error")
        s, _ = cavity_spectra(sq.pump_ratio, sq.escape_efficiency, sq.hwhm_hz, eps)
        path = pick.reflectivity * qe
        per_source.append(float(np.mean(path * s + (1.0 - path))))
    # Each source's noise beats against the other beam's carrier.
    w1, w2 = cfg.beams.e2**2, cfg.beams.e1**2
    squeezed = (w1 * per_source[0] + w2 * per_source[1]) / (w1 + w2)
    frac = cfg.beams.classical_fraction
    c = frac / (1.0 - frac)
    if kind == "raw":
        c *= 2.0 / 3.0
    return (squeezed + c) / (1.0 + c)


def band_reduction_db(cfg, band) -> float:
    return -10.0 * math.log10(band_floor(cfg, band))


# A band mean of Hamming-windowed periodogram bins fluctuates about 1.8
# times more than one of independent bins; 2 bounds that factor.
WINDOW_VARIANCE_BOUND = 2.0


def sweep_expectations(cfg, frames: int) -> list[dict]:
    """Per pump: expected band-mean squeezed and anti-squeezed levels in dB
    and the standard error of each, from the bin count and frame count."""
    ow = cfg.opo_sweep
    f = rfft_freqs(cfg.grid.n_samples, cfg.grid.sample_rate_hz)
    lo, hi = ow.band_hz
    f = f[(f >= lo) & (f <= hi)]
    out = []
    for power in ow.pump_powers_mw:
        s, a = cavity_spectra(math.sqrt(power / ow.threshold_mw), ow.escape_efficiency, ow.hwhm_hz, f)
        row = {"tag": f"pump{int(round(power)):03d}mw", "power_mw": power}
        for name, spec, sign in (("squeezed", s, -1.0), ("anti", a, 1.0)):
            # Each frame's periodogram bin has a relative variance of 1.
            rel = math.sqrt(WINDOW_VARIANCE_BOUND * float(np.sum(spec**2)) / frames) / float(np.sum(spec))
            row[f"{name}_db"] = sign * 10.0 * math.log10(float(np.mean(spec)))
            row[f"{name}_stderr_db"] = 10.0 / math.log(10.0) * rel
        out.append(row)
    return out
