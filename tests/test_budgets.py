"""Closed-form budget formulas against independent numeric oracles."""

import os
from dataclasses import replace

import numpy as np
import pytest

from sqzbeat.budgets import (
    NoiseBudget,
    SqueezingLevels,
    band_budget,
    classical_noise_limit,
    heterodyne_budget,
    phase_jitter_penalty,
    predicted_reduction,
    straightforward_phase_floor,
)
from sqzbeat.config import list_presets, merge_config, preset_config
from sqzbeat.fields import SqueezerSpec

from oracles import detected_squeezing

MEASURED = SqueezingLevels(
    s_lower_db=(4.5, 4.16),
    s_upper_db=(3.7, 4.0),
)


def demod_phase_floor_oracle(s, a, n=192, beat_bins=24, band_bins=(2, 9)):
    """Brute-force covariance propagation of same-frequency squeezing.

    Builds the demodulated phase readout sample by sample from the
    sideband coefficients of one noise envelope (phase quadrature
    variance s, amplitude quadrature variance a, flat over the grid),
    pushes the full covariance through mixing and an ideal low-pass, and
    reads the band-averaged output power against the vacuum baseline.
    Independent of the package's field machinery.
    """

    def band_power(var_amp, var_phase):
        t = np.arange(n) / n
        m_max = n // 2 - 1
        cols = []
        variances = []
        for m in range(1, m_max + 1):
            c = np.cos(2.0 * np.pi * m * t)
            sn = np.sin(2.0 * np.pi * m * t)
            # amplitude quadrature rides cos(beat), phase rides -sin(beat)
            for base, var in ((np.cos(2.0 * np.pi * beat_bins * t), var_amp),
                              (-np.sin(2.0 * np.pi * beat_bins * t), var_phase)):
                cols.append(2.0 * c * base)
                variances.append(var / 2.0)
                cols.append(2.0 * sn * base)
                variances.append(var / 2.0)
        g = np.column_stack(cols)
        # demodulate with 2 sin(beat t) and keep the band through an ideal
        # low-pass by reading the covariance in the frequency domain
        g = (2.0 * np.sin(2.0 * np.pi * beat_bins * t))[:, None] * g
        cov = (g * np.asarray(variances)) @ g.T
        f = np.fft.rfft(np.eye(n), axis=0)
        psd = np.real(np.einsum("kn,nm,km->k", f, cov, np.conj(f))) / n
        lo, hi = band_bins
        return float(np.mean(psd[lo : hi + 1]))

    return band_power(a, s) / band_power(1.0, 1.0)


def test_predicted_reduction_reference_values():
    # hand-evaluated weight-averaged linear floors of the measured levels
    assert predicted_reduction(MEASURED, "lower") == pytest.approx(4.3267, abs=2e-3)
    assert predicted_reduction(MEASURED, "upper") == pytest.approx(3.8475, abs=2e-3)
    assert predicted_reduction(MEASURED, "demod") == pytest.approx(4.0803, abs=2e-3)


def test_predicted_reduction_weight_invariances():
    scaled = SqueezingLevels(MEASURED.s_lower_db, MEASURED.s_upper_db, w1=7.0, w2=7.0)
    for band in ("lower", "upper", "demod"):
        assert predicted_reduction(scaled, band) == pytest.approx(
            predicted_reduction(MEASURED, band), abs=1e-12
        )
    equal = SqueezingLevels((4.0, 4.0), (3.5, 3.5), w1=2.0, w2=5.0)
    swapped = SqueezingLevels((4.0, 4.0), (3.5, 3.5), w1=5.0, w2=2.0)
    assert predicted_reduction(equal, "demod") == pytest.approx(
        predicted_reduction(swapped, "demod"), abs=1e-12
    )


def test_predicted_reduction_validates_inputs():
    with pytest.raises(ValueError):
        predicted_reduction(MEASURED, "sideways")
    with pytest.raises(ValueError):
        predicted_reduction(SqueezingLevels((4.0, 4.0), (4.0, 4.0), w1=0.0), "lower")


def test_opo_spectrum_endpoints():
    spec = SqueezerSpec(0.0, 30e6, 0.8)
    assert spec.squeezing_spectrum(0.0) == (1.0, 1.0)
    spec = SqueezerSpec(np.sqrt(90.0 / 600.0), 30e6, 0.8)
    s, a = spec.squeezing_spectrum(0.0)
    assert s == pytest.approx(0.3560444686445266, abs=1e-12)
    s_off, _ = spec.squeezing_spectrum(30e6)
    assert s < s_off < 1.0


def test_classical_noise_limit_values():
    assert classical_noise_limit(0.1, 1e-15) == pytest.approx(10.0, abs=0.01)
    assert classical_noise_limit(0.0, 10 ** (-1.5)) == pytest.approx(15.0, abs=1e-9)
    assert classical_noise_limit(0.1, 10 ** (-1.5)) == pytest.approx(8.912, abs=2e-3)


def test_classical_noise_limit_monotone_and_bounded():
    f = 0.07
    values = [classical_noise_limit(f, s) for s in (1.0, 0.3, 0.1, 0.01, 1e-9)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[-1] < -10.0 * np.log10(f) + 1e-9
    with pytest.raises(ValueError):
        classical_noise_limit(1.0, 0.5)


def test_classical_noise_limit_accepts_perfect_squeezing():
    # s = 0 with f > 0 is the paper's classical ceiling, -10 log10 f
    assert classical_noise_limit(0.1, 0.0) == pytest.approx(10.0, abs=1e-12)
    assert classical_noise_limit(0.25, 0.0) == pytest.approx(-10.0 * np.log10(0.25), abs=1e-12)
    with pytest.raises(ValueError, match=r"s_linear must be in \[0, 1\]"):
        classical_noise_limit(0.1, 1.5)


def test_classical_noise_limit_rejects_a_noiseless_floor():
    with pytest.raises(ValueError, match="classical_fraction and s_linear are both 0"):
        classical_noise_limit(0.0, 0.0)


def test_phase_jitter_penalty():
    s, a = 10 ** (-1.5), 10 ** (1.5)
    assert phase_jitter_penalty(s, a, 0.0) == pytest.approx(s, abs=1e-15)
    assert phase_jitter_penalty(1.0, 1.0, 0.4) == pytest.approx(1.0, abs=1e-12)
    eff = phase_jitter_penalty(s, a, np.radians(1.5))
    assert eff == pytest.approx(0.053266, abs=1e-5)
    assert -10.0 * np.log10(eff) > 12.0
    # a large jitter against the Gaussian average of s cos^2 + a sin^2 by quadrature
    x, w = np.polynomial.hermite_e.hermegauss(60)
    mix = s * np.cos(0.6 * x) ** 2 + a * np.sin(0.6 * x) ** 2
    assert phase_jitter_penalty(s, a, 0.6) == pytest.approx(np.dot(w, mix) / np.sqrt(2 * np.pi), rel=1e-12)


def test_straightforward_floor_formula_points():
    assert straightforward_phase_floor(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    assert straightforward_phase_floor(0.356, 4.30) == pytest.approx(1.342, abs=1e-3)
    assert straightforward_phase_floor(1e-6, 1e6) > 1e5  # diverges with squeezing
    with pytest.raises(ValueError):
        straightforward_phase_floor(0.0, 1.0)


def test_straightforward_floor_matches_covariance_oracle():
    rng = np.random.default_rng(7)
    points = [(1.0, 1.0), (0.356, 4.30)]
    while len(points) < 10:
        s = float(rng.uniform(0.05, 1.0))
        a = float(rng.uniform(1.0, 20.0))
        if s * a >= 1.0:
            points.append((s, a))
    for s, a in points:
        oracle = demod_phase_floor_oracle(s, a)
        formula = straightforward_phase_floor(s, a)
        assert abs(oracle / formula - 1.0) < 1e-6


def test_heterodyne_budget_items_and_floors():
    spec = SqueezerSpec(np.sqrt(90.0 / 600.0), 3e9, 0.8)
    budget = heterodyne_budget(
        "proposed",
        (6.89e6, 13.11e6),
        (spec, spec),
        weights=(1.0, 1.0),
        classical_fraction=0.1,
    )
    assert sum(budget.terms.values()) == pytest.approx(budget.floor, abs=1e-12)
    s_band = float(np.mean(spec.squeezing_spectrum(np.array([6.89e6, 13.11e6]))[0]))
    assert budget.floor == pytest.approx(0.9 * s_band + 0.1, abs=1e-9)

    vac = heterodyne_budget("unsqueezed", (6.89e6,), (None, None), (1.0, 1.0))
    assert vac.floor == pytest.approx(1.0, abs=1e-12)
    assert vac.reduction_db == pytest.approx(0.0, abs=1e-12)

    # straightforward squeezers sit on the phase quadrature, the scheme's
    # base angle
    phase = replace(spec, squeeze_angle_rad=np.pi / 2.0)
    forward = heterodyne_budget(
        "straightforward", (1e6,), (phase, phase), weights=(1.0, 1.0)
    )
    s, a = spec.squeezing_spectrum(1e6)
    assert forward.floor == pytest.approx((3 * s + a) / 4.0, abs=1e-9)

    # the schemes coincide only at zero squeezing: the proposed floor is
    # the squeezed quadrature itself
    proposed = heterodyne_budget("proposed", (1e6,), (spec, spec), (1.0, 1.0))
    assert proposed.floor == pytest.approx(s, abs=1e-9)
    assert forward.floor > proposed.floor
    off = heterodyne_budget("straightforward", (1e6,), (None, None), (1.0, 1.0))
    assert off.floor == pytest.approx(1.0, abs=1e-12)


def test_budget_raw_band_carries_reduced_classical_weight():
    kw = dict(
        eps_hz=(6.89e6,),
        squeezers=(None, None),
        weights=(1.0, 1.0),
        classical_fraction=0.1,
    )
    raw = heterodyne_budget("unsqueezed", band_kind="raw", **kw)
    demod = heterodyne_budget("unsqueezed", band_kind="demod", **kw)
    c = 0.1 / 0.9
    assert demod.terms["classical"] == pytest.approx(c / (1 + c), abs=1e-12)
    assert raw.terms["classical"] == pytest.approx((2 * c / 3) / (1 + 2 * c / 3), abs=1e-12)


def test_budget_angle_error_leaks_antisqueezing():
    spec = SqueezerSpec(0.5, 3e9, 1.0)
    aligned = heterodyne_budget("proposed", (1e6,), (spec, spec), (1.0, 1.0))
    turned = replace(spec, squeeze_angle_rad=0.2)
    tilted = heterodyne_budget("proposed", (1e6,), (turned, turned), (1.0, 1.0))
    assert tilted.terms["anti_squeezed_leakage"] > 0.0
    assert tilted.floor > aligned.floor


def test_noise_budget_validates_terms():
    with pytest.raises(ValueError):
        NoiseBudget(1.0, {"squeezed_quadrature": 0.5})
    with pytest.raises(ValueError):
        NoiseBudget(-1.0, {})


HETERODYNE_PRESETS = [name for name, _ in list_presets() if preset_config(name).kind == "heterodyne"]


@pytest.mark.parametrize("name", HETERODYNE_PRESETS)
def test_band_budget_without_a_run_matches_golden_prediction(name):
    # The budget of a band is built from the config and the band's bins
    # alone, and prints the golden run's predicted_db.
    golden = os.path.join(os.path.dirname(__file__), "golden", f"{name}.summary.txt")
    with open(golden, encoding="utf-8") as fh:
        lines = set(fh.read().splitlines())
    cfg = preset_config(name)
    freqs = np.fft.rfftfreq(cfg.grid.n_samples, d=1.0 / cfg.grid.sample_rate_hz)
    for band in cfg.measurement.bands:
        predicted = band_budget(cfg, freqs[band.mask(freqs)]).reduction_db
        assert f"band.{band.label}.predicted_db={predicted:.4f}" in lines


# A lossy pickoff, a lossy detector and a jittered, turned squeezer on
# each source, so every factor of the fold is away from 1.
LOSSY_JITTERED = {
    "pickoff1": {"reflectivity": 0.8, "squeezer": {"angle_jitter_rms_rad": 0.1, "angle_offset_rad": 0.05}},
    "pickoff2": {"reflectivity": 0.9, "squeezer": {"angle_jitter_rms_rad": 0.2}},
    "detector": {"quantum_efficiency": 0.7},
}


@pytest.mark.parametrize(
    "name, patch",
    [(name, {}) for name in HETERODYNE_PRESETS]
    + [("fig4-demod", LOSSY_JITTERED), ("fig3-raw", LOSSY_JITTERED)],
    ids=HETERODYNE_PRESETS + ["fig4-demod-lossy-jittered", "fig3-raw-lossy-jittered"],
)
def test_detected_squeezer_is_the_loss_chain(name, patch):
    # the one fold of the path loss R qe into the escape efficiency gives
    # the spectrum the explicit loss chain gives the config's own squeezer
    cfg = merge_config(preset_config(name), patch)
    eps = np.linspace(0.0, 60e6, 241)
    qe = cfg.detector.quantum_efficiency
    for i, pick in enumerate((cfg.pickoff1, cfg.pickoff2)):
        folded = cfg.detected_squeezer(i)
        sq = pick.squeezer
        if cfg.scheme == "unsqueezed" or sq is None or sq.pump_ratio == 0.0:
            assert folded is None
            continue
        unfolded = SqueezerSpec(sq.pump_ratio, sq.hwhm_hz, sq.escape_efficiency)
        want = detected_squeezing(unfolded, eps, pick.reflectivity * qe)
        for got, expected in zip(folded.squeezing_spectrum(eps), want):
            np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)
        assert folded.jitter_rms_rad == sq.angle_jitter_rms_rad
