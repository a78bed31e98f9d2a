"""Squeezed noise at the detector, beam composition and balanced
detection against first-order theory and the closed-form loss chain."""

from dataclasses import replace

import numpy as np
import pytest

from sqzbeat.config import DetectorConfig, preset_config
from sqzbeat.fields import FrequencyGrid, SqueezerSpec
from sqzbeat.interferometer import (
    BeamCarrier,
    balanced_detect,
    classical_phase_variance,
    compose_beam,
    detector_readout,
    pickoff_noise_field,
    unsqueezed_shot_psd,
)
from sqzbeat.fields import quadrature_series
from sqzbeat.rng import substream

from helpers import naive_psd, normals
from oracles import detected_squeezing, linearized_output, straightforward_variant

FS = 125e6
N = 2500
GRID = FrequencyGrid(FS, N)
VAC = (2, N)  # the normals of one vacuum row on GRID
BEAT = 10e6
C1, C2 = 30e6, 40e6
IDEAL = DetectorConfig(electronic_noise_rel_db=None)


def _carrier_field(e, freq, theta=None):
    t = GRID.times()
    phase = 2.0 * np.pi * freq * t + (0.0 if theta is None else theta)
    return e * np.exp(-1j * phase)


def _beam(carrier, squeezer, seed, extra_phase=None, qe=1.0):
    """The beam of ``carrier``, (amplitude, frequency[, mod_freq, mod_depth]),
    with the noise ``squeezer`` delivers (None: vacuum)."""
    e, freq, *mod = carrier
    return compose_beam(BeamCarrier(GRID, e, freq, qe, *mod), squeezer, normals(seed, *VAC), extra_phase)


def _vacuum_beams(e1, e2, seed):
    f1 = _beam((e1, C1), None, substream(seed, 0))
    f2 = _beam((e2, C2), None, substream(seed, 1))
    return f1, f2


def test_pure_beat_is_exact_cosine():
    f1 = _carrier_field(1.0, C1)
    f2 = _carrier_field(1.0, C2)
    trace = balanced_detect(GRID, f1, f2, IDEAL, None)
    expect = 2.0 * np.cos(2.0 * np.pi * BEAT * GRID.times())
    assert np.allclose(trace, expect, atol=1e-9)


def test_beat_carries_relative_phase():
    theta = 0.4
    f1 = _carrier_field(1.0, C1)
    f2 = _carrier_field(1.0, C2, theta)
    trace = balanced_detect(GRID, f1, f2, IDEAL, None)
    expect = 2.0 * np.cos(2.0 * np.pi * BEAT * GRID.times() + theta)
    assert np.allclose(trace, expect, atol=1e-9)


def test_shot_floor_level():
    e = 300.0
    frames = 250
    traces = []
    for i in range(frames):
        f1, f2 = _vacuum_beams(e, e, substream(8, i))
        traces.append(balanced_detect(GRID, f1, f2, IDEAL, None))
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    psd = naive_psd(traces)
    band = (freqs > 2e6) & (freqs < 20e6) & (np.abs(freqs - BEAT) > 1e6)
    floor = unsqueezed_shot_psd(e, e)
    rel = psd[band].mean() / floor
    assert rel == pytest.approx(1.0, abs=4 / np.sqrt(frames * band.sum()) + 1e-3)


def test_pickoff_loss_mixes_squeezing():
    # 97% pickoff turns flat squeezing s into 0.97 s + 0.03: a squeezer
    # whose escape efficiency holds the pickoff
    x = 0.5195253280689318
    pick = SqueezerSpec(x, 3e9, 1.0 * 0.97, center_freq_hz=C1)
    frames = 350
    acc = []
    for i in range(frames):
        f = pickoff_noise_field(GRID, pick, normals(substream(23, i), *VAC))
        acc.append(quadrature_series(GRID, f, C1)[0])
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    psd = naive_psd(acc)
    band = (freqs > 1e6) & (freqs < 15e6)
    expect = 0.97 * 0.1 + 0.03
    assert psd[band].mean() == pytest.approx(expect, rel=0.04)


def test_compose_beam_dark_port_is_pure_vacuum():
    # no squeezer, no carrier: loss leaves vacuum vacuum, so the beam is
    # the one row of its substream drawn as time samples, real and
    # imaginary parts N(0, 1/2) each, with no FFT
    gen = np.random.default_rng(substream(3, 0))
    vac = np.sqrt(0.5) * gen.standard_normal(N)
    vac = vac + 1j * (np.sqrt(0.5) * gen.standard_normal(N))
    assert np.array_equal(_beam((0.0, C1), None, substream(3, 0)), vac)


def test_carrier_scales_linearly_and_leaves_noise_bins():
    # same seed: the two fields differ only by sqrt(qe) times the carrier
    # delta, an exact tone at the carrier frequency
    qe = 0.81
    f1 = _beam((100.0, C1), None, substream(4, 0), qe=qe)
    f2 = _beam((200.0, C1), None, substream(4, 0), qe=qe)
    tone = 0.9 * 100.0 * np.exp(-2j * np.pi * C1 * GRID.times())
    assert np.allclose(f2 - f1, tone, rtol=0, atol=1e-9)


def test_modulation_sideband_power_ratio():
    # first-order phase-modulation sidebands against the carrier line;
    # the tone sits on a grid bin so the ratio is exact up to shot noise
    depth = 0.01
    mod = 3.2e6
    b1 = (1000.0, C1)
    b2 = (1000.0, C2, mod, depth)
    f1 = _beam(b1, None, substream(5, 1))
    f2 = _beam(b2, None, substream(5, 2))
    trace = balanced_detect(GRID, f1, f2, IDEAL, None)
    spec = np.abs(np.fft.rfft(trace)) ** 2
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    k0 = np.argmin(np.abs(freqs - BEAT))
    klo = np.argmin(np.abs(freqs - (BEAT - mod)))
    khi = np.argmin(np.abs(freqs - (BEAT + mod)))
    ratio_lo = spec[klo] / spec[k0]
    ratio_hi = spec[khi] / spec[k0]
    # shot noise in the sideband bins limits the match
    assert ratio_lo == pytest.approx((depth / 2.0) ** 2, rel=0.05)
    assert ratio_hi == pytest.approx((depth / 2.0) ** 2, rel=0.05)


def test_electronic_noise_level():
    det = DetectorConfig(electronic_noise_rel_db=-2.0)
    ref = 1000.0
    frames = 200
    zero = np.zeros(N, dtype=complex)
    traces = [
        balanced_detect(GRID, zero, zero, det, normals(substream(66, i), N), reference_shot_psd=ref)
        for i in range(frames)
    ]
    psd = naive_psd(traces)
    expect = 10 ** (-0.2) * ref
    assert psd[5:-5].mean() == pytest.approx(expect, rel=0.02)


def test_electronic_noise_requires_reference():
    det = DetectorConfig(electronic_noise_rel_db=-2.0)
    zero = np.zeros(N, dtype=complex)
    with pytest.raises(ValueError):
        balanced_detect(GRID, zero, zero, det, normals(substream(66, 0), N))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy reports the overflow itself
@pytest.mark.parametrize("lit", [False, True], ids=["dark", "lit"])
def test_readout_refuses_a_non_finite_sample(lit):
    # every photocurrent, dark or lit, leaves detector_readout checked, so
    # a run stops at its first block that overflows: a dark block through
    # an overflowing shot level, a lit one through one overflowing sample
    det = DetectorConfig(electronic_noise_rel_db=-2.0)
    noise = normals(substream(67, 0), 2, N)
    dp = np.zeros((2, N))
    if lit:
        dp += 2.0 * np.cos(2.0 * np.pi * BEAT * GRID.times())
    ref = 1000.0
    assert np.all(np.isfinite(detector_readout(dp, det, noise, ref)))
    if lit:
        dp[1, 7] = np.inf
    else:
        ref = np.inf
    with pytest.raises(FloatingPointError, match="photocurrent samples must be finite"):
        detector_readout(dp, det, noise, ref)


def test_clipping_bounds_samples():
    det = DetectorConfig(electronic_noise_rel_db=None, clip_level=1.0)
    f1 = _carrier_field(10.0, C1)
    f2 = _carrier_field(10.0, C2)
    trace = balanced_detect(GRID, f1, f2, det, None)
    # mean removal follows the clip, so the bound holds up to the mean shift
    assert trace.max() - trace.min() <= 2.0 + 1e-9


def test_gain_ripple_tilts_optical_spectrum():
    # the tilt shapes the photocurrent, not the electronic noise added after
    det = DetectorConfig(electronic_noise_rel_db=None, gain_ripple_db=2.0)
    e = 400.0
    frames = 300
    traces = []
    for i in range(frames):
        f1, f2 = _vacuum_beams(e, e, substream(71, i))
        traces.append(balanced_detect(GRID, f1, f2, det, None))
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    psd = naive_psd(traces)
    lo = psd[np.abs(freqs - 5e6) < 0.3e6].mean()
    hi = psd[np.abs(freqs - 15e6) < 0.3e6].mean()
    # edges of the tilt sit ripple_db apart
    assert 10 * np.log10(lo / hi) == pytest.approx(2.0, abs=0.25)


def test_quantum_efficiency_degrades_squeezing():
    x = 0.5195253280689318
    qe = 0.6
    spec = SqueezerSpec(x, 3e9, 1.0 * qe, center_freq_hz=C2)
    e = 500.0
    frames = 250
    traces = []
    for i in range(frames):
        f1 = _beam((e, C1), spec, substream(81, i, 0), qe=qe)
        f2 = _beam((e, C2), None, substream(81, i, 1), qe=qe)
        traces.append(balanced_detect(GRID, f1, f2, IDEAL, None))
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    psd = naive_psd(traces)
    band = (freqs > 2e6) & (freqs < 18e6) & (np.abs(freqs - BEAT) > 1e6)
    floor = unsqueezed_shot_psd(e, e, 0.6)
    # source 1 squeezed at 0.1, source 2 vacuum; efficiency mixes both
    expect = 0.5 * ((0.6 * 0.1 + 0.4) + 1.0)
    assert psd[band].mean() / floor == pytest.approx(expect, rel=0.03)


def test_linearized_matches_exact_detection():
    squeezers = (
        SqueezerSpec(0.387, 30e6, 0.833 * 0.97, center_freq_hz=C2),
        SqueezerSpec(0.365, 30e6, 0.833 * 0.97, center_freq_hz=C1),
    )
    e = 1000.0
    beams = ((e, C1), (e, C2))
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    band = (freqs > 2e6) & (freqs < 15e6)
    frames = 60
    diff, floor = [], []
    for i in range(frames):
        seed = substream(90, i)
        exact = balanced_detect(
            GRID,
            _beam(beams[0], squeezers[0], substream(seed, 0)),
            _beam(beams[1], squeezers[1], substream(seed, 1)),
            IDEAL,
            None,
        )
        lin = linearized_output(GRID, beams, squeezers, seed)
        diff.append(exact - lin)
        floor.append(lin)
    res = naive_psd(diff)[band].mean()
    lvl = naive_psd(floor)[band].mean()
    assert res / lvl < 0.01


def test_squeeze_angle_swaps_quadrature():
    # a quarter-turn squeeze-angle error exposes the anti-squeezed quadrature
    x = 0.5195253280689318
    e = 800.0
    frames = 200
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    band = (freqs > 2e6) & (freqs < 15e6) & (np.abs(freqs - BEAT) > 1e6)
    floors = {}
    for phase in (0.0, np.pi / 2.0):
        spec = SqueezerSpec(x, 3e9, 1.0, squeeze_angle_rad=phase, center_freq_hz=C2)
        traces = []
        for i in range(frames):
            f1 = _beam((e, C1), spec, substream(95, i, 0))
            f2 = _beam((e, C2), None, substream(95, i, 1))
            traces.append(balanced_detect(GRID, f1, f2, IDEAL, None))
        floors[phase] = naive_psd(traces)[band].mean() / unsqueezed_shot_psd(e, e)
    s, a = SqueezerSpec(x, 3e9, 1.0).squeezing_spectrum(BEAT)
    assert floors[0.0] == pytest.approx(0.5 * (s + 1.0), rel=0.03)
    assert floors[np.pi / 2.0] == pytest.approx(0.5 * (a + 1.0), rel=0.03)
    assert floors[np.pi / 2.0] > floors[0.0]


def test_reduction_independent_of_amplitudes():
    # equal squeezing on both sources: the relative floor does not move
    # when the two carrier amplitudes are scaled apart
    spec = lambda c: SqueezerSpec(0.45, 3e9, 0.9, center_freq_hz=c)
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    band = (freqs > 2e6) & (freqs < 15e6) & (np.abs(freqs - BEAT) > 1e6)
    rels = []
    frames = 220
    for e1, e2 in ((500.0, 500.0), (1500.0, 250.0)):
        traces = []
        for i in range(frames):
            f1 = _beam((e1, C1), spec(C2), substream(97, i, 0))
            f2 = _beam((e2, C2), spec(C1), substream(97, i, 1))
            traces.append(balanced_detect(GRID, f1, f2, IDEAL, None))
        rels.append(naive_psd(traces)[band].mean() / unsqueezed_shot_psd(e1, e2))
    se = 4 / np.sqrt(frames * band.sum())
    assert abs(rels[0] - rels[1]) < 3 * se


# The straightforward oracle keeps only sidebands whose partners both lie
# in the grid: about a 40 MHz carrier that is 22.45 MHz, so photocurrent
# bins above 12.45 MHz (demodulated: 2.45 MHz) would miss part of their
# noise.  Its tests put the carriers at 15 and 25 MHz, where nothing the
# analysis bands read is cut.
SF1, SF2 = 15e6, 25e6


def test_schemes_agree_with_squeezers_off():
    e = 400.0
    frames = 200
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    band = (freqs > 2e6) & (freqs < 15e6) & (np.abs(freqs - BEAT) > 1e6)
    beams = ((e, SF1), (e, SF2))
    lin, exact = [], []
    for i in range(frames):
        lin.append(straightforward_variant(GRID, beams, (None, None), substream(14, i)))
        f1 = _beam(beams[0], None, substream(15, i, 0))
        f2 = _beam(beams[1], None, substream(15, i, 1))
        exact.append(balanced_detect(GRID, f1, f2, IDEAL, None))
    p_lin = naive_psd(lin)[band].mean()
    p_exact = naive_psd(exact)[band].mean()
    se = 4 / np.sqrt(frames * band.sum())
    assert abs(p_lin / p_exact - 1.0) < 3 * se


def test_straightforward_phase_floor_matches_leakage_formula():
    # broadband phase squeezing makes the demodulated phase noise
    # (3 s + a) / 4 relative to vacuum
    x = np.sqrt(90.0 / 600.0)
    e = 1000.0
    beams = ((e, SF1), (e, SF2))

    def phase_psd(squeezers, seed, frames=250):
        acc = []
        t = GRID.times()
        lo = np.cos(2.0 * np.pi * BEAT * t + np.pi / 2.0)
        for i in range(frames):
            trace = straightforward_variant(GRID, beams, squeezers, substream(seed, i))
            mixed = trace * lo
            spec = np.fft.rfft(mixed)
            freqs = np.fft.rfftfreq(N, 1.0 / FS)
            spec[freqs > 4.5e6] = 0.0
            acc.append(np.fft.irfft(spec, n=N))
        return naive_psd(acc)

    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    band = (freqs > 1e6) & (freqs < 4e6)
    sq = SqueezerSpec(x, 3e9, 0.8, squeeze_angle_rad=np.pi / 2.0)
    vac = phase_psd((None, None), seed=41)[band].mean()
    sqz = phase_psd(
        (
            SqueezerSpec(x, 3e9, 0.8, np.pi / 2.0, center_freq_hz=SF1),
            SqueezerSpec(x, 3e9, 0.8, np.pi / 2.0, center_freq_hz=SF2),
        ),
        seed=42,
    )[band].mean()
    s, a = sq.squeezing_spectrum(BEAT)
    expect = (3.0 * s + a) / 4.0
    assert sqz / vac == pytest.approx(expect, rel=0.04)
    assert sqz / vac > 1.0  # squeezing worsens the phase noise here


def test_energy_bookkeeping():
    e1, e2 = 120.0, 80.0
    det = DetectorConfig(electronic_noise_rel_db=-2.0)
    ref = unsqueezed_shot_psd(e1, e2)
    frames = 250
    total = 0.0
    for i in range(frames):
        f1 = _beam((e1, C1), None, substream(52, i, 0))
        f2 = _beam((e2, C2), None, substream(52, i, 1))
        total += np.var(balanced_detect(GRID, f1, f2, det, normals(substream(52, i, 2), N), ref))
    measured = total / frames
    classical = 2.0 * e1**2 * e2**2
    quantum = 2.0 * (e1**2 + e2**2)
    second_order = 2.0
    electronic = 10 ** (-0.2) * ref
    expect = classical + quantum + second_order + electronic
    assert measured == pytest.approx(expect, rel=0.005)


def test_classical_phase_variance_calibration():
    # demodulated classical PSD fraction of the reference floor equals f
    f = 0.1
    e = 700.0
    var = classical_phase_variance(f, e, e)
    frames = 300
    t = GRID.times()
    lo = np.cos(2.0 * np.pi * BEAT * t + np.pi / 2.0)
    acc_ref, acc_cls = [], []
    for i in range(frames):
        rng = np.random.default_rng(substream(73, i))
        extra = rng.normal(0.0, np.sqrt(var), N)
        f1 = _beam((e, C1), None, substream(74, i, 0))
        f2 = _beam((e, C2), None, substream(74, i, 1), extra_phase=extra)
        trace = balanced_detect(GRID, f1, f2, IDEAL, None)
        mixed = trace * lo
        spec = np.fft.rfft(mixed)
        freqs = np.fft.rfftfreq(N, 1.0 / FS)
        spec[freqs > 4.5e6] = 0.0
        acc_cls.append(np.fft.irfft(spec, n=N))
    psd = naive_psd(acc_cls)
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    band = (freqs > 1e6) & (freqs < 4e6)
    shot_demod = unsqueezed_shot_psd(e, e) / 2.0
    total = psd[band].mean()
    frac = (total - shot_demod) / total
    assert frac == pytest.approx(f, abs=0.012)


def test_spec_invariants():
    with pytest.raises(ValueError, match="escape_efficiency"):
        SqueezerSpec(0.4, 30e6, 1.5)
    with pytest.raises(ValueError, match="jitter_rms_rad"):
        SqueezerSpec(0.4, 30e6, jitter_rms_rad=-0.05)
    with pytest.raises(ValueError, match="quantum_efficiency"):
        BeamCarrier(GRID, 1.0, C1, quantum_efficiency=0.0)
    with pytest.raises(ValueError, match="amplitude"):
        BeamCarrier(GRID, -1.0, C1, 1.0)
    with pytest.raises(ValueError, match="mod_freq_hz"):
        BeamCarrier(GRID, 1.0, C1, 1.0, mod_freq_hz=0.0, mod_depth_rad=0.1)
    # the detector is the run's config, checked where the photocurrent is clipped
    for level in (-1.0, 0.0):
        with pytest.raises(ValueError, match="clip_level"):
            detector_readout(np.zeros(N), replace(IDEAL, clip_level=level), None)
    with pytest.raises(ValueError, match="jitter normals"):
        pickoff_noise_field(GRID, SqueezerSpec(0.4, 30e6, jitter_rms_rad=0.05), normals(0, *VAC))


def test_block_rows_equal_single_frames():
    # a block of frames is one call per step; every row must carry the
    # bits of the same frame synthesized and detected alone, a jittered
    # squeezer's row those of the squeezer turned by its own angle
    jittered = SqueezerSpec(0.4, 30e6, 0.9 * 0.96, 0.2, center_freq_hz=C2, jitter_rms_rad=0.05)
    qe = 0.95
    carrier1 = BeamCarrier(GRID, 700.0, C1, qe)
    carrier2 = BeamCarrier(GRID, 800.0, C2, qe, 3.11e6, 1e-3)
    det = DetectorConfig(electronic_noise_rel_db=-3.0, clip_level=2e6, gain_ripple_db=0.5)
    ref = unsqueezed_shot_psd(700.0, 800.0, qe)
    seeds = [substream(31, i) for i in range(3)]
    extra = np.random.default_rng(substream(32, 0)).normal(0.0, 1e-3, (3, N))
    # each frame's vacuum rows of beams 1 and 2, its electronic noise and its jitter normal
    z1, z2, ze, zj = (
        np.stack([normals(substream(s, port), *shape) for s in seeds])
        for port, shape in ((0, VAC), (1, VAC), (2, (N,)), (3, ()))
    )
    block = balanced_detect(
        GRID,
        compose_beam(carrier1, jittered, z1, jitter=zj),
        compose_beam(carrier2, None, z2, extra),
        det,
        ze,
        ref,
    )
    assert block.shape == (3, N)
    for i in range(len(seeds)):
        angle = jittered.squeeze_angle_rad + jittered.jitter_rms_rad * zj[i]
        turned = replace(jittered, squeeze_angle_rad=angle, jitter_rms_rad=0.0)
        single = balanced_detect(
            GRID,
            compose_beam(carrier1, turned, z1[i]),
            compose_beam(carrier2, None, z2[i], extra[i]),
            det,
            ze[i],
            ref,
        )
        assert np.array_equal(block[i], single)


def _quadrature_psds(squeezer, center, seed, frames=120):
    grid = preset_config("fig4-demod").grid.frequency_grid()
    z = np.stack([normals(substream(seed, i), 2, grid.n_samples) for i in range(frames)])
    field = pickoff_noise_field(grid, squeezer, z)
    a1, a2 = quadrature_series(grid, field, center)
    freqs = np.fft.rfftfreq(grid.n_samples, 1.0 / grid.sample_rate)
    return freqs, naive_psd(a1), naive_psd(a2), frames


@pytest.mark.parametrize("reflectivity, qe", [(0.97, 0.99), (0.8, 0.7)])
def test_squeezed_path_psd_matches_detected_squeezing(reflectivity, qe):
    # pickoff and detector act as one loss R qe: the quadrature spectra of
    # the squeezer the detector sees follow the closed-form loss chain of
    # the config's own squeezer at eta = R qe, band by band
    base = preset_config("fig4-demod")
    cfg = replace(
        base,
        pickoff1=replace(base.pickoff1, reflectivity=reflectivity),
        detector=replace(base.detector, quantum_efficiency=qe),
    )
    sq = cfg.pickoff1.squeezer
    unfolded = SqueezerSpec(sq.pump_ratio, sq.hwhm_hz, sq.escape_efficiency)
    center = cfg.squeezer_centers()[0]
    freqs, squeezed, anti, frames = _quadrature_psds(cfg.detected_squeezer(0), center, seed=61)
    for lo, hi in ((1e6, 5e6), (8e6, 12e6), (15e6, 20e6)):
        band = (freqs >= lo) & (freqs <= hi)
        s, a = detected_squeezing(unfolded, freqs[band], reflectivity * qe)
        # each periodogram bin of a Gaussian series has unit relative variance
        se = 1.0 / np.sqrt(frames * band.sum())
        assert squeezed[band].mean() / s.mean() == pytest.approx(1.0, abs=4 * se)
        assert anti[band].mean() / a.mean() == pytest.approx(1.0, abs=4 * se)


def test_unsqueezed_path_psd_is_vacuum():
    freqs, a1, a2, frames = _quadrature_psds(None, C2, seed=62)
    band = (freqs >= 1e6) & (freqs <= 20e6)
    se = 1.0 / np.sqrt(frames * band.sum())
    assert a1[band].mean() == pytest.approx(1.0, abs=4 * se)
    assert a2[band].mean() == pytest.approx(1.0, abs=4 * se)
