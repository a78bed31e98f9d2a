"""Beam composition and balanced detection against first-order theory."""

import numpy as np
import pytest

from sqzbeat.fields import FieldRealization, FrequencyGrid, SqueezerSpec
from sqzbeat.interferometer import (
    BeamSpec,
    DetectorSpec,
    PhaseSignalSpec,
    PickoffSpec,
    balanced_detect,
    classical_phase_variance,
    compose_beam,
    pickoff_noise_field,
    unsqueezed_shot_psd,
)
from sqzbeat.fields import quadrature_series
from sqzbeat.rng import substream

from helpers import naive_psd
from oracles import linearized_output, straightforward_variant

FS = 125e6
N = 2500
GRID = FrequencyGrid(FS, N, 30e6)
BEAT = 10e6
C1, C2 = 30e6, 40e6
IDEAL = DetectorSpec(quantum_efficiency=1.0)


def _carrier_field(e, freq, theta=None):
    t = GRID.times()
    phase = 2.0 * np.pi * freq * t + (0.0 if theta is None else theta)
    return FieldRealization(GRID, np.fft.ifft(e * np.exp(-1j * phase)))


def _vacuum_beams(e1, e2, seed, depth=0.0, mod_freq=3.125e6):
    sig = PhaseSignalSpec("sinusoid", mod_freq, depth) if depth else PhaseSignalSpec()
    b1 = BeamSpec(e1, C1)
    b2 = BeamSpec(e2, C2, sig)
    p = PickoffSpec(1.0, None)
    f1 = compose_beam(GRID, b1, p, substream(seed, 0))
    f2 = compose_beam(GRID, b2, p, substream(seed, 1))
    return f1, f2


def test_pure_beat_is_exact_cosine():
    f1 = _carrier_field(1.0, C1)
    f2 = _carrier_field(1.0, C2)
    trace = balanced_detect(f1, f2, IDEAL, substream(0, 9))
    expect = 2.0 * np.cos(2.0 * np.pi * BEAT * GRID.times())
    assert np.allclose(trace.samples, expect, atol=1e-9)


def test_beat_carries_relative_phase():
    theta = 0.4
    f1 = _carrier_field(1.0, C1)
    f2 = _carrier_field(1.0, C2, theta)
    trace = balanced_detect(f1, f2, IDEAL, substream(0, 9))
    expect = 2.0 * np.cos(2.0 * np.pi * BEAT * GRID.times() + theta)
    assert np.allclose(trace.samples, expect, atol=1e-9)


def test_shot_floor_level():
    e = 300.0
    frames = 250
    traces = []
    for i in range(frames):
        f1, f2 = _vacuum_beams(e, e, substream(8, i))
        traces.append(balanced_detect(f1, f2, IDEAL, substream(8, i, 99)).samples)
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    psd = naive_psd(traces)
    band = (freqs > 2e6) & (freqs < 20e6) & (np.abs(freqs - BEAT) > 1e6)
    floor = unsqueezed_shot_psd(e, e)
    rel = psd[band].mean() / floor
    assert rel == pytest.approx(1.0, abs=4 / np.sqrt(frames * band.sum()) + 1e-3)


def test_pickoff_loss_mixes_squeezing():
    # 97% pickoff turns flat squeezing s into 0.97 s + 0.03
    x = 0.5195253280689318
    spec = SqueezerSpec(x, 3e9, 1.0, center_freq_hz=C1)
    pick = PickoffSpec(0.97, spec)
    frames = 350
    acc = []
    for i in range(frames):
        f = pickoff_noise_field(GRID, pick, substream(23, i))
        acc.append(quadrature_series(f, C1).a1)
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    psd = naive_psd(acc)
    band = (freqs > 1e6) & (freqs < 15e6)
    expect = 0.97 * 0.1 + 0.03
    assert psd[band].mean() == pytest.approx(expect, rel=0.04)


def test_compose_beam_dark_port_is_pure_vacuum():
    # full reflectivity, no squeezer, no carrier: the beam is exactly the
    # vacuum drawn from its substream
    beam = BeamSpec(0.0, C1)
    out = compose_beam(GRID, beam, PickoffSpec(1.0, None), substream(3, 0))
    from sqzbeat.fields import make_vacuum_field

    vac = make_vacuum_field(GRID, substream(3, 0, 0, 0))
    assert np.array_equal(out.amplitudes, vac.amplitudes)


def test_carrier_scales_linearly_and_leaves_noise_bins():
    # same seed: the two fields differ only by the carrier delta at its bin
    pick = PickoffSpec(0.97, None)
    beam = lambda e: BeamSpec(e, C1)
    f1 = compose_beam(GRID, beam(100.0), pick, substream(4, 0))
    f2 = compose_beam(GRID, beam(200.0), pick, substream(4, 0))
    k = GRID.bin_index(C1)
    delta = f2.amplitudes - f1.amplitudes
    assert delta[k] == pytest.approx(100.0, rel=1e-9)
    other = np.ones(N, dtype=bool)
    other[k] = False
    assert np.allclose(delta[other], 0.0, atol=1e-9)


def test_modulation_sideband_power_ratio():
    # first-order phase-modulation sidebands against the carrier line;
    # the tone sits on a grid bin so the ratio is exact up to shot noise
    depth = 0.01
    mod = 3.2e6
    b1 = BeamSpec(1000.0, C1)
    b2 = BeamSpec(1000.0, C2, PhaseSignalSpec("sinusoid", mod, depth))
    f1 = compose_beam(GRID, b1, PickoffSpec(1.0, None), substream(5, 1))
    f2 = compose_beam(GRID, b2, PickoffSpec(1.0, None), substream(5, 2))
    trace = balanced_detect(f1, f2, IDEAL, substream(5, 3))
    spec = np.abs(np.fft.rfft(trace.samples)) ** 2
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
    det = DetectorSpec(1.0, electronic_noise_rel_db=-2.0)
    ref = 1000.0
    frames = 200
    zero = FieldRealization(GRID, np.zeros(N, dtype=complex))
    traces = [
        balanced_detect(zero, zero, det, substream(66, i), reference_shot_psd=ref).samples
        for i in range(frames)
    ]
    psd = naive_psd(traces)
    expect = 10 ** (-0.2) * ref
    assert psd[5:-5].mean() == pytest.approx(expect, rel=0.02)


def test_electronic_noise_requires_reference():
    det = DetectorSpec(1.0, electronic_noise_rel_db=-2.0)
    zero = FieldRealization(GRID, np.zeros(N, dtype=complex))
    with pytest.raises(ValueError):
        balanced_detect(zero, zero, det, substream(66, 0))


def test_clipping_bounds_samples():
    det = DetectorSpec(1.0, clip_level=1.0)
    f1 = _carrier_field(10.0, C1)
    f2 = _carrier_field(10.0, C2)
    trace = balanced_detect(f1, f2, det, substream(1, 0))
    # mean removal follows the clip, so the bound holds up to the mean shift
    assert trace.samples.max() - trace.samples.min() <= 2.0 + 1e-9


def test_gain_ripple_tilts_optical_spectrum():
    # the tilt shapes the photocurrent, not the electronic noise added after
    det = DetectorSpec(1.0, gain_ripple_db=2.0)
    e = 400.0
    frames = 300
    traces = []
    for i in range(frames):
        f1, f2 = _vacuum_beams(e, e, substream(71, i))
        traces.append(balanced_detect(f1, f2, det, substream(71, i, 9)).samples)
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    psd = naive_psd(traces)
    lo = psd[np.abs(freqs - 5e6) < 0.3e6].mean()
    hi = psd[np.abs(freqs - 15e6) < 0.3e6].mean()
    # edges of the tilt sit ripple_db apart
    assert 10 * np.log10(lo / hi) == pytest.approx(2.0, abs=0.25)


def test_quantum_efficiency_degrades_squeezing():
    x = 0.5195253280689318
    spec = SqueezerSpec(x, 3e9, 1.0, center_freq_hz=C2)
    pick1 = PickoffSpec(1.0, spec)
    pick2 = PickoffSpec(1.0, None)
    e = 500.0
    frames = 250
    det = DetectorSpec(quantum_efficiency=0.6)
    traces = []
    for i in range(frames):
        f1 = compose_beam(GRID, BeamSpec(e, C1), pick1, substream(81, i, 0))
        f2 = compose_beam(GRID, BeamSpec(e, C2), pick2, substream(81, i, 1))
        traces.append(balanced_detect(f1, f2, det, substream(81, i, 2)).samples)
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    psd = naive_psd(traces)
    band = (freqs > 2e6) & (freqs < 18e6) & (np.abs(freqs - BEAT) > 1e6)
    floor = unsqueezed_shot_psd(e, e, 0.6)
    # source 1 squeezed at 0.1, source 2 vacuum; efficiency mixes both
    expect = 0.5 * ((0.6 * 0.1 + 0.4) + 1.0)
    assert psd[band].mean() / floor == pytest.approx(expect, rel=0.03)


def test_linearized_matches_exact_detection():
    spec1 = SqueezerSpec(0.387, 30e6, 0.833, center_freq_hz=C2)
    spec2 = SqueezerSpec(0.365, 30e6, 0.833, center_freq_hz=C1)
    picks = (PickoffSpec(0.97, spec1), PickoffSpec(0.97, spec2))
    e = 1000.0
    beams = (BeamSpec(e, C1), BeamSpec(e, C2))
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    band = (freqs > 2e6) & (freqs < 15e6)
    frames = 60
    diff, floor = [], []
    for i in range(frames):
        seed = substream(90, i)
        exact = balanced_detect(
            compose_beam(GRID, beams[0], picks[0], substream(seed, 0)),
            compose_beam(GRID, beams[1], picks[1], substream(seed, 1)),
            IDEAL,
            substream(seed, 2),
        )
        lin = linearized_output(GRID, beams, picks, seed)
        diff.append(exact.samples - lin.samples)
        floor.append(lin.samples)
    res = naive_psd(diff)[band].mean()
    lvl = naive_psd(floor)[band].mean()
    assert res / lvl < 0.01


def test_injection_phase_swaps_quadrature():
    # a quarter-turn injection error exposes the anti-squeezed quadrature
    x = 0.5195253280689318
    e = 800.0
    frames = 200
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    band = (freqs > 2e6) & (freqs < 15e6) & (np.abs(freqs - BEAT) > 1e6)
    floors = {}
    for phase in (0.0, np.pi / 2.0):
        spec = SqueezerSpec(x, 3e9, 1.0, center_freq_hz=C2)
        picks = (PickoffSpec(1.0, spec, injection_phase_rad=phase), PickoffSpec(1.0, None))
        traces = []
        for i in range(frames):
            f1 = compose_beam(GRID, BeamSpec(e, C1), picks[0], substream(95, i, 0))
            f2 = compose_beam(GRID, BeamSpec(e, C2), picks[1], substream(95, i, 1))
            traces.append(balanced_detect(f1, f2, IDEAL, substream(95, i, 2)).samples)
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
        picks = (PickoffSpec(1.0, spec(C2)), PickoffSpec(1.0, spec(C1)))
        traces = []
        for i in range(frames):
            f1 = compose_beam(GRID, BeamSpec(e1, C1), picks[0], substream(97, i, 0))
            f2 = compose_beam(GRID, BeamSpec(e2, C2), picks[1], substream(97, i, 1))
            traces.append(balanced_detect(f1, f2, IDEAL, substream(97, i, 2)).samples)
        rels.append(naive_psd(traces)[band].mean() / unsqueezed_shot_psd(e1, e2))
    se = 4 / np.sqrt(frames * band.sum())
    assert abs(rels[0] - rels[1]) < 3 * se


def test_schemes_agree_with_squeezers_off():
    e = 400.0
    frames = 200
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    band = (freqs > 2e6) & (freqs < 15e6) & (np.abs(freqs - BEAT) > 1e6)
    beams = (BeamSpec(e, C1), BeamSpec(e, C2))
    lin, exact = [], []
    for i in range(frames):
        lin.append(straightforward_variant(GRID, beams, (None, None), substream(14, i)).samples)
        f1, f2 = _vacuum_beams(e, e, substream(15, i))
        exact.append(balanced_detect(f1, f2, IDEAL, substream(15, i, 9)).samples)
    p_lin = naive_psd(lin)[band].mean()
    p_exact = naive_psd(exact)[band].mean()
    se = 4 / np.sqrt(frames * band.sum())
    assert abs(p_lin / p_exact - 1.0) < 3 * se


def test_straightforward_phase_floor_matches_leakage_formula():
    # broadband phase squeezing makes the demodulated phase noise
    # (3 s + a) / 4 relative to vacuum
    x = np.sqrt(90.0 / 600.0)
    e = 1000.0
    beams = (BeamSpec(e, C1), BeamSpec(e, C2))

    def phase_psd(squeezers, seed, frames=250):
        acc = []
        t = GRID.times()
        lo = np.cos(2.0 * np.pi * BEAT * t + np.pi / 2.0)
        for i in range(frames):
            trace = straightforward_variant(GRID, beams, squeezers, substream(seed, i))
            mixed = trace.samples * lo
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
            SqueezerSpec(x, 3e9, 0.8, np.pi / 2.0, center_freq_hz=C1),
            SqueezerSpec(x, 3e9, 0.8, np.pi / 2.0, center_freq_hz=C2),
        ),
        seed=42,
    )[band].mean()
    s, a = sq.squeezing_spectrum(BEAT)
    expect = (3.0 * s + a) / 4.0
    assert sqz / vac == pytest.approx(expect, rel=0.04)
    assert sqz / vac > 1.0  # squeezing worsens the phase noise here


def test_energy_bookkeeping():
    e1, e2 = 120.0, 80.0
    det = DetectorSpec(1.0, electronic_noise_rel_db=-2.0)
    ref = unsqueezed_shot_psd(e1, e2)
    frames = 250
    total = 0.0
    for i in range(frames):
        b1 = BeamSpec(e1, C1)
        b2 = BeamSpec(e2, C2)
        p = PickoffSpec(1.0, None)
        f1 = compose_beam(GRID, b1, p, substream(52, i, 0))
        f2 = compose_beam(GRID, b2, p, substream(52, i, 1))
        total += np.var(balanced_detect(f1, f2, det, substream(52, i, 2), ref).samples)
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
        p = PickoffSpec(1.0, None)
        f1 = compose_beam(GRID, BeamSpec(e, C1), p, substream(74, i, 0))
        f2 = compose_beam(GRID, BeamSpec(e, C2), p, substream(74, i, 1), extra_phase=extra)
        trace = balanced_detect(f1, f2, IDEAL, substream(74, i, 2))
        mixed = trace.samples * lo
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
    with pytest.raises(ValueError):
        PickoffSpec(0.0, None)
    with pytest.raises(ValueError):
        DetectorSpec(quantum_efficiency=0.0)
    with pytest.raises(ValueError):
        DetectorSpec(clip_level=-1.0)
    with pytest.raises(ValueError):
        BeamSpec(-1.0, C1)
    with pytest.raises(ValueError):
        PhaseSignalSpec("sinusoid", 0.0, 0.1)
    with pytest.raises(ValueError):
        balanced_detect(
            FieldRealization(GRID, np.zeros(N, dtype=complex)),
            FieldRealization(FrequencyGrid(FS, 2000, 30e6), np.zeros(2000, dtype=complex)),
            IDEAL,
            substream(0, 0),
        )


def test_block_rows_equal_single_frames():
    # a block of frames is one call per step; every row must carry the
    # bits of the same frame synthesized and detected alone
    spec = SqueezerSpec(0.4, 30e6, 0.9, center_freq_hz=C2)
    picks = [PickoffSpec(0.97, spec), PickoffSpec(0.97, spec, injection_phase_rad=0.2), PickoffSpec(0.97, None)]
    beam2 = BeamSpec(800.0, C2, PhaseSignalSpec("sinusoid", 3.11e6, 1e-3))
    det = DetectorSpec(0.95, electronic_noise_rel_db=-3.0, clip_level=2e6, gain_ripple_db=0.5)
    ref = unsqueezed_shot_psd(700.0, 800.0)
    seeds = [substream(31, i) for i in range(3)]
    extra = np.random.default_rng(substream(32, 0)).normal(0.0, 1e-3, (3, N))
    block = balanced_detect(
        compose_beam(GRID, BeamSpec(700.0, C1), picks, [substream(s, 0) for s in seeds]),
        compose_beam(GRID, beam2, PickoffSpec(0.97, spec), [substream(s, 1) for s in seeds], extra),
        det,
        [substream(s, 2) for s in seeds],
        ref,
    )
    assert block.samples.shape == (3, N)
    for i, s in enumerate(seeds):
        single = balanced_detect(
            compose_beam(GRID, BeamSpec(700.0, C1), picks[i], substream(s, 0)),
            compose_beam(GRID, beam2, PickoffSpec(0.97, spec), substream(s, 1), extra[i]),
            det,
            substream(s, 2),
            ref,
        )
        assert np.array_equal(block.samples[i], single.samples)
