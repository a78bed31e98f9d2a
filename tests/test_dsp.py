"""Measurement-chain contracts: spectra, filters, demodulation, metrics."""

import numpy as np
import pytest

from sqzbeat.dsp import (
    BandSpec,
    DegenerateSubtractionError,
    DspError,
    FilterSpec,
    SpectrumEstimate,
    auto_periodogram,
    chain_response,
    compensate_spectrum,
    cross_periodogram,
    demod_lpf_spec,
    demod_measurement_chain,
    filter_frame,
    frame_spectrum,
    hamming_window,
    local_oscillator,
    mix_down,
    postprocess,
    raw_measurement_chain,
)
from sqzbeat.fields import FrequencyGrid
from sqzbeat.interferometer import PhotocurrentTrace
from sqzbeat.rng import generator, substream

from oracles import apply_filter_chain, cross_spectrum, demodulate, welch_psd

FS = 125e6
N = 5000
GRID = FrequencyGrid(FS, N, 30e6)


def _white_frames(frames, n=N, var=1.0, seed=0, tag=0):
    for i in range(frames):
        yield generator(substream(seed, tag, i)).normal(0.0, np.sqrt(var), n)


def _trace(samples):
    return PhotocurrentTrace(np.asarray(samples, dtype=float), GRID)


def test_welch_white_noise_calibration():
    frames = 600
    est = welch_psd(_white_frames(frames), sample_rate=FS)
    sel = est.values[1:-1]
    assert abs(sel.mean() - 1.0) < 4 / np.sqrt(frames * len(sel))
    assert np.max(np.abs(sel - 1.0)) < 6 / np.sqrt(frames)


def test_welch_unbiased_across_frame_lengths():
    for n in (256, 1024):
        frames = 500
        est = welch_psd(_white_frames(frames, n=n, var=2.5, seed=3), sample_rate=FS)
        sel = est.values[1:-1]
        assert abs(sel.mean() / 2.5 - 1.0) < 4 / np.sqrt(frames * len(sel))


def test_welch_sine_integrated_power():
    amp = 3.0
    k = 400  # on-grid line
    t = np.arange(N) / FS
    x = amp * np.cos(2.0 * np.pi * k * FS / N * t)
    est = welch_psd([x], sample_rate=FS)
    peak = np.abs(est.freqs - k * FS / N) < 10 * FS / N
    integrated = 2.0 * est.values[peak].sum() / N
    assert integrated == pytest.approx(amp**2 / 2.0, rel=1e-6)


def test_welch_supports_production_averaging_volume():
    # 12500 frames of 5000 samples, streamed
    frames = 12500
    est = welch_psd(_white_frames(frames, seed=11), sample_rate=FS)
    assert est.n_frames == frames
    sel = est.values[1:-1]
    assert abs(sel.mean() - 1.0) < 4 / np.sqrt(frames * len(sel))


def test_welch_rejects_mixed_lengths():
    with pytest.raises(DspError):
        welch_psd([np.zeros(64), np.zeros(65)], sample_rate=FS)


def test_cross_spectrum_equals_welch_for_identical_streams():
    frames = [np.asarray(f) for f in _white_frames(40, n=512, seed=5)]
    auto = welch_psd(frames, sample_rate=FS)
    cross = cross_spectrum(frames, frames, sample_rate=FS)
    assert np.allclose(cross.values, auto.values, rtol=1e-12)
    assert cross.kind == "cross"


def test_cross_spectrum_suppresses_independent_noise():
    frames = 400
    v1 = _white_frames(frames, n=1024, seed=21, tag=0)
    v2 = _white_frames(frames, n=1024, seed=21, tag=1)
    est = cross_spectrum(v1, v2, sample_rate=FS)
    band = np.abs(est.values[1:-1]).mean()
    assert band <= 3.0 / np.sqrt(frames)


def test_cross_spectrum_recovers_common_signal():
    frames = 500
    n = 1024
    common = [np.asarray(f) for f in _white_frames(frames, n=n, var=1.0, seed=31)]
    noise1 = _white_frames(frames, n=n, var=0.63, seed=32, tag=0)
    noise2 = _white_frames(frames, n=n, var=0.63, seed=32, tag=1)
    v1 = [c + m for c, m in zip(common, noise1)]
    v2 = [c + m for c, m in zip(common, noise2)]
    cross = cross_spectrum(v1, v2, sample_rate=FS)
    auto = welch_psd(v1, sample_rate=FS)
    sel = slice(1, -1)
    nb = len(cross.values[sel])
    assert cross.values[sel].mean() == pytest.approx(1.0, abs=5 / np.sqrt(frames * nb) + 0.01)
    # the auto spectrum stays biased high by the independent term
    assert auto.values[sel].mean() == pytest.approx(1.63, abs=0.02)


def test_cross_spectrum_rejects_misaligned_streams():
    a = [np.zeros(64)] * 3
    b = [np.zeros(64)] * 4
    with pytest.raises(DspError):
        cross_spectrum(a, b, sample_rate=FS)


def test_empty_chain_is_identity():
    x = generator(substream(1, 1)).normal(size=N)
    out = apply_filter_chain(_trace(x), [])
    assert np.allclose(out.samples, x, atol=1e-12)


def test_raw_chain_notch_and_passband():
    chain = raw_measurement_chain()
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    h = chain_response(chain, freqs, FS)
    gain_db = 20 * np.log10(np.abs(h) + 1e-300)
    notch = np.abs(freqs - 10e6) < 0.2e6
    assert np.max(gain_db[notch]) < 20.0 - 30.0  # >= 30 dB below the amplifier gain
    passband = ((freqs > 2.2e6) & (freqs < 7.4e6)) | ((freqs > 12.7e6) & (freqs < 13.7e6))
    assert np.min(gain_db[passband]) > 20.0 - 2.5
    assert np.max(gain_db[passband]) < 20.0 + 0.5


def test_raw_chain_on_white_noise_follows_design():
    chain = raw_measurement_chain()
    frames = 150
    traces = (apply_filter_chain(_trace(x), chain) for x in _white_frames(frames, seed=41))
    est = welch_psd(traces)
    h2 = np.abs(chain_response(chain, est.freqs, FS)) ** 2
    band = (est.freqs > 2e6) & (est.freqs < 15e6) & (np.abs(est.freqs - 10e6) > 2.6e6)
    ratio = est.values[band] / h2[band]
    assert abs(ratio.mean() - 1.0) < 4 / np.sqrt(frames * band.sum())


def test_chain_linearity():
    chain = raw_measurement_chain()
    rng = generator(substream(2, 7))
    x = rng.normal(size=N)
    y = rng.normal(size=N)
    fx = apply_filter_chain(_trace(x), chain).samples
    fy = apply_filter_chain(_trace(y), chain).samples
    fxy = apply_filter_chain(_trace(2.0 * x - 3.0 * y), chain).samples
    assert np.allclose(fxy, 2.0 * fx - 3.0 * fy, atol=1e-6)


def test_corner_at_nyquist_rejected():
    with pytest.raises(DspError):
        apply_filter_chain(_trace(np.zeros(N)), [FilterSpec("low-pass", (FS / 2,))])


def test_compensation_inverts_designed_response():
    chain = raw_measurement_chain()
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    h2 = np.abs(chain_response(chain, freqs, FS)) ** 2
    est = SpectrumEstimate(freqs, h2.copy(), n_frames=10)
    comp = compensate_spectrum(est, chain, FS)
    band = ((freqs > 1.5e6) & (freqs < 7.5e6)) | ((freqs > 12.9e6) & (freqs < 15e6))
    db = 10 * np.log10(comp.values[band])
    assert np.max(np.abs(db)) < 0.01
    assert comp.compensated


def test_compensation_rejected_twice():
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    est = SpectrumEstimate(freqs, np.ones(len(freqs)), n_frames=1)
    once = compensate_spectrum(est, raw_measurement_chain(), FS)
    with pytest.raises(DspError):
        compensate_spectrum(once, raw_measurement_chain(), FS)


def test_demodulate_rejects_beat_amplitude():
    t = GRID.times()
    beat = 2.0 * np.cos(2.0 * np.pi * 10e6 * t)
    base = demodulate(_trace(beat), 10e6, np.pi / 2.0)
    # baseband term vanishes; only the filtered product at twice the
    # beat survives, 1e-5 of the input after the low-pass
    assert np.max(np.abs(base.samples)) < 1e-4


def test_demodulate_turns_modulation_into_single_peak():
    t = GRID.times()
    theta = 0.05 * np.sin(2.0 * np.pi * 3.1e6 * t)
    beat = 2.0 * np.cos(2.0 * np.pi * 10e6 * t + theta)
    base = demodulate(_trace(beat), 10e6, np.pi / 2.0)
    spec = np.abs(np.fft.rfft(base.samples)) ** 2
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    peak = freqs[np.argmax(spec[1:]) + 1]
    assert peak == pytest.approx(3.1e6, abs=GRID.bin_hz)
    k = np.argmax(spec[1:]) + 1
    others = spec.copy()
    others[k - 2 : k + 3] = 0.0
    assert spec[k] > 1e4 * others[1:].max()


def test_demodulated_white_noise_follows_folding_rule():
    frames = 300
    traces = (
        demodulate(_trace(x), 10e6, np.pi / 2.0) for x in _white_frames(frames, seed=51)
    )
    est = welch_psd(traces)
    band = (est.freqs > 1e6) & (est.freqs < 4e6)
    # (p + p) / 4 for a unit-PSD input
    assert est.values[band].mean() == pytest.approx(0.5, rel=0.02)


def test_demodulate_band_checks():
    with pytest.raises(DspError):
        demodulate(_trace(np.zeros(N)), 40e6)


def test_band_spec_masks_exclusion_zone():
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    band = BandSpec(6.89e6, 0.5e6, 0.04e6)
    m = band.mask(freqs)
    inside = freqs[m]
    assert np.all(np.abs(inside - 6.89e6) > 0.04e6 - 1.0)
    assert np.all(np.abs(inside - 6.89e6) <= 0.5e6 + 1.0)
    with pytest.raises(ValueError):
        BandSpec(1e6, 0.1e6, 0.2e6)


def _flat_estimates(level_t, level_r, level_b, n=513):
    freqs = np.linspace(1e6, 5e6, n)
    mk = lambda level: SpectrumEstimate(freqs, np.full(n, level, dtype=float), n_frames=100)
    return mk(level_t), mk(level_r), mk(level_b)


def test_postprocess_identity_is_zero_db():
    t, r, b = _flat_estimates(1.3, 1.3, 0.3)
    res = postprocess(t, r, b, BandSpec(3e6, 1e6, 0.1e6))
    assert res.reduction_db == pytest.approx(0.0, abs=1e-12)
    assert res.stderr_db == pytest.approx(0.0, abs=1e-12)


def test_postprocess_recovers_constructed_reduction():
    # target = reference * 10^(-0.371) + background
    t, r, b = _flat_estimates(1.0 * 10 ** (-0.371) + 0.3, 1.0 + 0.3, 0.3)
    res = postprocess(t, r, b, BandSpec(3e6, 1e6, 0.1e6))
    assert res.reduction_db == pytest.approx(3.71, abs=1e-9)


def test_postprocess_degenerate_subtraction():
    t, r, b = _flat_estimates(1.0, 0.3, 0.3)
    with pytest.raises(DegenerateSubtractionError):
        postprocess(t, r, b, BandSpec(3e6, 1e6, 0.1e6))


def test_postprocess_rejects_mismatched_axes():
    t, r, b = _flat_estimates(1.3, 1.3, 0.3)
    other = SpectrumEstimate(r.freqs + 1.0, r.values, n_frames=100)
    with pytest.raises(DspError):
        postprocess(t, other, b, BandSpec(3e6, 1e6, 0.1e6))


def test_postprocess_rejects_presubtracted_inputs():
    t, r, b = _flat_estimates(1.3, 1.3, 0.3)
    from dataclasses import replace

    with pytest.raises(DspError):
        postprocess(replace(t, background_subtracted=True), r, b, BandSpec(3e6, 1e6, 0.1e6))


def test_demod_chain_passband():
    chain = demod_measurement_chain()
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    h = chain_response(chain, freqs, FS)
    band = (freqs > 2.5e6) & (freqs < 4e6)
    gain_db = 20 * np.log10(np.abs(h[band]))
    assert np.all(np.abs(gain_db - 20.0) < 0.5)


def test_chain_steps_on_a_block_equal_each_frame():
    # the runner feeds blocks of frames; each row must match the frame
    # processed alone, bit for bit
    block = np.stack(list(_white_frames(3, seed=12)))
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    lpf = chain_response([demod_lpf_spec(10e6)], freqs, FS)
    post = chain_response(demod_measurement_chain(), freqs, FS)
    lo = local_oscillator(GRID, 10e6, np.pi / 2.0)
    window, wnorm = hamming_window(N)

    def chain(x):
        v1 = frame_spectrum(filter_frame(mix_down(x, lo, lpf), post), window)
        v2 = frame_spectrum(x, window)
        return auto_periodogram(v1, wnorm), cross_periodogram(v1, v2, wnorm)

    auto_b, cross_b = chain(block)
    for i, x in enumerate(block):
        auto_1, cross_1 = chain(x)
        assert np.array_equal(auto_b[i], auto_1)
        assert np.array_equal(cross_b[i], cross_1)
