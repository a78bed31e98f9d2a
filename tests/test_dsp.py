"""Measurement-chain contracts: spectra, filters, demodulation, metrics."""

import tracemalloc

import numpy as np
import pytest

from sqzbeat import runner
from sqzbeat.config import MAX_SAMPLES, BandConfig, merge_config, preset_config
from sqzbeat.dsp import (
    DegenerateSubtractionError,
    DspError,
    FilterSpec,
    _design_zpk,
    auto_periodogram,
    chain_response,
    compensate_spectrum,
    cross_periodogram,
    demod_measurement_chain,
    hamming_from_bins,
    hamming_power_from_moments,
    hamming_window,
    postprocess,
    raw_measurement_chain,
)
from sqzbeat.fields import FrequencyGrid
from sqzbeat.rng import PORT_ARM1, PORT_ARM2, PORTS, RUN_TARGET, ChunkStreams, generator, substream

from oracles import (
    apply_filter_chain,
    cross_spectrum,
    demodulate,
    filter_frame,
    frame_spectrum,
    mix_down,
    welch_psd,
)

FS = 125e6
N = 5000
GRID = FrequencyGrid(FS, N)


def _white_frames(frames, n=N, var=1.0, seed=0, tag=0):
    for i in range(frames):
        yield generator(substream(seed, tag, i)).normal(0.0, np.sqrt(var), n)


def test_welch_white_noise_calibration():
    frames = 600
    _, psd = welch_psd(_white_frames(frames), sample_rate=FS)
    sel = psd[1:-1]
    assert abs(sel.mean() - 1.0) < 4 / np.sqrt(frames * len(sel))
    assert np.max(np.abs(sel - 1.0)) < 6 / np.sqrt(frames)


def test_welch_unbiased_across_frame_lengths():
    for n in (256, 1024):
        frames = 500
        _, psd = welch_psd(_white_frames(frames, n=n, var=2.5, seed=3), sample_rate=FS)
        sel = psd[1:-1]
        assert abs(sel.mean() / 2.5 - 1.0) < 4 / np.sqrt(frames * len(sel))


def test_welch_sine_integrated_power():
    amp = 3.0
    k = 400  # on-grid line
    t = np.arange(N) / FS
    x = amp * np.cos(2.0 * np.pi * k * FS / N * t)
    freqs, psd = welch_psd([x], sample_rate=FS)
    peak = np.abs(freqs - k * FS / N) < 10 * FS / N
    integrated = 2.0 * psd[peak].sum() / N
    assert integrated == pytest.approx(amp**2 / 2.0, rel=1e-6)


def test_welch_supports_production_averaging_volume():
    # 12500 frames of 5000 samples, streamed
    frames = 12500
    _, psd = welch_psd(_white_frames(frames, seed=11), sample_rate=FS)
    sel = psd[1:-1]
    assert abs(sel.mean() - 1.0) < 4 / np.sqrt(frames * len(sel))


def test_welch_rejects_mixed_lengths():
    with pytest.raises(DspError):
        welch_psd([np.zeros(64), np.zeros(65)], sample_rate=FS)


def test_cross_spectrum_equals_welch_for_identical_streams():
    frames = [np.asarray(f) for f in _white_frames(40, n=512, seed=5)]
    _, auto = welch_psd(frames, sample_rate=FS)
    _, cross = cross_spectrum(frames, frames, sample_rate=FS)
    assert np.allclose(cross, auto, rtol=1e-12)


def test_cross_spectrum_suppresses_independent_noise():
    frames = 400
    v1 = _white_frames(frames, n=1024, seed=21, tag=0)
    v2 = _white_frames(frames, n=1024, seed=21, tag=1)
    _, cross = cross_spectrum(v1, v2, sample_rate=FS)
    band = np.abs(cross[1:-1]).mean()
    assert band <= 3.0 / np.sqrt(frames)


def test_cross_spectrum_recovers_common_signal():
    frames = 500
    n = 1024
    common = [np.asarray(f) for f in _white_frames(frames, n=n, var=1.0, seed=31)]
    noise1 = _white_frames(frames, n=n, var=0.63, seed=32, tag=0)
    noise2 = _white_frames(frames, n=n, var=0.63, seed=32, tag=1)
    v1 = [c + m for c, m in zip(common, noise1)]
    v2 = [c + m for c, m in zip(common, noise2)]
    _, cross = cross_spectrum(v1, v2, sample_rate=FS)
    _, auto = welch_psd(v1, sample_rate=FS)
    sel = slice(1, -1)
    nb = len(cross[sel])
    assert cross[sel].mean() == pytest.approx(1.0, abs=5 / np.sqrt(frames * nb) + 0.01)
    # the auto spectrum stays biased high by the independent term
    assert auto[sel].mean() == pytest.approx(1.63, abs=0.02)


def test_cross_spectrum_rejects_misaligned_streams():
    a = [np.zeros(64)] * 3
    b = [np.zeros(64)] * 4
    with pytest.raises(DspError):
        cross_spectrum(a, b, sample_rate=FS)


def test_empty_chain_is_identity():
    x = generator(substream(1, 1)).normal(size=N)
    out = apply_filter_chain(GRID, x, [])
    assert np.allclose(out, x, atol=1e-12)


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
    traces = (apply_filter_chain(GRID, x, chain) for x in _white_frames(frames, seed=41))
    freqs, psd = welch_psd(traces, sample_rate=FS)
    h2 = np.abs(chain_response(chain, freqs, FS)) ** 2
    band = (freqs > 2e6) & (freqs < 15e6) & (np.abs(freqs - 10e6) > 2.6e6)
    ratio = psd[band] / h2[band]
    assert abs(ratio.mean() - 1.0) < 4 / np.sqrt(frames * band.sum())


def test_chain_linearity():
    chain = raw_measurement_chain()
    rng = generator(substream(2, 7))
    x = rng.normal(size=N)
    y = rng.normal(size=N)
    fx = apply_filter_chain(GRID, x, chain)
    fy = apply_filter_chain(GRID, y, chain)
    fxy = apply_filter_chain(GRID, 2.0 * x - 3.0 * y, chain)
    assert np.allclose(fxy, 2.0 * fx - 3.0 * fy, atol=1e-6)


@pytest.mark.parametrize("corner", [FS / 2, 0.0, float("nan")], ids=["nyquist", "zero", "nan"])
def test_corner_outside_band_rejected(corner):
    with pytest.raises(DspError):
        apply_filter_chain(GRID, np.zeros(N), [FilterSpec("low-pass", (corner,))])


# Stage corners as fractions of Nyquist: near 0, the chains' own range,
# mid-band and near Nyquist.  A band-stop spans (0.7 r, r).
DESIGN_CORNERS = (1e-3, 0.02, 0.3, 0.999)


def _design_cases():
    nyq = FS / 2.0
    for order in range(1, 11):
        for r in DESIGN_CORNERS:
            yield FilterSpec("low-pass", (r * nyq,), order=order)
            yield FilterSpec("high-pass", (r * nyq,), order=order)
            for ripple_db in (0.1, 1.0, 3.0):
                yield FilterSpec("band-stop", (0.7 * r * nyq, r * nyq), order=order, ripple_db=ripple_db)


def test_design_matches_scipy():
    """The numpy design against scipy.signal's butter/cheby1 and freqz_zpk.

    Measured with numpy 2.4 and scipy 1.17 over these cases: the zeros,
    poles and gain are the same bits, and the response, evaluated on the
    same zpk, agrees to 2.0e-12 of the peak and 2.1e-12 relative where
    |h| is above half its peak (the worst at corners near Nyquist, where
    every pole and zero crowds z = -1).  The tolerances are 5x that.
    """
    sps = pytest.importorskip("scipy.signal")
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    for spec in _design_cases():
        if spec.kind == "band-stop":
            ref = sps.cheby1(spec.order, spec.ripple_db, list(spec.corners), btype="bandstop", fs=FS, output="zpk")
        else:
            btype = "lowpass" if spec.kind == "low-pass" else "highpass"
            ref = sps.butter(spec.order, spec.corners[0], btype=btype, fs=FS, output="zpk")
        zeros, poles, k = _design_zpk(spec, FS)
        np.testing.assert_allclose(zeros, ref[0], rtol=1e-14, atol=1e-14, err_msg=str(spec))
        np.testing.assert_allclose(poles, ref[1], rtol=1e-14, atol=1e-14, err_msg=str(spec))
        assert k == pytest.approx(ref[2], rel=1e-14), spec
        h = chain_response([spec], freqs, FS)
        _, h_ref = sps.freqz_zpk(*ref, worN=freqs, fs=FS)
        peak = np.max(np.abs(h_ref))
        assert np.max(np.abs(h - h_ref)) < 1e-11 * peak, spec
        passband = np.abs(h_ref) > 0.5 * peak
        assert np.max(np.abs(h - h_ref)[passband] / np.abs(h_ref[passband])) < 1e-11, spec


def test_chain_response_temporaries_stay_bins_wide():
    # A (bins x order) temporary at MAX_SAMPLES would be 80 MB for the
    # notch alone.  The response is 8 MB, and the peak measures three
    # such arrays: the response, the unit-circle points and one factor.
    freqs = np.fft.rfftfreq(MAX_SAMPLES, 1.0 / FS)
    chain = raw_measurement_chain()
    chain_response(chain, freqs[:16], FS)  # designs outside the trace
    tracemalloc.start()
    try:
        chain_response(chain, freqs, FS)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 16 * len(freqs)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="band-stop", corners=(12.5e6, 8e6)),
        dict(kind="band-stop", corners=(8e6, 8e6)),
        dict(kind="band-stop", corners=(8e6, 12.5e6), ripple_db=0.0),
        dict(kind="band-stop", corners=(8e6, 12.5e6), ripple_db=-1.0),
        dict(kind="band-stop", corners=(8e6, 12.5e6), ripple_db=float("nan")),
    ],
    ids=["decreasing-corners", "equal-corners", "zero-ripple", "negative-ripple", "nan-ripple"],
)
def test_bad_filter_specs_rejected(kwargs):
    with pytest.raises(ValueError):
        FilterSpec(**kwargs)


def test_compensation_inverts_designed_response():
    chain = raw_measurement_chain()
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    h = chain_response(chain, freqs, FS)
    comp = compensate_spectrum(np.abs(h) ** 2, h)
    band = ((freqs > 1.5e6) & (freqs < 7.5e6)) | ((freqs > 12.9e6) & (freqs < 15e6))
    db = 10 * np.log10(comp[band])
    assert np.max(np.abs(db)) < 0.01
    # one spectrum per row: a stack of them compensates row by row
    rows = compensate_spectrum(np.stack([np.abs(h) ** 2, np.ones(len(freqs))]), h)
    assert np.array_equal(rows[0], comp)
    assert np.array_equal(rows[1], compensate_spectrum(np.ones(len(freqs)), h))


def test_demodulate_rejects_beat_amplitude():
    t = GRID.times()
    beat = 2.0 * np.cos(2.0 * np.pi * 10e6 * t)
    base = demodulate(GRID, beat, 10e6, np.pi / 2.0)
    # baseband term vanishes; only the filtered product at twice the
    # beat survives, 1e-5 of the input after the low-pass
    assert np.max(np.abs(base)) < 1e-4


def test_demodulate_turns_modulation_into_single_peak():
    t = GRID.times()
    theta = 0.05 * np.sin(2.0 * np.pi * 3.1e6 * t)
    beat = 2.0 * np.cos(2.0 * np.pi * 10e6 * t + theta)
    base = demodulate(GRID, beat, 10e6, np.pi / 2.0)
    spec = np.abs(np.fft.rfft(base)) ** 2
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
        demodulate(GRID, x, 10e6, np.pi / 2.0) for x in _white_frames(frames, seed=51)
    )
    freqs, psd = welch_psd(traces, sample_rate=FS)
    band = (freqs > 1e6) & (freqs < 4e6)
    # (p + p) / 4 for a unit-PSD input
    assert psd[band].mean() == pytest.approx(0.5, rel=0.02)


def test_demodulate_band_checks():
    with pytest.raises(DspError):
        demodulate(GRID, np.zeros(N), 40e6)


def test_band_config_masks_exclusion_zone():
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    m = BandConfig("b", 6.89e6, 0.5e6, 0.04e6).mask(freqs)
    inside = freqs[m]
    assert np.all(np.abs(inside - 6.89e6) > 0.04e6 - 1.0)
    assert np.all(np.abs(inside - 6.89e6) <= 0.5e6 + 1.0)
    # a bin on the exclusion zone's edge, up to float fuzz, stays out
    assert freqs[274] == pytest.approx(6.85e6, abs=1e-6) and not m[274]


def _flat_subtracted(level_t, level_r, level_b, n=513):
    """Flat target and reference spectra less a flat background, and a
    band 3 MHz +- 1 MHz without 3 MHz +- 0.1 MHz on their bins."""
    freqs = np.linspace(1e6, 5e6, n)
    flat = lambda level: np.full(n, level, dtype=float)
    mask = BandConfig("b", 3e6, 1e6, 0.1e6).mask(freqs)
    return flat(level_t) - flat(level_b), flat(level_r) - flat(level_b), mask


def test_postprocess_identity_is_zero_db():
    reduction_db, stderr_db, n_bins = postprocess(*_flat_subtracted(1.3, 1.3, 0.3))
    assert reduction_db == pytest.approx(0.0, abs=1e-12)
    assert stderr_db == pytest.approx(0.0, abs=1e-12)
    assert n_bins == 232  # bins 128-384 of 7812.5 Hz, less 244-268


def test_postprocess_recovers_constructed_reduction():
    # target = reference * 10^(-0.371) + background
    reduction_db, _, _ = postprocess(*_flat_subtracted(1.0 * 10 ** (-0.371) + 0.3, 1.0 + 0.3, 0.3))
    assert reduction_db == pytest.approx(3.71, abs=1e-9)


def test_postprocess_degenerate_subtraction():
    with pytest.raises(DegenerateSubtractionError):
        postprocess(*_flat_subtracted(1.0, 0.3, 0.3))


def test_postprocess_needs_two_bins():
    t, r, mask = _flat_subtracted(1.3, 1.3, 0.3)
    with pytest.raises(DspError, match="at least two bins"):
        postprocess(t, r, mask & (np.cumsum(mask) == 1))


def test_demod_chain_passband():
    chain = demod_measurement_chain()
    freqs = np.fft.rfftfreq(N, 1.0 / FS)
    h = chain_response(chain, freqs, FS)
    band = (freqs > 2.5e6) & (freqs < 4e6)
    gain_db = 20 * np.log10(np.abs(h[band]))
    assert np.all(np.abs(gain_db - 20.0) < 0.5)


CHAIN_FRAMES = range(5, 8)


def _chain_context(preset, patch=None):
    """The run context of a preset and the target streams of CHAIN_FRAMES."""
    ctx = runner._HeterodyneContext(merge_config(preset_config(preset), patch or {}))
    return ctx, ChunkStreams(ctx.cfg.seed, RUN_TARGET, PORTS)


def _photocurrent_rows(seed):
    """White rows under a beat note 100 times their rms at 10 MHz, the
    dynamic range the carriers give the chain's input."""
    beat = 100.0 * np.cos(2.0 * np.pi * 10e6 * GRID.times())
    return np.stack(list(_white_frames(len(CHAIN_FRAMES), seed=seed))) + beat


def test_chain_steps_on_a_block_equal_each_frame():
    # the runner feeds blocks of frames through its chain on rfft bins;
    # each row must match the frame processed alone, bit for bit
    block = _photocurrent_rows(12)
    for preset in ("fig3-raw", "fig4-demod"):
        ctx, streams = _chain_context(preset)

        def chain(x, frames):
            noise = ctx._normals("target", streams, frames)
            v = [hamming_from_bins(r) for r in ctx._rows("target", noise, x)]
            return auto_periodogram(v[0], ctx.wnorm), cross_periodogram(v[0], v[-1], ctx.wnorm)

        auto_b, cross_b = chain(block, CHAIN_FRAMES)
        for row, i in enumerate(CHAIN_FRAMES):
            auto_1, cross_1 = chain(block[row : row + 1], range(i, i + 1))
            assert np.array_equal(auto_b[row], auto_1[0]), preset
            assert np.array_equal(cross_b[row], cross_1[0]), preset


@pytest.mark.parametrize(
    "preset, patch",
    [
        ("fig3-raw", {}),
        ("fig4-demod", {}),
        ("fig4-demod", {"measurement": {"arm_noise_rel_db": None, "arm_noise_excess_rel_db": None}}),
    ],
    ids=["raw", "demod", "demod-without-arm-noise"],
)
def test_chain_on_bins_matches_the_time_domain_reference(preset, patch):
    # The runner's chain on rfft bins against the time-domain chain of
    # the oracles: each filter through irfft, the arm noise added in time
    # and the window applied in time, over the same arm-noise draws.
    ctx, streams = _chain_context(preset, patch)
    x = _photocurrent_rows(13)
    noise = ctx._normals("target", streams, CHAIN_FRAMES)
    got = [hamming_from_bins(r) for r in ctx._rows("target", noise, x)]
    window = hamming_window(N)[0]
    if preset == "fig3-raw":
        want = [frame_spectrum(filter_frame(x, ctx.chain_h), window)]
    else:
        base = mix_down(x, ctx.lo, ctx.lpf_h)
        sigma = ctx.arm_sigma["target"]
        assert (sigma > 0.0) == (not patch)
        want = []
        for port in (PORT_ARM1, PORT_ARM2):
            noise = [streams.generator(i, port).normal(0.0, sigma, N) for i in CHAIN_FRAMES]
            y = base + np.stack(noise) if sigma > 0.0 else base
            want.append(frame_spectrum(filter_frame(y, ctx.post_h), window))
    assert len(got) == len(want)
    for v, w in zip(got, want):
        assert v.shape == w.shape
        assert np.max(np.abs(v - w)) <= 1e-12 * np.max(np.abs(w))


@pytest.mark.parametrize("n", [16, 5000, 4998])
def test_window_taps_on_bins_equal_the_windowed_rfft(n):
    # The periodic window's three taps must reproduce rfft(w x), both ends
    # of the rfft layout included (n = 4998 has an odd half length).
    x = np.random.default_rng(n).standard_normal((3, n))
    window, wnorm = hamming_window(n)
    want = frame_spectrum(x, window)
    got = hamming_from_bins(np.fft.rfft(x))
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # periodic: w(t) = w(n - t), and the power sum is n (0.54^2 + 0.46^2 / 2)
    assert np.allclose(window[1:], window[:0:-1], rtol=0, atol=1e-15)
    assert wnorm == pytest.approx(n * (0.54**2 + 0.46**2 / 2), rel=1e-12)


def _moments_with_end_wraps(q: np.ndarray) -> np.ndarray:
    """Row sums of |Q_e|^2, Re(Q_e conj Q_{e+1}) and Re(Q_e conj Q_{e+2})
    over bins e = -1..w of rows Q of w bins, extended as a real row's rfft
    layout wraps them, zero past the last e each has."""
    w = q.shape[-1]
    ext = np.concatenate((np.conj(q[:, 1:2]), q, np.conj(q[:, -2:-1])), axis=1)
    out = np.zeros((3, w + 2))
    for lag in range(3):
        for e in range(w + 2 - lag):
            out[lag, e] = np.sum(np.real(ext[:, e] * np.conj(ext[:, e + lag])))
    return out


@pytest.mark.parametrize("width, live", [(12, 9), (12, 12)], ids=["short-of-nyquist", "reaching-nyquist"])
def test_moment_map_equals_the_summed_periodograms_of_the_scaled_bins(width, live):
    # Rows of bins Q, nonzero on bins 0..live-1, scaled by real gains g:
    # the map of Q's summed moments must be the sum over rows of the
    # windowed periodograms of g Q, the window's end wraps included.
    gen = np.random.default_rng(width + live)
    q = np.zeros((5, width), dtype=complex)
    q[:, :live] = gen.standard_normal((5, live)) + 1j * gen.standard_normal((5, live))
    gains = gen.standard_normal((2, width))
    wnorm = hamming_window(2 * (width - 1))[1]
    got = hamming_power_from_moments(_moments_with_end_wraps(q), gains, wnorm)
    assert got.shape == (2, width)
    for g, p in zip(gains, got):
        want = auto_periodogram(hamming_from_bins(g * q), wnorm).sum(axis=0)
        assert np.max(np.abs(p - want)) <= 1e-13 * np.max(want)
