"""Test oracles: first-order models of the balanced output, and one-frame
filter, demodulation and averaged-spectrum estimators built from the
package's per-frame measurement steps."""

from __future__ import annotations

import numpy as np

from sqzbeat.dsp import (
    DspError,
    FilterSpec,
    SpectrumEstimate,
    auto_periodogram,
    chain_response,
    cross_periodogram,
    demod_lpf_spec,
    filter_frame,
    frame_spectrum,
    hamming_window,
    local_oscillator,
    mix_down,
)
from sqzbeat.fields import FrequencyGrid, SqueezerSpec, quadrature_series
from sqzbeat.interferometer import (
    BeamSpec,
    OpticalPath,
    PhotocurrentTrace,
    phase_series,
    pickoff_noise_field,
)
from sqzbeat.rng import substream


def linearized_output(
    grid: FrequencyGrid,
    beams: tuple[BeamSpec, BeamSpec],
    paths: tuple[OpticalPath, OpticalPath],
    seed,
    extra_phase: np.ndarray | None = None,
) -> PhotocurrentTrace:
    """First-order model of the balanced output (unit quantum efficiency).

    Emits the classical beat plus sqrt(2) E_other times the noise
    quadrature of each beam read at the opposing carrier frequency and
    angle.  Uses the same seed layout as ``compose_beam`` on
    ``substream(seed, 0)`` and ``substream(seed, 1)``, so the residual
    against the exact product isolates the dropped second-order terms.
    """
    b1, b2 = beams
    t = grid.times()
    theta1 = phase_series(grid, b1)
    theta2 = phase_series(grid, b2, extra_phase)
    beat_hz = b2.carrier_freq_hz - b1.carrier_freq_hz

    n1 = pickoff_noise_field(grid, paths[0], substream(seed, 0))
    n2 = pickoff_noise_field(grid, paths[1], substream(seed, 1))
    qa = quadrature_series(n1, b2.carrier_freq_hz)
    qb = quadrature_series(n2, b1.carrier_freq_hz)

    dp = 2.0 * b1.amplitude * b2.amplitude * np.cos(2.0 * np.pi * beat_hz * t + theta2 - theta1)
    root2 = np.sqrt(2.0)
    dp = dp + root2 * b2.amplitude * qa.at_angle(-b2.static_phase_rad)
    dp = dp + root2 * b1.amplitude * qb.at_angle(-b1.static_phase_rad)
    dp = dp - dp.mean()
    return PhotocurrentTrace(dp, grid)


def straightforward_variant(
    grid: FrequencyGrid,
    beams: tuple[BeamSpec, BeamSpec],
    squeezers: tuple[SqueezerSpec | None, SqueezerSpec | None],
    seed,
    extra_phase: np.ndarray | None = None,
) -> PhotocurrentTrace:
    """First-order output when each beam carries squeezing at its own
    carrier frequency.

    The noise envelopes then ride on cos/sin of the beat instead of
    appearing at baseband, which folds anti-squeezed components from
    twice the beat frequency into the phase quadrature.
    """
    b1, b2 = beams
    t = grid.times()
    theta1 = phase_series(grid, b1)
    theta2 = phase_series(grid, b2, extra_phase)
    beat = 2.0 * np.pi * (b2.carrier_freq_hz - b1.carrier_freq_hz) * t

    n1 = pickoff_noise_field(grid, OpticalPath(1.0, squeezers[0]), substream(seed, 0))
    n2 = pickoff_noise_field(grid, OpticalPath(1.0, squeezers[1]), substream(seed, 1))
    qa = quadrature_series(n1, b1.carrier_freq_hz)
    qb = quadrature_series(n2, b2.carrier_freq_hz)

    root2 = np.sqrt(2.0)
    dp = 2.0 * b1.amplitude * b2.amplitude * np.cos(beat + theta2 - theta1)
    dp = dp + root2 * b2.amplitude * (qa.a1 * np.cos(beat) - qa.a2 * np.sin(beat))
    dp = dp + root2 * b1.amplitude * (qb.a1 * np.cos(beat) + qb.a2 * np.sin(beat))
    dp = dp - dp.mean()
    return PhotocurrentTrace(dp, grid)


def apply_filter_chain(trace: PhotocurrentTrace, chain: list[FilterSpec]) -> PhotocurrentTrace:
    """Run the cascaded chain over one frame with exactly the response
    ``chain_response`` returns."""
    fs = trace.grid.sample_rate
    h = chain_response(chain, np.fft.rfftfreq(trace.grid.n_samples, d=1.0 / fs), fs)
    return PhotocurrentTrace(filter_frame(trace.samples, h), trace.grid)


def demodulate(
    trace: PhotocurrentTrace, lo_freq_hz: float, lo_phase_rad: float = np.pi / 2.0
) -> PhotocurrentTrace:
    """Mix with a unit local oscillator and low-pass the product.

    y = LPF[x * cos(2 pi f_lo t + phase)], so a flat input PSD p lands at
    (p + p) / 4 in the baseband and, at phase pi/2 against the beat, the
    classical beat drops out while the phase quadrature survives.
    """
    grid = trace.grid
    fs = grid.sample_rate
    if not 0.0 < lo_freq_hz < fs / 4.0:
        raise DspError("lo_freq_hz must stay below a quarter of the sample rate")
    freqs = np.fft.rfftfreq(grid.n_samples, d=1.0 / fs)
    h = chain_response([demod_lpf_spec(lo_freq_hz)], freqs, fs)
    lo = local_oscillator(grid, lo_freq_hz, lo_phase_rad)
    return PhotocurrentTrace(mix_down(trace.samples, lo, h), grid)


def _frame_array(frame) -> np.ndarray:
    if isinstance(frame, PhotocurrentTrace):
        return np.asarray(frame.samples, dtype=float)
    return np.asarray(frame, dtype=float)


def _average_periodograms(streams, sample_rate, periodogram, kind: str) -> SpectrumEstimate:
    """Average ``periodogram`` over aligned frame streams, frame by frame
    in order."""
    iters = [iter(s) for s in streams]
    acc = None
    count = 0
    while True:
        frames = [next(it, None) for it in iters]
        if all(f is None for f in frames):
            break
        if any(f is None for f in frames):
            raise DspError("frame streams must be aligned")
        if sample_rate is None and isinstance(frames[0], PhotocurrentTrace):
            sample_rate = frames[0].grid.sample_rate
        xs = [_frame_array(f) for f in frames]
        if acc is None:
            n = len(xs[0])
            window, wnorm = hamming_window(n)
            acc = np.zeros(n // 2 + 1)
        if any(len(x) != n for x in xs):
            raise DspError("all frames must share one length")
        acc = acc + periodogram(*(frame_spectrum(x, window) for x in xs), wnorm)
        count += 1
    if count == 0:
        raise DspError("need at least one frame")
    if sample_rate is None:
        raise DspError("sample_rate is required for bare-array frames")
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    return SpectrumEstimate(freqs, acc / count, n_frames=count, kind=kind)


def welch_psd(frames, sample_rate: float | None = None) -> SpectrumEstimate:
    """Hamming-windowed averaged periodogram over non-overlapping frames.

    The window is power-normalized, so a white input of PSD p estimates p
    without bias.  Frames are consumed and accumulated in order.
    """
    return _average_periodograms([frames], sample_rate, auto_periodogram, "auto")


def cross_spectrum(frames1, frames2, sample_rate: float | None = None) -> SpectrumEstimate:
    """Averaged Re(V1 conj(V2)) over frame-aligned streams.

    Shares the welch normalization, so a common signal converges to its
    PSD while independent noise decays as 1/sqrt(n_frames).
    """
    return _average_periodograms([frames1, frames2], sample_rate, cross_periodogram, "cross")
