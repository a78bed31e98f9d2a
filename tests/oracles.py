"""Test oracles: the loss chain a squeezer's spectrum passes to the
detector, first-order models of the balanced output, and the measurement
chain in the time domain: one-frame filter, demodulation and
averaged-spectrum estimators, the reference the runner's chain on rfft
bins is compared against."""

from __future__ import annotations

import numpy as np

from sqzbeat.dsp import (
    DspError,
    FilterSpec,
    auto_periodogram,
    chain_response,
    cross_periodogram,
    demod_lpf_spec,
    hamming_window,
    local_oscillator,
)
from sqzbeat.fields import FrequencyGrid, SqueezerSpec, quadrature_series
from sqzbeat.interferometer import pickoff_noise_field
from sqzbeat.rng import substream

from helpers import normals


def detected_squeezing(spec: SqueezerSpec, eps_hz, path_efficiency: float):
    """(s, a) pair seen by the detector after the injection loss chain.

    ``path_efficiency`` is the product of every power efficiency between
    the squeezer output and the photocurrent (pickoff reflectivity,
    detector quantum efficiency); each step mixes in vacuum, so a PSD p
    leaves it as eta p + 1 - eta.  Production folds eta into the escape
    efficiency instead (``ExperimentConfig.detected_squeezer``).
    """
    s, a = spec.squeezing_spectrum(eps_hz)
    return path_efficiency * s + (1.0 - path_efficiency), path_efficiency * a + (1.0 - path_efficiency)


def filter_frame(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Run a frame (or each row of a block) through a chain of
    precomputed response ``h``: circular convolution, back in time."""
    return np.fft.irfft(np.fft.rfft(x) * h, n=np.shape(x)[-1])


def mix_down(x: np.ndarray, lo: np.ndarray, lpf_h: np.ndarray) -> np.ndarray:
    """Mixer and low-pass of a frame or block: LPF[x * lo], in time."""
    return filter_frame(x * lo, lpf_h)


def frame_spectrum(x: np.ndarray, window: np.ndarray) -> np.ndarray:
    """Windowed spectrum V = rfft(w * x) of a frame or of each block row."""
    return np.fft.rfft(window * x)


def quadrature_at_angle(q: tuple[np.ndarray, np.ndarray], angle_rad: float) -> np.ndarray:
    """The quadrature a1 cos(angle) + a2 sin(angle) of a pair (a1, a2)."""
    a1, a2 = q
    return a1 * np.cos(angle_rad) + a2 * np.sin(angle_rad)


def linearized_output(
    grid: FrequencyGrid,
    carriers: tuple[tuple[float, float], tuple[float, float]],
    squeezers: tuple[SqueezerSpec | None, SqueezerSpec | None],
    seed,
) -> np.ndarray:
    """First-order model of the balanced output (unit quantum efficiency)
    of two beams, each ``carriers`` entry an (amplitude, frequency) pair.

    Emits the classical beat plus sqrt(2) E_other times the noise
    quadrature of each beam read at the opposing carrier frequency, at
    angle 0, since no carrier has a static phase.  Draws each beam's
    vacuum row from ``substream(seed, 0)`` and ``substream(seed, 1)``, as
    the tests feed ``compose_beam``, so on squeezed beams the residual
    against the exact product isolates the dropped second-order terms;
    ``compose_beam`` reads an unsqueezed beam's normals as time samples,
    the same distribution but another realization.
    """
    (e1, f1), (e2, f2) = carriers
    beat = 2.0 * np.pi * (f2 - f1) * grid.times()

    vac = (2, grid.n_samples)
    n1 = pickoff_noise_field(grid, squeezers[0], normals(substream(seed, 0), *vac))
    n2 = pickoff_noise_field(grid, squeezers[1], normals(substream(seed, 1), *vac))
    qa, _ = quadrature_series(grid, n1, f2)
    qb, _ = quadrature_series(grid, n2, f1)

    dp = 2.0 * e1 * e2 * np.cos(beat)
    root2 = np.sqrt(2.0)
    dp = dp + root2 * e2 * qa
    dp = dp + root2 * e1 * qb
    return dp - dp.mean()


def straightforward_variant(
    grid: FrequencyGrid,
    carriers: tuple[tuple[float, float], tuple[float, float]],
    squeezers: tuple[SqueezerSpec | None, SqueezerSpec | None],
    seed,
) -> np.ndarray:
    """First-order output when each beam carries squeezing at its own
    carrier frequency; ``carriers`` as in ``linearized_output``.

    The noise envelopes then ride on cos/sin of the beat instead of
    appearing at baseband, which folds anti-squeezed components from
    twice the beat frequency into the phase quadrature.
    """
    (e1, f1), (e2, f2) = carriers
    beat = 2.0 * np.pi * (f2 - f1) * grid.times()

    vac = (2, grid.n_samples)
    n1 = pickoff_noise_field(grid, squeezers[0], normals(substream(seed, 0), *vac))
    n2 = pickoff_noise_field(grid, squeezers[1], normals(substream(seed, 1), *vac))
    qa1, qa2 = quadrature_series(grid, n1, f1)
    qb1, qb2 = quadrature_series(grid, n2, f2)

    root2 = np.sqrt(2.0)
    dp = 2.0 * e1 * e2 * np.cos(beat)
    dp = dp + root2 * e2 * (qa1 * np.cos(beat) - qa2 * np.sin(beat))
    dp = dp + root2 * e1 * (qb1 * np.cos(beat) + qb2 * np.sin(beat))
    return dp - dp.mean()


def apply_filter_chain(grid: FrequencyGrid, x: np.ndarray, chain: list[FilterSpec]) -> np.ndarray:
    """Run the cascaded chain over one frame on ``grid`` with exactly the
    response ``chain_response`` returns."""
    fs = grid.sample_rate
    h = chain_response(chain, np.fft.rfftfreq(grid.n_samples, d=1.0 / fs), fs)
    return filter_frame(x, h)


def demodulate(
    grid: FrequencyGrid, x: np.ndarray, lo_freq_hz: float, lo_phase_rad: float = np.pi / 2.0
) -> np.ndarray:
    """Mix a frame on ``grid`` with a unit local oscillator and low-pass the product.

    y = LPF[x * cos(2 pi f_lo t + phase)], so a flat input PSD p lands at
    (p + p) / 4 in the baseband and, at phase pi/2 against the beat, the
    classical beat drops out while the phase quadrature survives.
    """
    fs = grid.sample_rate
    if not 0.0 < lo_freq_hz < fs / 4.0:
        raise DspError("lo_freq_hz must stay below a quarter of the sample rate")
    freqs = np.fft.rfftfreq(grid.n_samples, d=1.0 / fs)
    h = chain_response([demod_lpf_spec(lo_freq_hz)], freqs, fs)
    lo = local_oscillator(grid, lo_freq_hz, lo_phase_rad)
    return mix_down(x, lo, h)


def _average_periodograms(streams, sample_rate, periodogram) -> tuple[np.ndarray, np.ndarray]:
    """The rfft frequencies and the average of ``periodogram`` over
    aligned frame streams, taken frame by frame in order."""
    iters = [iter(s) for s in streams]
    acc = None
    count = 0
    while True:
        frames = [next(it, None) for it in iters]
        if all(f is None for f in frames):
            break
        if any(f is None for f in frames):
            raise DspError("frame streams must be aligned")
        xs = [np.asarray(f, dtype=float) for f in frames]
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
    freqs = np.fft.rfftfreq(n, d=1.0 / sample_rate)
    return freqs, acc / count


def welch_psd(frames, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """The rfft frequencies and the Hamming-windowed periodogram averaged
    over non-overlapping frames.

    The window is power-normalized, so a white input of PSD p estimates p
    without bias.  Frames are consumed and accumulated in order.
    """
    return _average_periodograms([frames], sample_rate, auto_periodogram)


def cross_spectrum(frames1, frames2, sample_rate: float) -> tuple[np.ndarray, np.ndarray]:
    """The rfft frequencies and Re(V1 conj(V2)) averaged over frame-aligned
    streams.

    Shares the welch normalization, so a common signal converges to its
    PSD while independent noise decays as 1/sqrt(n_frames).
    """
    return _average_periodograms([frames1, frames2], sample_rate, cross_periodogram)
