"""End-to-end preset execution: synthesis, detection, DSP, metrics, files.

A heterodyne run executes three acquisitions with independent seed
substreams: background (no light), reference (vacuum ports) and target
(squeezers on).  A pump sweep executes one acquisition whose vacuum
frames every pump power squeezes.  Both average periodograms over
frames, and both go through one frame engine, split run -> chunk ->
block:

- run: one context (``_HeterodyneContext`` or ``_SweepContext``) holds
  everything that does not change from frame to frame (beams and their
  carrier terms, filter responses, local oscillator, squeezers), built
  once.  Its block step ``periodograms(blocks)`` runs every acquisition
  of a chunk's frames and yields the periodograms of each block of
  frames keyed by acquisition (a sweep: their moments, keyed
  "moments"), one row per frame, then a heterodyne chunk's per-frame
  band-mean products, from whose sums ``dsp.postprocess`` takes each
  band's reduction and standard error.
- chunk: CHUNK_FRAMES frames of every acquisition, the one job a worker
  pool maps over (``_chunk_sum``), so a run of up to CHUNK_FRAMES frames
  starts no pool.  A chunk seeds one base generator per (acquisition,
  port) it draws (``rng.ChunkStreams``) and draws every frame's stream
  through one reused generator, jumped from its port's base.  Chunk
  sums are folded key by key in chunk order, so the emitted numbers are
  bit-identical for any worker count.
- block: BLOCK_FRAMES consecutive frames of a chunk go through synthesis,
  detection and the measurement chain together, one row per frame, so
  each FFT is one batched call instead of one per frame.  A block draws
  first: each port its acquisition reads fills one array of standard
  normals (``ChunkStreams.fill``), and synthesis, detection and the
  chain then transform those arrays.  Blocks stay at 4 frames.  One
  frame at a time ran 1.24x slower than 4 on ``fig4-demod`` and 1.15x
  on ``fig3-raw``, and 8 frames ran like 4, while every (frames, n)
  temporary grows with the block: peak RSS read 38.1, 40.4, 43.3 and
  48.7 MB at 1, 4, 8 and 16 frames (2 vCPUs, numpy 2.4.6).

Blocks do not change a single output bit.  Each noise row still draws
from its own (run, frame, port) stream, set up bit for bit as its own
jumped generator would be, elementwise steps do not care
about the row layout, numpy's batched FFTs return every row's bits as a
one-frame call does (numpy 2.4; the block tests in ``tests/`` check it),
and every row is still added to the chunk sums
frame by frame in frame order.  Summaries hold the band-averaged
reductions next to their closed-form budget predictions.

Synthesis follows stream layout 7 (``rng``; heterodyne and sweep
summaries record ``stream_layout=7``).  The context takes each beam's
squeezer as the detector sees it (``cfg.detected_squeezer``: angle,
jitter and path loss R * qe, the spec ``budgets.band_budget`` reads too).
Each beam reads one vacuum row: the reference's unsqueezed ones as time
samples, the target's squeezed ones as bins squeezed by that spec, a
jittered squeezer turned row by row by its drawn angle (one standard
normal per frame times the rms).  The carriers,
scaled by sqrt(qe), join each beam's noise in the time domain.  Each demod
arm draws its readout noise once per frame, the drive-induced excess
added in quadrature on lit acquisitions only.  A ``fig4-demod`` frame
index opens 15 streams and draws 95000 normals, ``fig3-raw`` 9 and
65000.  A sweep frame draws only the 2m + 1 sidebands its quadratures
read (one stream and 2598 normals) and yields the moments of the vacuum
quadratures' bins, with no FFT: at angle 0 a pump power scales those
bins by its gains and the periodic Hamming window is three taps on the
bins, so each power's spectra come from the moments' sums once per run.
A heterodyne block windows its rows with the same taps after one rfft
of the photocurrent (a raw readout) or of its product with the local
oscillator and of each arm's readout noise (a demod readout): every
filter acts on the bins, so no row goes back to the time domain.
"""

from __future__ import annotations

import numbers
import os
import time
from dataclasses import dataclass, replace, field
from functools import partial

import numpy as np

from . import rng as rngs
from .budgets import band_budget
from .config import (
    Config,
    ConfigError,
    ExperimentConfig,
    SweepConfig,
    config_hash,
    preset_config,
    validate_config,
)
from .dsp import (
    auto_periodogram,
    chain_floor,
    chain_response,
    compensate_spectrum,
    cross_periodogram,
    demod_lpf_spec,
    demod_measurement_chain,
    hamming_from_bins,
    hamming_power_from_moments,
    hamming_window,
    local_oscillator,
    postprocess,
    raw_measurement_chain,
)
from .fields import SqueezerSpec, sideband_gains, vacuum_rows
from .interferometer import (
    BeamCarrier,
    balanced_detect,
    classical_phase_variance,
    compose_beam,
    detector_readout,
    unsqueezed_shot_psd,
)

CHUNK_FRAMES = 128
BLOCK_FRAMES = 4
RUN_NAMES = ("background", "reference", "target")
_RUN_IDS = {
    "background": rngs.RUN_BACKGROUND,
    "reference": rngs.RUN_REFERENCE,
    "target": rngs.RUN_TARGET,
}
WORKERS_ENV = "SQZBEAT_WORKERS"
CLAMP_DB = -120.0  # the level _db_rel holds nonpositive and negligible values at


@dataclass(frozen=True)
class BandResult:
    label: str
    center_hz: float
    reduction_db: float
    stderr_db: float
    predicted_db: float
    n_bins: int


@dataclass
class RunSummary:
    name: str
    kind: str
    measurement: str
    config_hash: str
    seed: int
    frames: int
    scheme: str | None = None  # heterodyne runs only
    bands: list[BandResult] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def summary_lines(self) -> list[str]:
        # Wall time stays out of the file so reruns are byte-identical.
        lines = [
            f"preset={self.name}",
            f"kind={self.kind}",
            *([f"scheme={self.scheme}"] if self.scheme is not None else []),
            f"measurement={self.measurement}",
            f"config_hash={self.config_hash}",
            f"seed={self.seed}",
            f"frames={self.frames}",
        ]
        for b in self.bands:
            prefix = f"band.{b.label}"
            lines.append(f"{prefix}.center_hz={b.center_hz:.1f}")
            lines.append(f"{prefix}.reduction_db={b.reduction_db:.4f}")
            lines.append(f"{prefix}.stderr_db={b.stderr_db:.4f}")
            lines.append(f"{prefix}.predicted_db={b.predicted_db:.4f}")
            lines.append(f"{prefix}.n_bins={b.n_bins}")
        for key in sorted(self.extras):
            lines.append(f"{key}={self.extras[key]}")
        return lines


def resolve_workers(workers: int | None) -> int:
    name, value = "workers", workers
    if workers is None:
        name, value = WORKERS_ENV, os.environ.get(WORKERS_ENV) or 1
    elif isinstance(workers, bool) or not isinstance(workers, numbers.Integral):
        raise ConfigError(name, f"must be an integer, got {value!r}")  # as a config's integers are
    try:
        count = int(value)
    except ValueError:
        raise ConfigError(name, f"must be an integer, got {value!r}") from None
    if count < 1:
        raise ConfigError(name, f"must be >= 1, got {value!r}")
    return count


class _HeterodyneContext:
    """Per-run immutable state for frame synthesis and accumulation of the
    three acquisitions, background, reference and target.

    Built once per run; a pool sends it to its workers with each chunk.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.grid = cfg.grid.frequency_grid()
        b = cfg.beams
        c1, c2 = cfg.carrier_freqs()
        d = cfg.detector
        self.carrier1 = BeamCarrier(self.grid, b.e1, c1, d.quantum_efficiency)
        self.carrier2 = BeamCarrier(self.grid, b.e2, c2, d.quantum_efficiency, b.mod_freq_hz, b.mod_depth_rad)
        self.ref_floor = unsqueezed_shot_psd(b.e1, b.e2, d.quantum_efficiency)
        self.phase_sigma = np.sqrt(
            classical_phase_variance(b.classical_fraction, b.e1, b.e2, d.quantum_efficiency)
        )
        # Each beam's squeezer as the detector sees it: the target's as
        # configured, none on the reference.
        squeezed = (cfg.detected_squeezer(0), cfg.detected_squeezer(1))
        self.squeezers = {"reference": (None, None), "target": squeezed}
        n = self.grid.n_samples
        fs = self.grid.sample_rate
        self.freqs = np.fft.rfftfreq(n, d=1.0 / fs)
        self.wnorm = hamming_window(n)[1]
        ms = cfg.measurement
        self.measurement = ms.kind
        # The one periodogram reported: of both demod arms, or of the raw beat or arm 1.
        self.estimate = "cross" if ms.kind == "demod" else "auto"
        # The one chain list: the runner filters with it and compensation
        # divides out its full response, evaluated once per run.  A demod
        # arm filters in two stages around its readout noise, the mixer
        # low-pass before it and the rest after.
        if ms.kind == "raw":
            chain = raw_measurement_chain()
            self.arm_ports = ()
        else:
            self.arm_ports = (rngs.PORT_ARM1, rngs.PORT_ARM2)[: 2 if self.estimate == "cross" else 1]
            chain = [demod_lpf_spec(b.beat_freq_hz)] + demod_measurement_chain()
            self.lpf_h = chain_response(chain[:1], self.freqs, fs)
            self.post_h = chain_response(chain[1:], self.freqs, fs)
            self.lo = local_oscillator(self.grid, b.beat_freq_hz, ms.lo_phase_rad)
            demod_shot = self.ref_floor / 2.0
            arm = _db_power(ms.arm_noise_rel_db)
            lit = arm + _db_power(ms.arm_noise_excess_rel_db)
            # Each arm's readout noise is one draw.  Drive-induced excess
            # noise needs light, so dark frames carry the arm noise alone.
            self.arm_sigma = {
                "background": np.sqrt(arm * demod_shot),
                "reference": np.sqrt(lit * demod_shot),
                "target": np.sqrt(lit * demod_shot),
            }
        self.chain_h = chain_response(chain, self.freqs, fs)
        # A column of these (bins x bands) weights gives a band's mean of a
        # compensated spectrum: its mask over its bin count over max(|h|^2, floor).
        self.masks = np.array([band.mask(self.freqs) for band in ms.bands])
        power, floor = chain_floor(self.chain_h)
        self.band_weights = self.masks.T / self.masks.sum(axis=1) / np.maximum(power, floor)[:, None]
        # The stream layout (``rng``): the shape of the standard normals a
        # frame of each acquisition draws, by port, only where it reads
        # them.  A beam's vacuum row is real parts, then imaginary parts;
        # the target draws one angle per jittered squeezer.
        jittered = sum(sq is not None and sq.jitter_rms_rad > 0 for sq in squeezed)
        self.draws = {}
        for run_name in RUN_NAMES:
            dark = run_name == "background"
            shapes = self.draws[run_name] = {} if dark else {rngs.PORT_BEAM1: (2, n), rngs.PORT_BEAM2: (2, n)}
            if d.electronic_noise_rel_db is not None:
                shapes[rngs.PORT_DETECTOR] = (n,)
            if not dark and self.phase_sigma > 0.0:
                shapes[rngs.PORT_PHASE] = (n,)
            if run_name == "target" and jittered:
                shapes[rngs.PORT_JITTER] = (jittered,)
            if self.arm_ports and self.arm_sigma[run_name] > 0.0:
                shapes.update(dict.fromkeys(self.arm_ports, (n,)))

    # -- block synthesis ------------------------------------------------

    def _normals(self, run_name: str, streams: rngs.ChunkStreams, frames: range) -> dict[int, np.ndarray]:
        """The standard normals of a block of one acquisition, by port, one
        row per frame: each port the acquisition reads, drawn once."""
        return {
            port: streams.fill(frames, port, np.empty((len(frames), *shape)))
            for port, shape in self.draws[run_name].items()
        }

    def _photocurrent(self, run_name: str, frames: range, noise: dict[int, np.ndarray]) -> np.ndarray:
        """Detector output of a block of frames, one row per frame, from the
        block's normals ``noise``.  Each beam's normals leave ``noise`` as
        the beam is composed, so each is freed once its beam is built."""
        det_noise = noise.get(rngs.PORT_DETECTOR)
        if run_name == "background":
            dark = np.zeros((len(frames), self.grid.n_samples))
            return detector_readout(dark, self.cfg.detector, det_noise, self.ref_floor)
        extra = noise.get(rngs.PORT_PHASE)
        if extra is not None:
            extra *= self.phase_sigma
        sq1, sq2 = self.squeezers[run_name]
        # One jitter normal per frame and jittered squeezer, in beam order.
        jitter = iter(noise[rngs.PORT_JITTER].T) if rngs.PORT_JITTER in noise else None
        z1, z2 = (next(jitter) if sq is not None and sq.jitter_rms_rad > 0 else None for sq in (sq1, sq2))
        e1 = compose_beam(self.carrier1, sq1, noise.pop(rngs.PORT_BEAM1), jitter=z1)
        e2 = compose_beam(self.carrier2, sq2, noise.pop(rngs.PORT_BEAM2), extra, z2)
        return balanced_detect(self.grid, e1, e2, self.cfg.detector, det_noise, reference_shot_psd=self.ref_floor)

    # -- measurement -----------------------------------------------------

    def _rows(self, run_name: str, noise: dict[int, np.ndarray], x: np.ndarray) -> list[np.ndarray]:
        """The rfft bins of a block's reported rows: the filtered raw beat, or
        the readout arms (arm 1 alone for an auto-spectrum): the mixer's product
        in time, then every filter and the arms' readout noise (from the
        block's normals ``noise``, where drawn) on the bins."""
        if self.measurement == "raw":
            return [np.fft.rfft(x) * self.chain_h]
        base = np.fft.rfft(x * self.lo) * self.lpf_h
        sigma = self.arm_sigma[run_name]
        arms = []
        for port in self.arm_ports:
            y = base
            if port in noise:
                y = y + np.fft.rfft(noise[port] * sigma)
            arms.append(y * self.post_h)
        return arms

    def periodograms(self, blocks: list[range]):
        """Reported periodogram rows of each block of frames, one
        acquisition after another, keyed by acquisition, then, keyed
        "bands", v v^T of each frame and band, v = (1, B, R, T) its
        background, reference and target band means.  An acquisition that
        draws no port is dark with no readout noise, exact zeros: it runs
        no block and yields no row, and its band means are zeros."""
        periodogram = cross_periodogram if self.estimate == "cross" else auto_periodogram
        first = blocks[0].start
        v = np.zeros((blocks[-1].stop - first, len(self.masks), 4))
        v[..., 0] = 1.0
        for i, run_name in enumerate(RUN_NAMES, 1):
            if not self.draws[run_name]:
                yield {run_name: np.zeros((0, len(self.freqs)))}
                continue
            streams = rngs.ChunkStreams(self.cfg.seed, _RUN_IDS[run_name], tuple(self.draws[run_name]))
            for frames in blocks:
                noise = self._normals(run_name, streams, frames)
                x = self._photocurrent(run_name, frames, noise)
                spectra = [hamming_from_bins(r) for r in self._rows(run_name, noise, x)]
                # Freed here, not when the next block replaces them: two blocks'
                # normals held at once cost 0.7 MB of peak RSS on fig4-demod,
                # and the beams' normals kept to the block's end 0.8 MB more.
                del noise
                rows = periodogram(*spectra, self.wnorm)
                v[frames.start - first : frames.stop - first, :, i] = rows @ self.band_weights
                yield {run_name: rows}
        yield {"bands": v[..., :, None] * v[..., None, :]}


class _SweepContext:
    """Per-run state of a pump sweep: one squeezer per pump power, and one
    acquisition of vacuum frames that every power squeezes about the anchor.

    Each frame's vacuum is drawn once and serves every pump power: common
    random numbers for the sweep (Glasserman, *Monte Carlo Methods in
    Financial Engineering*, 2003).  Each power's spectra keep their
    marginal statistics, and the monotone check compares the powers on
    the same noise.

    The quadratures read only the 2m + 1 sidebands within the anchor's
    margin, so a frame draws those alone, in offset order -m..m.  With z
    the vacuum sidebands, ``quadrature_series`` would give quadratures of
    the vacuum whose rfft bins are, for j = 0..m,

        Q1_j = (n / sqrt 2) (z_{-j} + conj z_{+j})
        Q2_j = (n / (sqrt 2 i)) (z_{-j} - conj z_{+j})

    and zero above m.  At angle 0, with gains even in the offset, a power
    squeezes them to sqrt(S_minus) Q1 and sqrt(S_plus) Q2, so a frame
    yields only the moments of its Q, and ``spectra`` maps their sums
    through each power's gains (``dsp.hamming_power_from_moments``).
    """

    def __init__(self, cfg: SweepConfig):
        ow = cfg.opo_sweep
        self.seed = cfg.seed
        self.grid = cfg.grid.frequency_grid()
        n = self.grid.n_samples
        self.freqs = np.fft.rfftfreq(n, d=1.0 / self.grid.sample_rate)
        self.wnorm = hamming_window(n)[1]
        self.specs = [
            SqueezerSpec(
                pump_ratio=float(np.sqrt(power / ow.threshold_mw)),
                hwhm_hz=ow.hwhm_hz,
                escape_efficiency=ow.escape_efficiency,
                center_freq_hz=ow.anchor_hz,
            )
            for power in ow.pump_powers_mw
        ]
        self.m = len(sideband_gains(self.grid, self.specs[0])[0]) // 2
        # Bins 0..m+1 can be nonzero; the end wrap reads one zero bin past them, short of Nyquist.
        self.width = min(self.m + 3, n // 2 + 1)

    def periodograms(self, blocks: list[range]):
        """The moments of both vacuum quadratures' bins -1..width of each
        block, keyed "moments", one (2, 3, width + 2) row per frame."""
        m, w = self.m, self.width
        streams = rngs.ChunkStreams(self.seed, rngs.RUN_SWEEP, (0,))
        rows = max(map(len, blocks))
        normals = np.empty((rows, 2, 2 * m + 1))  # real parts, then imaginary parts
        q = np.zeros((rows, 2, w + 2), dtype=complex)  # bins above m stay zero in every block
        for frames in blocks:
            k = len(frames)
            # The vacuum's scale sqrt(0.5 / n) times n / sqrt 2.
            z = vacuum_rows(streams.fill(frames, 0, normals[:k]), np.sqrt(self.grid.n_samples) / 2.0)
            lower, upper = z[:, m::-1], np.conj(z[:, m:])  # z_{-j} and conj z_{+j}, j = 0..m
            np.add(lower, upper, out=q[:k, 0, 1 : m + 2])
            np.multiply(upper - lower, 1j, out=q[:k, 1, 1 : m + 2])
            # The window's end wraps, as ``hamming_from_bins`` reads them.
            q[:k, :, 0] = np.conj(q[:k, :, 2])
            q[:k, :, -1] = np.conj(q[:k, :, -3])
            moments = np.zeros((k, 2, 3, w + 2))
            for lag in range(3):
                moments[:, :, lag, : w + 2 - lag] = (q[:k, :, lag:] * np.conj(q[:k, :, : w + 2 - lag])).real
            yield {"moments": moments}

    def spectra(self, moments: np.ndarray, spec: SqueezerSpec) -> np.ndarray:
        """One power's squeezed and anti-squeezed periodogram sums, from the frames' summed moments."""
        out = np.zeros((2, len(self.freqs)))
        gains = np.sqrt(spec.squeezing_spectrum(np.arange(self.width) * self.grid.bin_hz))
        out[:, : self.width] = hamming_power_from_moments(moments, gains, self.wnorm)
        return out


def _chunk_sum(ctx, start: int, stop: int) -> dict:
    """Sums by key of the rows of frames [start, stop) of every acquisition
    of a context, built in blocks of BLOCK_FRAMES and added frame by frame
    in frame order.  The block step is a generator so a block's arrays live
    until the next block replaces them: freed at every block, they cost 40k
    minor page faults per 128 ``fig3-raw`` frames instead of 2k, and 10-15%
    of the time."""
    blocks = [range(f, min(f + BLOCK_FRAMES, stop)) for f in range(start, stop, BLOCK_FRAMES)]
    acc = {}
    for parts in ctx.periodograms(blocks):
        for k, rows in parts.items():
            total = acc.setdefault(k, np.zeros(rows.shape[1:]))
            for row in rows:
                total += row
    return acc


def _fold(parts) -> dict:
    totals = {}
    for part in parts:  # fixed fold order keeps sums bit-stable
        for k, v in part.items():
            total = totals.setdefault(k, np.zeros_like(v))
            total += v
    return totals


def _accumulate_runs(ctx, n_frames: int, workers: int) -> dict:
    """Sums by key of every chunk of a context's frames, on one pool for
    the whole run."""
    jobs = [(s, min(s + CHUNK_FRAMES, n_frames)) for s in range(0, n_frames, CHUNK_FRAMES)]
    # Freeing one untouched 2 MB array raises glibc's mmap threshold to
    # 2 MB and its heap trim threshold to 4 MB for the process.  Below
    # them each block's freed temporaries go back to the OS and fault in
    # again.  Minor faults per call in the benchmark's loop (median of 12
    # calls; 128-frame fig3-raw and fig4-demod, 256-frame pump sweep):
    #   no array      10583   16075   1717
    #   1 MB              0    1238      0
    #   2 MB              0       0      0
    # 4 MB also reads 0, but lets the sweep's peak RSS grow from 40.1 to
    # 41.3-42.1 MB over 30 s runs.
    np.empty(1 << 18)
    # A pool starts every worker at its first submit: no more workers than jobs.
    workers = min(workers, len(jobs))
    if workers <= 1:
        return _fold(_chunk_sum(ctx, *job) for job in jobs)
    # Imported here: a one-worker run never pays for the pool's modules.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as ex:
        return _fold(ex.map(partial(_chunk_sum, ctx), *zip(*jobs)))


def _write_spectrum(path: str, rows: str, values_db: np.ndarray, header: dict):
    """Write one spectrum file; ``rows`` is the run's template of its data
    lines, ``freq,%.6f`` per bin.  The header ends with the count of rows at the clamp."""
    header = dict(header, clamped_bins=np.count_nonzero(values_db <= CLAMP_DB))
    lines = [f"# {k}={v}" for k, v in header.items()]
    # One % over Python floats formats every value at once, to the text
    # an f-string per line gives.
    lines += ["freq_hz,psd_db_rel_vacuum", rows % tuple(values_db.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _db_power(db: float | None) -> float:
    """Linear power of a level in dB; an absent level is 0."""
    return 0.0 if db is None else 10.0 ** (db / 10.0)


def _db_rel(values: np.ndarray, norm: float) -> np.ndarray:
    safe = np.maximum(values / norm, 10.0 ** (CLAMP_DB / 10.0))
    return 10.0 * np.log10(safe)


def _summary(cfg: Config, measurement: str, frames: int, **results) -> RunSummary:
    """A run's summary under the header every run kind shares."""
    return RunSummary(
        name=cfg.name,
        kind=cfg.kind,
        measurement=measurement,
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        frames=frames,
        **results,
    )


def _run_heterodyne(cfg: ExperimentConfig, workers: int) -> tuple[RunSummary, np.ndarray, list]:
    ctx = _HeterodyneContext(cfg)
    frames = cfg.grid.frames
    freqs = ctx.freqs
    sums = _accumulate_runs(ctx, frames, workers)
    means = {run_name: sums[run_name] / frames for run_name in RUN_NAMES}
    background, reference, target = compensate_spectrum(np.stack(list(means.values())), ctx.chain_h)
    subtracted = {"reference": reference - background, "target": target - background}

    bands = [
        BandResult(b.label, b.center_hz, *postprocess(s), band_budget(cfg, freqs[m]).reduction_db, int(m.sum()))
        for b, m, s in zip(cfg.measurement.bands, ctx.masks, sums["bands"])
    ]

    # Raw spectra against the reference level in the normalization band;
    # processed ones against the subtracted shot level in the analysis bands.
    lo, hi = cfg.measurement.normalization_band_hz
    header = {"normalization_band_hz": f"{lo:.0f}:{hi:.0f}"}
    ref_norm = float(np.mean(means["reference"][(freqs >= lo) & (freqs <= hi)]))
    spectra = [
        (f"spectrum_{name}", _db_rel(values, ref_norm), dict(header, trace=name, processed="false"))
        for name, values in means.items()
    ]
    shot_norm = float(np.mean(subtracted["reference"][ctx.masks.any(axis=0)]))
    power, floor = chain_floor(ctx.chain_h)  # below the floor, compensation leaves rounding residue
    spectra += [
        (f"processed_{name}", _db_rel(np.where(power < floor, 0.0, values), shot_norm),
         dict(header, trace=name, processed="true"))
        for name, values in subtracted.items()
    ]
    summary = _summary(
        cfg, cfg.measurement.kind, frames, scheme=cfg.scheme, bands=bands,
        extras={"stream_layout": str(rngs.STREAM_LAYOUT)},
    )
    return summary, freqs, spectra


def _run_opo_sweep(cfg: SweepConfig, workers: int) -> tuple[RunSummary, np.ndarray, list]:
    ctx = _SweepContext(cfg)
    ow = cfg.opo_sweep
    frames = cfg.grid.frames
    freqs = ctx.freqs
    lo, hi = ow.band_hz
    band = (freqs >= lo) & (freqs <= hi)
    moments = _accumulate_runs(ctx, frames, workers)["moments"]

    extras = {}
    spectra = []
    prev_band_avg = None
    for power, spec in zip(ow.pump_powers_mw, ctx.specs):
        mc_s, mc_a = ctx.spectra(moments, spec) / frames
        model_s, model_a = spec.squeezing_spectrum(freqs)
        tag = f"pump{int(round(power)):03d}mw"
        avg_s = float(np.mean(mc_s[band]))
        avg_a = float(np.mean(mc_a[band]))
        # + 0.0 turns the -0.0 of a level of exactly 1 (a pump of 0 mW) into 0.0
        extras[f"opo.{tag}.band_avg_squeezed_db"] = f"{-10 * np.log10(avg_s) + 0.0:.4f}"
        extras[f"opo.{tag}.band_avg_anti_db"] = f"{10 * np.log10(avg_a):.4f}"
        extras[f"opo.{tag}.model_squeezed_db"] = f"{-10 * np.log10(np.mean(model_s[band])) + 0.0:.4f}"
        extras[f"opo.{tag}.model_anti_db"] = f"{10 * np.log10(np.mean(model_a[band])):.4f}"
        if prev_band_avg is not None and avg_s >= prev_band_avg:
            extras["opo.monotone_improvement"] = "false"
        prev_band_avg = avg_s
        for stem, values in (
            (f"{tag}_squeezed", mc_s),
            (f"{tag}_antisqueezed", mc_a),
            (f"{tag}_squeezed_model", model_s),
            (f"{tag}_antisqueezed_model", model_a),
        ):
            spectra.append((stem, _db_rel(values, 1.0), {"trace": stem}))
    extras.setdefault("opo.monotone_improvement", "true")
    extras["stream_layout"] = str(rngs.STREAM_LAYOUT)
    return _summary(cfg, "quadrature-psd", frames, extras=extras), freqs, spectra


def _check_out_dir(path: str):
    """Refuse, before any frame runs, an output directory that cannot be
    made: the nearest part of the path that exists must be a writable
    directory."""
    probe = os.path.abspath(path)
    while not os.path.lexists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ConfigError("out_dir", f"{probe} exists and is not a directory")
    if not os.access(probe, os.W_OK | os.X_OK):
        raise ConfigError("out_dir", f"{probe} is not writable")


def run(
    cfg: Config,
    frames: int | None = None,
    seed: int | None = None,
    out_dir: str | None = None,
    workers: int | None = None,
) -> RunSummary:
    """Execute one expanded config end to end and write its files to its out_dir.

    The overrides go into the config as given, so validation rejects a
    count that is not an integer as it would in a JSON config."""
    if frames is not None:
        cfg = replace(cfg, grid=replace(cfg.grid, frames=frames))
    if seed is not None:
        cfg = replace(cfg, seed=seed)
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    validate_config(cfg)
    workers = resolve_workers(workers)
    _check_out_dir(cfg.out_dir)

    started = time.perf_counter()
    run_kind = _run_opo_sweep if cfg.kind == "opo-sweep" else _run_heterodyne
    summary, freqs, spectra = run_kind(cfg, workers)
    summary.wall_time_s = time.perf_counter() - started
    checks = [(f"band.{b.label}", (b.reduction_db, b.stderr_db, b.predicted_db)) for b in summary.bands]
    for what, values in checks + [(f"{stem}.txt", values_db) for stem, values_db, _ in spectra]:
        if not np.all(np.isfinite(values)):
            raise FloatingPointError(f"{what}: non-finite values, nothing written")

    os.makedirs(cfg.out_dir, exist_ok=True)
    header = {"config_hash": summary.config_hash, "frames": summary.frames}
    # Every spectrum file of a run shares one frequency axis: format it once.
    rows = "\n".join(f"{f:.3f},%.6f" for f in freqs.tolist())
    for stem, values_db, extra in spectra:
        _write_spectrum(os.path.join(cfg.out_dir, f"{stem}.txt"), rows, values_db, dict(header, **extra))
    with open(os.path.join(cfg.out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(summary.summary_lines()) + "\n")
    return summary


def run_preset(name: str, **kwargs) -> RunSummary:
    return run(preset_config(name), **kwargs)
