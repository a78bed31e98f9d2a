"""End-to-end preset execution: synthesis, detection, DSP, metrics, files.

A heterodyne run executes three acquisitions with independent seed
substreams: background (no light), reference (vacuum ports) and target
(squeezers on).  A pump sweep executes one acquisition per pump power.
Both average periodograms over frames, and both go through one frame
engine, split run -> chunk -> block:

- run: one context (``_HeterodyneContext`` or ``_SweepContext``) holds
  everything that does not change from frame to frame (beams and their
  carrier terms, filter responses, local oscillator, squeezers, window),
  built once.  Its block step ``periodograms(acquisition, blocks)``
  yields the periodograms of each block of frames, one row per frame.
- chunk: CHUNK_FRAMES frames of one acquisition, the unit a worker pool
  maps over (``_chunk_sum``).  Chunk sums are folded in chunk order, so
  the emitted numbers are bit-identical for any worker count.
- block: BLOCK_FRAMES consecutive frames of a chunk go through synthesis,
  detection and the measurement chain together, one row per frame, so
  each FFT is one batched call instead of one per frame.  Blocks stay at
  4 frames because every (frames, n) temporary grows with the block: on
  ``fig4-demod`` peak memory was 108 MB with one frame at a time, 112 MB
  at 4, 115 MB at 8 and 121 MB at 16, past the benchmark's 10% bound,
  and 8 or 16 frames ran no faster than 4.

Blocks do not change a single output bit.  Each noise row still draws
from its own (run, frame, port) substream, elementwise steps do not care
about the row layout, numpy's batched FFTs return every row's bits as a
one-frame call does (numpy 2.4; the block tests in ``tests/`` check it),
and periodograms are still added to the chunk sums
frame by frame in frame order.  Summaries hold the band-averaged
reductions next to their closed-form budget predictions.

Synthesis follows stream layout 4 (``rng``; heterodyne and sweep
summaries record ``stream_layout=4``).  The context builds one optical
path per beam (``cfg.optical_path``: squeezer at its angle, angle jitter
and efficiency R * qe, the record ``budgets.band_budget`` reads too).  Each path draws
one vacuum row: the reference's unsqueezed ones as time samples, the
target's squeezed ones as bins squeezed with the path loss folded into
the gains, their angle redrawn per frame under jitter.  The carriers,
scaled by sqrt(qe), join the path noise in the time domain.  Each demod
arm draws its readout noise once per frame, the drive-induced excess
added in quadrature on lit acquisitions only.  A ``fig4-demod`` frame
index builds 15 generators and draws 95000 normals, ``fig3-raw`` 9 and
65000.  A sweep frame draws, squeezes and transforms only the 2m + 1
sidebands its quadratures read (one generator and 2598 normals per pump
power), with one complex FFT and one rfft of both quadratures per block.

The EPR identity run is not a frame average: each draw picks its own
grid size, state and frequencies, and the run keeps the largest
residual, so it loops over its draws without the engine.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace, field
from functools import partial

import numpy as np

from . import rng as rngs
from .budgets import band_budget
from .config import (
    Config,
    ConfigError,
    ExperimentConfig,
    IdentityConfig,
    SweepConfig,
    config_hash,
    preset_config,
    validate_config,
)
from .dsp import (
    BandSpec,
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
from .fields import (
    FrequencyGrid,
    SqueezerSpec,
    apply_squeezer,
    circular_gaussian,
    epr_identity_residual,
    make_vacuum_field,
    sideband_gains,
    squeeze_sidebands,
)
from .interferometer import (
    BeamCarrier,
    BeamSpec,
    DetectorSpec,
    OpticalPath,
    PhaseSignalSpec,
    PhotocurrentTrace,
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
    try:
        count = int(value)
    except ValueError:
        raise ConfigError(name, f"must be an integer, got {value!r}") from None
    if count < 1:
        raise ConfigError(name, f"must be >= 1, got {value!r}")
    return count


class _HeterodyneContext:
    """Per-run immutable state for frame synthesis and accumulation.

    Built once per run; a pool sends it to its workers with each chunk.
    """

    acquisitions = RUN_NAMES

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.grid = cfg.frequency_grid()
        b = cfg.beams
        c1, c2 = cfg.carrier_freqs()
        d = cfg.detector
        self.carrier1 = BeamCarrier(self.grid, BeamSpec(b.e1, c1), d.quantum_efficiency)
        mod = PhaseSignalSpec(b.mod_freq_hz, b.mod_depth_rad)
        self.carrier2 = BeamCarrier(self.grid, BeamSpec(b.e2, c2, mod), d.quantum_efficiency)
        self.det = DetectorSpec(d.electronic_noise_rel_db, d.clip_level, d.gain_ripple_db)
        self.ref_floor = unsqueezed_shot_psd(b.e1, b.e2, d.quantum_efficiency)
        self.phase_var = classical_phase_variance(
            b.classical_fraction, b.e1, b.e2, d.quantum_efficiency
        )
        self.phase_sigma = np.sqrt(self.phase_var)
        # One optical path per beam: the target's as configured, the
        # reference's the same efficiency with no squeezer.
        squeezed = (cfg.optical_path(0), cfg.optical_path(1))
        self.paths = {
            "reference": tuple(OpticalPath(p.efficiency) for p in squeezed),
            "target": squeezed,
        }
        n = self.grid.n_samples
        fs = self.grid.sample_rate
        self.freqs = np.fft.rfftfreq(n, d=1.0 / fs)
        self.window, self.wnorm = hamming_window(n)
        ms = cfg.measurement
        self.measurement = ms.kind
        # The one periodogram reported: of both demod arms, or of the raw beat or arm 1.
        self.estimate = "cross" if ms.kind == "demod" else "auto"
        # The one chain list: the runner filters with it and compensation
        # divides out its full response, evaluated once per run.  A demod
        # arm filters in two stages around its readout noise; their
        # product is associated differently and gives other bits.
        if ms.kind == "raw":
            chain = raw_measurement_chain()
        else:
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

    # -- block synthesis ------------------------------------------------

    def _keys(self, run_id: int, frames: range, port: int) -> list:
        return [rngs.frame_seed(self.cfg.seed, run_id, i, port) for i in frames]

    def _draws(self, keys: list, sigma: float) -> np.ndarray:
        """One row of N(0, sigma^2) samples per key."""
        n = self.grid.n_samples
        return np.stack([rngs.generator(k).normal(0.0, sigma, n) for k in keys])

    def _paths(self, run_name: str, run_id: int, frames: range) -> tuple:
        """Each beam's optical path for a block: one record for every row,
        or a list of one per frame when the squeeze angle jitters."""
        if run_name == "target" and any(p.jitter_rms_rad for p in self.paths["target"]):
            per_frame = [self._jittered(run_id, i) for i in frames]
            return tuple(list(beam) for beam in zip(*per_frame))
        return self.paths[run_name]

    def _jittered(self, run_id: int, index: int) -> tuple[OpticalPath, ...]:
        """The target paths of one frame, each jittered squeezer turned by
        a fresh draw from the frame's jitter stream."""
        gen = rngs.generator(rngs.frame_seed(self.cfg.seed, run_id, index, rngs.PORT_JITTER))
        paths = []
        for p in self.paths["target"]:
            if p.jitter_rms_rad > 0:
                angle = p.squeezer.squeeze_angle_rad + gen.normal(0.0, p.jitter_rms_rad)
                p = replace(p, squeezer=replace(p.squeezer, squeeze_angle_rad=angle))
            paths.append(p)
        return tuple(paths)

    def _photocurrent(self, run_name: str, frames: range) -> np.ndarray:
        """Detector output of a block of frames, one row per frame."""
        run_id = _RUN_IDS[run_name]
        det_keys = self._keys(run_id, frames, rngs.PORT_DETECTOR)
        if run_name == "background":
            dark = np.zeros((len(frames), self.grid.n_samples))
            return PhotocurrentTrace(
                detector_readout(dark, self.det, det_keys, self.ref_floor), self.grid
            ).samples
        extra = None
        if self.phase_var > 0.0:
            extra = self._draws(self._keys(run_id, frames, rngs.PORT_PHASE), self.phase_sigma)
        path1, path2 = self._paths(run_name, run_id, frames)
        e1 = compose_beam(self.carrier1, path1, self._keys(run_id, frames, rngs.PORT_BEAM1))
        e2 = compose_beam(
            self.carrier2, path2, self._keys(run_id, frames, rngs.PORT_BEAM2), extra_phase=extra
        )
        return balanced_detect(e1, e2, self.det, det_keys, reference_shot_psd=self.ref_floor).samples

    # -- measurement -----------------------------------------------------

    def _arms(self, run_name: str, frames: range, x: np.ndarray) -> list[np.ndarray]:
        """The readout arms of a block of photocurrent rows; arm 1 alone for an auto-spectrum."""
        run_id = _RUN_IDS[run_name]
        base = mix_down(x, self.lo, self.lpf_h)
        sigma = self.arm_sigma[run_name]
        arms = []
        for port in (rngs.PORT_ARM1, rngs.PORT_ARM2)[: 2 if self.estimate == "cross" else 1]:
            y = base
            if sigma > 0.0:
                y = y + self._draws(self._keys(run_id, frames, port), sigma)
            arms.append(filter_frame(y, self.post_h))
        return arms

    def periodograms(self, run_name: str, blocks):
        """Reported periodogram rows of each block of frames of one acquisition."""
        for frames in blocks:
            x = self._photocurrent(run_name, frames)
            rows = [filter_frame(x, self.chain_h)] if self.measurement == "raw" else self._arms(run_name, frames, x)
            spectra = [frame_spectrum(r, self.window) for r in rows]
            periodogram = cross_periodogram if self.estimate == "cross" else auto_periodogram
            yield {self.estimate: periodogram(*spectra, self.wnorm)}


class _SweepContext:
    """Per-run state of a pump sweep: one squeezer per pump power, each
    power an acquisition of vacuum frames squeezed about the anchor.

    The quadratures read only the 2m + 1 sidebands within the anchor's
    margin, so a frame draws and squeezes those alone, in offset order
    -m..m, and places them as ``quadrature_series`` would after its roll
    and mask: offsets 0..m at bins 0..m, -m..-1 at bins n - m..n - 1.
    """

    def __init__(self, cfg: SweepConfig):
        ow = cfg.opo_sweep
        self.seed = cfg.seed
        self.grid = cfg.frequency_grid()
        n = self.grid.n_samples
        self.freqs = np.fft.rfftfreq(n, d=1.0 / self.grid.sample_rate)
        self.window, self.wnorm = hamming_window(n)
        self.scale = np.sqrt(0.5 / n)
        self.specs = [
            SqueezerSpec(
                pump_ratio=float(np.sqrt(power / ow.threshold_mw)),
                hwhm_hz=ow.hwhm_hz,
                escape_efficiency=ow.escape_efficiency,
                center_freq_hz=self.grid.center_offset,
            )
            for power in ow.pump_powers_mw
        ]
        self.acquisitions = range(len(self.specs))

    def periodograms(self, pump: int, blocks):
        """Squeezed and anti-squeezed quadrature periodogram rows of each block."""
        n = self.grid.n_samples
        _, gp, gmw = sideband_gains(self.grid, self.specs[pump])
        m = len(gp) // 2
        for frames in blocks:
            keys = [rngs.frame_seed(self.seed, 10 + pump, i, 0) for i in frames]
            z = squeeze_sidebands(circular_gaussian(keys, 2 * m + 1, self.scale), gp, gmw)
            rolled = np.zeros((len(frames), n), dtype=complex)
            rolled[:, : m + 1] = z[:, m:]
            rolled[:, n - m :] = z[:, :m]
            q = np.fft.fft(rolled)
            quads = np.sqrt(2.0) * np.concatenate((q.real, q.imag))
            p = auto_periodogram(frame_spectrum(quads, self.window), self.wnorm)
            yield {"squeezed": p[: len(frames)], "anti": p[len(frames) :]}


def _chunk_sum(ctx, acquisition, start: int, stop: int) -> dict:
    """Periodogram sums of frames [start, stop) of one acquisition, built in
    blocks of BLOCK_FRAMES and added frame by frame in frame order.  The
    block step is a generator so a block's arrays live until the next block
    replaces them: freed at every block, they cost 40k minor page faults
    per 128 ``fig3-raw`` frames instead of 2k, and 10-15% of the time."""
    blocks = (range(f, min(f + BLOCK_FRAMES, stop)) for f in range(start, stop, BLOCK_FRAMES))
    acc = {}
    for parts in ctx.periodograms(acquisition, blocks):
        for k, rows in parts.items():
            total = acc.setdefault(k, np.zeros(rows.shape[-1]))
            for row in rows:
                total += row
    return acc


def _fold(jobs: list, parts) -> dict:
    totals = {}
    for (acquisition, _, _), part in zip(jobs, parts):  # fixed fold order keeps sums bit-stable
        total = totals.setdefault(acquisition, {k: np.zeros_like(v) for k, v in part.items()})
        for k, v in part.items():
            total[k] += v
    return totals


def _accumulate_runs(ctx, n_frames: int, workers: int) -> dict:
    """Per-acquisition sums of every chunk of a context's acquisitions, on
    one pool for the whole run."""
    jobs = [
        (acquisition, s, min(s + CHUNK_FRAMES, n_frames))
        for acquisition in ctx.acquisitions
        for s in range(0, n_frames, CHUNK_FRAMES)
    ]
    # Freeing one untouched 1 MB array raises glibc's mmap threshold to
    # 1 MB and its heap trim threshold to 2 MB for the process.  Below
    # them, as in a process that never imported scipy, each block's freed
    # temporaries go back to the OS and fault in again: 10890 minor faults
    # per 256-frame pump-sweep call, against 3 with the thresholds raised.
    np.empty(1 << 17)
    # A pool starts every worker at its first submit: no more workers than jobs.
    workers = min(workers, len(jobs))
    if workers <= 1:
        return _fold(jobs, (_chunk_sum(ctx, *job) for job in jobs))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return _fold(jobs, ex.map(partial(_chunk_sum, ctx), *zip(*jobs)))


def _write_spectrum(path: str, freq_column: list[str], values_db: np.ndarray, header: dict):
    lines = [f"# {k}={v}" for k, v in header.items()]
    lines.append("freq_hz,psd_db_rel_vacuum")
    # Python floats format faster than numpy scalars, to the same text.
    lines += [f + f"{v:.6f}" for f, v in zip(freq_column, values_db.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _db_power(db: float | None) -> float:
    """Linear power of a level in dB; an absent level is 0."""
    return 0.0 if db is None else 10.0 ** (db / 10.0)


def _db_rel(values: np.ndarray, norm: float) -> np.ndarray:
    safe = np.maximum(values / norm, 1e-12)
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
    estimates = {
        run_name: SpectrumEstimate(
            freqs, sums[run_name][ctx.estimate] / frames, n_frames=frames, kind=ctx.estimate
        )
        for run_name in RUN_NAMES
    }
    comp = {name: compensate_spectrum(est, ctx.chain_h) for name, est in estimates.items()}

    bands = []
    union = np.zeros(len(freqs), dtype=bool)
    for band_cfg in cfg.measurement.bands:
        band = BandSpec(band_cfg.center_hz, band_cfg.half_width_hz, band_cfg.exclusion_half_width_hz)
        mask = band.mask(freqs)
        union |= mask
        result = postprocess(comp["target"], comp["reference"], comp["background"], band)
        bands.append(
            BandResult(
                band_cfg.label,
                band_cfg.center_hz,
                result.reduction_db,
                result.stderr_db,
                band_budget(cfg, freqs[mask]).reduction_db,
                result.n_bins,
            )
        )

    # Raw spectra against the reference level in the normalization band;
    # processed ones against the subtracted shot level in the analysis bands.
    lo, hi = cfg.measurement.normalization_band_hz
    header = {"normalization_band_hz": f"{lo:.0f}:{hi:.0f}"}
    ref_norm = float(np.mean(estimates["reference"].values[(freqs >= lo) & (freqs <= hi)]))
    spectra = [
        (f"spectrum_{name}", _db_rel(estimates[name].values, ref_norm),
         dict(header, trace=name, processed="false"))
        for name in RUN_NAMES
    ]
    back = comp["background"].values
    ref_sub = comp["reference"].values - back
    tgt_sub = comp["target"].values - back
    shot_norm = float(np.mean(ref_sub[union])) if np.any(union) else 1.0
    spectra += [
        (f"processed_{name}", _db_rel(values, shot_norm),
         dict(header, trace=name, processed="true"))
        for name, values in (("reference", ref_sub), ("target", tgt_sub))
    ]
    summary = _summary(
        cfg, cfg.measurement.kind, frames, scheme=cfg.scheme, bands=bands,
        extras={"stream_layout": str(rngs.STREAM_LAYOUT)},
    )
    return summary, freqs, spectra


def _run_epr(cfg: IdentityConfig) -> RunSummary:
    fs = cfg.epr.sample_rate_hz
    draws = cfg.epr.draws
    gen = rngs.generator(rngs.substream(cfg.seed, 900))
    worst = 0.0
    for d in range(draws):
        n = int(gen.choice(np.array([2000, 2500, 4000, 5000])))
        grid = FrequencyGrid(fs, n, 0.0)
        df = grid.bin_hz
        beat = float(gen.integers(int(4e6 / df), int(12e6 / df) + 1)) * df
        lo_bin = int(np.ceil((-fs / 2 + beat) / df)) + 1
        hi_bin = int(np.floor((fs / 2 - 3.0 * beat) / df)) - 1
        omega0 = float(gen.integers(lo_bin, hi_bin + 1)) * df
        state = make_vacuum_field(grid, rngs.substream(cfg.seed, 901, d))
        if gen.random() < 0.7:
            spec = SqueezerSpec(
                pump_ratio=float(gen.uniform(0.05, 0.85)),
                hwhm_hz=float(gen.uniform(5e6, 60e6)),
                escape_efficiency=float(gen.uniform(0.5, 1.0)),
                squeeze_angle_rad=float(gen.uniform(0.0, 2.0 * np.pi)),
                center_freq_hz=(omega0 + beat) if gen.random() < 0.5 else omega0,
            )
            state = apply_squeezer(state, spec)
        worst = max(worst, epr_identity_residual(state, omega0, beat))
    threshold = cfg.epr.residual_threshold
    return _summary(
        cfg,
        "identity",
        draws,
        extras={
            "epr.draws": str(draws),
            "epr.max_residual": f"{worst:.3e}",
            "epr.threshold": f"{threshold:.1e}",
            "epr.pass": str(worst <= threshold).lower(),
        },
    )


def _run_opo_sweep(cfg: SweepConfig, workers: int) -> tuple[RunSummary, np.ndarray, list]:
    ctx = _SweepContext(cfg)
    ow = cfg.opo_sweep
    frames = cfg.grid.frames
    freqs = ctx.freqs
    lo, hi = ow.band_hz
    band = (freqs >= lo) & (freqs <= hi)
    sums = _accumulate_runs(ctx, frames, workers)

    extras = {}
    spectra = []
    prev_band_avg = None
    for pump, (power, spec) in enumerate(zip(ow.pump_powers_mw, ctx.specs)):
        mc_s = sums[pump]["squeezed"] / frames
        mc_a = sums[pump]["anti"] / frames
        model_s, model_a = spec.squeezing_spectrum(freqs)
        tag = f"pump{int(round(power)):03d}mw"
        avg_s = float(np.mean(mc_s[band]))
        avg_a = float(np.mean(mc_a[band]))
        extras[f"opo.{tag}.band_avg_squeezed_db"] = f"{-10 * np.log10(avg_s):.4f}"
        extras[f"opo.{tag}.band_avg_anti_db"] = f"{10 * np.log10(avg_a):.4f}"
        extras[f"opo.{tag}.model_squeezed_db"] = f"{-10 * np.log10(np.mean(model_s[band])):.4f}"
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


def run(
    cfg: Config,
    frames: int | None = None,
    seed: int | None = None,
    out_dir: str | None = None,
    workers: int | None = None,
    write_outputs: bool = True,
) -> RunSummary:
    """Execute one expanded config end to end and emit its artifacts."""
    if frames is not None:
        if cfg.kind == "epr":  # an identity run counts draws
            cfg = replace(cfg, epr=replace(cfg.epr, draws=int(frames)))
        else:
            cfg = replace(cfg, grid=replace(cfg.grid, frames=int(frames)))
    if seed is not None:
        cfg = replace(cfg, seed=int(seed))
    if out_dir is not None:
        cfg = replace(cfg, out_dir=out_dir)
    validate_config(cfg)
    workers = resolve_workers(workers)

    started = time.perf_counter()
    if cfg.kind == "epr":
        summary, freqs, spectra = _run_epr(cfg), None, []
    else:
        run_kind = _run_opo_sweep if cfg.kind == "opo-sweep" else _run_heterodyne
        summary, freqs, spectra = run_kind(cfg, workers)
    summary.wall_time_s = time.perf_counter() - started
    checks = [(f"band.{b.label}", (b.reduction_db, b.stderr_db, b.predicted_db)) for b in summary.bands]
    for what, values in checks + [(f"{stem}.txt", values_db) for stem, values_db, _ in spectra]:
        if not np.all(np.isfinite(values)):
            raise FloatingPointError(f"{what}: non-finite values, nothing written")

    if write_outputs:
        os.makedirs(cfg.out_dir, exist_ok=True)
        header = {"config_hash": summary.config_hash, "frames": summary.frames}
        # Every spectrum file of a run shares one frequency axis: format it once.
        column = [f"{f:.3f}," for f in freqs.tolist()] if spectra else []
        for stem, values_db, extra in spectra:
            _write_spectrum(
                os.path.join(cfg.out_dir, f"{stem}.txt"), column, values_db, dict(header, **extra)
            )
        with open(os.path.join(cfg.out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(summary.summary_lines()) + "\n")
    return summary


def run_preset(name: str, **kwargs) -> RunSummary:
    return run(preset_config(name), **kwargs)
