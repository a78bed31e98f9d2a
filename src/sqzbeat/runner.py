"""End-to-end preset execution: synthesis, detection, DSP, metrics, files.

A heterodyne run executes three acquisitions with independent seed
substreams: background (no light), reference (vacuum ports) and target
(squeezers on).  Frames are processed in fixed-size chunks whose partial
spectra are folded in chunk order, so the emitted numbers are
bit-identical for any worker count.  Summaries hold the band-averaged
reductions next to their closed-form budget predictions.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace, field

import numpy as np

from . import rng as rngs
from .budgets import NoiseBudget, heterodyne_budget
from .config import (
    ConfigError,
    ExperimentConfig,
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
from .fields import FrequencyGrid, SqueezerSpec, make_vacuum_field, apply_squeezer, quadrature_series
from .interferometer import (
    BeamSpec,
    DetectorSpec,
    PhaseSignalSpec,
    PhotocurrentTrace,
    PickoffSpec,
    balanced_detect,
    classical_phase_variance,
    compose_beam,
    detector_readout,
    unsqueezed_shot_psd,
)

CHUNK_FRAMES = 128
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
    scheme: str
    measurement: str
    config_hash: str
    seed: int
    frames: int
    bands: list[BandResult] = field(default_factory=list)
    extras: dict = field(default_factory=dict)
    wall_time_s: float = 0.0

    def summary_lines(self) -> list[str]:
        # Wall time stays out of the file so reruns are byte-identical.
        lines = [
            f"preset={self.name}",
            f"kind={self.kind}",
            f"scheme={self.scheme}",
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
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ConfigError(WORKERS_ENV, f"must be an integer, got {env!r}") from None


class _HeterodyneContext:
    """Per-run immutable state for frame synthesis and accumulation.

    Built once per run; a pool sends it to its workers with each chunk.
    """

    def __init__(self, cfg: ExperimentConfig):
        self.cfg = cfg
        self.grid = cfg.frequency_grid()
        b = cfg.beams
        c1, c2 = cfg.carrier_freqs()
        mod = (
            PhaseSignalSpec("sinusoid", b.mod_freq_hz, b.mod_depth_rad)
            if b.mod_depth_rad != 0.0
            else PhaseSignalSpec()
        )
        self.beam1 = BeamSpec(b.e1, c1)
        self.beam2 = BeamSpec(b.e2, c2, mod)
        d = cfg.detector
        self.det = DetectorSpec(
            d.quantum_efficiency, d.electronic_noise_rel_db, d.clip_level, d.gain_ripple_db
        )
        self.ref_floor = unsqueezed_shot_psd(b.e1, b.e2, d.quantum_efficiency)
        self.phase_var = classical_phase_variance(
            b.classical_fraction, b.e1, b.e2, d.quantum_efficiency
        )
        n = self.grid.n_samples
        fs = self.grid.sample_rate
        self.freqs = np.fft.rfftfreq(n, d=1.0 / fs)
        self.window, self.wnorm = hamming_window(n)
        ms = cfg.measurement
        self.measurement = ms.kind
        # The one chain list: the runner filters with it and compensation
        # divides its response out.
        if ms.kind == "raw":
            self.chain = raw_measurement_chain()
            self.raw_h = chain_response(self.chain, self.freqs, fs)
        else:
            self.chain = [demod_lpf_spec(b.beat_freq_hz)] + demod_measurement_chain()
            self.lpf_h = chain_response(self.chain[:1], self.freqs, fs)
            self.post_h = chain_response(self.chain[1:], self.freqs, fs)
            self.lo = local_oscillator(self.grid, b.beat_freq_hz, ms.lo_phase_rad)
            demod_shot = self.ref_floor / 2.0
            self.arm_sigma = (
                np.sqrt(10.0 ** (ms.arm_noise_rel_db / 10.0) * demod_shot)
                if ms.arm_noise_rel_db is not None
                else 0.0
            )
            self.arm_excess_sigma = (
                np.sqrt(10.0 ** (ms.arm_noise_excess_rel_db / 10.0) * demod_shot)
                if ms.arm_noise_excess_rel_db is not None
                else 0.0
            )

    # -- frame synthesis ------------------------------------------------

    def _pickoffs(self, run_name: str, run_id: int, index: int):
        cfg = self.cfg
        if run_name != "target":
            return (
                PickoffSpec(cfg.pickoff1.reflectivity, None, cfg.pickoff1.injection_phase_rad),
                PickoffSpec(cfg.pickoff2.reflectivity, None, cfg.pickoff2.injection_phase_rad),
            )
        jitter = [0.0, 0.0]
        rms = [
            cfg.pickoff1.squeezer.angle_jitter_rms_rad if cfg.pickoff1.squeezer else 0.0,
            cfg.pickoff2.squeezer.angle_jitter_rms_rad if cfg.pickoff2.squeezer else 0.0,
        ]
        if rms[0] > 0 or rms[1] > 0:
            gen = rngs.generator(rngs.frame_seed(cfg.seed, run_id, index, rngs.PORT_JITTER))
            jitter = [gen.normal(0.0, r) if r > 0 else 0.0 for r in rms]
        return (
            PickoffSpec(
                cfg.pickoff1.reflectivity,
                cfg.squeezer_spec(0, jitter[0]),
                cfg.pickoff1.injection_phase_rad,
            ),
            PickoffSpec(
                cfg.pickoff2.reflectivity,
                cfg.squeezer_spec(1, jitter[1]),
                cfg.pickoff2.injection_phase_rad,
            ),
        )

    def frame_trace(self, run_name: str, index: int) -> PhotocurrentTrace:
        run_id = _RUN_IDS[run_name]
        seed = self.cfg.seed
        det_seed = rngs.frame_seed(seed, run_id, index, rngs.PORT_DETECTOR)
        if run_name == "background":
            dark = np.zeros(self.grid.n_samples)
            return PhotocurrentTrace(
                detector_readout(dark, self.det, det_seed, self.ref_floor), self.grid
            )
        extra = None
        if self.phase_var > 0.0:
            gen = rngs.generator(rngs.frame_seed(seed, run_id, index, rngs.PORT_PHASE))
            extra = gen.normal(0.0, np.sqrt(self.phase_var), self.grid.n_samples)
        pick1, pick2 = self._pickoffs(run_name, run_id, index)
        e1 = compose_beam(
            self.grid, self.beam1, pick1, rngs.frame_seed(seed, run_id, index, rngs.PORT_BEAM1)
        )
        e2 = compose_beam(
            self.grid,
            self.beam2,
            pick2,
            rngs.frame_seed(seed, run_id, index, rngs.PORT_BEAM2),
            extra_phase=extra,
        )
        return balanced_detect(e1, e2, self.det, det_seed, reference_shot_psd=self.ref_floor)

    # -- accumulation ----------------------------------------------------

    def _demod_arms(self, run_name: str, index: int, samples: np.ndarray):
        run_id = _RUN_IDS[run_name]
        n = self.grid.n_samples
        base = mix_down(samples, self.lo, self.lpf_h)
        arms = []
        for port, port_excess in (
            (rngs.PORT_ARM1, rngs.PORT_ARM1_EXCESS),
            (rngs.PORT_ARM2, rngs.PORT_ARM2_EXCESS),
        ):
            y = base
            if self.arm_sigma > 0.0:
                gen = rngs.generator(rngs.frame_seed(self.cfg.seed, run_id, index, port))
                y = y + gen.normal(0.0, self.arm_sigma, n)
            if self.arm_excess_sigma > 0.0 and run_name != "background":
                gen = rngs.generator(
                    rngs.frame_seed(self.cfg.seed, run_id, index, port_excess)
                )
                y = y + gen.normal(0.0, self.arm_excess_sigma, n)
            arms.append(filter_frame(y, self.post_h))
        return arms

    def accumulate(self, run_name: str, start: int, stop: int) -> dict:
        nbins = len(self.freqs)
        if self.measurement == "raw":
            acc = {"auto": np.zeros(nbins)}
            for i in range(start, stop):
                y = filter_frame(self.frame_trace(run_name, i).samples, self.raw_h)
                acc["auto"] += auto_periodogram(frame_spectrum(y, self.window), self.wnorm)
            return acc
        acc = {"cross": np.zeros(nbins), "auto1": np.zeros(nbins)}
        for i in range(start, stop):
            a1, a2 = self._demod_arms(run_name, i, self.frame_trace(run_name, i).samples)
            v1 = frame_spectrum(a1, self.window)
            v2 = frame_spectrum(a2, self.window)
            acc["cross"] += cross_periodogram(v1, v2, self.wnorm)
            acc["auto1"] += auto_periodogram(v1, self.wnorm)
        return acc


def _fold(jobs: list, parts) -> dict:
    totals = {}
    for (run_name, _, _), part in zip(jobs, parts):  # fixed fold order keeps sums bit-stable
        total = totals.setdefault(run_name, {k: np.zeros_like(v) for k, v in part.items()})
        for k, v in part.items():
            total[k] += v
    return totals


def _accumulate_runs(ctx: _HeterodyneContext, n_frames: int, workers: int) -> dict:
    """Per-acquisition sums of every chunk, on one pool for the whole run."""
    jobs = [
        (run_name, s, min(s + CHUNK_FRAMES, n_frames))
        for run_name in RUN_NAMES
        for s in range(0, n_frames, CHUNK_FRAMES)
    ]
    if workers <= 1:
        return _fold(jobs, (ctx.accumulate(*job) for job in jobs))
    with ProcessPoolExecutor(max_workers=workers) as ex:
        return _fold(jobs, ex.map(ctx.accumulate, *zip(*jobs)))


def _estimator_key(measurement: str) -> str:
    return {"raw": "auto", "demod": "cross", "demod-no-cross": "auto1"}[measurement]


def _write_spectrum(path: str, freqs: np.ndarray, values_db: np.ndarray, header: dict):
    lines = [f"# {k}={v}" for k, v in header.items()]
    lines.append("freq_hz,psd_db_rel_vacuum")
    for f, v in zip(freqs, values_db):
        lines.append(f"{f:.3f},{v:.6f}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _db_rel(values: np.ndarray, norm: float) -> np.ndarray:
    safe = np.maximum(values / norm, 1e-12)
    return 10.0 * np.log10(safe)


def _band_budget(cfg: ExperimentConfig, band_freqs: np.ndarray, label: str) -> NoiseBudget:
    ms = cfg.measurement
    if ms.kind == "raw":
        eps = band_freqs
    else:
        beat = cfg.beams.beat_freq_hz
        eps = np.concatenate([beat - band_freqs, beat + band_freqs])
    picks = (cfg.pickoff1, cfg.pickoff2)
    excess = 0.0
    if ms.kind == "demod-no-cross" and ms.arm_noise_excess_rel_db is not None:
        # Drive-induced arm noise is absent from the background run, so an
        # auto-spectrum readout cannot subtract it.
        excess = 10.0 ** (ms.arm_noise_excess_rel_db / 10.0)
    return heterodyne_budget(
        cfg.scheme,
        label,
        eps,
        (cfg.squeezer_spec(0), cfg.squeezer_spec(1)),
        weights=(cfg.beams.e2**2, cfg.beams.e1**2),
        path_efficiency=tuple(
            p.reflectivity * cfg.detector.quantum_efficiency for p in picks
        ),
        classical_fraction=cfg.beams.classical_fraction,
        angle_offset_rad=tuple(
            p.squeezer.angle_offset_rad if p.squeezer else 0.0 for p in picks
        ),
        angle_jitter_rms_rad=tuple(
            p.squeezer.angle_jitter_rms_rad if p.squeezer else 0.0 for p in picks
        ),
        band_kind="raw" if ms.kind == "raw" else "demod",
        unsubtracted_electronic_rel=excess,
    )


def _run_heterodyne(cfg: ExperimentConfig, workers: int) -> tuple[RunSummary, dict]:
    ctx = _HeterodyneContext(cfg)
    frames = cfg.grid.frames
    freqs = ctx.freqs
    key = _estimator_key(cfg.measurement.kind)
    sums = _accumulate_runs(ctx, frames, workers)
    estimates = {
        run_name: SpectrumEstimate(
            freqs,
            sums[run_name][key] / frames,
            n_frames=frames,
            kind="cross" if key == "cross" else "auto",
        )
        for run_name in RUN_NAMES
    }
    comp = {
        name: compensate_spectrum(est, ctx.chain, ctx.grid.sample_rate)
        for name, est in estimates.items()
    }

    bands = []
    for band_cfg in cfg.measurement.bands:
        band = BandSpec(band_cfg.center_hz, band_cfg.half_width_hz, band_cfg.exclusion_half_width_hz)
        result = postprocess(comp["target"], comp["reference"], comp["background"], band)
        budget = _band_budget(cfg, freqs[band.mask(freqs)], band_cfg.label)
        bands.append(
            BandResult(
                band_cfg.label,
                band_cfg.center_hz,
                result.reduction_db,
                result.stderr_db,
                budget.reduction_db,
                result.n_bins,
            )
        )

    summary = RunSummary(
        name=cfg.name,
        kind=cfg.kind,
        scheme=cfg.scheme,
        measurement=cfg.measurement.kind,
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        frames=frames,
        bands=bands,
    )
    return summary, {"raw": estimates, "compensated": comp, "freqs": freqs}


def _write_heterodyne_outputs(cfg: ExperimentConfig, summary: RunSummary, data: dict, out_dir: str):
    os.makedirs(out_dir, exist_ok=True)
    freqs = data["freqs"]
    lo, hi = cfg.measurement.normalization_band_hz
    norm_mask = (freqs >= lo) & (freqs <= hi)
    header = {
        "config_hash": summary.config_hash,
        "frames": summary.frames,
        "normalization_band_hz": f"{lo:.0f}:{hi:.0f}",
    }
    ref_norm = float(np.mean(data["raw"]["reference"].values[norm_mask]))
    for run_name in RUN_NAMES:
        _write_spectrum(
            os.path.join(out_dir, f"spectrum_{run_name}.txt"),
            freqs,
            _db_rel(data["raw"][run_name].values, ref_norm),
            dict(header, trace=run_name, processed="false"),
        )

    union = np.zeros(len(freqs), dtype=bool)
    for band_cfg in cfg.measurement.bands:
        band = BandSpec(band_cfg.center_hz, band_cfg.half_width_hz, band_cfg.exclusion_half_width_hz)
        union |= band.mask(freqs)
    back = data["compensated"]["background"].values
    ref_sub = data["compensated"]["reference"].values - back
    tgt_sub = data["compensated"]["target"].values - back
    shot_norm = float(np.mean(ref_sub[union])) if np.any(union) else 1.0
    for name, values in (("reference", ref_sub), ("target", tgt_sub)):
        _write_spectrum(
            os.path.join(out_dir, f"processed_{name}.txt"),
            freqs,
            _db_rel(values, shot_norm),
            dict(header, trace=name, processed="true"),
        )


def _run_epr(cfg: ExperimentConfig) -> RunSummary:
    from .fields import epr_identity_residual

    fs = cfg.grid.sample_rate_hz
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
    return RunSummary(
        name=cfg.name,
        kind=cfg.kind,
        scheme=cfg.scheme,
        measurement="identity",
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        frames=draws,
        extras={
            "epr.draws": str(draws),
            "epr.max_residual": f"{worst:.3e}",
            "epr.threshold": f"{threshold:.1e}",
            "epr.pass": str(worst <= threshold).lower(),
        },
    )


def _run_opo_sweep(cfg: ExperimentConfig, out_dir: str | None) -> RunSummary:
    ow = cfg.opo_sweep
    grid = cfg.frequency_grid()
    center = grid.center_offset
    frames = cfg.grid.frames
    freqs = np.fft.rfftfreq(grid.n_samples, d=1.0 / grid.sample_rate)
    lo, hi = ow.band_hz
    band = (freqs >= lo) & (freqs <= hi)
    window, wnorm = hamming_window(grid.n_samples)

    extras = {}
    spectra_files = []
    prev_band_avg = None
    for p_idx, power in enumerate(ow.pump_powers_mw):
        spec = SqueezerSpec(
            pump_ratio=float(np.sqrt(power / ow.threshold_mw)),
            hwhm_hz=ow.hwhm_hz,
            escape_efficiency=ow.escape_efficiency,
            squeeze_angle_rad=0.0,
            center_freq_hz=center,
        )
        acc_s = np.zeros(len(freqs))
        acc_a = np.zeros(len(freqs))
        for i in range(frames):
            vac = make_vacuum_field(grid, rngs.frame_seed(cfg.seed, 10 + p_idx, i, 0))
            sq = apply_squeezer(vac, spec) if spec.pump_ratio > 0 else vac
            quads = quadrature_series(sq, center)
            acc_s += auto_periodogram(frame_spectrum(quads.a1, window), wnorm)
            acc_a += auto_periodogram(frame_spectrum(quads.a2, window), wnorm)
        mc_s = acc_s / frames
        mc_a = acc_a / frames
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
        spectra_files.append((tag, mc_s, mc_a, model_s, model_a))
    extras.setdefault("opo.monotone_improvement", "true")

    summary = RunSummary(
        name=cfg.name,
        kind=cfg.kind,
        scheme=cfg.scheme,
        measurement="quadrature-psd",
        config_hash=config_hash(cfg),
        seed=cfg.seed,
        frames=frames,
        extras=extras,
    )
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        header = {"config_hash": summary.config_hash, "frames": frames}
        for tag, mc_s, mc_a, model_s, model_a in spectra_files:
            for stem, vals in (
                (f"{tag}_squeezed", mc_s),
                (f"{tag}_antisqueezed", mc_a),
                (f"{tag}_squeezed_model", model_s),
                (f"{tag}_antisqueezed_model", model_a),
            ):
                _write_spectrum(
                    os.path.join(out_dir, f"{stem}.txt"),
                    freqs,
                    10.0 * np.log10(np.maximum(vals, 1e-12)),
                    dict(header, trace=stem),
                )
    return summary


def run(
    cfg: ExperimentConfig,
    frames: int | None = None,
    seed: int | None = None,
    out_dir: str | None = None,
    workers: int | None = None,
    write_outputs: bool = True,
) -> RunSummary:
    """Execute one expanded config end to end and emit its artifacts."""
    if frames is not None:
        if cfg.kind == "epr" and cfg.epr is not None:  # an identity run counts draws
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
        summary = _run_epr(cfg)
        data = None
    elif cfg.kind == "opo-sweep":
        summary = _run_opo_sweep(cfg, cfg.out_dir if write_outputs else None)
        data = None
    else:
        summary, data = _run_heterodyne(cfg, workers)
    summary.wall_time_s = time.perf_counter() - started

    if write_outputs:
        os.makedirs(cfg.out_dir, exist_ok=True)
        if data is not None:
            _write_heterodyne_outputs(cfg, summary, data, cfg.out_dir)
        with open(os.path.join(cfg.out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(summary.summary_lines()) + "\n")
    return summary


def run_preset(name: str, **kwargs) -> RunSummary:
    return run(preset_config(name), **kwargs)
