"""Acceptance gate: every release criterion at its stated tolerance.

Each test prints one pass/fail line.  Monte-Carlo criteria run at desk
scale with fixed seeds; tolerances are pinned here, not tuned at runtime.
"""

import time

import numpy as np
import pytest

from sqzbeat.budgets import (
    SqueezingLevels,
    classical_noise_limit,
    phase_jitter_penalty,
    predicted_reduction,
    straightforward_phase_floor,
)
from sqzbeat.config import preset_config
from sqzbeat.dsp import cross_periodogram, hamming_window
from sqzbeat.rng import ChunkStreams
from sqzbeat.runner import run, run_preset

from oracles import frame_spectrum
from test_budgets import demod_phase_floor_oracle


def _report(name: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_epr_identity_residual(tmp_path):
    started = time.perf_counter()
    summary = run_preset("epr-identity", out_dir=str(tmp_path))
    elapsed = time.perf_counter() - started
    worst = float(summary.extras["epr.max_residual"])
    ok = worst <= 1e-9 and elapsed < 10.0 and summary.frames == 100
    _report(
        "criterion 1 (sideband-recombination identity)",
        ok,
        f"max residual {worst:.2e} over 100 draws in {elapsed:.1f} s (limit 1e-9, 10 s)",
    )


def test_criterion_2_analytic_predictions():
    levels = SqueezingLevels(s_lower_db=(4.5, 4.16), s_upper_db=(3.7, 4.0))
    got = {band: predicted_reduction(levels, band) for band in ("lower", "upper", "demod")}
    want = {"lower": 4.33, "upper": 3.85, "demod": 4.08}
    ok = all(abs(got[k] - want[k]) <= 0.05 for k in want)
    _report(
        "criterion 2 (expected reductions from measured squeezing)",
        ok,
        ", ".join(f"{k}: {got[k]:.3f} dB (target {want[k]} +- 0.05)" for k in want),
    )


@pytest.fixture(scope="module")
def fig4_summary(tmp_path_factory):
    return run_preset("fig4-demod", frames=2000, out_dir=str(tmp_path_factory.mktemp("fig4-demod")))


def test_criterion_3_monte_carlo_closure(fig4_summary, tmp_path):
    details = []
    ok = True
    started = time.perf_counter()
    fig3 = run_preset("fig3-raw", frames=2000, out_dir=str(tmp_path))
    fig3_time = time.perf_counter() - started
    for band in fig3.bands:
        pull = abs(band.reduction_db - band.predicted_db)
        ok &= pull <= 3.0 * band.stderr_db
        details.append(
            f"raw {band.label} {band.reduction_db:.3f} vs {band.predicted_db:.3f} "
            f"(+-{band.stderr_db:.3f})"
        )
    demod = fig4_summary.bands[0]
    ok &= abs(demod.reduction_db - demod.predicted_db) <= 3.0 * demod.stderr_db
    ok &= 3.1 <= demod.reduction_db <= 3.7
    ok &= fig3_time < 300.0 and fig4_summary.wall_time_s < 300.0
    details.append(
        f"demod {demod.reduction_db:.3f} vs {demod.predicted_db:.3f} "
        f"(+-{demod.stderr_db:.3f}, bracket [3.1, 3.7])"
    )
    _report("criterion 3 (Monte-Carlo vs analytic closure)", ok, "; ".join(details))


def test_criterion_4_classical_ceiling():
    value = classical_noise_limit(0.1, 1e-15)
    ok = abs(value - 10.0) <= 0.01
    _report(
        "criterion 4 (classical-noise ceiling)",
        ok,
        f"f=0.1, s->0 gives {value:.4f} dB (target 10.00 +- 0.01)",
    )


def test_criterion_5_phase_jitter_tolerance():
    eff = phase_jitter_penalty(10 ** (-1.5), 10 ** (1.5), np.radians(1.5))
    db = -10.0 * np.log10(eff)
    ok = db >= 12.0
    _report(
        "criterion 5 (angle-jitter tolerance)",
        ok,
        f"15 dB squeezing with 1.5 deg rms jitter keeps {db:.2f} dB (>= 12 required)",
    )


def test_criterion_6_same_frequency_leakage(tmp_path):
    # formula against the brute-force covariance oracle
    rng = np.random.default_rng(11)
    worst = 0.0
    points = [(1.0, 1.0), (0.356, 4.30)]
    while len(points) < 10:
        s = float(rng.uniform(0.05, 1.0))
        a = float(rng.uniform(1.0, 25.0))
        if s * a >= 1.0:
            points.append((s, a))
    for s, a in points:
        worst = max(worst, abs(demod_phase_floor_oracle(s, a) / straightforward_phase_floor(s, a) - 1.0))
    ok = worst < 1e-6

    # Monte-Carlo floor sits above the proposed scheme for every pump and
    # above vacuum at the reference point
    from dataclasses import replace

    base = preset_config("appendixG-straightforward")
    detail_sweep = []
    for pump in (0.2, np.sqrt(90.0 / 600.0), 0.6):
        sqz = replace(base.pickoff1.squeezer, pump_ratio=pump)
        cfg_fwd = replace(
            base,
            pickoff1=replace(base.pickoff1, squeezer=sqz),
            pickoff2=replace(base.pickoff2, squeezer=sqz),
        )
        cfg_prop = replace(cfg_fwd, scheme="proposed")
        fwd = run(cfg_fwd, frames=400, out_dir=str(tmp_path / "forward")).bands[0]
        prop = run(cfg_prop, frames=400, out_dir=str(tmp_path / "proposed")).bands[0]
        margin = 4.0 * np.hypot(fwd.stderr_db, prop.stderr_db)
        ok &= fwd.reduction_db < prop.reduction_db - margin
        detail_sweep.append(f"x={pump:.2f}: {fwd.reduction_db:.2f} < {prop.reduction_db:.2f} dB")

    ref = run(base, frames=2000, out_dir=str(tmp_path / "reference")).bands[0]
    excess = -ref.reduction_db
    ok &= 1.1 <= excess <= 1.5
    _report(
        "criterion 6 (same-frequency squeezing leaks anti-squeezing)",
        ok,
        f"oracle residual {worst:.1e} (<1e-6); floors {'; '.join(detail_sweep)}; "
        f"reference point +{excess:.2f} dB above vacuum (1.3 +- 0.2)",
    )


def _cross_residuals(trial: int, counts: tuple[int, ...], n: int, block: int = 512) -> list[float]:
    """Mean |cross-periodogram| off DC and Nyquist of independent white
    frames after each of the nested frame ``counts``: frame i of port p
    draws n normals from stream (5, trial, i, p).  One pass in blocks of
    frames, each port's block drawn through ``ChunkStreams`` and windowed in
    one rfft, and the periodograms added in frame order, so every partial
    average has the bits of ``oracles.cross_spectrum`` over that many frames."""
    total = counts[-1]
    streams = ChunkStreams(5, trial, range(total), (0, 1))
    window, wnorm = hamming_window(n)
    normals = np.empty((2, block, n))
    acc = np.zeros(n // 2 + 1)
    out = []
    for start in range(0, total, block):
        frames = range(start, min(start + block, total))
        x1, x2 = (streams.fill(frames, port, normals[port, : len(frames)]) for port in (0, 1))
        v1, v2 = frame_spectrum(x1, window), frame_spectrum(x2, window)
        for i, row in zip(frames, cross_periodogram(v1, v2, wnorm)):
            acc += row
            if i + 1 in counts:
                out.append(np.abs((acc / (i + 1))[1:-1]).mean())
    return out


def test_criterion_7_cross_spectrum_benefit(fig4_summary, tmp_path):
    no_cross = run_preset("appendixD-no-cross", frames=2000, out_dir=str(tmp_path))
    cross = fig4_summary.bands[0]
    auto = no_cross.bands[0]
    gap = cross.reduction_db - auto.reduction_db
    ok = auto.reduction_db < cross.reduction_db - 0.25

    # independent-noise residual decays as frames^(-1/2)
    frame_counts = (100, 316, 1000, 3162, 10000)
    trials = [_cross_residuals(trial, frame_counts, n=512) for trial in range(10)]
    residuals = []
    for levels in zip(*trials):
        level = 0.0
        for x in levels:  # summed in trial order
            level += x
        residuals.append(level / len(trials))
    slope = np.polyfit(np.log10(frame_counts), np.log10(residuals), 1)[0]
    ok &= abs(slope + 0.5) <= 0.1
    _report(
        "criterion 7 (cross-spectrum benefit)",
        ok,
        f"no-cross {auto.reduction_db:.2f} < cross {cross.reduction_db:.2f} dB "
        f"(gap {gap:.2f}); residual slope {slope:.3f} (target -0.5 +- 0.1)",
    )


def test_criterion_8_self_tests(tmp_path):
    summary = run_preset("vacuum-selftest", frames=800, out_dir=str(tmp_path / "selftest"))
    ok = True
    details = []
    for band in summary.bands:
        ok &= abs(band.reduction_db) <= 3.0 * band.stderr_db
        details.append(f"{band.label} {band.reduction_db:+.3f} +- {band.stderr_db:.3f} dB")

    def blobs(path):
        return {p.name: p.read_bytes() for p in sorted(path.iterdir())}

    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run_preset("vacuum-selftest", frames=180, out_dir=str(a), workers=1)
    run_preset("vacuum-selftest", frames=180, out_dir=str(b), workers=1)
    run_preset("vacuum-selftest", frames=180, out_dir=str(c), workers=3)
    identical = blobs(a) == blobs(b) and blobs(a) == blobs(c)
    ok &= identical
    details.append(f"byte-identical across reruns and worker counts: {identical}")
    _report("criterion 8 (self tests)", ok, "; ".join(details))
