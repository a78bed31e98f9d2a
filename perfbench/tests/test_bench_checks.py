"""The output checks pass a correct run and reject tampered outputs; the
pool path writes the same bytes as one worker; the benchmark refuses to
run without the program's sources."""

import filecmp
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import checks
from sqzbeat.config import preset_config
from sqzbeat.runner import run


SEED = 7
BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _preset(name, frames):
    cfg = preset_config(name)
    return replace(cfg, grid=replace(cfg.grid, frames=frames))


def _rewrite(path, key, value):
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines = [f"{key}={value}" if ln.startswith(f"{key}=") else ln for ln in lines]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@pytest.fixture(scope="module")
def demod_run(tmp_path_factory):
    cfg = _preset("fig4-demod", 128)
    out = str(tmp_path_factory.mktemp("demod"))
    run(cfg, seed=SEED, out_dir=out, workers=1)
    return cfg, out


@pytest.fixture(scope="module")
def sweep_run(tmp_path_factory):
    cfg = _preset("appendixE-pump-sweep", 32)
    out = str(tmp_path_factory.mktemp("sweep"))
    run(cfg, seed=SEED, out_dir=out, workers=1)
    return cfg, out


def _copy(src, tmp_path):
    dst = str(tmp_path / "out")
    shutil.copytree(src, dst)
    return dst


def test_correct_runs_pass(demod_run, sweep_run):
    for cfg, out in (demod_run, sweep_run):
        assert checks.check_run(cfg, out, cfg.grid.frames, SEED) == []


def test_shifted_reduction_rejected(demod_run, tmp_path):
    cfg, src = demod_run
    out = _copy(src, tmp_path)
    summary = checks.read_summary(os.path.join(out, "summary.txt"))
    shifted = float(summary["band.demod.reduction_db"]) + 10 * float(summary["band.demod.stderr_db"])
    _rewrite(os.path.join(out, "summary.txt"), "band.demod.reduction_db", f"{shifted:.4f}")
    problems = checks.check_run(cfg, out, cfg.grid.frames, SEED)
    assert any("stderr from the closed form" in p for p in problems)


def test_nan_rejected(demod_run, tmp_path):
    cfg, src = demod_run
    out = _copy(src, tmp_path)
    _rewrite(os.path.join(out, "summary.txt"), "band.demod.reduction_db", "nan")
    assert any("not finite" in p for p in checks.check_run(cfg, out, cfg.grid.frames, SEED))

    out = _copy(src, tmp_path / "spectrum")
    path = os.path.join(out, "processed_target.txt")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    lines[-1] = lines[-1].split(",")[0] + ",nan"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    assert checks.check_run(cfg, out, cfg.grid.frames, SEED) == ["processed_target.txt: non-finite values"]


def test_non_monotone_sweep_rejected(sweep_run, tmp_path):
    cfg, src = sweep_run
    out = _copy(src, tmp_path)
    path = os.path.join(out, "summary.txt")
    summary = checks.read_summary(path)
    low, high = "opo.pump050mw.band_avg_squeezed_db", "opo.pump300mw.band_avg_squeezed_db"
    _rewrite(path, low, summary[high])
    _rewrite(path, high, summary[low])
    problems = checks.check_run(cfg, out, cfg.grid.frames, SEED)
    assert any("not monotone" in p for p in problems)


def test_pool_and_single_worker_outputs_identical(tmp_path):
    # 130 frames make a full 128-frame chunk and a short one.
    cfg = _preset("fig4-demod", 130)
    outs = []
    for workers in (1, 2):
        out = str(tmp_path / f"w{workers}")
        run(cfg, seed=SEED, out_dir=out, workers=workers)
        outs.append(out)
    names = sorted(os.listdir(outs[0]))
    assert "summary.txt" in names
    match, mismatch, errors = filecmp.cmpfiles(outs[0], outs[1], names, shallow=False)
    assert (mismatch, errors) == ([], [])


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "raw-beat", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
