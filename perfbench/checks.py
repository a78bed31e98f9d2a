"""Output checks of one benchmark run against the closed forms in ``oracle``.

Each checker returns a list of problems; an empty list means the run's
outputs are correct.  Band reductions must sit within ``PULL_LIMIT``
standard errors of the closed form, using the standard error the run
reports for itself; sweep levels use the standard error ``oracle`` derives
from the bin count and frame count.  The reported standard errors match
the seed-to-seed scatter (a pull SD near 1), so at 6 a correct program
fails with a chance far below one in a million per band.
"""

from __future__ import annotations

import math
import os

import numpy as np

import oracle

PULL_LIMIT = 6.0
HETERODYNE_FILES = (
    "spectrum_background.txt",
    "spectrum_reference.txt",
    "spectrum_target.txt",
    "processed_reference.txt",
    "processed_target.txt",
)
SWEEP_STEMS = ("squeezed", "antisqueezed", "squeezed_model", "antisqueezed_model")


def read_summary(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as fh:
        return dict(line.rstrip("\n").split("=", 1) for line in fh if "=" in line)


def _number(summary: dict, key: str, problems: list) -> float | None:
    try:
        value = float(summary[key])
    except (KeyError, ValueError):
        problems.append(f"summary: {key} missing or not a number")
        return None
    if not math.isfinite(value):
        problems.append(f"summary: {key}={summary[key]} is not finite")
        return None
    return value


def check_spectrum_file(path: str, cfg, config_hash: str) -> list[str]:
    """Finite rows, one per rfft bin on the run's frequency axis, under a
    header carrying the summary's config hash."""
    name = os.path.basename(path)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return [f"{name}: {exc.strerror}"]
    header = dict(ln[2:].split("=", 1) for ln in lines if ln.startswith("# ") and "=" in ln)
    problems = []
    if header.get("config_hash") != config_hash:
        problems.append(f"{name}: header hash {header.get('config_hash')} != summary hash {config_hash}")
    rows = [ln for ln in lines if ln and not ln.startswith("#") and not ln.startswith("freq_hz")]
    n = cfg.grid.n_samples
    try:
        data = np.array([[float(v) for v in ln.split(",")] for ln in rows]).reshape(len(rows), 2)
    except ValueError:
        return problems + [f"{name}: rows are not pairs of numbers"]
    if len(data) != n // 2 + 1:
        return problems + [f"{name}: {len(data)} rows, expected {n // 2 + 1}"]
    if not np.all(np.isfinite(data)):
        problems.append(f"{name}: non-finite values")
    elif not np.allclose(data[:, 0], oracle.rfft_freqs(n, cfg.grid.sample_rate_hz), rtol=0, atol=1e-2):
        problems.append(f"{name}: frequency column is not the rfft axis")
    return problems


def _check_header(cfg, summary: dict, frames: int, seed: int) -> list[str]:
    problems = []
    for key, want in (("preset", cfg.name), ("frames", str(frames)), ("seed", str(seed))):
        if summary.get(key) != want:
            problems.append(f"summary: {key}={summary.get(key)}, expected {want}")
    return problems


def check_heterodyne(cfg, summary: dict, out_dir: str) -> list[str]:
    problems = []
    for band in cfg.measurement.bands:
        prefix = f"band.{band.label}"
        measured = _number(summary, f"{prefix}.reduction_db", problems)
        stderr = _number(summary, f"{prefix}.stderr_db", problems)
        expected_bins = len(oracle.band_freqs(cfg.grid.n_samples, cfg.grid.sample_rate_hz, band))
        if summary.get(f"{prefix}.n_bins") != str(expected_bins):
            problems.append(f"{prefix}.n_bins={summary.get(f'{prefix}.n_bins')}, expected {expected_bins}")
        if measured is None or stderr is None:
            continue
        if stderr <= 0:
            problems.append(f"{prefix}.stderr_db={stderr} is not positive")
            continue
        expected = oracle.band_reduction_db(cfg, band)
        pull = (measured - expected) / stderr
        if abs(pull) > PULL_LIMIT:
            problems.append(
                f"{prefix}: reduction {measured:.4f} dB is {pull:+.1f} stderr from the closed form {expected:.4f} dB"
            )
    for name in HETERODYNE_FILES:
        problems += check_spectrum_file(os.path.join(out_dir, name), cfg, summary.get("config_hash"))
    return problems


def check_sweep(cfg, summary: dict, out_dir: str, frames: int) -> list[str]:
    problems = []
    levels = []
    for row in sorted(oracle.sweep_expectations(cfg, frames), key=lambda r: r["power_mw"]):
        tag = row["tag"]
        for name, key in (("squeezed", "band_avg_squeezed_db"), ("anti", "band_avg_anti_db")):
            measured = _number(summary, f"opo.{tag}.{key}", problems)
            if measured is None:
                continue
            if name == "squeezed":
                levels.append(measured)
            pull = (measured - row[f"{name}_db"]) / row[f"{name}_stderr_db"]
            if abs(pull) > PULL_LIMIT:
                problems.append(
                    f"opo.{tag}.{key}: {measured:.4f} dB is {pull:+.1f} stderr from the cavity model "
                    f"{row[f'{name}_db']:.4f} dB"
                )
        for stem in SWEEP_STEMS:
            problems += check_spectrum_file(os.path.join(out_dir, f"{tag}_{stem}.txt"), cfg, summary.get("config_hash"))
    if any(b <= a for a, b in zip(levels, levels[1:])):
        problems.append(f"squeezing is not monotone in pump power: {levels}")
    if summary.get("opo.monotone_improvement") != "true":
        problems.append(f"opo.monotone_improvement={summary.get('opo.monotone_improvement')}")
    return problems


def check_run(cfg, out_dir: str, frames: int, seed: int) -> list[str]:
    """Problems with the outputs a ``runner.run`` call wrote to ``out_dir``."""
    try:
        summary = read_summary(os.path.join(out_dir, "summary.txt"))
    except OSError as exc:
        return [f"summary.txt: {exc.strerror}"]
    problems = _check_header(cfg, summary, frames, seed)
    if cfg.kind == "opo-sweep":
        return problems + check_sweep(cfg, summary, out_dir, frames)
    return problems + check_heterodyne(cfg, summary, out_dir)
