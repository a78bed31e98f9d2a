"""One benchmark process: set up a workload in a fresh interpreter, then
time ``sqzbeat.runner.run`` calls on it.

    python3 perfbench/child.py {setup|measure|trace} WORKLOAD SEED SECONDS

``run.py`` starts it with the checkout's ``src`` on PYTHONPATH.  The
process prints ``ready`` once ``sqzbeat`` is imported and the preset is
expanded and validated; ``run.py`` times set-up up to that line.  The
``setup`` role stops there.  ``measure`` then calls ``runner.run`` until
SECONDS have passed and prints frames per second of each call, its peak
memory and the output-check problems as one JSON line.  ``trace`` instead
makes pairs of untraced and traced calls, prints per-layer counts and
self times, and writes them to ``.perfbench/``.  Calls run on one worker.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace

from workloads import WORKLOADS, call_seed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".perfbench")


def setup(workload):
    import sqzbeat

    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(sqzbeat.__file__), src]) != src:
        raise SystemExit(f"sqzbeat imported from {sqzbeat.__file__}, not from {src}")
    from sqzbeat import runner
    from sqzbeat.config import preset_config, validate_config

    cfg = preset_config(workload.preset)
    cfg = replace(cfg, grid=replace(cfg.grid, frames=workload.frames))
    validate_config(cfg)
    return runner, cfg


def simulated_frames(cfg) -> int:
    """Frames one call simulates: every acquisition, or every pump of a sweep."""
    if cfg.kind == "opo-sweep":
        return len(cfg.opo_sweep.pump_powers_mw) * cfg.grid.frames
    return 3 * cfg.grid.frames


class Calls:
    """Runs and checks ``runner.run`` calls, counting attempts and failures."""

    def __init__(self, runner, cfg, out_dir: str):
        import checks

        self.check_run = checks.check_run
        self.runner = runner
        self.cfg = cfg
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def timed(self, seed: int) -> float | None:
        """Wall time of one call on one worker, or None when it raised."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            self.runner.run(self.cfg, seed=seed, out_dir=self.out_dir, workers=1)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        dt = time.perf_counter() - t0
        self.problems += self.check_run(self.cfg, self.out_dir, self.cfg.grid.frames, seed)
        return dt

    def report(self, **fields) -> str:
        return json.dumps(
            dict(attempted=self.attempted, failed=self.failed, problems=self.problems, **fields)
        )


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def measure(name, runner, cfg, seed: int, seconds: float) -> str:
    calls = Calls(runner, cfg, os.path.join(OUT, name))
    frames = simulated_frames(cfg)
    rates = []
    deadline = time.perf_counter() + seconds
    call = 0
    while call == 0 or time.perf_counter() < deadline:
        dt = calls.timed(call_seed(seed, call))
        if dt is not None:
            rates.append(frames / dt)
        call += 1
    return calls.report(frames_per_s=rates, peak_rss_mb=peak_rss_mb())


def trace(name, runner, cfg, seed: int, seconds: float) -> str:
    from tracer import LAYERS, Tracer

    calls = Calls(runner, cfg, os.path.join(OUT, name))
    tracer = Tracer()
    frames = simulated_frames(cfg)
    pairs = []
    deadline = time.perf_counter() + seconds
    call = 0
    while call == 0 or time.perf_counter() < deadline:
        s = call_seed(seed, call)
        plain = calls.timed(s)
        tracer.reset()
        tracer.install()
        try:
            traced = calls.timed(s)
        finally:
            tracer.uninstall()
        if plain is not None and traced is not None:
            pairs.append(
                {
                    "seed": s,
                    "untraced_s": plain,
                    "traced_s": traced,
                    "calls": dict(tracer.calls),
                    "self_s": dict(tracer.self_s),
                }
            )
        call += 1
    os.makedirs(OUT, exist_ok=True)
    with open(os.path.join(OUT, f"trace-{name}-seed{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": name, "simulated_frames_per_call": frames, "pairs": pairs}, fh, indent=1)
    layers = {}
    if pairs:
        for layer in LAYERS:
            layers[f"{layer}.calls_per_frame"] = pairs[0]["calls"][layer] / frames
            layers[f"{layer}.self_s"] = statistics.median(p["self_s"][layer] for p in pairs)
        layers["trace.overhead_s"] = statistics.median(p["traced_s"] - p["untraced_s"] for p in pairs)
        if any(p["calls"] != pairs[0]["calls"] for p in pairs):
            calls.problems.append("per-layer call counts differ between traced calls")
    return calls.report(layers=layers)


def main(argv: list[str]) -> int:
    role, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    runner, cfg = setup(WORKLOADS[name])
    print("ready", flush=True)
    if role == "measure":
        print(measure(name, runner, cfg, seed, seconds), flush=True)
    elif role == "trace":
        print(trace(name, runner, cfg, seed, seconds), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
