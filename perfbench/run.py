"""sqzbeat benchmark: simulated frames per second on preset workloads.

    python3 perfbench/run.py --workload demod-cross --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout; the program is imported from the
checkout's ``src``.  Each run starts fresh interpreters (``child.py``):
``SETUPS - 1`` that only set up, then one that sets up and measures.  It
prints one line per metric, then, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median over
the fresh interpreters), ``frames_per_s`` (median over the calls) and
``peak_rss_mb``.  ``--trace 1`` reports the per-layer metrics from pairs
of untraced and traced calls.  A failed output check makes
``correct`` false and the exit code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import signal
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
SETUPS = 3
TIME_LIMIT_S = 170.0


class ChildError(RuntimeError):
    pass


def _stop(proc: subprocess.Popen):
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()


def spawn(role: str, workload: str, seed: int, seconds: float, deadline: float) -> tuple[float, dict | None]:
    """Start one child; return its set-up time and its JSON report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, CHILD, role, workload, str(seed), repr(seconds)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,  # so a timeout stops whatever it started
    )
    try:
        ready, _, _ = select.select([proc.stdout], [], [], max(0.0, deadline - time.monotonic()))
        line = proc.stdout.readline() if ready else ""
        setup_s = time.perf_counter() - t0
        if line.strip() != "ready":
            raise ChildError(f"{role} child did not get ready")
        out, _ = proc.communicate(timeout=max(0.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise ChildError(f"{role} child ran past the time limit") from None
    finally:
        _stop(proc)
    if proc.returncode != 0:
        raise ChildError(f"{role} child exited with {proc.returncode}")
    return setup_s, (json.loads(out.strip().splitlines()[-1]) if role != "setup" else None)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "sqzbeat", "__init__.py")):
        print(f"no sqzbeat sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [spawn("setup", args.workload, args.seed, args.seconds, deadline)[0] for _ in range(SETUPS - 1)]
        role = "trace" if args.trace else "measure"
        setup_s, report = spawn(role, args.workload, args.seed, args.seconds, deadline)
    except ChildError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup_s)

    if args.trace:
        metrics = {
            name: _metric(value, "s" if name.endswith("_s") else "1/frame")
            for name, value in report["layers"].items()
        }
    else:
        metrics = {
            "setup_s": _metric(statistics.median(setups), "s"),
            "frames_per_s": _metric(statistics.median(report["frames_per_s"]), "frames/s"),
            "peak_rss_mb": _metric(report["peak_rss_mb"], "MB"),
        }
    for problem in report["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    correct = not report["problems"] and report["attempted"] > report["failed"]
    print(
        json.dumps(
            {"correct": correct, "attempted": report["attempted"], "failed": report["failed"], "metrics": metrics}
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
