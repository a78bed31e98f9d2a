"""The benchmark's workloads: the preset each runs and the frames of one
``runner.run`` call, always on one worker.  Why each exists is in README.md."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    preset: str
    frames: int


WORKLOADS = {
    "demod-cross": Workload("fig4-demod", 128),
    "raw-beat": Workload("fig3-raw", 128),
    "pump-sweep": Workload("appendixE-pump-sweep", 256),
}


def call_seed(seed: int, call: int) -> int:
    """Master seed of call ``call`` in a run started with ``--seed seed``."""
    return 1000 * seed + call
