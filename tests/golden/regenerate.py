"""Rewrite every file under tests/golden/ from the current code.

    PYTHONPATH=src python tests/golden/regenerate.py

Summaries come from the commands ``tests/test_golden.py`` lists,

    sqzbeat run --preset NAME --frames 16 --out DIR     (heterodyne presets)
    sqzbeat run --preset appendixE-pump-sweep --frames 8 --out DIR

and ``block-boundary.sha256`` from ``run(merge_config(preset_config(PRESET),
PATCH), frames=130, workers=W)`` for every (NAME, PRESET, PATCH) of
``BOUNDARY_RUNS`` and W = 1 and 2, which must write the same bytes.  Its
header records the numpy version that wrote the files.  A golden summary
of a preset ``list_presets()`` no longer lists is removed.  Prints the
name of each file changed or removed.  Regenerate only for a declared
change of the outputs, after the acceptance gate passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

import numpy as np

from sqzbeat.cli import main
from sqzbeat.config import list_presets, merge_config, preset_config
from sqzbeat.runner import run

GOLDEN = os.path.dirname(os.path.abspath(__file__))
# (name, preset, patch) of each run whose outputs are pinned.  The presets
# run at their default seed; the variants reach what those runs do not: a
# sweep anchored at 0 Hz, whose sidebands reach the Nyquist bin, seeds of
# two 32-bit words, a demod run with squeeze-angle jitter on both
# squeezers, detector gain ripple and a clip level it reaches, and the
# straightforward scheme, whose dark background draws no port.
BOUNDARY_RUNS = (
    ("fig4-demod", "fig4-demod", {}),
    ("fig3-raw", "fig3-raw", {}),
    ("appendixG-straightforward", "appendixG-straightforward", {}),
    ("appendixE-pump-sweep", "appendixE-pump-sweep", {}),
    ("appendixE-pump-sweep-anchor0", "appendixE-pump-sweep", {"opo_sweep": {"anchor_hz": 0.0}}),
    ("fig3-raw-seed2e32", "fig3-raw", {"seed": 2**32 + 20230811}),
    ("appendixE-pump-sweep-seed2e32", "appendixE-pump-sweep", {"seed": 2**32 + 20230811}),
    (
        "fig4-demod-jitter-ripple-clip",
        "fig4-demod",
        {
            "pickoff1": {"squeezer": {"angle_jitter_rms_rad": 0.05}},
            "pickoff2": {"squeezer": {"angle_jitter_rms_rad": 0.05}},
            "detector": {"gain_ripple_db": 0.5, "clip_level": 1.5e6},
        },
    ),
)
BOUNDARY_HEADER = """\
# SHA-256 of every output file of run(merge_config(preset_config(PRESET), PATCH),
# frames=130, workers=W) for each (NAME, PRESET, PATCH) of BOUNDARY_RUNS in
# regenerate.py, for W = 1 and 2: two 128-frame chunks, the second a partial
# block of 2 frames.  Check by hand with `sha256sum -c` in a directory holding
# NAME/ output trees.
"""
NUMPY_LINE = "# numpy {} wrote these digests and the golden summaries.\n"


def boundary_config(name: str):
    """The config of the pinned run ``name`` of BOUNDARY_RUNS."""
    preset, patch = next((p, patch) for n, p, patch in BOUNDARY_RUNS if n == name)
    return merge_config(preset_config(preset), patch)


def summary_frames(name: str) -> int:
    """The frame count of preset ``name``'s golden summary."""
    return 8 if preset_config(name).kind == "opo-sweep" else 16


def recorded_numpy() -> str:
    """The numpy version the header of ``block-boundary.sha256`` records."""
    prefix = NUMPY_LINE.split("{}")[0]
    with open(os.path.join(GOLDEN, "block-boundary.sha256"), encoding="utf-8") as fh:
        return next((line[len(prefix):].split()[0] for line in fh if line.startswith(prefix)), "unknown")


def _digests(name: str, workers: int) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as out:
        run(boundary_config(name), frames=130, out_dir=out, workers=workers)
        return {
            f: hashlib.sha256(open(os.path.join(out, f), "rb").read()).hexdigest()
            for f in sorted(os.listdir(out))
        }


def _write(filename: str, data: bytes, changed: list[str]):
    path = os.path.join(GOLDEN, filename)
    old = open(path, "rb").read() if os.path.exists(path) else None
    if old != data:
        with open(path, "wb") as fh:
            fh.write(data)
        changed.append(filename)


def regenerate() -> list[str]:
    """Write every golden file and remove stale summaries; return the
    names of the files changed or removed."""
    changed = []
    listed = {f"{name}.summary.txt" for name, _ in list_presets()}
    for filename in sorted(os.listdir(GOLDEN)):
        if filename.endswith(".summary.txt") and filename not in listed:
            os.remove(os.path.join(GOLDEN, filename))
            changed.append(filename)
    for name, _ in list_presets():
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["run", "--preset", name, "--frames", str(summary_frames(name)), "--out", out])
            if rc != 0:
                raise SystemExit(f"{name}: the run failed")
            data = open(os.path.join(out, "summary.txt"), "rb").read()
        _write(f"{name}.summary.txt", data, changed)

    lines = [BOUNDARY_HEADER, NUMPY_LINE.format(np.__version__)]
    for name, _, _ in BOUNDARY_RUNS:
        one, two = _digests(name, 1), _digests(name, 2)
        if one != two:
            raise SystemExit(f"{name}: outputs differ between 1 and 2 workers")
        lines += [f"{digest}  {name}/{f}\n" for f, digest in one.items()]
    _write("block-boundary.sha256", "".join(lines).encode(), changed)
    return changed


if __name__ == "__main__":
    os.environ.pop("SQZBEAT_WORKERS", None)  # summaries on one worker, as the tests run them
    for filename in regenerate():
        print(f"changed: {filename}")
    sys.exit(0)
