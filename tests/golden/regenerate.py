"""Rewrite every file under tests/golden/ from the current code.

    PYTHONPATH=src python tests/golden/regenerate.py

Summaries come from the commands ``tests/test_golden.py`` lists,

    sqzbeat run --preset NAME --frames 16 --out DIR     (heterodyne presets)
    sqzbeat run --preset appendixE-pump-sweep --frames 8 --out DIR
    sqzbeat run --preset epr-identity --out DIR         (default draws)

and ``block-boundary.sha256`` from ``run(merge_config(preset_config(PRESET),
PATCH), frames=130, workers=W)`` for every (NAME, PRESET, PATCH) of
``BOUNDARY_RUNS`` and W = 1 and 2, which must write the same bytes.  Prints
the name of each file whose contents changed.  Regenerate only for a
declared change of the realizations, after the acceptance gate passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

from sqzbeat.cli import main
from sqzbeat.config import list_presets, merge_config, preset_config
from sqzbeat.runner import run

GOLDEN = os.path.dirname(os.path.abspath(__file__))
# (name, preset, patch) of each run whose outputs are pinned.  The presets
# run at their default seed; the variants reach what those runs do not: a
# sweep anchored at 0 Hz, whose sidebands reach the Nyquist bin, seeds of
# two 32-bit words, and a demod run with squeeze-angle jitter on both
# squeezers, detector gain ripple and a clip level it reaches.
BOUNDARY_RUNS = (
    ("fig4-demod", "fig4-demod", {}),
    ("fig3-raw", "fig3-raw", {}),
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


def boundary_config(name: str):
    """The config of the pinned run ``name`` of BOUNDARY_RUNS."""
    preset, patch = next((p, patch) for n, p, patch in BOUNDARY_RUNS if n == name)
    return merge_config(preset_config(preset), patch)


def _summary_args(name: str) -> list[str]:
    kind = preset_config(name).kind
    frames = {"epr": [], "opo-sweep": ["--frames", "8"]}.get(kind, ["--frames", "16"])
    return ["run", "--preset", name, *frames]


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
    """Write every golden file; return the names of those that changed."""
    changed = []
    for name, _ in list_presets():
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main([*_summary_args(name), "--out", out])
            if rc != 0:
                raise SystemExit(f"{name}: the run failed")
            data = open(os.path.join(out, "summary.txt"), "rb").read()
        _write(f"{name}.summary.txt", data, changed)

    lines = [BOUNDARY_HEADER]
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
