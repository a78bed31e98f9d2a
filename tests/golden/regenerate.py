"""Rewrite every file under tests/golden/ from the current code.

    PYTHONPATH=src python tests/golden/regenerate.py

Summaries come from the commands ``tests/test_golden.py`` lists,

    sqzbeat run --preset NAME --frames 16 --out DIR     (heterodyne presets)
    sqzbeat run --preset appendixE-pump-sweep --frames 8 --out DIR
    sqzbeat run --preset epr-identity --out DIR         (default draws)

and ``block-boundary.sha256`` from ``run(preset_config(NAME), frames=130,
workers=W)`` for W = 1 and 2, which must write the same bytes.  Prints
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
from sqzbeat.config import list_presets, preset_config
from sqzbeat.runner import run

GOLDEN = os.path.dirname(os.path.abspath(__file__))
BOUNDARY_PRESETS = ("fig4-demod", "fig3-raw", "appendixE-pump-sweep")
BOUNDARY_HEADER = """\
# SHA-256 of every output file of run(preset_config(NAME), frames=130, workers=W)
# at the default seed, for W = 1 and 2: two 128-frame chunks, the second a
# partial block of 2 frames.  Check by hand with `sha256sum -c` in a directory
# holding NAME/ output trees.
"""


def _summary_args(name: str) -> list[str]:
    kind = preset_config(name).kind
    frames = {"epr": [], "opo-sweep": ["--frames", "8"]}.get(kind, ["--frames", "16"])
    return ["run", "--preset", name, *frames]


def _digests(name: str, workers: int) -> dict[str, str]:
    with tempfile.TemporaryDirectory() as out:
        run(preset_config(name), frames=130, out_dir=out, workers=workers)
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
    for name in BOUNDARY_PRESETS:
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
