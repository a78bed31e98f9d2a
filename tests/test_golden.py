"""Golden summaries: every preset at the default seed, byte for byte.

The files in ``golden/`` are the ``summary.txt`` of

    sqzbeat run --preset NAME --frames 16 --out DIR     (heterodyne presets)
    sqzbeat run --preset appendixE-pump-sweep --frames 8 --out DIR
    sqzbeat run --preset epr-identity --out DIR         (default draws)

A change that alters any emitted number fails here; a deliberate change
of the realizations regenerates the files and says so.
"""

import os

import pytest

from sqzbeat.config import list_presets, preset_config
from sqzbeat.runner import run

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def _frames(name):
    kind = preset_config(name).kind
    return {"epr": None, "opo-sweep": 8}.get(kind, 16)


@pytest.mark.parametrize("name", [name for name, _ in list_presets()])
def test_golden_summary(name, tmp_path):
    run(preset_config(name), frames=_frames(name), out_dir=str(tmp_path), workers=1)
    with open(os.path.join(GOLDEN, f"{name}.summary.txt"), "rb") as fh:
        expected = fh.read()
    assert (tmp_path / "summary.txt").read_bytes() == expected
