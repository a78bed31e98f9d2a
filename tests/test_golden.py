"""Golden summaries: every preset at the default seed, byte for byte.

The files in ``golden/`` are the ``summary.txt`` of

    sqzbeat run --preset NAME --frames 16 --out DIR     (heterodyne presets)
    sqzbeat run --preset appendixE-pump-sweep --frames 8 --out DIR
    sqzbeat run --preset epr-identity --out DIR         (default draws)

A change that alters any emitted number fails here; a deliberate change
of the realizations regenerates the files with ``golden/regenerate.py``
(``PYTHONPATH=src python tests/golden/regenerate.py``) and says so.

``golden/block-boundary.sha256`` holds the SHA-256 of every output file
(summary and spectra) of ``fig4-demod``, ``fig3-raw`` and
``appendixE-pump-sweep`` at 130 frames: two chunks, the second ending in
a partial block.  The sweep's digests were written by its per-frame loop
before it moved to the runner's chunk engine; the heterodyne ones were
rewritten for stream layout 2, whose block rows
``test_interferometer.test_block_rows_equal_single_frames`` checks
against one-frame synthesis.
"""

import hashlib
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


def _block_boundary_digests(name):
    digests = {}
    with open(os.path.join(GOLDEN, "block-boundary.sha256"), encoding="utf-8") as fh:
        for line in fh:
            if line.strip() and not line.startswith("#"):
                digest, path = line.split()
                preset, filename = path.split("/")
                if preset == name:
                    digests[filename] = digest
    return digests


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", ["fig4-demod", "fig3-raw", "appendixE-pump-sweep"])
def test_golden_outputs_across_chunk_and_block_boundaries(name, workers, tmp_path):
    run(preset_config(name), frames=130, out_dir=str(tmp_path), workers=workers)
    got = {
        filename: hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
        for filename in sorted(os.listdir(tmp_path))
    }
    assert got == _block_boundary_digests(name)
