"""Golden summaries: every preset at the default seed, byte for byte.

The files in ``golden/`` are the ``summary.txt`` of

    sqzbeat run --preset NAME --frames 16 --out DIR     (heterodyne presets)
    sqzbeat run --preset appendixE-pump-sweep --frames 8 --out DIR

A change that alters any emitted number fails here; a deliberate change
of the realizations regenerates the files with ``golden/regenerate.py``
(``PYTHONPATH=src python tests/golden/regenerate.py``) and says so.  The
files hold the bits of the numpy version the header of
``golden/block-boundary.sha256`` records; a failure names it beside the
running one, since another numpy may draw or round other bits.  The
``epr-identity`` preset and its golden are gone with the ``epr`` run
kind: the sideband-recombination identity is acceptance criterion 1,
which prints the residual the golden held, 6.206e-13.

``golden/block-boundary.sha256`` holds the SHA-256 of every output file
(summary and spectra) of the runs ``golden/regenerate.py`` lists in
``BOUNDARY_RUNS`` at 130 frames: two chunks, the second ending in a
partial block.  They are ``fig4-demod``, ``fig3-raw`` and
``appendixE-pump-sweep`` at the default seed, the sweep anchored at 0 Hz
(its sidebands reach the Nyquist bin), ``fig3-raw`` and the sweep at
a seed of two 32-bit words, and ``fig4-demod`` with squeeze-angle jitter
on both squeezers, gain ripple and a clip level it reaches (added at
stream layout 5, with every other line unchanged), and
``appendixG-straightforward``, whose dark background draws no port
(added at stream layout 6 from the code before its background stopped
running blocks, with every other line unchanged).  The heterodyne spectra's digests were rewritten for
stream layout 3, whose block rows
``test_interferometer.test_block_rows_equal_single_frames`` checks
against one-frame synthesis; the sweep's for stream layout 4, whose
blocks ``test_runner.test_sweep_block_equals_the_full_field_path`` checks
against the full-field squeezer and quadratures.  Stream layout 5 (the
periodic Hamming window) rewrote every heterodyne and sweep summary and
the digest of every windowed spectrum; that test also checks the sweep's three-tap window
against ``frame_spectrum`` of those quadratures.  The ``clamped_bins``
header rewrote the digest of every spectrum file, and the processed
files' rows below the chain's floor now print at the clamp; no summary
changed.  Stream layout 6 (every pump power squeezes one vacuum row per
frame) rewrote the ``stream_layout`` line of every summary, the sweep's
lines and digests from 100 mW up, and no heterodyne spectrum's digest;
the first power keeps its stream, so its lines and files are unchanged.
Dropping ``fields.apply_squeezer``'s scalar loop over each row's center
bin, which the array step computes too, changed no golden.  Printing a
level of exactly 0 dB as 0.0000 instead of -0.0000 rewrote the two
``predicted_db`` lines of ``vacuum-selftest``, whose budget floor is 1.
Stream layout 7 (each frame's stream jumped from one base per run and
port, ``test_rng_paths`` checks it against numpy's ``PCG64.jumped``)
rewrote the measured lines and the ``stream_layout`` line of every
heterodyne and sweep summary and the digest of every file drawn from
noise, after the acceptance gate passed at unchanged frame counts, seeds
and tolerances; ``epr-identity``, the sweep's model files and
``appendixG-straightforward``'s dark background are unchanged.
"""

import hashlib
import importlib.util
import os

import numpy as np
import pytest

from sqzbeat.config import list_presets, preset_config
from sqzbeat.runner import run

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
_spec = importlib.util.spec_from_file_location("regenerate", os.path.join(GOLDEN, "regenerate.py"))
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)


NUMPY_VERSIONS = f"goldens written with numpy {regenerate.recorded_numpy()}, running numpy {np.__version__}"


@pytest.mark.parametrize("name", [name for name, _ in list_presets()])
def test_golden_summary(name, tmp_path):
    run(preset_config(name), frames=regenerate.summary_frames(name), out_dir=str(tmp_path), workers=1)
    with open(os.path.join(GOLDEN, f"{name}.summary.txt"), "rb") as fh:
        expected = fh.read()
    assert (tmp_path / "summary.txt").read_bytes() == expected, NUMPY_VERSIONS


@pytest.mark.parametrize("name", [name for name, _ in list_presets()])
def test_golden_summary_prints_no_negative_zero(name):
    # a level of exactly 0 dB (a predicted floor of 1, a 0 mW pump) reads 0.0000
    with open(os.path.join(GOLDEN, f"{name}.summary.txt"), encoding="utf-8") as fh:
        assert [line for line in fh if "=-0.0000" in line] == []


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
@pytest.mark.parametrize("name", [name for name, _, _ in regenerate.BOUNDARY_RUNS])
def test_golden_outputs_across_chunk_and_block_boundaries(name, workers, tmp_path):
    run(regenerate.boundary_config(name), frames=130, out_dir=str(tmp_path), workers=workers)
    got = {
        filename: hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest()
        for filename in sorted(os.listdir(tmp_path))
    }
    assert got == _block_boundary_digests(name), NUMPY_VERSIONS
