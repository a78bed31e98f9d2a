"""Deterministic random substreams.

Every stochastic input of a run (each vacuum port, the electronic noise,
the per-arm readout noise, ...) draws from its own stream of one master
seed.  Streams are addressed by integer keys, so frame order, scheme
variants and worker counts can never change a realization.

``substream`` extends a seed's spawn key by a path; functions that take
a ``seed`` accept an int or a ``SeedSequence``.  A run draws first and
transforms after: its block step draws each port's standard normals
through its chunk's ``ChunkStreams`` and passes the arrays on, so the
physics functions take drawn noise, never a seed.

Stream layout 7.  A frame's stream is keyed (run, frame index, port),
with the ports of layout 3, and is numpy's jumped PCG64

    PCG64(substream(seed, run, port)).jumped(frame)

so every frame of a (run, port) jumps from one base generator seeded
through numpy's ``SeedSequence``: at most 16 bases per heterodyne run
(15 on ``fig4-demod``, 16 with squeeze-angle jitter) and one per sweep,
whatever the frame count, where layout 6 seeded one per frame.
numpy's reference guide ("Upgrading PCG64 with PCG64DXSM") counts
jumped streams among the uses PCG64's known weakness does not reach.

=================  ==========================================================
port               stream
=================  ==========================================================
``PORT_BEAM1``     the one vacuum row of beam 1's or beam 2's optical path:
``PORT_BEAM2``     the squeezer input, whose gains fold in the path losses,
                   or, unsqueezed, the path noise drawn as time samples
``PORT_DETECTOR``  white electronic noise of the balanced detector
``PORT_PHASE``     classical phase noise on beam 2
``PORT_ARM1``      readout noise of demod arm 1 (drive-induced excess
``PORT_ARM2``      included on lit acquisitions) and of arm 2 (cross only)
``PORT_JITTER``    squeeze-angle jitter of both squeezers
=================  ==========================================================

On ``fig4-demod`` one frame index (background, reference and target)
opens 15 streams and draws 95000 normals: 3 dark rows of 5000
(electronic noise, two arms), then on the reference and on the target 2
vacuum rows, one per path, and 4 rows of 5000; a vacuum row is 10000
normals.  ``fig3-raw`` opens 9 and draws 65000.

A run does not build a generator per stream.  ``ChunkStreams`` seeds the
bases of a chunk's (run, port) keys once, and opens a frame's stream by
setting one reused PCG64 to its base and advancing it by frame times
the step ``PCG64.jumped`` takes; the draws are bit for bit those of the
jumped generator.  On a 2-vCPU VM (numpy 2.4.6) a base costs about
15 us, and opening a stream about 3 us: 1.5 us to set the state and
1.6 us to advance it, about what layout 6's bulk hash and state set
cost.  Each chunk seeds its own bases rather than taking them from the
run: the 15 of a 128-frame ``fig4-demod`` chunk cost about 0.2 ms of its
120 ms, the sweep's one 15 us of 5 ms or more.

The pump sweep keys (``RUN_SWEEP``, frame index, 0), and since layout 6
every pump power reads that one vacuum row, where layout 5 drew a stream
(10 + pump, frame index, 0) per power.  No power squeezes the row
itself: its gains map the summed moments of the row's quadratures to its
spectra, once per run (``runner``).  The row holds only the 2m + 1
sidebands within the anchor's margin that the sweep's quadratures read,
real parts then imaginary parts, in offset order -m..m: one stream and
2598 normals per frame on ``appendixE-pump-sweep`` (m = 649), whatever
the number of powers.  Substreams 900 and 901 of the master seed are the
draws of the sideband-recombination identity's acceptance criterion
(criterion 1 of the tests), read through ``generator``.
"""

from __future__ import annotations

import numpy as np

# Version of the stream layout above; heterodyne and sweep summaries record it.
STREAM_LAYOUT = 7

# Port indices used to key the per-frame substreams of a run.  The triple
# (run kind, frame index, port) fully addresses one noise input.
RUN_BACKGROUND = 0
RUN_REFERENCE = 1
RUN_TARGET = 2
RUN_SWEEP = 10

PORT_BEAM1 = 0
PORT_BEAM2 = 1
PORT_DETECTOR = 2
PORT_PHASE = 3
PORT_ARM1 = 4
PORT_ARM2 = 5
PORT_JITTER = 6
PORTS = (PORT_BEAM1, PORT_BEAM2, PORT_DETECTOR, PORT_PHASE, PORT_ARM1, PORT_ARM2, PORT_JITTER)

# The step ``PCG64.jumped`` advances its state by, once per jump:
# (phi - 1) 2^128 made odd, phi the golden ratio.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835


def substream(seed, *path: int) -> np.random.SeedSequence:
    """Child SeedSequence addressed by an integer path.

    Extending the spawn key (rather than calling ``spawn``) keeps the
    derivation stateless: the same (seed, path) always yields the same
    stream no matter how many other streams were derived before it.
    """
    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    return np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, *map(int, path)))


def generator(seed) -> np.random.Generator:
    """PCG64 generator on the stream of ``seed``.

    No run reads it (runs draw through ``ChunkStreams``); only the tests
    and the benchmark's tracer do."""
    return np.random.default_rng(seed)


class ChunkStreams:
    """The streams of one chunk of a run: the (run, frame, port) keys of a
    master seed over a set of ports.

    Each port's base is seeded once, and every stream is drawn through one
    reused PCG64 generator.
    """

    def __init__(self, entropy: int, run: int, ports: tuple[int, ...]):
        self.entropy, self.run = entropy, run
        self._bases = {port: np.random.PCG64(substream(entropy, run, port)).state for port in ports}
        self._bitgen = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bitgen)

    def generator(self, frame: int, port: int) -> np.random.Generator:
        """The reused generator, set to the start of stream (run, frame, port)."""
        self._bitgen.state = self._bases[port]
        self._bitgen.advance(frame * _JUMP)
        return self._generator

    def fill(self, frames: range, port: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, one row per frame, with the standard normals each
        frame's stream of ``port`` starts with; a row's entries are drawn
        in C order.  Returns ``out``."""
        for row, i in zip(out, frames, strict=True):
            self.generator(i, port).standard_normal(out=row)
        return out
