"""Deterministic random substreams.

Every stochastic input of a run (each vacuum port, the electronic noise,
the per-arm readout noise, ...) draws from its own counter-keyed substream
of one master seed.  Streams are addressed by integer paths, so frame
order, scheme variants and worker counts can never change a realization.

``substream`` extends a seed's spawn key by a path; functions that take
a ``seed`` accept an int or a ``SeedSequence``.  A run draws first and
transforms after: its block step draws each port's standard normals
through its chunk's ``ChunkStreams`` and passes the arrays on, so the
physics functions take drawn noise, never a seed.

Stream layout 6.  Heterodyne runs draw exactly what layouts 4 and 5
drew; only the pump sweep changed (below).  A heterodyne frame is keyed
(run, frame index, port), with the ports of layout 3:

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

A run does not build a generator per stream.  ``ChunkStreams`` hashes
the PCG64 states of every (run, frame, port) key of a chunk once, in one
numpy pass (``pcg64_states``: numpy's ``SeedSequence`` hash, then PCG64's
seeding), and each stream is drawn through one reused generator whose
state is set to the stream's start (``ChunkStreams.fill``).  The states
are bit for bit those of ``generator(substream(seed, *key))``, so the
draws are too.  On a 2-vCPU VM (numpy 2.4.6) the hash costs about 2 us
per key of a 128-frame chunk and a state set about 2.4 us, where
building a ``SeedSequence`` and its PCG64 costs about 20 us.

The pump sweep keys (``RUN_SWEEP``, frame index, 0), and since layout 6
every pump power reads that one vacuum row, where layout 5 drew a stream
(10 + pump, frame index, 0) per power; the first power's key is
unchanged.  No power squeezes the row itself: its gains map the summed
moments of the row's quadratures to its spectra, once per run
(``runner``).  The row holds only the 2m + 1 sidebands within the
anchor's margin that the sweep's quadratures read, real parts then
imaginary parts, in offset order -m..m: one stream and 2598 normals per
frame on ``appendixE-pump-sweep`` (m = 649), whatever the number of
powers.  The EPR identity run substreams 900 and 901 of the master seed.
"""

from __future__ import annotations

import numpy as np

# Version of the stream layout above; heterodyne and sweep summaries record it.
STREAM_LAYOUT = 6

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

# numpy's SeedSequence (O'Neill's seed_seq hash on a pool of 4 uint32
# words) and PCG64's 128-bit multiplier, as documented with numpy.random.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def as_seed_sequence(seed) -> np.random.SeedSequence:
    """Coerce an int or SeedSequence into a SeedSequence."""
    if isinstance(seed, np.random.SeedSequence):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.SeedSequence(int(seed))
    raise TypeError(f"seed must be an int or SeedSequence, got {type(seed).__name__}")


def substream(seed, *path: int) -> np.random.SeedSequence:
    """Child SeedSequence addressed by an integer path.

    Extending the spawn key (rather than calling ``spawn``) keeps the
    derivation stateless: the same (seed, path) always yields the same
    stream no matter how many other streams were derived before it.
    """
    seed = as_seed_sequence(seed)
    return np.random.SeedSequence(seed.entropy, spawn_key=(*seed.spawn_key, *map(int, path)))


def generator(seed) -> np.random.Generator:
    """PCG64 generator on the stream of ``seed``."""
    return np.random.default_rng(as_seed_sequence(seed))


def _words(value: int) -> list[int]:
    """The uint32 words of a non-negative int, least significant first."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hashmix(value, const: int):
    """One step of the seed hash on an int or a uint32 array; ``const`` is
    the hash constant before the step multiplies it by ``_MULT_A``."""
    value = value ^ const
    value = value * (const * _MULT_A & _MASK32) & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    r = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return r ^ r >> 16


def _hash_constants(init: int, mult: int, count: int) -> list[int]:
    out = [init]
    while len(out) < count:
        out.append(out[-1] * mult & _MASK32)
    return out


def _entropy_pool(entropy: int) -> tuple[list[int], int]:
    """The seed hash's pool after the words of ``entropy`` and the hash
    constant it continues with.  A spawn key follows the entropy, which is
    zero-padded to the pool size, so this part is shared by every key."""
    words = _words(entropy)
    words += [0] * (_POOL_SIZE - len(words))
    consts = iter(_hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * len(words) + 1))
    pool = [_hashmix(w, next(consts)) for w in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], next(consts)))
    for w in words[_POOL_SIZE:]:
        pool = [_mix(p, _hashmix(w, next(consts))) for p in pool]
    return pool, next(consts)


def pcg64_states(entropy: int, spawn_keys) -> list[tuple[int, int]]:
    """PCG64 states of ``generator(substream(entropy, *key))`` for each
    spawn key, rows of equal length whose entries are each below 2^32.

    One numpy pass over the keys: every spawn word is mixed into the pool
    (the 4 pool words at once), the pool gives the 8 output words of
    ``SeedSequence.generate_state(4, uint64)``, and PCG64 seeds from them
    with two 128-bit LCG steps.  Returns the ``(state, inc)`` pairs of
    ``PCG64.state``.
    """
    keys = np.asarray(spawn_keys, dtype=np.int64)
    if not keys.size:
        return []
    if not (keys.min() >= 0 and keys.max() <= _MASK32):
        raise ValueError("spawn key entries must lie in [0, 2^32)")
    pool, const = _entropy_pool(int(entropy))
    consts = _hash_constants(const, _MULT_A, _POOL_SIZE * keys.shape[1])
    pool = np.array(pool, dtype=np.uint32)
    for j, word in enumerate(keys.astype(np.uint32).T):
        mult = np.array(consts[_POOL_SIZE * j : _POOL_SIZE * (j + 1)], dtype=np.uint32)
        pool = _mix(pool, _hashmix(word[:, None], mult))
    # generate_state cycles the pool twice; it multiplies its constant
    # before each word, as _hashmix does, by _MULT_B instead of _MULT_A.
    consts = _hash_constants(_INIT_B, _MULT_B, 9)
    out = np.tile(pool, 2) ^ np.array(consts[:-1], dtype=np.uint32)
    out *= np.array(consts[1:], dtype=np.uint32)
    out ^= out >> 16
    # Little-endian word pairs: the halves of the seed s and of the sequence i.
    halves = out.astype("<u4").view("<u8").astype(np.uint64).tolist()
    states = []
    for s_hi, s_lo, i_hi, i_lo in halves:
        inc = (i_hi << 65 | i_lo << 1 | 1) & _MASK128
        states.append((((s_hi << 64 | s_lo) + inc) * _PCG64_MULT + inc & _MASK128, inc))
    return states


class ChunkStreams:
    """The streams of one chunk of a run: the (run, frame, port) keys of a
    master seed over a range of frames and a set of ports.

    Their states are hashed once, in one ``pcg64_states`` pass, and every
    stream is drawn through one reused PCG64 generator.
    """

    def __init__(self, entropy: int, run: int, frames: range, ports: tuple[int, ...]):
        self.entropy, self.run = entropy, run
        keys = [(run, i, port) for i in frames for port in ports]
        self._states = dict(zip(keys, pcg64_states(entropy, keys)))
        self._bitgen = np.random.PCG64(0)
        self._generator = np.random.Generator(self._bitgen)

    def generator(self, frame: int, port: int) -> np.random.Generator:
        """The reused generator, set to the start of stream (run, frame, port)."""
        state, inc = self._states[self.run, frame, port]
        self._bitgen.state = {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0
        }
        return self._generator

    def fill(self, frames: range, port: int, out: np.ndarray) -> np.ndarray:
        """Fill ``out``, one row per frame, with the standard normals each
        frame's stream of ``port`` starts with; a row's entries are drawn
        in C order.  Returns ``out``."""
        for row, i in zip(out, frames, strict=True):
            self.generator(i, port).standard_normal(out=row)
        return out
