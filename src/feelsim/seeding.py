"""Deterministic random-stream derivation.

Every random draw in a simulation descends from a single master seed through
``numpy`` SeedSequence spawn keys.  Streams are keyed by a stream id plus the
relevant device id and round index coordinates.  The ``CHANNEL`` stream is
keyed by (round, block of 256 device ids): one draw of 256 normals per block
and round, of which each device reads its own element.  So randomness is
independent per (device, round) pair: adding a device or extending a run
never perturbs the draws of any other (device, round) pair.

``substream`` and ``derive_seed`` hash one key with numpy's SeedSequence.
Where many keys differ only in the device id (a round's ``TRAINING`` seeds,
a fleet's ``FLEET`` streams), ``substream_seeds`` and ``derived_seeds`` let
numpy's SeedSequence hash the words every device shares, the master seed and
the stream id, once; a lane kernel over numpy ``uint32`` arrays, one lane
per device, hashes only the id and the key words after it.  Each device's
PCG64 seeding words come out as a ``PresetSeed``, from which
``np.random.default_rng`` builds the Generator of the one-key path, bit for
bit.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.random.bit_generator import ISeedSequence

# Stream ids; one per independent source of randomness in a run.
POOL = 0
SPLIT = 1
PARTITION = 2
FLEET = 3
MODEL_INIT = 4
CHANNEL = 5
TRAINING = 6
SCHEDULING = 7

# numpy's SeedSequence constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_NEXT_WORD = np.uint32(pow(_MULT_A, _POOL_SIZE, 1 << 32))  # from a key word's hash constants to the next word's
_PCG64_WORDS = 8  # PCG64 seeds from generate_state(4, uint64): eight uint32 words


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by ``key`` under ``master_seed``."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable integer seed for APIs that accept a seed instead of a Generator."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(seq.generate_state(1, dtype=np.uint64)[0])


class PresetSeed(ISeedSequence):
    """A SeedSequence reduced to the four uint64 words a PCG64 seeds from.

    ``np.random.default_rng(PresetSeed(words))`` is the Generator of the
    sequence the words came from, built without hashing.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        # PCG64 passes np.uint64 itself, which the identity test takes without building a dtype
        if n_words != 4 or dtype is not np.uint64 and np.dtype(dtype) != np.uint64:
            raise ValueError("a PresetSeed holds only the 4 uint64 words that seed a PCG64")
        return self.words.copy()


def substream_seeds(master_seed: int, stream: int, ids, *rest: int):
    """For each id, the seed of ``substream(master_seed, stream, id, *rest)``.

    An iterator of ``PresetSeed``s in the order of ``ids``, which are ints in
    [0, 2**32).
    """
    return _presets(_spawned_state(master_seed, stream, ids, rest, _PCG64_WORDS))


def derived_seeds(master_seed: int, stream: int, ids, *rest: int):
    """For each id, the seed ``np.random.default_rng(derive_seed(master_seed, stream, id, *rest))`` uses.

    An iterator of ``PresetSeed``s in the order of ``ids``, which are ints in
    [0, 2**32).
    """
    seeds = _spawned_state(master_seed, stream, ids, rest, 2)  # derive_seed's uint64 as its two uint32 words
    return _presets(_generate(_unspawned_pool(seeds), _PCG64_WORDS))


def _presets(state: np.ndarray):
    """One ``PresetSeed`` per lane of eight uint32 state words (columns of ``state``)."""
    words = np.ascontiguousarray(state.T, dtype="<u4").view("<u8").astype(np.uint64, copy=False)
    return map(PresetSeed, words)


def _words(n: int) -> list:
    """A nonnegative int as SeedSequence reads it: little-endian uint32 words, ``[0]`` for 0."""
    if n < 0:
        raise ValueError(f"seed words must be nonnegative, got {n}")
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _constants(const: int, mult: int, count: int) -> list:
    """``const`` and the ``count`` hash constants after it."""
    out = [const]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return out


def _column(values: list) -> np.ndarray:
    """Words as a read-only uint32 column, one row per pool or state word."""
    column = np.array(values, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(value, const, successor):
    """numpy's ``hashmix`` of uint32 lanes; ``successor`` is ``const * MULT_A``."""
    value = (value ^ const) * successor
    return value ^ value >> 16


def _mix(x, y):
    """numpy's ``mix`` of two uint32 lane arrays."""
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> 16


@functools.lru_cache(maxsize=16)
def _spawn_prefix(master_seed: int, stream: int):
    """The pool numpy's ``mix_entropy`` makes of the key words before the device id.

    Returns that pool and the hash constants and successors the id takes,
    one per pool word.  ``mix_entropy`` takes four hash constants per entropy
    word, and a spawn key zero-pads the run entropy to the four-word pool, so
    the id's first constant is the ``4 * n``-th after ``_INIT_A``, with ``n``
    words before the id.
    """
    pool = np.random.SeedSequence(master_seed, spawn_key=(stream,)).pool
    n = max(len(_words(master_seed)), _POOL_SIZE) + len(_words(stream))
    for_id = _constants(_INIT_A * pow(_MULT_A, _POOL_SIZE * n, 1 << 32) & _MASK32, _MULT_A, _POOL_SIZE)
    return _column(pool), _column(for_id[:-1]), _column(for_id[1:])


def _spawned_state(master_seed: int, stream: int, ids, rest: tuple, n_words: int) -> np.ndarray:
    """``SeedSequence(master_seed, spawn_key=(stream, id, *rest)).generate_state(n_words)``, one column per id.

    numpy hashes the words before the id, once per (master seed, stream);
    the id and each word after it are mixed into all four pool words of
    every lane at once.
    """
    pool, const, successor = _spawn_prefix(master_seed, stream)
    lanes = _mix(pool, _hashmix(np.array(ids, dtype=np.uint32), const, successor))
    for word in (w for r in rest for w in _words(r)):
        const, successor = const * _NEXT_WORD, successor * _NEXT_WORD
        lanes = _mix(lanes, _hashmix(np.uint32(word), const, successor))
    return _generate(lanes, n_words)


# numpy's mix_entropy of 4 words per lane without a spawn key: each pool word
# takes one hash constant, then each source word, in turn, is hashed into the
# three others, one constant per hash
_FILL = _constants(_INIT_A, _MULT_A, _POOL_SIZE * _POOL_SIZE)


def _cross_constants(src: int):
    """Per pool row, the constant and successor of its hash of word ``src`` (the ``src`` row's is unused)."""
    at = [_POOL_SIZE + 3 * src + dst - (dst >= src) for dst in range(_POOL_SIZE)]
    return src, _column([_FILL[i] for i in at]), _column([_FILL[i + 1] for i in at])


_CROSS = [_cross_constants(src) for src in range(_POOL_SIZE)]


def _unspawned_pool(entropy: np.ndarray) -> np.ndarray:
    """numpy's ``mix_entropy`` without a spawn key, for at most 4 words per lane (columns of ``entropy``)."""
    words = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    words[: entropy.shape[0]] = entropy
    pool = _hashmix(words, _column(_FILL[:_POOL_SIZE]), _column(_FILL[1 : _POOL_SIZE + 1]))
    for src, const, successor in _CROSS:
        # every row mixes in the source word's hash; the source row itself keeps its value
        kept = pool[src].copy()
        pool = _mix(pool, _hashmix(kept, const, successor))
        pool[src] = kept
    return pool


_STATE_ROWS = np.arange(_PCG64_WORDS) % _POOL_SIZE
_STATE_CONSTS = _constants(_INIT_B, _MULT_B, _PCG64_WORDS)
_STATE_XOR, _STATE_MUL = _column(_STATE_CONSTS[:-1]), _column(_STATE_CONSTS[1:])


def _generate(pool: np.ndarray, n_words: int) -> np.ndarray:
    """numpy's ``generate_state(n_words, uint32)``, ``n_words <= 8``, of each lane's pool (columns of ``pool``)."""
    state = pool[_STATE_ROWS[:n_words]] ^ _STATE_XOR[:n_words]
    state *= _STATE_MUL[:n_words]
    state ^= state >> 16
    return state
