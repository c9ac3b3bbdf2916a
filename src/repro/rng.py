"""Deterministic random-number streams for the simulator.

Every stochastic component of the library (deployment, role election,
slicing, MAC backoff, attacks, workloads) draws from a *named* stream
derived from a single root seed.  Two runs with the same root seed and
the same sequence of draws per stream produce byte-identical results,
regardless of the order in which *different* components interleave
their draws.

Usage:

>>> streams = RngStreams(seed=42)
>>> deploy_rng = streams.get("deployment")
>>> mac_rng = streams.get("mac", 17)
>>> mac_rng is streams.get("mac", 17)
True

Building a generator with ``np.random.default_rng(seed)`` spends most of
its time in :class:`numpy.random.SeedSequence` hashing the seed.  A
component that is about to ask for one stream per node calls
:meth:`RngStreams.prime` first: the seed words of every listed stream
are computed in one vectorised pass (:func:`seed_state_words`, a
bit-exact port of numpy's hashing), and :meth:`RngStreams.get` then
builds a primed stream from its precomputed words.  A primed stream is
bit-identical to the unprimed one.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = ["RngStreams", "derive_seed", "seed_state_words"]

_SEED_BYTES = 8

# Constants of numpy's SeedSequence (numpy/random/bit_generator.pyx).
_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
#: ``PCG64`` asks its seed sequence for four 64-bit words.
_STATE_WORDS = 4


def derive_seed(root_seed: int, *labels: object) -> int:
    """Derive a child seed from ``root_seed`` and a tuple of labels.

    The derivation hashes the root seed together with the repr of each
    label, so any hashable/reprable identifiers (strings, ints, tuples)
    can name a stream.  The result is a 64-bit unsigned integer suitable
    for :class:`numpy.random.Generator` seeding.
    """
    hasher = hashlib.blake2b(digest_size=_SEED_BYTES)
    hasher.update(str(int(root_seed)).encode("utf-8"))
    for label in labels:
        hasher.update(b"\x1f")
        hasher.update(repr(label).encode("utf-8"))
    return int.from_bytes(hasher.digest(), "big")


def seed_state_words(seeds: Sequence[int]) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for many seeds.

    A vectorised, bit-exact port of the entropy mixing numpy runs for
    ``np.random.default_rng(s)`` with a 64-bit integer ``s``: the seed
    is split into little-endian 32-bit words, mixed into a pool of four
    words, and the pool is hashed out into eight 32-bit words read as
    four little-endian 64-bit words.  Returns one row per seed, shape
    ``(len(seeds), 4)``, dtype ``uint64``.

    A seed below 2**32 is one entropy word and numpy runs the hash out
    with zeros for the rest of the pool; a seed of 2**32 or more is two
    words whose high word, when zero, hashes the same as that run-out,
    so one code path serves every 64-bit seed.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    entropy = np.zeros((_POOL_SIZE, seeds.shape[0]), dtype=np.uint32)
    entropy[0] = (seeds & np.uint64(_MASK32)).astype(np.uint32)
    entropy[1] = (seeds >> np.uint64(32)).astype(np.uint32)

    hash_const = _INIT_A

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = value * np.uint32(hash_const)
        value ^= value >> _XSHIFT
        return value

    pool = [hashmix(entropy[i]) for i in range(_POOL_SIZE)]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                mixed = _MIX_MULT_L * pool[i_dst] - _MIX_MULT_R * hashmix(
                    pool[i_src]
                )
                mixed ^= mixed >> _XSHIFT
                pool[i_dst] = mixed

    words = np.empty((seeds.shape[0], 2 * _STATE_WORDS), dtype=np.uint32)
    hash_const = _INIT_B
    for i_dst in range(2 * _STATE_WORDS):
        value = pool[i_dst % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = value * np.uint32(hash_const)
        value ^= value >> _XSHIFT
        words[:, i_dst] = value
    return words.astype("<u4").view("<u8").astype(np.uint64)


class _PrecomputedSeed(ISeedSequence):
    """A seed sequence that hands ``PCG64`` one precomputed state row.

    It can seed exactly one ``PCG64`` and cannot ``spawn``.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != _STATE_WORDS or np.dtype(dtype) != np.uint64:
            raise ValueError("a precomputed seed only seeds PCG64")
        return self.words


class RngStreams:
    """A factory of independent, reproducible random generators.

    Parameters
    ----------
    seed:
        Root seed for the whole simulation run.
    """

    def __init__(self, seed: int = 0):
        self._seed = int(seed)
        self._cache: Dict[Tuple[object, ...], np.random.Generator] = {}
        #: precomputed PCG64 state words of primed, not yet built streams
        self._primed: Dict[Tuple[object, ...], np.ndarray] = {}

    @property
    def seed(self) -> int:
        """The root seed this factory was constructed with."""
        return self._seed

    def get(self, name: str, *qualifiers: object) -> np.random.Generator:
        """Return the generator for stream ``name`` (+ optional qualifiers).

        Repeated calls with the same labels return the *same* generator
        object, so sequential draws continue the stream rather than
        restarting it.
        """
        key = (name, *qualifiers)
        generator = self._cache.get(key)
        if generator is None:
            words = self._primed.pop(key, None)
            if words is None:
                generator = np.random.default_rng(derive_seed(self._seed, *key))
            else:
                generator = np.random.Generator(
                    np.random.PCG64(_PrecomputedSeed(words))
                )
            self._cache[key] = generator
        return generator

    def prime(self, name: str, ids: Iterable[object]) -> None:
        """Precompute the seeds of streams ``(name, i)`` for every ``i``.

        Costs one BLAKE2b :func:`derive_seed` per id plus one vectorised
        hashing pass; a later :meth:`get` of a primed stream skips
        numpy's per-seed hashing.  Streams already built or primed are
        left alone.
        """
        keys = [
            key
            for key in ((name, i) for i in ids)
            if key not in self._cache and key not in self._primed
        ]
        rows = seed_state_words([derive_seed(self._seed, *key) for key in keys])
        self._primed.update(zip(keys, rows))

    def spawn(self, *labels: object) -> "RngStreams":
        """Return a new factory whose root seed is derived from this one.

        Useful to give each repetition of an experiment its own
        independent universe of streams.
        """
        return RngStreams(derive_seed(self._seed, "spawn", *labels))

    def __repr__(self) -> str:
        return f"RngStreams(seed={self._seed})"
