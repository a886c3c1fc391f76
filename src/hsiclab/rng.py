"""Deterministic randomness: one 64-bit seed, labeled independent substreams.

Streams are backed by the counter-based Philox generator, so any
(seed, labels) pair maps to the same stream on every platform and under any
execution order.  Labels are hashed with SHA-256, never with Python's
per-process ``hash``.

A stream's Philox key is what ``np.random.SeedSequence`` makes of the seed
and the label digests; NEP 19 fixes that mixing, so ``streams`` computes it
here for many seeds in one numpy pass.
"""

from __future__ import annotations

import hashlib
from itertools import islice

import numpy as np

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
# SeedSequence's pool size and hash constants (numpy/random/bit_generator.pyx);
# the mixing ones as 0-d arrays, which numpy's operators take fastest
_POOL = 4
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = (np.array(c, np.uint32) for c in (0xCA01F9DD, 0x4973F715, 16))
# seeds keyed per vectorised pass in ``streams``: the per-seed state held at
# once stays bounded however many seeds there are, and one pass (~250 us of
# fixed cost) serves this many of them
_KEY_CHUNK = 1024


def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """init * mult^k mod 2^32 for k < count: hashmix call k XORs with entry
    k and multiplies by entry k + 1."""
    return np.multiply.accumulate(np.array([init] + [mult] * (count - 1), np.uint32), dtype=np.uint32)


def _hashmix(value, xor, mult):
    value = (value ^ xor) * mult
    return value ^ value >> _SHIFT


def _mix(x, y):
    value = _MIX_L * x - _MIX_R * y
    return value ^ value >> _SHIFT


def _philox_keys(head: np.ndarray, tail: list[int]) -> np.ndarray:
    """``SeedSequence(words).generate_state(2, np.uint64)`` for each row of
    ``head``: a row's words are its POOL ``head`` words (zeros past its end)
    and then ``tail``, which every row shares.  Shape (R, 2)."""
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * (_POOL + len(tail)) + 1)
    pool = _hashmix(head, a[:_POOL], a[1 : _POOL + 1])
    # each pool word mixes into the others, sources in order; source s takes
    # calls POOL + 3s .. POOL + 3s + 2, laid out here by destination
    cross = np.zeros((2, _POOL, _POOL), np.uint32)
    cross[:, ~np.eye(_POOL, dtype=bool)] = a[_POOL : _POOL**2], a[_POOL + 1 : _POOL**2 + 1]
    for src, (xor, mult) in enumerate(zip(*cross)):
        mixed = _mix(pool, _hashmix(pool[:, src : src + 1], xor, mult))
        mixed[:, src] = pool[:, src]
        pool = mixed
    # then each further word mixes into every pool word
    rest = a[_POOL**2 :]
    for h in _hashmix(np.array(tail, np.uint32)[:, None], rest[:-1].reshape(-1, _POOL), rest[1:].reshape(-1, _POOL)):
        pool = _mix(pool, h)
    b = _hash_consts(_INIT_B, _MULT_B, _POOL + 1)
    state = _hashmix(pool, b[:-1], b[1:]).astype(np.uint64)
    # little-endian word pairs, as generate_state(2, np.uint64) reads them
    return state[:, 0::2] | state[:, 1::2] << np.uint64(32)


def _label_words(labels: tuple) -> list[int]:
    """The 32-bit entropy words of the label digests: each 64-bit digest
    word as SeedSequence reads an int, 32-bit words, low first, with a high
    word of 0 dropped (the same rule splits the seeds in ``_keys``)."""
    words = []
    for label in labels:
        digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
        for k in range(0, 32, 8):
            word = int.from_bytes(digest[k : k + 8], "little")
            words += [word & _MASK32, word >> 32] if word >> 32 else [word]
    return words


def _keys(seeds, tail: list[int]) -> np.ndarray:
    """The Philox key of the stream of each seed whose labels give the words
    ``tail``, (R, 2)."""
    # a seed below 2^32 is one word, any other seed two
    seeds = np.array([int(seed) & _MASK64 for seed in seeds], dtype=np.uint64)
    low, high = (seeds & np.uint64(_MASK32)).astype(np.uint32), (seeds >> np.uint64(32)).astype(np.uint32)
    keys = np.empty((len(seeds), 2), np.uint64)
    # rows of each width are mixed apart, never padded to a common one
    for rows, seed_words in ((high == 0, (low,)), (high != 0, (low, high))):
        if rows.any():
            words = [w[rows] for w in seed_words] + tail
            head = np.zeros((len(words[0]), _POOL), np.uint32)
            for i, w in enumerate(words[:_POOL]):
                head[:, i] = w
            keys[rows] = _philox_keys(head, words[_POOL:])
    return keys


def streams(seeds, *labels):
    """``stream(seed, *labels)`` for each seed of the iterable ``seeds`` in
    turn, bit for bit.  The seeds are read lazily and keyed in vectorised
    passes over ``_KEY_CHUNK`` of them, and one generator is reset to each
    seed's fresh state, so each is valid until the next is drawn."""
    tail = _label_words(labels)
    bitgen = np.random.Philox(key=0)
    gen = np.random.Generator(bitgen)
    fresh = bitgen.state
    seeds = iter(seeds)
    while chunk := list(islice(seeds, _KEY_CHUNK)):
        for key in _keys(chunk, tail):
            fresh["state"]["key"] = key
            bitgen.state = fresh
            yield gen


def stream(seed: int, *labels) -> np.random.Generator:
    """Philox generator keyed by (seed, labels)."""
    return next(streams((seed,), *labels))


def derive(seed: int, *labels) -> int:
    """64-bit child seed for APIs that take a plain seed."""
    h = hashlib.sha256()
    h.update((int(seed) & _MASK64).to_bytes(8, "little"))
    for label in labels:
        h.update(repr(label).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "little")
