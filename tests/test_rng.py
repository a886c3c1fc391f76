"""The vectorised Philox keys of ``rng.streams`` against numpy's own
``SeedSequence``, the oracle they re-implement."""

import hashlib

import numpy as np
import pytest

from hsiclab import rng

MASK64 = (1 << 64) - 1
# every label shape the library keys streams with
LABELS = [(), ("landmarks", 0), ("landmarks", 1), ("median",)]
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1, -(2**40) - 3, 2**64 + 5, 2**70 + 2**33]


def entropy_words(seed, labels):
    """The stream's SeedSequence entropy: the seed masked to 64 bits, then
    each label's SHA-256 digest as four little-endian 64-bit words."""
    words = [int(seed) & MASK64]
    for label in labels:
        digest = hashlib.sha256(repr(label).encode("utf-8")).digest()
        words += [int.from_bytes(digest[k : k + 8], "little") for k in range(0, 32, 8)]
    return words


def oracle(seed, *labels):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy_words(seed, labels))))


def key_of(gen):
    return [int(k) for k in gen.bit_generator.state["state"]["key"]]


def state_of(gen):
    """The full Philox state, arrays as lists, so that states compare with ==."""
    state = gen.bit_generator.state
    return (
        {name: value.tolist() for name, value in state["state"].items()},
        state["buffer"].tolist(),
        state["buffer_pos"],
        state["has_uint32"],
        state["uinteger"],
    )


def random_seeds(count, seed):
    """Seeds of every width SeedSequence tells apart: below 2^32 (one word),
    above it (two), with zero low or high words, and negative."""
    r = np.random.default_rng(seed)
    big = [int(x) for x in r.integers(0, 2**63, count // 4)] + [int(x) | 2**63 for x in r.integers(0, 2**63, count // 4)]
    small = [int(x) for x in r.integers(0, 2**32, count // 4)]
    shaped = [int(x) << 32 for x in r.integers(1, 2**32, count // 8)] + [-int(x) for x in r.integers(1, 2**62, count // 8)]
    seeds = big + small + shaped
    r.shuffle(seeds)
    return seeds


class TestKeys:
    def test_mixing_matches_seed_sequence_on_random_entropy(self):
        # 10^4 entropy vectors of 1-11 words, zero words included, in groups
        # of 20 rows that share their words past the pool
        r = np.random.default_rng(2024)
        checked = 0
        for _ in range(500):
            width = int(r.integers(1, 12))
            words = r.integers(0, 2**32, size=(20, width), dtype=np.uint64)
            words[r.random(words.shape) < 0.15] = 0
            words[:, 4:] = words[0, 4:]
            head = np.zeros((20, 4), np.uint32)
            head[:, : min(width, 4)] = words[:, :4]
            keys = rng._philox_keys(head, [int(w) for w in words[0, 4:]])
            for row, key in zip(words, keys):
                expected = np.random.SeedSequence(row.astype(np.uint32)).generate_state(2, np.uint64)
                assert np.array_equal(key, expected), row
                checked += 1
        assert checked == 10_000

    @pytest.mark.parametrize("labels", LABELS, ids=repr)
    def test_streams_match_seed_sequence(self, labels):
        seeds = EDGE_SEEDS + random_seeds(2500, len(labels))
        count = 0
        for seed, gen in zip(seeds, rng.streams(seeds, *labels)):
            expected = oracle(seed, *labels)
            assert key_of(gen) == key_of(expected), seed
            assert gen.standard_normal().hex() == expected.standard_normal().hex(), seed
            count += 1
        assert count == len(seeds)

    @pytest.mark.parametrize("labels", LABELS, ids=repr)
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_stream_draws_are_numpy_draws(self, seed, labels):
        gen, expected = rng.stream(seed, *labels), oracle(seed, *labels)
        assert state_of(gen) == state_of(expected)
        assert np.array_equal(gen.standard_normal((7, 3)), expected.standard_normal((7, 3)))
        assert np.array_equal(gen.choice(50, size=9, replace=False), expected.choice(50, size=9, replace=False))
        assert np.array_equal(gen.integers(0, 1000, 11), expected.integers(0, 1000, 11))
        assert state_of(gen) == state_of(expected)


class TestStreams:
    def test_each_stream_starts_fresh_after_a_half_used_word(self):
        # three 32-bit draws leave half a 64-bit word buffered
        # (has_uint32 = 1); the next seed's stream must not start from it
        seeds = [3, 2**40 + 1, 3]
        for seed, gen in zip(seeds, rng.streams(seeds, "landmarks", 1)):
            expected = oracle(seed, "landmarks", 1)
            draws = gen.integers(0, 2**32, size=3, dtype=np.uint32)
            assert np.array_equal(draws, expected.integers(0, 2**32, size=3, dtype=np.uint32))
            assert state_of(gen) == state_of(expected)
            assert gen.bit_generator.state["has_uint32"] == 1

    def test_seeds_are_read_and_keyed_one_chunk_at_a_time(self, monkeypatch):
        monkeypatch.setattr(rng, "_KEY_CHUNK", 3)
        read = []

        def seeds():
            for seed in EDGE_SEEDS:
                read.append(seed)
                yield seed

        gens = rng.streams(seeds(), "landmarks", 0)
        assert read == []
        for i, (seed, gen) in enumerate(zip(EDGE_SEEDS, gens)):
            assert len(read) == min(len(EDGE_SEEDS), 3 * (i // 3 + 1))
            expected = oracle(seed, "landmarks", 0)
            assert key_of(gen) == key_of(expected), seed
            assert gen.standard_normal().hex() == expected.standard_normal().hex(), seed
        assert read == list(EDGE_SEEDS)

    @pytest.mark.parametrize("labels", LABELS, ids=repr)
    def test_empty_seed_list_yields_nothing(self, labels):
        assert list(rng.streams([], *labels)) == []
