"""The vectorized seed derivation against numpy's SeedSequence, its oracle."""

from __future__ import annotations

import numpy as np
import pytest

from feelsim import seeding
from feelsim.seeding import PresetSeed, derive_seed, derived_seeds, substream, substream_seeds

# 1, 2, 3, 4 and 5 uint32 words of run entropy; a spawn key pads those under 4
MASTERS = [0, 2**32 - 1, 2**32, 2**64 + 7, 2**96 + 5, 2**130 + 3]
IDS = [0, 1, 255, 256, 1999, 2**32 - 1]
# the last round is two key words
ROUNDS = [0, 1, 2**31, 2**32 + 1]


def _state(seed: PresetSeed) -> dict:
    return np.random.default_rng(seed).bit_generator.state


@pytest.mark.parametrize("master", MASTERS)
@pytest.mark.parametrize("n_words", [1, 2, 8])
def test_spawned_state_is_seedsequence_generate_state(master, n_words):
    for stream, rest in ((seeding.FLEET, ()), *((seeding.TRAINING, (rnd,)) for rnd in ROUNDS)):
        got = seeding._spawned_state(master, stream, IDS, rest, n_words)
        assert got.dtype == np.uint32 and got.shape == (n_words, len(IDS))
        for lane, device in enumerate(IDS):
            seq = np.random.SeedSequence(master, spawn_key=(stream, device, *rest))
            assert np.array_equal(got[:, lane], seq.generate_state(n_words))


@pytest.mark.parametrize("master", MASTERS)
@pytest.mark.parametrize("rnd", ROUNDS)
def test_training_seeds_build_the_generator_of_the_derived_int_seed(master, rnd):
    seeds = list(derived_seeds(master, seeding.TRAINING, IDS, rnd))
    assert len(seeds) == len(IDS)
    for device, seed in zip(IDS, seeds):
        want = np.random.default_rng(derive_seed(master, seeding.TRAINING, device, rnd))
        assert np.array_equal(seed.words, want.bit_generator.seed_seq.generate_state(4, np.uint64))
        assert _state(seed) == want.bit_generator.state


@pytest.mark.parametrize("master", MASTERS)
def test_fleet_seeds_build_the_substream_generator(master):
    seeds = list(substream_seeds(master, seeding.FLEET, IDS))
    assert len(seeds) == len(IDS)
    for device, seed in zip(IDS, seeds):
        rng = np.random.default_rng(seed)
        want = substream(master, seeding.FLEET, device)
        assert rng.bit_generator.state == want.bit_generator.state
        assert np.array_equal(rng.uniform(size=5), want.uniform(size=5))


def test_no_ids_yield_no_seeds():
    # a pre-training round that aborts trains no device
    assert list(derived_seeds(3, seeding.TRAINING, [], 4)) == []
    assert list(substream_seeds(3, seeding.FLEET, [])) == []


def test_a_device_seed_is_the_same_alone_or_in_a_batch():
    batch = list(range(300))
    together = [s.words for s in derived_seeds(11, seeding.TRAINING, batch, 7)]
    fleet = [s.words for s in substream_seeds(11, seeding.FLEET, batch)]
    for device in (0, 150, 299):
        (alone,) = derived_seeds(11, seeding.TRAINING, [device], 7)
        assert np.array_equal(alone.words, together[device])
        (alone,) = substream_seeds(11, seeding.FLEET, [device])
        assert np.array_equal(alone.words, fleet[device])


def test_no_seed_depends_on_id_order():
    ids = [5, 0, 1999, 256, 1, 255]
    forward = {i: s.words for i, s in zip(ids, derived_seeds(2, seeding.TRAINING, ids, 3))}
    backward = {i: s.words for i, s in zip(ids[::-1], derived_seeds(2, seeding.TRAINING, ids[::-1], 3))}
    assert all(np.array_equal(forward[i], backward[i]) for i in ids)
    forward = {i: s.words for i, s in zip(ids, substream_seeds(2, seeding.FLEET, ids))}
    backward = {i: s.words for i, s in zip(ids[::-1], substream_seeds(2, seeding.FLEET, ids[::-1]))}
    assert all(np.array_equal(forward[i], backward[i]) for i in ids)


def test_ids_outside_uint32_are_refused():
    for device in (-1, 2**32):
        with pytest.raises(OverflowError):
            list(derived_seeds(0, seeding.TRAINING, [device], 0))


def test_preset_seed_gives_only_the_pcg64_words():
    (seed,) = substream_seeds(0, seeding.FLEET, [3])
    words = seed.generate_state(4, np.uint64)
    words[0] ^= 1  # the caller's copy, not the seed's words
    assert _state(seed) == substream(0, seeding.FLEET, 3).bit_generator.state
    for n_words, dtype in ((8, np.uint32), (2, np.uint64), (4, np.uint32)):
        with pytest.raises(ValueError, match="4 uint64 words"):
            seed.generate_state(n_words, dtype)
