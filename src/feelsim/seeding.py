"""Deterministic random-stream derivation.

Every random draw in a simulation descends from a single master seed through
``numpy`` SeedSequence spawn keys.  Streams are keyed by a stream id plus the
relevant device id and round index coordinates.  The ``CHANNEL`` stream is
keyed by (round, block of 256 device ids): one draw of 256 normals per block
and round, of which each device reads its own element.  So randomness is
independent per (device, round) pair: adding a device or extending a run
never perturbs the draws of any other (device, round) pair.
"""

from __future__ import annotations

import numpy as np

# Stream ids; one per independent source of randomness in a run.
POOL = 0
SPLIT = 1
PARTITION = 2
FLEET = 3
MODEL_INIT = 4
CHANNEL = 5
TRAINING = 6
SCHEDULING = 7


def substream(master_seed: int, *key: int) -> np.random.Generator:
    """Generator for the stream identified by ``key`` under ``master_seed``."""
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=tuple(key)))


def derive_seed(master_seed: int, *key: int) -> int:
    """Stable integer seed for APIs that accept a seed instead of a Generator."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(key))
    return int(seq.generate_state(1, dtype=np.uint64)[0])
