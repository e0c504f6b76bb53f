"""Host-speed calibration of the benchmark's timings.

On a shared machine the host's speed drifts: a fixed loop took anywhere
from 23 to 45 ms on the same 2-core host, in spells lasting up to tens of
seconds, and medians of 20-second runs of identical work differed by a
third.  So every timing sits between two runs of a fixed calibration
kernel that does not use feelsim, and is multiplied by ``REFERENCE_S`` over
the mean of their durations.  A timing then reads as host seconds on a host
that runs the kernel in ``REFERENCE_S``.  The scale cancels the host's
drift but not a change to feelsim, whose code the kernel never calls.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from time import perf_counter

import numpy as np

REFERENCE_S = 0.075
_STEPS = 3000


@dataclass(frozen=True)
class _Record:
    key: int
    level: float


def kernel() -> float:
    """Fixed work in feelsim's mix: tiny numpy products, seeded generators, dataclass and dict churn."""
    rng = np.random.default_rng(0)
    x = rng.standard_normal((16, 16))
    w = rng.standard_normal((6, 16))
    record = _Record(0, 0.0)
    total = 0.0
    for step in range(_STEPS):
        z = x @ w.T
        z = np.exp(z - z.max(axis=1, keepdims=True))
        total += float(z.sum())
        draw = np.random.default_rng(np.random.SeedSequence(7, spawn_key=(step,))).standard_normal()
        record = replace(record, key=step, level=record.level + float(draw))
        total += sum({j: j * 1.5 for j in range(20)}.values())
    return total + record.level


def duration() -> float:
    """Host seconds the kernel takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor for a timing taken between kernel runs of these durations.

    The durations are averaged, not their reciprocals: the mean of
    reciprocals of a noisy duration is biased upward.
    """
    return REFERENCE_S / (0.5 * (before + after))
