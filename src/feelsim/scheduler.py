"""Device eligibility filtering and the scheduling policies.

Eligibility applies the hard constraints every policy shares: battery floor,
SNR floor, a completion-time budget under a conservative equal-share
bandwidth estimate, and a minimum local data size (a device with fewer
samples than one mini-batch cannot contribute a meaningful update).

Every policy picks k of ``filter_eligible``'s output and checks no deadline
of its own: a device that finishes in time at the filter's share
total_bandwidth / N also does at a selection's larger share
total_bandwidth / k; the engine records each participant's actual time.
Policies:

* ``schedule_pre_training``   - score eligible devices on reported data
  diversity, battery, and channel quality before any training happens.
* ``schedule_post_training``  - rank devices on their reported model
  diversity index after everyone trained, upload only the top K.
* ``schedule_random``         - uniform without replacement.
* ``schedule_data_size_priority`` - selection probability proportional to
  local sample count (or its inverse, for comparison with the literal
  description of that policy).
* ``schedule_age_fair``       - pick the devices that have waited longest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .domain import DeviceProfile, ScheduleDecision, require_finite, require_simplex
from .errors import DegenerateWeightsError, UnreachableDeviceError, ValidationError
from .network import NetworkConfig, allocate_bandwidth, expected_completion_time


@dataclass(frozen=True)
class ConstraintConfig:
    """Hard participation constraints checked before every round."""

    min_battery: float = 0.05
    min_snr_db: float = -10.0
    completion_threshold: float = math.inf
    min_participants: int = 1
    min_data_size: int = 1

    def __post_init__(self):
        if not (0.0 <= self.min_battery <= 1.0):
            raise ValidationError("battery_out_of_range")
        if self.completion_threshold <= 0:
            raise ValidationError("nonpositive_threshold")
        if self.min_participants < 1:
            raise ValidationError("nonpositive_participants")
        if self.min_data_size < 0:
            raise ValidationError("negative_data_size")
        require_finite(self, "min_snr_db", "completion_threshold")


@dataclass(frozen=True)
class ScoreWeights:
    """Convex weights for the pre-training score."""

    w_diversity: float = 0.6
    w_battery: float = 0.2
    w_channel: float = 0.2

    def __post_init__(self):
        require_simplex(self.w_diversity, self.w_battery, self.w_channel)


def filter_eligible(devices, constraints: ConstraintConfig, net: NetworkConfig, epochs: int) -> list:
    """Devices passing every hard constraint, input order preserved.

    The completion check uses an equal share of the band across all offered
    devices, the most pessimistic share a selected device could end up with.
    Devices whose rate underflows are unreachable and dropped.
    """
    offered = list(devices)
    share = net.total_bandwidth / max(len(offered), 1)
    eligible = []
    for dev in offered:
        if dev.battery_level <= 0 or dev.battery_level < constraints.min_battery:
            continue
        if dev.channel.snr_db < constraints.min_snr_db:
            continue
        if dev.dataset.n_samples < constraints.min_data_size:
            continue
        try:
            completion = expected_completion_time(dev, net, share, epochs)
        except UnreachableDeviceError:
            continue
        if completion > constraints.completion_threshold:
            continue
        eligible.append(dev)
    return eligible


def _minmax(values: np.ndarray) -> np.ndarray:
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.full(values.shape, 0.5)
    return (values - lo) / (hi - lo)


def _top_k(
    eligible: list, k: int, rank: Callable[[], list], constraints: ConstraintConfig, net: NetworkConfig, epochs: int
) -> ScheduleDecision:
    """The selection path every policy shares.

    ``rank()`` orders the non-empty ``eligible`` list best first; it may stop
    after k.  The first k get the band; the round is valid with at least
    ``min_participants`` of them.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    chosen = rank()[:k] if eligible else []
    shares = allocate_bandwidth(chosen, net, epochs) if chosen else {}
    assert sum(shares.values()) <= net.total_bandwidth * (1.0 + 1e-9)
    return ScheduleDecision(tuple(d.id for d in chosen), shares, len(chosen) >= constraints.min_participants)


def schedule_pre_training(
    eligible: list,
    diversity: Mapping,
    k: int,
    weights: ScoreWeights,
    constraints: ConstraintConfig,
    net: NetworkConfig,
    epochs: int,
) -> ScheduleDecision:
    """Top-K eligible devices by blended diversity / battery / channel score.

    ``diversity`` maps device id to the scalar index each device reported.
    Diversity and SNR are min-max normalized over the eligible set (a
    constant field normalizes to 0.5 so its weight shifts every score
    equally); battery is already a fraction and enters as-is.  Ties break
    toward the lower device id.
    """

    def rank() -> list:
        div = _minmax(np.array([float(diversity[d.id]) for d in eligible]))
        snr = _minmax(np.array([d.channel.snr_db for d in eligible]))
        batt = np.array([d.battery_level for d in eligible])
        score = weights.w_diversity * div + weights.w_battery * batt + weights.w_channel * snr
        return [eligible[i] for i in sorted(range(len(eligible)), key=lambda i: (-score[i], eligible[i].id))]

    return _top_k(eligible, k, rank, constraints, net, epochs)


def schedule_post_training(
    eligible: list,
    indices: Mapping,
    k: int,
    constraints: ConstraintConfig,
    net: NetworkConfig,
    epochs: int,
) -> ScheduleDecision:
    """Top-K eligible devices by reported model-diversity index (already clamped)."""

    def rank() -> list:
        return sorted(eligible, key=lambda d: (-float(indices[d.id]), d.id))

    return _top_k(eligible, k, rank, constraints, net, epochs)


def schedule_random(
    eligible: list,
    k: int,
    seed: int,
    constraints: ConstraintConfig,
    net: NetworkConfig,
    epochs: int,
) -> ScheduleDecision:
    """Uniform without-replacement draw of k eligible devices: the baseline."""

    def rank() -> list:
        picks = np.random.default_rng(seed).choice(len(eligible), size=min(k, len(eligible)), replace=False)
        return [eligible[i] for i in picks]

    return _top_k(eligible, k, rank, constraints, net, epochs)


def schedule_data_size_priority(
    eligible: list,
    k: int,
    seed: int,
    constraints: ConstraintConfig,
    net: NetworkConfig,
    epochs: int,
    inverse: bool = False,
) -> ScheduleDecision:
    """Weighted draw of eligible devices, with probability proportional to local sample count.

    ``inverse=True`` flips the weights to 1/size, matching the literal
    wording sometimes used for this policy; the default favors large
    datasets, which is the variant that actually prioritizes data volume.
    """

    def rank() -> list:
        sizes = np.array([d.dataset.n_samples for d in eligible], dtype=float)
        weights = np.where(sizes > 0, 1.0 / np.maximum(sizes, 1e-300), 0.0) if inverse else sizes
        if not weights.sum() > 0:
            raise DegenerateWeightsError("every eligible device has zero-size data")
        if k >= len(eligible):
            return list(eligible)
        rng = np.random.default_rng(seed)
        remaining = list(range(len(eligible)))
        chosen = []
        for _ in range(k):
            w = weights[remaining]
            total = w.sum()
            if total > 0:
                pick = rng.choice(len(remaining), p=w / total)
            else:
                pick = rng.integers(0, len(remaining))
            chosen.append(eligible[remaining.pop(int(pick))])
        return chosen

    return _top_k(eligible, k, rank, constraints, net, epochs)


def schedule_age_fair(
    eligible: list,
    k: int,
    current_round: int,
    constraints: ConstraintConfig,
    net: NetworkConfig,
    epochs: int,
) -> ScheduleDecision:
    """Pick the eligible devices that have gone longest without contributing.

    A device that never participated has infinite age and wins outright;
    ties break toward fewer total participations, then the lower id.
    """

    def age(dev: DeviceProfile) -> float:
        if dev.last_participation_round is None:
            return math.inf
        return float(current_round - dev.last_participation_round)

    def rank() -> list:
        return sorted(eligible, key=lambda d: (-age(d), d.participation_count, d.id))

    return _top_k(eligible, k, rank, constraints, net, epochs)


def jain_fairness(counts) -> float:
    """Jain's index (sum x)^2 / (n * sum x^2) over participation counts.

    1 when every device contributed equally, 1/n when a single device did
    all the work.  An all-zero history counts as perfectly fair.
    """
    values = counts.values() if isinstance(counts, Mapping) else counts
    x = np.asarray(list(values), dtype=float)
    if x.size == 0:
        raise ValueError("fairness of an empty count vector")
    if np.any(x < 0):
        raise ValueError("participation counts must be nonnegative")
    total = x.sum()
    if total == 0:
        return 1.0
    return float(total * total / (x.size * (x * x).sum()))
