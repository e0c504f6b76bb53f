"""Device eligibility filtering and the scheduling policies.

Eligibility applies the hard constraints every policy shares: battery floor,
SNR floor, a completion-time budget under a conservative equal-share
bandwidth estimate, and a minimum local data size.

Every policy picks k of ``filter_eligible``'s output and checks no deadline
of its own: a device that finishes in time at the filter's share
total_bandwidth / N also does at a selection's larger share
total_bandwidth / k; the engine records each participant's actual time.
The ranked policies order by one rule, ``_best_first``: descending score,
then ascending tie keys, then lower id, a NaN score last.  Policies:

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

from .domain import ScheduleDecision, require_finite, require_simplex
from .errors import DegenerateWeightsError, ValidationError
from .network import (
    NetworkConfig,
    _log1p_snr,
    allocate_bandwidth,
    expected_completion_time,  # not called here: perfbench/layers.py wraps this name
)


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
    Devices whose rate underflows are unreachable and dropped, and so are
    devices whose completion time is not at most the deadline, a NaN time
    included.

    One pass with the network formulas written out, in the operation order
    of ``expected_completion_time(dev, net, share, epochs)``:
    ``epochs * n * cycles / f + bits / (share * ln(1 + snr) / ln 2)``, so
    every completion time has its bits.  ``ln(1 + snr)`` is
    ``network._log1p_snr`` written out, one ``math.log1p`` per device, with
    that helper called only where ``10^(snr/10)`` overflows.  As there, a
    share that underflows to 0 raises ``ValueError`` once a device passes
    the battery, SNR and size checks, and so does ``epochs < 1`` once one
    of them is reachable.
    """
    offered = list(devices)
    share = net.total_bandwidth / max(len(offered), 1)
    min_battery, min_snr, min_size = constraints.min_battery, constraints.min_snr_db, constraints.min_data_size
    deadline, bits, ln2 = constraints.completion_threshold, net.model_size_bits, math.log(2.0)
    log1p = math.log1p
    eligible = []
    for dev in offered:
        battery = dev.battery_level
        if battery <= 0 or battery < min_battery:
            continue
        snr = dev.channel.snr_db
        if snr < min_snr:
            continue
        n = dev.dataset.n_samples
        if n < min_size:
            continue
        try:
            rate = share * log1p(10.0 ** (snr / 10.0)) / ln2
        except OverflowError:  # above about 3080 dB
            rate = share * _log1p_snr(snr) / ln2
        if not rate > 0.0:  # a share of 0 gives a rate of 0 or NaN
            if share <= 0:
                raise ValueError("bandwidth must be positive")
            if rate <= 0.0:
                continue  # unreachable
        if epochs < 1:
            raise ValueError("need n_samples >= 0 and epochs >= 1")
        if not epochs * n * dev.cpu_cycles_per_sample / dev.cpu_freq + bits / rate <= deadline:
            continue  # too slow, or a NaN time from a NaN cpu_freq or cpu_cycles_per_sample
        eligible.append(dev)
    return eligible


def _minmax(values: np.ndarray) -> np.ndarray:
    """Each value's place in [0, 1] between the least and the greatest; 0.5 for all when they are equal.

    A field with an infinity or a NaN is min-maxed over its finite values,
    +inf maps to 1.0, -inf to 0.0 and a NaN stays NaN (``inf / inf`` would
    make the best channel NaN, ranked last).
    """
    lo, hi = values.min(), values.max()
    if hi == lo:
        return np.full(values.shape, 0.5)
    if math.isfinite(lo) and math.isfinite(hi):
        return (values - lo) / (hi - lo)
    finite = np.isfinite(values)
    out = np.where(np.isnan(values), math.nan, np.where(values > 0, 1.0, 0.0))
    if finite.any():
        out[finite] = _minmax(values[finite])
    return out


def _best_first(devices: list, score: np.ndarray, *ties, k: int) -> list:
    """The first k devices by descending score, then ascending tie keys, then lower id, a NaN score last.

    Only the devices whose score reaches the k-th best, or is NaN, are
    sorted: every tie at the cut stays in, and every device does when the
    k-th best is NaN or k >= n.  The k-th best comes from a stable
    ``np.sort``, not ``np.partition``: at 2000 scores that is about 70 us
    slower, but the first ``np.partition`` call of a process maps about
    320 KB of code, which ``peak_rss_mb`` counts.
    """
    key = -score
    kth = np.sort(key, kind="stable")[min(k, len(devices)) - 1]
    rows = np.flatnonzero(~(key > kth))
    ids = [devices[i].id for i in rows.tolist()]
    order = np.lexsort((ids, *(np.asarray(tie)[rows] for tie in reversed(ties)), key[rows]))[:k]
    return [devices[i] for i in rows[order].tolist()]


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
    equally, and an infinite SNR to 1.0 or 0.0 by its sign); battery is
    already a fraction and enters as-is.
    """

    def rank() -> list:
        ids = [d.id for d in eligible]
        n = len(ids)
        div = _minmax(np.fromiter(map(diversity.__getitem__, ids), float, n))
        snr = _minmax(np.fromiter([d.channel.snr_db for d in eligible], float, n))
        batt = np.fromiter([d.battery_level for d in eligible], float, n)
        score = weights.w_diversity * div + weights.w_battery * batt + weights.w_channel * snr
        return _best_first(eligible, score, k=k)

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
        return _best_first(eligible, np.array([float(indices[d.id]) for d in eligible]), k=k)

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

    A device that never participated has infinite age; equal ages go to
    fewer total participations.
    """

    def rank() -> list:
        last = [d.last_participation_round for d in eligible]
        ages = np.array([math.inf if r is None else current_round - r for r in last], dtype=float)
        return _best_first(eligible, ages, [d.participation_count for d in eligible], k=k)

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
