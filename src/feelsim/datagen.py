"""Seeded synthetic generation of federated data and device fleets.

The pool is a Gaussian-blob classification problem whose class centers are
pushed apart to a requested separation.  Partitioning reproduces the three
statistical pathologies of edge data: label skew (Dirichlet), size unbalance
(lognormal or power-law draws), and redundancy (local duplicate injection).
Partitions are disjoint in pool samples; duplicates only ever copy a device's
own rows.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from . import seeding
from .domain import DeviceProfile, LocalDataset, _trusted_channel, require_finite
from .errors import InsufficientPoolError, ValidationError

SKEW_KINDS = ("iid", "dirichlet")
SIZE_DISTS = ("balanced", "lognormal", "powerlaw")


@dataclass(frozen=True)
class PartitionSpec:
    """How a pool is split across devices."""

    n_devices: int
    skew: str = "iid"
    alpha: float = 1.0
    size_dist: str = "balanced"
    size_sigma: float = 1.0
    power_exponent: float = 2.0
    min_size: int = 1
    redundancy_factor: float = 0.0

    def __post_init__(self):
        if self.n_devices < 1:
            raise ValidationError("nonpositive_devices")
        if self.skew not in SKEW_KINDS:
            raise ValidationError("unknown_skew", self.skew)
        if self.skew == "dirichlet" and not self.alpha > 0:
            raise ValidationError("nonpositive_alpha", f"Dirichlet requires alpha > 0, got {self.alpha}")
        if self.size_dist not in SIZE_DISTS:
            raise ValidationError("unknown_size_dist", self.size_dist)
        if self.size_dist == "lognormal" and self.size_sigma < 0:
            raise ValidationError("negative_sigma")
        if self.size_dist == "powerlaw" and not self.power_exponent > 0:
            raise ValidationError("nonpositive_exponent")
        if self.min_size < 1:
            raise ValidationError("nonpositive_min_size")
        if not (0.0 <= self.redundancy_factor < 1.0):
            raise ValidationError("redundancy_out_of_range", f"{self.redundancy_factor}")
        require_finite(self)


def make_classification_pool(
    n_classes: int, dim: int, samples_per_class: int, class_sep: float, seed: int
) -> LocalDataset:
    """Gaussian blobs with unit covariance and mutually separated centers.

    Centers are drawn standard normal and rescaled so the minimum pairwise
    distance is at least ``class_sep``; every class contributes exactly
    ``samples_per_class`` rows.
    """
    if n_classes < 2:
        raise ValueError("need at least two classes")
    if dim < 1 or samples_per_class < 1 or class_sep < 0:
        raise ValueError("dim, samples_per_class must be positive and class_sep nonnegative")
    rng = np.random.default_rng(seed)
    centers = rng.normal(size=(n_classes, dim))
    i, j = np.triu_indices(n_classes, k=1)
    min_dist = float(np.linalg.norm(centers[i] - centers[j], axis=1).min())
    if 0 < min_dist < class_sep:
        centers *= class_sep / min_dist
    features = np.repeat(centers, samples_per_class, axis=0) + rng.standard_normal(
        (n_classes * samples_per_class, dim)
    )
    labels = np.repeat(np.arange(n_classes, dtype=np.int64), samples_per_class)
    return LocalDataset._trusted(features, labels)


def _target_sizes(spec: PartitionSpec, pool_size: int, rng: np.random.Generator) -> np.ndarray:
    """Device sizes of at least ``min_size`` each and at most ``pool_size`` in all.

    A pool covers the devices exactly when ``n_devices * min_size <= pool_size``.
    A draw (whole floats up to 2**63, exact below 2**53) that sums past the
    pool is scaled into it, floored and raised to ``min_size``; the surplus
    comes off the largest sizes a row at a time, lower ids first among equals.
    """
    n, min_size = spec.n_devices, spec.min_size
    if n * min_size > pool_size:
        raise InsufficientPoolError(f"pool of {pool_size} cannot cover {n} devices at min_size {min_size}")
    if spec.size_dist == "balanced":
        return np.full(n, pool_size // n, dtype=np.int64)
    if spec.size_dist == "lognormal":
        raw = rng.lognormal(math.log(pool_size / n), spec.size_sigma, n)
    else:  # powerlaw
        raw = min_size * (1.0 + rng.pareto(spec.power_exponent, n))
    sizes = np.clip(np.rint(raw), min_size, 2.0**63)
    if sizes.sum() > pool_size:
        sizes = np.maximum(np.floor(sizes * (pool_size / sizes.sum())), min_size)
    if sizes.sum() > pool_size:  # cap at the lowest level that keeps pool_size rows; the rest off the lowest ids at it
        caps = range(min_size, int(sizes.max()) + 1)
        cap = caps[bisect.bisect_left(caps, True, key=lambda c: np.minimum(sizes, c).sum() >= pool_size)]
        sizes = np.minimum(sizes, cap)
        sizes[np.flatnonzero(sizes == cap)[: int(sizes.sum()) - pool_size]] -= 1
    return sizes.astype(np.int64)


def _largest_remainder(proportions: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Integer quotas per row and class, each row summing exactly to its total.

    Every row is floored, and its shortfall goes one unit each to the classes
    with the largest remainders, ties toward the lower class.
    """
    ideal = proportions * totals[:, None]
    base = np.floor(ideal).astype(np.int64)
    short = totals - base.sum(axis=1)
    remainder = ideal - base
    order = np.argsort(-remainder, axis=1, kind="stable")
    rows, ranks = np.nonzero(np.arange(proportions.shape[1]) < short[:, None])
    base[rows, order[rows, ranks]] += 1
    return base


def partition(pool: LocalDataset, spec: PartitionSpec, seed: int) -> list:
    """Split a classification pool into per-device datasets.

    The draws come in a fixed order, so results are a pure function of
    (pool, spec, seed): the sizes, then every device's class proportions in
    one Dirichlet draw, then one permutation per class, and then, for each
    device in id order, a ``shuffle`` of its rows, and when it has
    duplicates ``integers(0, kept, size=n_dup)`` and a second ``shuffle``.
    Each permuted class is a stack; a device takes its quota of a class from
    the top of that stack, classes in order.  Devices receive disjoint pool
    rows; when a class runs dry, the shortfall spills one row at a time from
    the first stack with the most rows left.  Redundancy then replaces a
    ``redundancy_factor`` share of each device's rows with copies of its own
    remaining rows.  ``_target_sizes`` refuses a pool that is too small.

    Every device's rows are a slice of one index array, which gathers the
    stacks' runs at once.  The runs of the devices before the first that a
    class cannot serve are read off the quotas' running totals in one pass;
    from that device on, they are taken a device and class at a time.  Each
    device shuffles its slice in place, and the features and labels are
    gathered once, into two arrays that are then made read-only.  Each
    device's dataset is a view of its row range of them, neither copied nor
    checked again: its labels are the pool's, which the pool's own
    construction checked.
    """
    if pool.task_kind != "classification":
        raise ValidationError("unknown_task_kind", "partition expects a classification pool")
    rng = np.random.default_rng(seed)
    sizes = _target_sizes(spec, pool.n_samples, rng)
    n_classes = int(pool.labels.max()) + 1

    if spec.skew == "iid":
        pool_counts = pool.class_counts(n_classes).astype(float)
        proportions = np.tile(pool_counts / pool_counts.sum(), (spec.n_devices, 1))
    else:
        proportions = rng.dirichlet(np.full(n_classes, spec.alpha), size=spec.n_devices)
    quotas = _largest_remainder(proportions, sizes)

    stacks = [rng.permutation(np.flatnonzero(pool.labels == c)) for c in range(n_classes)]

    # a device's picks are runs of the stacks, each read downward from its top;
    # until a device asks a class for more rows than are left, every device
    # takes its quotas whole, so those devices' runs come from running totals
    counts = np.array([stack.size for stack in stacks])
    offsets = np.cumsum(counts) - counts
    taken = np.cumsum(quotas, axis=0)
    short = (taken > counts).any(axis=1)
    whole = int(short.argmax()) if short.any() else spec.n_devices
    device, label = np.nonzero(quotas[:whole])
    head_bottoms, head_lengths = offsets[label] + counts[label] - taken[device, label], quotas[device, label]

    # from the first device a class cannot serve on, one device and class at a time
    left = (counts - taken[whole - 1] if whole else counts).tolist()
    offsets = offsets.tolist()
    bottoms, lengths = [], []
    for size, row in zip(sizes[whole:].tolist(), quotas[whole:].tolist()):
        for c, quota in enumerate(row):
            take = quota if quota < left[c] else left[c]
            if take:
                left[c] -= take
                bottoms.append(offsets[c] + left[c])
                lengths.append(take)
                size -= take
        for _ in range(size):
            c = left.index(max(left))
            left[c] -= 1
            bottoms.append(offsets[c] + left[c])
            lengths.append(1)
    lengths = np.concatenate([head_lengths, np.array(lengths, dtype=np.int64)])
    run_ends = np.cumsum(lengths)
    bottoms = np.concatenate([head_bottoms, np.array(bottoms, dtype=np.int64)])
    order = np.repeat(bottoms + run_ends - 1, lengths) - np.arange(run_ends[-1])
    rows = np.concatenate(stacks)[order]

    ends = np.cumsum(sizes)
    n_dups = np.floor(spec.redundancy_factor * sizes).astype(np.int64)
    # one row shuffles to itself and draws nothing, and has no duplicates, so only longer runs are visited
    many = sizes > 1
    shuffle, integers = rng.shuffle, rng.integers
    for start, end, n_dup in zip((ends - sizes)[many].tolist(), ends[many].tolist(), n_dups[many].tolist()):
        run = rows[start:end]
        shuffle(run)
        if n_dup:
            kept = end - start - n_dup
            run[kept:] = run[integers(0, kept, size=n_dup)]
            shuffle(run)

    return LocalDataset._trusted_views(pool.features[rows], pool.labels[rows], ends.tolist())


@dataclass(frozen=True)
class FleetSpec:
    """Population parameters for generating a heterogeneous device fleet."""

    n_devices: int = 20
    cpu_freq_min: float = 5e8
    cpu_freq_max: float = 2e9
    cycles_per_sample_min: float = 5e5
    cycles_per_sample_max: float = 2e6
    tx_power_min: float = 0.2
    tx_power_max: float = 1.0
    energy_per_cycle: float = 1e-9
    capacity_joules: float = 200.0
    battery_min: float = 0.7
    battery_max: float = 1.0
    mean_snr_db: float = 10.0
    snr_spread_db: float = 3.0
    std_snr_db: float = 2.0

    def __post_init__(self):
        if self.n_devices < 1:
            raise ValidationError("nonpositive_devices")
        for lo, hi, name in (
            (self.cpu_freq_min, self.cpu_freq_max, "cpu_freq"),
            (self.cycles_per_sample_min, self.cycles_per_sample_max, "cycles_per_sample"),
            (self.tx_power_min, self.tx_power_max, "tx_power"),
            (self.battery_min, self.battery_max, "battery"),
        ):
            if lo <= 0 and name != "tx_power":
                raise ValidationError(f"nonpositive_{name}")
            if hi < lo:
                raise ValidationError(f"inverted_{name}_range")
        if self.tx_power_min < 0:
            raise ValidationError("negative_tx_power", f"tx_power_min {self.tx_power_min}")
        if self.battery_max > 1.0:
            raise ValidationError("battery_out_of_range")
        if self.energy_per_cycle < 0:
            raise ValidationError("negative_energy_per_cycle", f"{self.energy_per_cycle}")
        if self.capacity_joules <= 0:
            raise ValidationError("nonpositive_capacity")
        if self.snr_spread_db < 0 or self.std_snr_db < 0:
            raise ValidationError("negative_snr_std")
        require_finite(self)


def make_fleet(spec: FleetSpec, datasets: list, master_seed: int) -> list:
    """Device profiles for the given local datasets.

    Each device draws from its own seed substream, so fleet composition for
    device i never depends on how many other devices exist.  Per-device SNR
    means are normal in dB (lognormal in linear SNR) around the population
    mean.  After its one standard normal, a device takes four uniforms from
    one ``rng.random(4)``: cycles per sample, CPU frequency, battery and
    transmit power, in that order, each as ``lo + (hi - lo) * u``.  That is
    numpy's own ``uniform(lo, hi)`` formula, and one ``random(4)`` draws the
    doubles of four calls in a row, so every field has the bits of four
    ``rng.uniform`` calls.
    """
    if len(datasets) != spec.n_devices:
        raise ValidationError("fleet_dataset_mismatch", f"{len(datasets)} != {spec.n_devices}")
    cycles_lo, cycles_span = spec.cycles_per_sample_min, spec.cycles_per_sample_max - spec.cycles_per_sample_min
    freq_lo, freq_span = spec.cpu_freq_min, spec.cpu_freq_max - spec.cpu_freq_min
    battery_lo, battery_span = spec.battery_min, spec.battery_max - spec.battery_min
    power_lo, power_span = spec.tx_power_min, spec.tx_power_max - spec.tx_power_min
    fleet, generator, pcg64 = [], np.random.Generator, np.random.PCG64
    epc, capacity = spec.energy_per_cycle, spec.capacity_joules
    mean, spread, std = spec.mean_snr_db, spec.snr_spread_db, spec.std_snr_db
    seeds = seeding.substream_seeds(master_seed, seeding.FLEET, range(len(datasets)))
    for i, (dataset, seed) in enumerate(zip(datasets, seeds)):
        rng = generator(pcg64(seed))  # what default_rng builds from a seed sequence, without its type tests
        mean_snr = float(mean + spread * rng.standard_normal())
        u_cycles, u_freq, u_battery, u_power = rng.random(4).tolist()
        # positional, in DeviceProfile's field order
        profile = DeviceProfile(
            i,
            cycles_lo + cycles_span * u_cycles,
            freq_lo + freq_span * u_freq,
            battery_lo + battery_span * u_battery,
            power_lo + power_span * u_power,
            epc,
            capacity,
            _trusted_channel(mean_snr, mean_snr, std),
            dataset,
        )
        fleet.append(profile)
    return fleet
