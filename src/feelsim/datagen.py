"""Seeded synthetic generation of federated data and device fleets.

The pool is a Gaussian-blob classification problem whose class centers are
pushed apart to a requested separation.  Partitioning reproduces the three
statistical pathologies of edge data: label skew (Dirichlet), size unbalance
(lognormal or power-law draws), and redundancy (local duplicate injection).
Partitions are disjoint in pool samples; duplicates only ever copy a device's
own rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import seeding
from .domain import ChannelState, DeviceProfile, LocalDataset, require_finite
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
    labels = np.repeat(np.arange(n_classes), samples_per_class)
    return LocalDataset("classification", features, labels)


def _target_sizes(spec: PartitionSpec, pool_size: int, rng: np.random.Generator) -> np.ndarray:
    if spec.size_dist == "balanced":
        sizes = np.full(spec.n_devices, pool_size // spec.n_devices, dtype=np.int64)
    elif spec.size_dist == "lognormal":
        mean_share = pool_size / spec.n_devices
        raw = rng.lognormal(math.log(mean_share), spec.size_sigma, spec.n_devices)
        sizes = np.rint(raw).astype(np.int64)
    else:  # powerlaw
        raw = spec.min_size * (1.0 + rng.pareto(spec.power_exponent, spec.n_devices))
        sizes = np.rint(raw).astype(np.int64)
    sizes = np.maximum(sizes, spec.min_size)
    if sizes.sum() > pool_size:
        # scale the draw down into the pool, preserving its shape
        scaled = np.floor(sizes * (pool_size / sizes.sum())).astype(np.int64)
        sizes = np.maximum(scaled, spec.min_size)
        if sizes.sum() > pool_size:
            raise InsufficientPoolError(
                f"pool of {pool_size} cannot cover {spec.n_devices} devices at min_size {spec.min_size}"
            )
    return sizes


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
    Each permuted class is a stack; a device takes its quota of a class
    from the top of that stack, classes in order.  Devices receive disjoint
    pool rows; when a class runs dry, the shortfall spills one row at a time
    from the first stack with the most rows left.  Redundancy then replaces
    a ``redundancy_factor`` share of each device's rows with copies of its
    own remaining rows.  A pool without rows raises
    ``InsufficientPoolError``, like one too small for the sizes.

    Every device's rows are a slice of one index array, which gathers the
    stacks' runs at once; each device shuffles its slice in place, and the
    features and labels are gathered once.
    """
    if pool.task_kind != "classification":
        raise ValidationError("unknown_task_kind", "partition expects a classification pool")
    if pool.n_samples == 0:
        raise InsufficientPoolError(f"pool of 0 cannot cover {spec.n_devices} devices at min_size {spec.min_size}")
    rng = np.random.default_rng(seed)
    n_classes = int(pool.labels.max()) + 1
    sizes = _target_sizes(spec, pool.n_samples, rng)

    if spec.skew == "iid":
        pool_counts = pool.class_counts(n_classes).astype(float)
        proportions = np.tile(pool_counts / pool_counts.sum(), (spec.n_devices, 1))
    else:
        proportions = rng.dirichlet(np.full(n_classes, spec.alpha), size=spec.n_devices)
    quotas = _largest_remainder(proportions, sizes)

    stacks = [rng.permutation(np.flatnonzero(pool.labels == c)) for c in range(n_classes)]

    # a device's picks are runs of the stacks, each read downward from its top
    left = [stack.size for stack in stacks]
    offsets = np.cumsum([0] + left[:-1]).tolist()
    bottoms, lengths = [], []
    for size, row in zip(sizes.tolist(), quotas.tolist()):
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
    run_ends = np.cumsum(lengths)
    order = np.repeat(np.array(bottoms) + run_ends - 1, lengths) - np.arange(run_ends[-1])
    rows = np.concatenate(stacks)[order]

    ends = np.cumsum(sizes)
    spans = [slice(end - size, end) for size, end in zip(sizes.tolist(), ends.tolist())]
    for span in spans:
        run = rows[span]
        rng.shuffle(run)
        n_dup = int(math.floor(spec.redundancy_factor * run.size))
        if n_dup > 0:
            kept = run.size - n_dup
            run[kept:] = run[rng.integers(0, kept, size=n_dup)]
            rng.shuffle(run)

    features, labels = pool.features[rows], pool.labels[rows]
    return [LocalDataset("classification", features[span], labels[span]) for span in spans]


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
    fleet = []
    seeds = seeding.substream_seeds(master_seed, seeding.FLEET, range(len(datasets)))
    for i, (dataset, seed) in enumerate(zip(datasets, seeds)):
        rng = np.random.default_rng(seed)
        mean_snr = spec.mean_snr_db + spec.snr_spread_db * rng.standard_normal()
        u_cycles, u_freq, u_battery, u_power = rng.random(4).tolist()
        profile = DeviceProfile(
            id=i,
            cpu_cycles_per_sample=cycles_lo + cycles_span * u_cycles,
            cpu_freq=freq_lo + freq_span * u_freq,
            battery_level=battery_lo + battery_span * u_battery,
            tx_power=power_lo + power_span * u_power,
            energy_per_cycle=spec.energy_per_cycle,
            capacity_joules=spec.capacity_joules,
            channel=ChannelState(snr_db=float(mean_snr), mean_snr_db=float(mean_snr), std_snr_db=spec.std_snr_db),
            dataset=dataset,
        )
        fleet.append(profile)
    return fleet
