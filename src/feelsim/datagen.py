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
TIMESERIES_KINDS = ("sine", "ar_noise", "constant")


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


def _largest_remainder(proportions: np.ndarray, total: int) -> np.ndarray:
    """Integer quota per class summing exactly to ``total``."""
    ideal = proportions * total
    base = np.floor(ideal).astype(np.int64)
    short = total - int(base.sum())
    if short > 0:
        remainder = ideal - base
        order = np.lexsort((np.arange(proportions.size), -remainder))
        base[order[:short]] += 1
    return base


def partition(pool: LocalDataset, spec: PartitionSpec, seed: int) -> list:
    """Split a classification pool into per-device datasets.

    Draw order is fixed (sizes, then per-device class proportions, then
    sample picks), so results are a pure function of (pool, spec, seed).
    Devices receive disjoint pool rows; when a class runs dry, the shortfall
    spills into the classes with the most stock remaining.  Redundancy then
    replaces a ``redundancy_factor`` share of each device's rows with copies
    of its own remaining rows.
    """
    if pool.task_kind != "classification":
        raise ValidationError("unknown_task_kind", "partition expects a classification pool")
    rng = np.random.default_rng(seed)
    n_pool = pool.n_samples
    if spec.min_size * spec.n_devices > n_pool:
        raise InsufficientPoolError(f"{spec.n_devices} x min_size {spec.min_size} exceeds pool {n_pool}")
    n_classes = int(pool.labels.max()) + 1
    sizes = _target_sizes(spec, n_pool, rng)

    pool_counts = pool.class_counts(n_classes).astype(float)
    pool_props = pool_counts / pool_counts.sum()
    proportions = np.empty((spec.n_devices, n_classes))
    for dev in range(spec.n_devices):
        if spec.skew == "iid":
            proportions[dev] = pool_props
        else:
            proportions[dev] = rng.dirichlet(np.full(n_classes, spec.alpha))

    stacks = [list(rng.permutation(np.flatnonzero(pool.labels == c))) for c in range(n_classes)]

    datasets = []
    for dev in range(spec.n_devices):
        size = int(sizes[dev])
        quota = _largest_remainder(proportions[dev], size)
        picked: list = []
        shortfall = 0
        for c in range(n_classes):
            take = min(int(quota[c]), len(stacks[c]))
            shortfall += int(quota[c]) - take
            for _ in range(take):
                picked.append(stacks[c].pop())
        while shortfall > 0:
            stocks = [len(s) for s in stacks]
            if sum(stocks) == 0:
                raise InsufficientPoolError(f"pool exhausted at device {dev}")
            c = int(np.argmax(stocks))
            picked.append(stacks[c].pop())
            shortfall -= 1
        rows = np.array(picked, dtype=np.int64)
        rng.shuffle(rows)

        n_dup = int(math.floor(spec.redundancy_factor * size))
        if n_dup > 0:
            kept = rows[: size - n_dup]
            copies = kept[rng.integers(0, kept.size, size=n_dup)]
            rows = np.concatenate([kept, copies])
            rng.shuffle(rows)

        datasets.append(LocalDataset("classification", pool.features[rows], pool.labels[rows]))
    return datasets


def make_timeseries(kind: str, length: int, noise_std: float = 0.0, seed: int = 0) -> np.ndarray:
    """One synthetic series: a sine wave, an AR(1) noise process, or a constant."""
    if kind not in TIMESERIES_KINDS:
        raise ValidationError("unknown_series_kind", kind)
    if length < 32:
        raise ValueError("series length must be >= 32")
    if noise_std < 0:
        raise ValueError("noise_std must be nonnegative")
    rng = np.random.default_rng(seed)
    if kind == "sine":
        t = np.arange(length)
        base = np.sin(2.0 * np.pi * 4.0 * t / length)
    elif kind == "ar_noise":
        innovations = rng.standard_normal(length)
        base = np.empty(length)
        base[0] = innovations[0]
        for t in range(1, length):
            base[t] = 0.6 * base[t - 1] + innovations[t]
    else:
        base = np.ones(length)
    if noise_std > 0:
        base = base + noise_std * rng.standard_normal(length)
    return base


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
    mean.
    """
    if len(datasets) != spec.n_devices:
        raise ValidationError("fleet_dataset_mismatch", f"{len(datasets)} != {spec.n_devices}")
    fleet = []
    for i, dataset in enumerate(datasets):
        rng = seeding.substream(master_seed, seeding.FLEET, i)
        mean_snr = spec.mean_snr_db + spec.snr_spread_db * rng.standard_normal()
        profile = DeviceProfile(
            id=i,
            cpu_cycles_per_sample=rng.uniform(spec.cycles_per_sample_min, spec.cycles_per_sample_max),
            cpu_freq=rng.uniform(spec.cpu_freq_min, spec.cpu_freq_max),
            battery_level=rng.uniform(spec.battery_min, spec.battery_max),
            tx_power=rng.uniform(spec.tx_power_min, spec.tx_power_max),
            energy_per_cycle=spec.energy_per_cycle,
            capacity_joules=spec.capacity_joules,
            channel=ChannelState(snr_db=float(mean_snr), mean_snr_db=float(mean_snr), std_snr_db=spec.std_snr_db),
            dataset=dataset,
        )
        fleet.append(profile)
    return fleet
