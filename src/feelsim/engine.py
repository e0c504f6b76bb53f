"""Synchronous round orchestration.

One round in pre-training mode: devices report a scalar dataset-diversity
index with their battery level, the server filters and scores, the selected
devices train and upload, the server aggregates and evaluates.  In
post-training mode every eligible device trains first (and pays that compute
energy), reports a model-diversity index, and only the top K upload.

All state lives in a SimulationState the round functions mutate; the public
entry point ``run_simulation`` is a pure function of its SimulationConfig,
bit-for-bit: identical configs yield identical results.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Optional

import numpy as np

from . import seeding
from .datagen import FleetSpec, PartitionSpec, make_classification_pool, make_fleet, partition
from .diversity import (
    DiversityConfig,
    dataset_diversity_index,  # not called here: perfbench/layers.py wraps this name
    dataset_diversity_indices,
    model_diversity_index,  # not called here: perfbench/layers.py wraps this name
    model_diversity_indices,
    outlier_ceiling,
)
from .domain import (
    DatasetProfile,
    DeviceProfile,
    DeviceReport,
    LocalDataset,
    ModelParams,
    RoundRecord,
    ScheduleDecision,
    require_finite,
)
from .errors import EmptyDatasetError, ValidationError
from .learning import (
    TrainConfig,
    aggregate_fedavg,  # not called here: perfbench/layers.py wraps this name
    aggregate_loss_weighted,
    evaluate,
    init_model,
    local_train,  # not called here: perfbench/layers.py wraps this name
    train_many,
    upload,
)
from .network import NetworkConfig, channel_rate, compute_time, energy_compute, energy_transmit, resample_channel
from .scheduler import (
    ConstraintConfig,
    ScoreWeights,
    filter_eligible,
    jain_fairness,
    schedule_age_fair,
    schedule_data_size_priority,
    schedule_post_training,
    schedule_pre_training,
    schedule_random,
)

POLICIES = ("diversity_pre", "diversity_post", "random", "data_size", "age_fair")
AGGREGATIONS = ("fedavg", "loss_weighted")


@dataclass(frozen=True)
class DataConfig:
    """Pool synthesis, train/test split, partitioning, and diversity knobs."""

    n_classes: int = 4
    dim: int = 8
    samples_per_class: int = 250
    class_sep: float = 3.0
    test_fraction: float = 0.2
    partition: PartitionSpec = field(default_factory=lambda: PartitionSpec(n_devices=20))
    diversity: DiversityConfig = field(default_factory=DiversityConfig)

    def __post_init__(self):
        if self.n_classes < 2:
            raise ValidationError("too_few_classes", f"n_classes {self.n_classes}")
        if self.dim < 1:
            raise ValidationError("nonpositive_dim")
        if self.samples_per_class < 1:
            raise ValidationError("nonpositive_samples_per_class")
        if self.class_sep < 0:
            raise ValidationError("negative_class_sep")
        if not (0.0 < self.test_fraction < 1.0):
            raise ValidationError("test_fraction_out_of_range")
        require_finite(self)


@dataclass(frozen=True)
class SimulationConfig:
    fleet: FleetSpec = field(default_factory=FleetSpec)
    data: DataConfig = field(default_factory=DataConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    constraints: ConstraintConfig = field(default_factory=ConstraintConfig)
    weights: ScoreWeights = field(default_factory=ScoreWeights)
    policy: str = "diversity_pre"
    k_per_round: int = 10
    aggregation: str = "fedavg"
    qffl_q: float = 0.0
    rounds_max: int = 50
    target_accuracy: Optional[float] = None
    master_seed: int = 0
    size_priority_inverse: bool = False

    def __post_init__(self):
        if self.policy not in POLICIES:
            raise ValidationError("unknown_policy", self.policy)
        if self.aggregation not in AGGREGATIONS:
            raise ValidationError("unknown_aggregation", self.aggregation)
        if self.k_per_round < 1:
            raise ValidationError("nonpositive_k")
        if self.rounds_max < 1:
            raise ValidationError("nonpositive_rounds")
        if self.qffl_q < 0:
            raise ValidationError("negative_q")
        require_finite(self)
        band, n = self.network.total_bandwidth, self.fleet.n_devices
        if not band / n > 0:  # the filter's equal share over the fleet; a band this small would fail the first round
            raise ValidationError("bandwidth_share_underflow", f"total_bandwidth {band!r} over {n} devices is a share of 0")
        if self.qffl_q != 0 and self.aggregation == "fedavg":
            raise ValidationError("q_without_loss_weighting", f"q = {self.qffl_q} needs aggregation = loss_weighted")
        if self.target_accuracy is not None and not (0.0 < self.target_accuracy <= 1.0):
            raise ValidationError("target_out_of_range")
        if self.master_seed < 0:
            raise ValidationError("negative_seed", f"master_seed {self.master_seed}")

    @property
    def mode(self) -> str:
        return "post_training" if self.policy == "diversity_post" else "pre_training"


@dataclass
class SimulationState:
    """Mutable world the round functions evolve."""

    cfg: SimulationConfig
    devices: dict
    model: ModelParams
    test_set: LocalDataset
    dataset_profiles: dict
    records: list = field(default_factory=list)

    @property
    def round(self) -> int:
        """The index of the next round: one per record."""
        return len(self.records)

    @property
    def train_pool(self) -> LocalDataset:
        """The rows the fleet was partitioned from, split again from the config on each read: no run holds them."""
        return _split(self.cfg)[1]

    @cached_property
    def dataset_indices(self) -> dict:
        """Each device's reported dataset-diversity index, by id.

        A device's dataset, and so the index it reports, is fixed for the
        run, so each device's ``dataset_report`` is built once, on first use.
        """
        profiles = self.dataset_profiles
        return {did: dataset_report(dev, profiles[did]).diversity_index for did, dev in self.devices.items()}


@dataclass(frozen=True)
class SimulationResult:
    rounds: tuple
    final_model: ModelParams
    rounds_to_target: Optional[int]

    @property
    def aborted_rounds(self) -> int:
        return sum(r.aborted for r in self.rounds)


def _split(cfg: SimulationConfig) -> tuple:
    """The held-out test set and the training pool; a test set of no rows is refused before any round runs."""
    data = cfg.data
    pool = make_classification_pool(
        data.n_classes,
        data.dim,
        data.samples_per_class,
        data.class_sep,
        seeding.derive_seed(cfg.master_seed, seeding.POOL),
    )
    perm = seeding.substream(cfg.master_seed, seeding.SPLIT).permutation(pool.n_samples)
    n_test = int(round(data.test_fraction * pool.n_samples))
    if n_test == 0:
        raise EmptyDatasetError(f"test_fraction {data.test_fraction} holds out no row of a pool of {pool.n_samples}")
    return tuple(LocalDataset._trusted(pool.features[idx], pool.labels[idx]) for idx in (perm[:n_test], perm[n_test:]))


def build_state(cfg: SimulationConfig) -> SimulationState:
    """Synthesize pool, held-out test set, partitions, fleet, and model."""
    data = cfg.data
    test_set, train_pool = _split(cfg)
    spec = replace(data.partition, n_devices=cfg.fleet.n_devices)
    parts = partition(train_pool, spec, seeding.derive_seed(cfg.master_seed, seeding.PARTITION))
    fleet = make_fleet(cfg.fleet, parts, cfg.master_seed)
    devices = {d.id: d for d in fleet}

    model = init_model(data.dim, data.n_classes, seeding.derive_seed(cfg.master_seed, seeding.MODEL_INIT))
    profiles = dict(zip(devices, dataset_diversity_indices([d.dataset for d in fleet], data.diversity, data.n_classes)))
    return SimulationState(cfg=cfg, devices=devices, model=model, test_set=test_set, dataset_profiles=profiles)


def dataset_report(device: DeviceProfile, profile: DatasetProfile) -> DeviceReport:
    """What a device tells the server before training: one scalar + battery."""
    return DeviceReport(
        device_id=device.id,
        diversity_index=float(profile.diversity_index),
        battery_level=float(device.battery_level),
    )


def _train_request(state: SimulationState, devices: list) -> tuple:
    """``train_many``'s arguments for the devices, in their order.

    Each trains from the global model with the shuffles of
    ``derive_seed(master_seed, TRAINING, id, round)``, all derived in one pass.
    """
    cfg = state.cfg
    seeds = seeding.derived_seeds(cfg.master_seed, seeding.TRAINING, [dev.id for dev in devices], state.round)
    return state.model, [dev.dataset for dev in devices], cfg.train, list(seeds)


def _drain(dev: DeviceProfile, joules: float) -> float:
    """Charge a device's battery with ``joules``; returns what it could pay."""
    charged = min(joules, dev.battery_level * dev.capacity_joules)
    dev.battery_level = max(0.0, dev.battery_level - charged / dev.capacity_joules)
    return charged


def _model_indices(state: SimulationState, eligible: list, stack) -> dict:
    """Each eligible device's model-diversity index, by id, from its row of ``stack``, capped at the outlier ceiling."""
    data = state.cfg.data
    grouping = (data.n_classes, data.dim + 1)
    raw = model_diversity_indices(stack, state.model, grouping, data.diversity)
    if not raw:
        return {}
    ceiling = outlier_ceiling(raw, data.diversity.outlier_percentile)
    return {dev.id: float(min(v, ceiling)) for dev, v in zip(eligible, raw)}


def _schedule(state: SimulationState, eligible: list, stack) -> ScheduleDecision:
    """Selection by the configured policy; in post-training mode row i of ``stack`` is ``eligible[i]``'s model."""
    cfg = state.cfg
    k, shared = cfg.k_per_round, (cfg.constraints, cfg.network, cfg.train.epochs)
    if cfg.policy == "diversity_post":
        return schedule_post_training(eligible, _model_indices(state, eligible, stack), k, *shared)
    if cfg.policy == "diversity_pre":
        return schedule_pre_training(eligible, state.dataset_indices, k, cfg.weights, *shared)
    if cfg.policy == "age_fair":
        return schedule_age_fair(eligible, k, state.round, *shared)
    seed = seeding.derive_seed(cfg.master_seed, seeding.SCHEDULING, state.round)
    if cfg.policy == "random":
        return schedule_random(eligible, k, seed, *shared)
    return schedule_data_size_priority(eligible, k, seed, *shared, inverse=cfg.size_priority_inverse)


def _round_steps(state: SimulationState, train_first: bool):
    """One round of either mode as a generator: fade, filter, select and train, upload, aggregate, evaluate.

    It yields ``train_many``'s arguments, resumes with their weight stack,
    and yields the round's record.  With ``train_first`` (post-training mode)
    every eligible device trains, in filter order, and pays its compute before
    the server decides; that energy stays charged, and the compute times are
    all the round records, when the round aborts.  Otherwise the participants
    train, in ascending id, and each pays for its training and its upload as
    one charge.
    """
    cfg, rnd = state.cfg, state.round
    epochs = cfg.train.epochs
    fade, seed = resample_channel, cfg.master_seed  # looked up each round, so a wrapper on the name sees every call
    for did, dev in state.devices.items():  # fade every channel, then apply the hard constraints
        dev.channel = fade(dev.channel, seed, did, rnd)
    eligible = filter_eligible(state.devices.values(), cfg.constraints, cfg.network, epochs)
    compute_times, energies, trained, stack = {}, {}, eligible, None
    if train_first:
        stack = yield _train_request(state, eligible)
        for dev in eligible:
            compute_times[dev.id] = compute_time(dev, dev.dataset.n_samples, epochs)
            energies[dev.id] = _drain(dev, energy_compute(dev, dev.dataset.n_samples, epochs))
    decision = _schedule(state, eligible, stack)
    participants = tuple(sorted(decision.selected)) if decision.round_valid else ()
    if not train_first:
        trained = [state.devices[did] for did in participants]
        stack = yield _train_request(state, trained)

    times = {} if participants else compute_times
    for did in participants:
        dev = state.devices[did]
        t_comm = cfg.network.model_size_bits / channel_rate(dev.channel, decision.bandwidth_share[did])
        times[did] = compute_time(dev, dev.dataset.n_samples, epochs) + t_comm
        joules = energy_transmit(dev, t_comm)
        if not train_first:
            joules = energy_compute(dev, dev.dataset.n_samples, epochs) + joules
        energies[did] = energies.get(did, 0.0) + _drain(dev, joules)
        dev.participation_count += 1
        dev.last_participation_round = rnd

    if participants:  # the filter keeps the fleet's id order, so both modes upload in ascending id
        kept = set(participants)
        chosen = [upload(ModelParams(stack[i]), d.dataset, d.id) for i, d in enumerate(trained) if d.id in kept]
        state.model = aggregate_loss_weighted(chosen, cfg.qffl_q)  # FedAvg is q = 0, which its config enforces
    accuracy, loss = evaluate(state.model, state.test_set)
    record = RoundRecord(
        round=rnd,
        participants=participants,
        global_accuracy=accuracy,
        global_loss=loss,
        jain_fairness=jain_fairness([d.participation_count for d in state.devices.values()]),
        device_times=times,
        device_energy=energies,
    )
    state.records.append(record)
    yield record


def _round(state: SimulationState, train_first: bool) -> RoundRecord:
    """One round of either mode, trained by ``train_many``.

    A diverging model overflows to inf and NaN, which the round records as
    they are, so numpy's overflow and invalid warnings are off for the
    round's numeric work: a run ends the same under any warning filter.
    """
    steps = _round_steps(state, train_first)
    with np.errstate(over="ignore", invalid="ignore"):
        return steps.send(train_many(*next(steps)))


def run_round_pre(state: SimulationState) -> RoundRecord:
    """One select-train-upload-aggregate round; only selected devices train."""
    return _round(state, train_first=False)


def run_round_post(state: SimulationState) -> RoundRecord:
    """One broadcast-train-report-upload round; every eligible device trains."""
    return _round(state, train_first=True)


def run_simulation(cfg: SimulationConfig) -> SimulationResult:
    """Run rounds until the accuracy target is met or rounds_max elapse."""
    state = build_state(cfg)
    step = run_round_post if cfg.mode == "post_training" else run_round_pre
    rounds_to_target = None
    for _ in range(cfg.rounds_max):
        record = step(state)
        if cfg.target_accuracy is not None and record.global_accuracy >= cfg.target_accuracy:
            rounds_to_target = state.round
            break
    return SimulationResult(
        rounds=tuple(state.records),
        final_model=state.model,
        rounds_to_target=rounds_to_target,
    )
