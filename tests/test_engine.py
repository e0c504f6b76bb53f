"""Round orchestration and end-to-end simulation behavior."""

from __future__ import annotations

import importlib.util
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import feelsim.engine
import oracles
from feelsim import seeding
from feelsim.datagen import FleetSpec, PartitionSpec, make_classification_pool
from feelsim.diversity import DiversityConfig, dataset_diversity_index
from feelsim.engine import (
    AGGREGATIONS,
    POLICIES,
    DataConfig,
    SimulationConfig,
    SimulationResult,
    _round_steps,
    build_state,
    dataset_report,
    run_round_post,
    run_round_pre,
    run_simulation,
)
from feelsim.errors import EmptyDatasetError, ValidationError
from feelsim.learning import TrainConfig, local_train, train_many
from feelsim.network import ALLOCATION_STRATEGIES, NetworkConfig
from feelsim.scheduler import ConstraintConfig, filter_eligible, jain_fairness
from test_corpus import CORPUS, DIGESTS
from test_golden import CONFIGS, GOLDEN, run_digest


def small_config(**overrides) -> SimulationConfig:
    base = dict(
        fleet=FleetSpec(n_devices=6, capacity_joules=200.0),
        data=DataConfig(
            n_classes=3,
            dim=4,
            samples_per_class=60,
            class_sep=3.0,
            partition=PartitionSpec(n_devices=6, skew="dirichlet", alpha=0.5),
        ),
        train=TrainConfig(epochs=1, batch_size=8, learning_rate=0.1),
        network=NetworkConfig(total_bandwidth=1e6, model_size_bits=1e5),
        constraints=ConstraintConfig(min_battery=0.05, min_snr_db=-30.0),
        policy="diversity_pre",
        k_per_round=3,
        rounds_max=4,
        master_seed=11,
    )
    base.update(overrides)
    return SimulationConfig(**base)


# -------------------------------------------------------------- build_state


def test_build_state_shapes_and_coverage():
    cfg = small_config()
    state = build_state(cfg)
    assert len(state.devices) == 6
    assert sorted(state.devices) == list(range(6))
    pool_total = 3 * 60
    n_test = int(round(0.2 * pool_total))
    assert state.test_set.n_samples == n_test
    assert state.train_pool.n_samples == pool_total - n_test
    assert sum(d.dataset.n_samples for d in state.devices.values()) <= state.train_pool.n_samples
    assert set(state.dataset_profiles) == set(state.devices)
    assert state.model.weights.size == 3 * (4 + 1)
    assert state.round == 0 and state.records == []


def test_build_state_deterministic():
    a = build_state(small_config())
    b = build_state(small_config())
    assert np.array_equal(a.model.weights, b.model.weights)
    for did in a.devices:
        assert np.array_equal(a.devices[did].dataset.features, b.devices[did].dataset.features)
        assert a.devices[did].channel.snr_db == b.devices[did].channel.snr_db
        assert a.dataset_profiles[did].diversity_index == b.dataset_profiles[did].diversity_index


def test_build_state_datasets_are_read_only():
    # the split and the partition take their fresh gathers without a copy, so nothing may write to them
    state = build_state(small_config())
    datasets = [state.test_set, state.train_pool, *(d.dataset for d in state.devices.values())]
    for ds in datasets:
        assert (ds.features.dtype, ds.labels.dtype) == (np.float64, np.int64)
        assert ds.features.shape == (ds.n_samples, 4) and ds.labels.shape == (ds.n_samples,)
        for arr in (ds.features, ds.labels):
            with pytest.raises(ValueError, match="read-only"):
                arr[:1] = 0


def test_no_state_holds_the_training_pool():
    # read from the config again, it holds the rows of the split the fleet was partitioned from, bit for bit
    state = build_state(small_config())
    assert "train_pool" not in vars(state)
    pool = make_classification_pool(3, 4, 60, 3.0, seeding.derive_seed(11, seeding.POOL))
    perm = seeding.substream(11, seeding.SPLIT).permutation(180)
    for split, rows in ((state.test_set, perm[:36]), (state.train_pool, perm[36:])):
        assert split.features.tobytes() == pool.features[rows].tobytes()
        assert np.array_equal(split.labels, pool.labels[rows])


def test_build_state_refuses_an_empty_test_split(monkeypatch):
    # 40 pool rows at 0.01 held out: round(0.4) = 0 test rows, which evaluate would refuse only after a round
    cfg = small_config(data=DataConfig(n_classes=2, samples_per_class=20, test_fraction=0.01))
    monkeypatch.setattr(feelsim.engine, "partition", None)  # refused before the pool is partitioned
    with pytest.raises(EmptyDatasetError, match="test_fraction 0.01 holds out no row of a pool of 40"):
        build_state(cfg)
    with pytest.raises(EmptyDatasetError):
        run_simulation(cfg)


def test_states_share_no_device_profile():
    # profiles evolve in place, so each state must own its fleet
    a = build_state(small_config())
    b = build_state(small_config())
    assert not {id(d) for d in a.devices.values()} & {id(d) for d in b.devices.values()}

    def live(state):
        devices = state.devices.values()
        return [(d.battery_level, d.channel, d.participation_count, d.last_participation_round) for d in devices]

    untouched = live(b)
    for _ in range(3):
        run_round_pre(a)
    assert live(a) != untouched
    assert live(b) == untouched


def test_reports_expose_one_scalar_plus_battery():
    state = build_state(small_config())
    dev = state.devices[0]
    rep = dataset_report(dev, state.dataset_profiles[0])
    assert rep.device_id == 0
    assert rep.diversity_index == pytest.approx(state.dataset_profiles[0].diversity_index)
    assert rep.battery_level == dev.battery_level


# ----------------------------------------------------------------- pre mode


def test_pre_round_bookkeeping():
    cfg = small_config()
    state = build_state(cfg)
    before = {did: d.battery_level for did, d in state.devices.items()}
    record = run_round_pre(state)

    assert state.round == 1
    assert record.round == 0
    assert not record.aborted
    assert 1 <= len(record.participants) <= cfg.k_per_round
    assert record.participants == tuple(sorted(record.participants))
    assert record.duration_s == max(record.device_times.values())
    assert set(record.device_times) == set(record.participants)

    # energy on the record equals the battery drop, exactly
    for did in record.participants:
        dev = state.devices[did]
        drop = (before[did] - dev.battery_level) * dev.capacity_joules
        assert record.device_energy[did] == pytest.approx(drop, abs=1e-9)
        assert dev.participation_count == 1
        assert dev.last_participation_round == 0
    for did in set(state.devices) - set(record.participants):
        assert state.devices[did].battery_level == before[did]
        assert state.devices[did].participation_count == 0
    assert record.total_energy_j == pytest.approx(sum(record.device_energy.values()), rel=1e-12)
    assert record.jain_fairness == pytest.approx(
        jain_fairness({did: d.participation_count for did, d in state.devices.items()})
    )


def test_pre_round_updates_model_and_metrics():
    state = build_state(small_config())
    w0 = state.model.weights.copy()
    record = run_round_pre(state)
    assert not np.array_equal(state.model.weights, w0)
    assert 0.0 <= record.global_accuracy <= 1.0
    assert record.global_loss > 0.0


def test_pre_round_abort_costs_nothing_and_keeps_model():
    cfg = small_config(constraints=ConstraintConfig(min_battery=0.99, min_participants=2))
    # battery range [0.7, 1.0): most seeds leave fewer than 2 devices above 0.99
    state = build_state(cfg)
    w0 = state.model.weights.copy()
    eligible_now = [d for d in state.devices.values() if d.battery_level >= 0.99]
    if len(eligible_now) >= 2:
        pytest.skip("seed produced too many charged devices for the abort path")
    record = run_round_pre(state)
    assert record.aborted
    assert record.participants == ()
    assert record.total_energy_j == 0.0
    assert record.duration_s == 0.0
    assert np.array_equal(state.model.weights, w0)
    assert state.round == 1  # aborted rounds still consume a round index


def test_channels_resampled_each_round():
    state = build_state(small_config())
    snr_r0 = {did: d.channel.snr_db for did, d in state.devices.items()}
    run_round_pre(state)
    snr_after = {did: d.channel.snr_db for did, d in state.devices.items()}
    assert any(snr_r0[d] != snr_after[d] for d in snr_r0)
    means = {did: d.channel.mean_snr_db for did, d in state.devices.items()}
    run_round_pre(state)
    assert {did: d.channel.mean_snr_db for did, d in state.devices.items()} == means


def test_every_name_the_benchmark_wraps_exists():
    # the traced benchmark only counts a missing name as absent; here it fails
    path = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"
    spec = importlib.util.spec_from_file_location("layers", path)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    absent = [f"{m}.{a}" for _, m, a, _ in layers.SPANS if not hasattr(importlib.import_module(m), a)]
    assert absent == []


@pytest.mark.parametrize("policy", ["diversity_pre", "diversity_post"])
def test_each_round_fades_every_device_through_the_engine_name(monkeypatch, policy):
    # perfbench times the channel layer by wrapping this very name
    calls = []
    fade = feelsim.engine.resample_channel

    def counted(channel, master_seed, device_id, round_index):
        calls.append((device_id, round_index))
        return fade(channel, master_seed, device_id, round_index)

    monkeypatch.setattr(feelsim.engine, "resample_channel", counted)
    cfg = small_config(policy=policy)
    run_simulation(cfg)
    n = cfg.fleet.n_devices
    assert len(calls) == n * cfg.rounds_max
    assert calls == [(did, r) for r in range(cfg.rounds_max) for did in range(n)]


def test_each_device_reports_its_dataset_index_once_per_run(monkeypatch):
    # the index is fixed for a run: pre mode builds each device's report once, post mode never
    calls = []
    report = feelsim.engine.dataset_report

    def counted(device, profile):
        calls.append(device.id)
        return report(device, profile)

    monkeypatch.setattr(feelsim.engine, "dataset_report", counted)
    cfg = small_config(policy="diversity_pre")
    result = run_simulation(cfg)
    assert len(result.rounds) == cfg.rounds_max > 1
    assert sorted(calls) == list(range(cfg.fleet.n_devices))
    calls.clear()
    run_simulation(small_config(policy="diversity_post"))
    assert calls == []


def test_build_state_profiles_are_each_dataset_indexed_alone():
    for measure in ("shannon", "gini_simpson"):
        data = replace(small_config().data, diversity=DiversityConfig(classification_measure=measure))
        state = build_state(small_config(data=data))
        for did, dev in state.devices.items():
            alone = dataset_diversity_index(dev.dataset, data.diversity, n_classes=data.n_classes)
            got = state.dataset_profiles[did]
            assert got.uncertainty.hex() == alone.uncertainty.hex()
            assert got.diversity_index.hex() == alone.diversity_index.hex()


# ---------------------------------------------------------------- post mode


def test_post_round_everyone_pays_compute_only_selected_upload():
    cfg = small_config(policy="diversity_post", k_per_round=2)
    state = build_state(cfg)
    before = {did: d.battery_level for did, d in state.devices.items()}
    record = run_round_post(state)

    assert len(record.participants) == 2
    eligible = set(record.device_energy)
    assert eligible.issuperset(record.participants)
    assert len(eligible) > 2  # non-selected devices paid compute too
    for did in eligible:
        dev = state.devices[did]
        drop = (before[did] - dev.battery_level) * dev.capacity_joules
        assert record.device_energy[did] == pytest.approx(drop, abs=1e-9)
        # uploaders paid strictly more than their compute-only peers' pattern:
        if did in record.participants:
            assert dev.participation_count == 1
        else:
            assert dev.participation_count == 0
    # duration counts only the uploading devices (compute + uplink)
    assert set(record.device_times) == set(record.participants)
    assert record.duration_s == max(record.device_times.values())


def test_post_round_selects_by_model_diversity_not_id():
    cfg = small_config(policy="diversity_post", k_per_round=2, master_seed=3)
    state = build_state(cfg)
    record = run_round_post(state)
    assert len(record.participants) == 2
    assert not record.aborted


@pytest.mark.parametrize(
    "overrides",
    [
        dict(k_per_round=2, aggregation="loss_weighted", qffl_q=2.0),
        dict(constraints=ConstraintConfig(min_battery=0.0, min_participants=7), rounds_max=2),  # every round aborts
    ],
)
def test_post_rounds_compute_a_final_loss_only_for_the_uploads(monkeypatch, overrides):
    uploaded, trained = [], []
    upload, train_many = feelsim.engine.upload, feelsim.engine.train_many

    def counted_upload(params, data, device_id):
        uploaded.append(device_id)
        return upload(params, data, device_id)

    def counted_train(model, datasets, cfg, seeds):
        trained.extend(seeds)
        return train_many(model, datasets, cfg, seeds)

    monkeypatch.setattr(feelsim.engine, "upload", counted_upload)
    monkeypatch.setattr(feelsim.engine, "train_many", counted_train)
    result = run_simulation(small_config(policy="diversity_post", **overrides))
    assert uploaded == [did for r in result.rounds for did in r.participants]
    assert len(uploaded) < len(trained)


@pytest.mark.parametrize("policy", ["diversity_pre", "diversity_post"])
def test_only_q_weighted_aggregation_computes_a_final_loss(monkeypatch, policy):
    calls = []
    penalized_loss = feelsim.learning._penalized_loss

    def counted(*args):
        calls.append(args)
        return penalized_loss(*args)

    monkeypatch.setattr(feelsim.learning, "_penalized_loss", counted)
    fedavg = CONFIGS["fedavg"](policy)
    # loss weighting at q = 0 is FedAvg: the same run, bit for bit
    for cfg in (fedavg, replace(fedavg, aggregation="loss_weighted", qffl_q=0.0)):
        assert run_digest(run_simulation(cfg)) == GOLDEN["fedavg", policy]
    assert calls == []
    result = run_simulation(small_config(policy=policy, aggregation="loss_weighted", qffl_q=2.0))
    assert len(calls) == sum(len(r.participants) for r in result.rounds) > 0


def test_post_round_aggregates_each_devices_local_train_loss(monkeypatch):
    cfg = small_config(policy="diversity_post", k_per_round=2, aggregation="loss_weighted", qffl_q=2.0)
    aggregated = []
    aggregate = feelsim.engine.aggregate_loss_weighted

    def recorded(updates, q):
        aggregated.extend(updates)
        return aggregate(updates, q)

    monkeypatch.setattr(feelsim.engine, "aggregate_loss_weighted", recorded)
    state = build_state(cfg)
    for rnd in range(cfg.rounds_max):
        model = state.model
        aggregated.clear()
        record = run_round_post(state)
        assert [u.device_id for u in aggregated] == list(record.participants) != []
        for upd in aggregated:
            seed = seeding.derive_seed(cfg.master_seed, seeding.TRAINING, upd.device_id, rnd)
            data = state.devices[upd.device_id].dataset
            alone = local_train(model, data, replace(cfg.train, seed=seed), upd.device_id)
            assert np.array_equal(upd.params.weights.view(np.uint64), alone.params.weights.view(np.uint64))
            assert (upd.n_samples, upd.device_id) == (alone.n_samples, alone.device_id)
            assert np.float64(upd.final_loss).view(np.uint64) == np.float64(alone.final_loss).view(np.uint64)


def test_post_round_abort_still_charges_compute():
    cfg = small_config(
        policy="diversity_post",
        constraints=ConstraintConfig(min_battery=0.0, min_participants=7),  # > n_devices
        rounds_max=2,
    )
    result = run_simulation(cfg)
    record = result.rounds[0]
    assert record.aborted
    assert record.participants == ()
    assert record.total_energy_j > 0.0
    assert record.duration_s > 0.0  # slowest compute still took time
    assert result.aborted_rounds == 2


def test_mode_property_follows_policy():
    assert small_config(policy="diversity_post").mode == "post_training"
    for policy in ("diversity_pre", "random", "data_size", "age_fair"):
        assert small_config(policy=policy).mode == "pre_training"


# ------------------------------------------------------------- round steps


def _assert_trains(request, cfg, model, rnd, devices):
    """``request`` trains ``devices`` in that order from ``model``, each with its shuffles for round ``rnd``."""
    got_model, datasets, train, seeds = request
    assert got_model is model and train is cfg.train
    assert len(datasets) == len(seeds) == len(devices)
    assert all(data is dev.dataset for data, dev in zip(datasets, devices))
    for seed, dev in zip(seeds, devices):
        want = np.random.default_rng(seeding.derive_seed(cfg.master_seed, seeding.TRAINING, dev.id, rnd))
        assert np.random.default_rng(seed).bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("min_participants", [1, 7], ids=["selects", "aborts"])  # 7 > the fleet's 6 devices
@pytest.mark.parametrize("policy", ["diversity_pre", "diversity_post"])
def test_each_round_yields_one_training_request_then_its_record(policy, min_participants):
    # post mode trains every eligible device in filter order before it selects; pre mode trains its
    # participants in ascending id after it selects, and no device when the round aborts
    constraints = ConstraintConfig(min_battery=0.0, min_participants=min_participants)
    cfg = small_config(policy=policy, k_per_round=2, constraints=constraints)
    state = build_state(cfg)
    for rnd in range(cfg.rounds_max):
        model, steps = state.model, _round_steps(state, cfg.mode == "post_training")
        request = next(steps)
        eligible = filter_eligible(state.devices.values(), cfg.constraints, cfg.network, cfg.train.epochs)
        record = steps.send(train_many(*request))
        with pytest.raises(StopIteration):
            next(steps)
        assert type(request) is tuple and record is state.records[-1]
        assert record.aborted == (min_participants == 7)
        trained = eligible if cfg.mode == "post_training" else [state.devices[did] for did in record.participants]
        assert [dev.id for dev in trained] == sorted(dev.id for dev in trained)
        assert bool(trained) != (record.aborted and cfg.mode == "pre_training")
        _assert_trains(request, cfg, model, rnd, trained)


def _train_alone(model, datasets, cfg, seeds):
    """``train_many``'s stack, one device at a time by the plain SGD loop."""
    rows = [
        oracles.reference_local_train(
            model.weights, data.features, data.labels, cfg.epochs, cfg.batch_size, cfg.learning_rate, cfg.l2_reg, seed
        )[0]
        for data, seed in zip(datasets, seeds)
    ]
    return np.array(rows).reshape(len(rows), model.weights.size)


def _run_by_steps(cfg) -> SimulationResult:
    """``run_simulation`` with each round's training request answered by ``_train_alone``."""
    state = build_state(cfg)
    rounds_to_target = None
    for _ in range(cfg.rounds_max):
        steps = _round_steps(state, cfg.mode == "post_training")
        record = steps.send(_train_alone(*next(steps)))
        if cfg.target_accuracy is not None and record.global_accuracy >= cfg.target_accuracy:
            rounds_to_target = state.round
            break
    return SimulationResult(tuple(state.records), state.model, rounds_to_target)


# every golden run, and the corpus runs of batch size 1 and of NaN weights; the corpus fleets of
# 255 to 600 devices match too, but take 0.4 s
PINNED = {f"{c}-{p}": (lambda c=c, p=p: CONFIGS[c](p), GOLDEN[c, p]) for c, p in GOLDEN}
PINNED |= {name: (CORPUS[name], DIGESTS[name]) for name in ("post_batch_1", "pre_batch_1", "post_diverging_fedavg")}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_rounds_trained_by_the_plain_sgd_loop_give_the_pinned_digest(name):
    config, digest = PINNED[name]
    with np.errstate(all="ignore"):  # the diverging run overflows on purpose
        assert run_digest(_run_by_steps(config())) == digest


# ------------------------------------------------------------- full runs


@pytest.mark.parametrize("policy", POLICIES)
def test_all_policies_run_to_completion(policy):
    cfg = small_config(policy=policy, rounds_max=3)
    result = run_simulation(cfg)
    assert len(result.rounds) == 3
    assert result.rounds_to_target is None
    for i, record in enumerate(result.rounds):
        assert record.round == i
        assert 0.0 <= record.jain_fairness <= 1.0


@pytest.mark.parametrize("aggregation", AGGREGATIONS)
def test_aggregation_variants_run(aggregation):
    cfg = small_config(aggregation=aggregation, qffl_q=1.0 if aggregation == "loss_weighted" else 0.0)
    result = run_simulation(cfg)
    assert len(result.rounds) == 4


def test_simulation_stops_at_target():
    cfg = small_config(rounds_max=30, target_accuracy=0.5)
    result = run_simulation(cfg)
    assert result.rounds_to_target is not None
    assert len(result.rounds) == result.rounds_to_target
    assert result.rounds[-1].global_accuracy >= 0.5
    for record in result.rounds[:-1]:
        assert record.global_accuracy < 0.5


def test_energy_conservation_over_whole_run():
    cfg = small_config(rounds_max=6)
    state = build_state(cfg)
    start = {did: d.battery_level * d.capacity_joules for did, d in state.devices.items()}
    for _ in range(cfg.rounds_max):
        run_round_pre(state)
    end = {did: d.battery_level * d.capacity_joules for did, d in state.devices.items()}
    spent = sum(start[d] - end[d] for d in start)
    recorded = sum(r.total_energy_j for r in state.records)
    assert recorded == pytest.approx(spent, abs=1e-9)


def test_depleted_devices_leave_the_pool():
    # minuscule batteries: one round of work flattens whoever participates
    cfg = small_config(
        fleet=FleetSpec(n_devices=6, capacity_joules=0.05, battery_min=0.9, battery_max=1.0),
        constraints=ConstraintConfig(min_battery=0.5, min_snr_db=-30.0, min_participants=1),
        k_per_round=6,
        rounds_max=2,
    )
    state = build_state(cfg)
    first = run_round_pre(state)
    assert not first.aborted
    drained = [did for did in first.participants if state.devices[did].battery_level < 0.5]
    assert drained  # the workload exceeds 50% of a 0.05 J budget
    second = run_round_pre(state)
    assert set(second.participants).isdisjoint(drained)


def test_simulation_bit_identical_across_runs():
    cfg = small_config(rounds_max=5)
    a = run_simulation(cfg)
    b = run_simulation(cfg)
    assert np.array_equal(a.final_model.weights, b.final_model.weights)
    assert len(a.rounds) == len(b.rounds)
    for ra, rb in zip(a.rounds, b.rounds):
        assert ra == rb


def test_master_seed_changes_trajectory():
    a = run_simulation(small_config(master_seed=1))
    b = run_simulation(small_config(master_seed=2))
    assert not np.array_equal(a.final_model.weights, b.final_model.weights)


def test_age_fair_policy_is_fairer_than_diversity():
    common = dict(rounds_max=10, k_per_round=2)
    fair = run_simulation(small_config(policy="age_fair", **common))
    greedy = run_simulation(small_config(policy="diversity_pre", **common))
    assert fair.rounds[-1].jain_fairness >= greedy.rounds[-1].jain_fairness


# ------------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValidationError):
        small_config(policy="round_robin")
    with pytest.raises(ValidationError):
        small_config(aggregation="median")
    with pytest.raises(ValidationError):
        small_config(k_per_round=0)
    with pytest.raises(ValidationError):
        small_config(rounds_max=0)
    with pytest.raises(ValidationError):
        small_config(target_accuracy=1.5)
    with pytest.raises(ValidationError):
        small_config(qffl_q=-1.0)
    with pytest.raises(ValidationError, match="master_seed -1"):
        small_config(master_seed=-1)
    # FedAvg never reads q, so a nonzero q only sets a field no round reads
    with pytest.raises(ValidationError) as err:
        small_config(qffl_q=1.0)
    assert err.value.code == "q_without_loss_weighting"
    assert small_config(qffl_q=1.0, aggregation="loss_weighted").qffl_q == 1.0
    with pytest.raises(ValidationError):
        DataConfig(test_fraction=0.0)


def test_partition_spec_device_count_follows_fleet():
    # fleet size wins over whatever the partition spec said
    cfg = small_config(
        fleet=FleetSpec(n_devices=5),
        data=DataConfig(n_classes=3, dim=4, samples_per_class=60, partition=PartitionSpec(n_devices=99)),
    )
    state = build_state(cfg)
    assert len(state.devices) == 5


# --------------------------------------------------------------- invariants


@st.composite
def invariant_configs(draw) -> SimulationConfig:
    n = draw(st.integers(2, 9))
    aggregation = draw(st.sampled_from(AGGREGATIONS))
    return small_config(
        fleet=FleetSpec(n_devices=n, capacity_joules=draw(st.sampled_from([0.02, 0.05, 0.2, 1.0, 200.0]))),
        data=DataConfig(
            n_classes=3, dim=3, samples_per_class=20, partition=PartitionSpec(n_devices=n, skew="dirichlet", alpha=0.5)
        ),
        network=NetworkConfig(
            total_bandwidth=1e6, model_size_bits=1e5, allocation_strategy=draw(st.sampled_from(ALLOCATION_STRATEGIES))
        ),
        constraints=ConstraintConfig(
            min_battery=draw(st.sampled_from([0.0, 0.05, 0.5])),
            min_snr_db=-30.0,
            min_participants=draw(st.integers(1, 3)),
            # at the filter's share of the band, completion times here run
            # from about 0.05 to 0.55 s, with a median of 0.2 s
            completion_threshold=draw(st.sampled_from([0.1, 0.2, 0.3, math.inf])),
        ),
        policy=draw(st.sampled_from(POLICIES)),
        k_per_round=draw(st.integers(1, 4)),
        aggregation=aggregation,
        qffl_q=1.0 if aggregation == "loss_weighted" else 0.0,
        master_seed=draw(st.integers(0, 10_000)),
    )


@settings(max_examples=100, deadline=None)
@given(invariant_configs())
def test_round_invariants(cfg):
    state = build_state(cfg)
    step = run_round_post if cfg.mode == "post_training" else run_round_pre
    counts = {did: 0 for did in state.devices}
    last = {did: None for did in state.devices}
    for _ in range(6):
        before = {did: d.battery_level for did, d in state.devices.items()}
        record = step(state)

        for did, dev in state.devices.items():
            assert 0.0 <= dev.battery_level <= 1.0
            if did in record.device_energy:
                drop = (before[did] - dev.battery_level) * dev.capacity_joules
                assert record.device_energy[did] == pytest.approx(drop, abs=1e-9)
            else:
                assert dev.battery_level == before[did]

        participants = record.participants
        assert list(participants) == sorted(set(participants))
        assert len(participants) <= cfg.k_per_round
        for did in participants:
            assert before[did] > 0 and before[did] >= cfg.constraints.min_battery
            counts[did] += 1
            last[did] = record.round
        assert {did: d.participation_count for did, d in state.devices.items()} == counts
        assert {did: d.last_participation_round for did, d in state.devices.items()} == last

        if not record.aborted:
            assert len(participants) >= cfg.constraints.min_participants
            # the filter's deadline holds at every selection's actual shares
            assert max(record.device_times.values()) <= cfg.constraints.completion_threshold * (1 + 1e-9)
        elif cfg.mode == "pre_training":
            assert record.total_energy_j == 0.0 and record.duration_s == 0.0


# ---------------------------------------------------- metamorphic relations


@settings(max_examples=15, deadline=None)
@given(invariant_configs(), st.integers(-3, 3))
def test_scaling_units_by_a_power_of_two_keeps_every_bit_of_a_run(cfg, j):
    # Multiplying by 2^j changes a float's exponent alone, so it commutes with
    # every rounding while no value overflows or underflows. Every scaled
    # quantity (a time, rate, share, charge or capacity) is a product or
    # quotient of a few config values within 1e-9 to 2e9. A battery that a
    # charge empties keeps zero or a rounding residue of about 1e-16 of its
    # level, and a run of 4 rounds charges it at most 4 times, so no nonzero
    # value lies outside 1e-70 to 1e40: far inside the normal range
    # (2.2e-308 to 1.8e308) even after a factor of 2^±3.
    scale, fleet, net = 2.0**j, cfg.fleet, cfg.network
    base = run_simulation(cfg)
    # band: the shares, the payload and every rate grow together, so no time moves
    band = replace(net, total_bandwidth=net.total_bandwidth * scale, model_size_bits=net.model_size_bits * scale)
    assert run_digest(run_simulation(replace(cfg, network=band))) == run_digest(base)
    # compute: cycles and clock grow together, and a cycle costs that much less
    compute = replace(
        fleet,
        cpu_freq_min=fleet.cpu_freq_min * scale,
        cpu_freq_max=fleet.cpu_freq_max * scale,
        cycles_per_sample_min=fleet.cycles_per_sample_min * scale,
        cycles_per_sample_max=fleet.cycles_per_sample_max * scale,
        energy_per_cycle=fleet.energy_per_cycle / scale,
    )
    assert run_digest(run_simulation(replace(cfg, fleet=compute))) == run_digest(base)
    # energy: every charge and every capacity grow together, so each battery level keeps its bits
    energy = replace(
        fleet,
        energy_per_cycle=fleet.energy_per_cycle * scale,
        tx_power_min=fleet.tx_power_min * scale,
        tx_power_max=fleet.tx_power_max * scale,
        capacity_joules=fleet.capacity_joules * scale,
    )
    charged = [replace(r, device_energy={did: e * scale for did, e in r.device_energy.items()}) for r in base.rounds]
    assert run_digest(run_simulation(replace(cfg, fleet=energy))) == run_digest(replace(base, rounds=tuple(charged)))
