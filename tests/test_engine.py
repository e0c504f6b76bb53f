"""Round orchestration and end-to-end simulation behavior."""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from feelsim.datagen import FleetSpec, PartitionSpec
from feelsim.engine import (
    AGGREGATIONS,
    POLICIES,
    DataConfig,
    SimulationConfig,
    build_state,
    dataset_report,
    model_report,
    run_round_post,
    run_round_pre,
    run_simulation,
)
from feelsim.errors import ValidationError
from feelsim.learning import TrainConfig
from feelsim.network import ALLOCATION_STRATEGIES, NetworkConfig
from feelsim.scheduler import ConstraintConfig, jain_fairness


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
    rep2 = model_report(dev, 0.42)
    assert rep2.diversity_index == 0.42


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

        assert record.total_energy_j == sum(record.device_energy.values())
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
            assert record.duration_s == max(record.device_times.values())
            assert len(participants) >= cfg.constraints.min_participants
            # the filter's deadline holds at every selection's actual shares
            assert max(record.device_times.values()) <= cfg.constraints.completion_threshold * (1 + 1e-9)
        elif cfg.mode == "pre_training":
            assert record.total_energy_j == 0.0 and record.duration_s == 0.0
