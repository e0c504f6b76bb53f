"""Eligibility filtering, the five policies, and the fairness index."""

from __future__ import annotations

import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_device
from feelsim.domain import ChannelState, DeviceProfile
from feelsim.errors import DegenerateWeightsError, UnreachableDeviceError, ValidationError
from feelsim.network import NetworkConfig, expected_completion_time
from feelsim.scheduler import (
    ConstraintConfig,
    ScoreWeights,
    _best_first,
    filter_eligible,
    jain_fairness,
    schedule_age_fair,
    schedule_data_size_priority,
    schedule_post_training,
    schedule_pre_training,
    schedule_random,
)

NET = NetworkConfig(total_bandwidth=1e6, model_size_bits=1e5)
LAX = ConstraintConfig(min_battery=0.0, min_snr_db=-math.inf, min_data_size=0)


def _fleet(n=6, **overrides):
    return [make_device(device_id=i, **overrides) for i in range(n)]


# ------------------------------------------------------------------ configs


def test_score_weights_simplex_enforced():
    ScoreWeights(0.6, 0.2, 0.2)
    with pytest.raises(ValidationError) as info:
        ScoreWeights(0.5, 0.2, 0.2)
    assert info.value.code == "weights_not_simplex"
    with pytest.raises(ValidationError):
        ScoreWeights(1.2, -0.1, -0.1)
    with pytest.raises(ValidationError, match="weights_not_simplex"):
        ScoreWeights(math.nan, 0.5, 0.5)


def test_constraint_config_validation():
    with pytest.raises(ValidationError):
        ConstraintConfig(min_battery=1.5)
    with pytest.raises(ValidationError):
        ConstraintConfig(completion_threshold=0.0)
    with pytest.raises(ValidationError):
        ConstraintConfig(min_participants=0)


# ---------------------------------------------------------------- filtering


def test_filter_battery_floor():
    devices = [
        make_device(device_id=0, battery=0.5),
        make_device(device_id=1, battery=0.04),
        make_device(device_id=2, battery=0.0),
    ]
    out = filter_eligible(devices, ConstraintConfig(min_battery=0.05), NET, epochs=1)
    assert [d.id for d in out] == [0]


def test_filter_drained_device_excluded_even_with_zero_floor():
    devices = [make_device(device_id=0, battery=0.0)]
    out = filter_eligible(devices, LAX, NET, epochs=1)
    assert out == []


def test_filter_snr_floor():
    devices = [make_device(device_id=0, snr_db=5.0), make_device(device_id=1, snr_db=-15.0)]
    out = filter_eligible(devices, ConstraintConfig(min_snr_db=-10.0), NET, epochs=1)
    assert [d.id for d in out] == [0]


def test_filter_min_data_size():
    devices = [make_device(device_id=0, n_samples=3), make_device(device_id=1, n_samples=16)]
    out = filter_eligible(devices, ConstraintConfig(min_data_size=16), NET, epochs=1)
    assert [d.id for d in out] == [1]


def test_filter_completion_budget_uses_equal_share():
    fast = make_device(device_id=0, snr_db=20.0, n_samples=10)
    slow = make_device(device_id=1, snr_db=20.0, n_samples=10_000, cpu_freq=1e8)
    constraints = ConstraintConfig(completion_threshold=1.0, min_battery=0.0)
    out = filter_eligible([fast, slow], constraints, NET, epochs=1)
    assert [d.id for d in out] == [0]


def test_filter_unreachable_dropped_and_order_preserved():
    devices = [
        make_device(device_id=2, snr_db=10.0),
        make_device(device_id=0, snr_db=-4000.0),
        make_device(device_id=1, snr_db=10.0),
    ]
    out = filter_eligible(devices, LAX, NET, epochs=1)
    assert [d.id for d in out] == [2, 1]


def _scalar_filter(devices, constraints, net, epochs):
    """The eligibility loop that calls ``expected_completion_time`` per device."""
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
        if not completion <= constraints.completion_threshold:
            continue
        eligible.append(dev)
    return eligible


_DATASETS = {n: make_device(n_samples=n).dataset for n in (1, 2, 7, 16, 60)}
_BATTERIES = st.one_of(st.sampled_from([0.0, 0.05, 1.0]), st.floats(0.0, 1.0))
# an underflowing rate, and two SNRs past the overflow of 10 ** (snr / 10)
_SNRS = st.one_of(st.sampled_from([-4000.0, 0.0, 3085.0, 5000.0]), st.floats(-40.0, 60.0))
_SIZES = st.sampled_from(sorted(_DATASETS))


def _profile(i, battery, snr, n, cycles=1e6, freq=1e9):
    channel = ChannelState(float(snr), float(snr), 2.0)
    return DeviceProfile(i, float(cycles), float(freq), battery, 0.5, 1e-9, 200.0, channel, _DATASETS[n])


def _completion(dev, net, n_offered, epochs):
    try:
        return expected_completion_time(dev, net, net.total_bandwidth / n_offered, epochs)
    except UnreachableDeviceError:
        return math.inf


@st.composite
def _filter_cases(draw):
    epochs = draw(st.integers(1, 3))
    net = NetworkConfig(
        total_bandwidth=draw(st.sampled_from([2e4, 1e6, 1e9])), model_size_bits=draw(st.sampled_from([1e5, 3e7]))
    )
    devices = [
        _profile(
            i,
            draw(_BATTERIES),
            draw(_SNRS),
            draw(_SIZES),
            draw(st.floats(1e3, 1e7)),
            draw(st.floats(1e7, 3e9)),
        )
        for i in range(draw(st.integers(1, 8)))
    ]
    # each floor may sit exactly on some device's value
    on = st.sampled_from(devices)
    constraints = ConstraintConfig(
        min_battery=draw(st.one_of(st.just(0.0), st.floats(0.0, 1.0), on.map(lambda d: d.battery_level))),
        min_snr_db=draw(st.one_of(st.just(-math.inf), st.floats(-50.0, 50.0), on.map(lambda d: d.channel.snr_db))),
        min_data_size=draw(st.one_of(st.integers(0, 70), on.map(lambda d: d.dataset.n_samples))),
        completion_threshold=draw(
            st.one_of(
                st.just(math.inf),
                st.floats(1e-3, 1e3),
                on.map(lambda d: _completion(d, net, len(devices), epochs)),
            )
        ),
    )
    return devices, constraints, net, epochs


@settings(max_examples=30, deadline=None)
@given(_filter_cases())
def test_filter_matches_the_scalar_loop(case):
    devices, constraints, net, epochs = case
    assert [d.id for d in filter_eligible(devices, constraints, net, epochs)] == [
        d.id for d in _scalar_filter(devices, constraints, net, epochs)
    ]


@pytest.mark.parametrize("epochs", [1, 2, 3])
def test_filter_keeps_devices_exactly_on_every_floor(epochs):
    fleet = [
        _profile(0, 0.05, 0.0, 16),  # on the battery floor
        _profile(1, 0.5, -10.0, 16),  # on the SNR floor
        _profile(2, 0.5, 5.0, 7),  # on the size floor
        _profile(3, 0.5, 5.0, 60, cycles=1e7, freq=1e7),  # on the deadline, set below
        _profile(4, 0.5, -4000.0, 16),  # its rate underflows to 0
        _profile(5, 0.5, 3085.0, 16),  # 10 ** (snr / 10) overflows
        _profile(6, 0.5, 5.0, 2),  # under the size floor
        _profile(7, 0.049, 5.0, 16),  # under the battery floor
    ]
    net = NetworkConfig(total_bandwidth=1e6, model_size_bits=1e5)
    deadline = _completion(fleet[3], net, len(fleet), epochs)
    constraints = ConstraintConfig(min_battery=0.05, min_snr_db=-10.0, min_data_size=7, completion_threshold=deadline)
    out = filter_eligible(fleet, constraints, net, epochs)
    assert [d.id for d in out] == [d.id for d in _scalar_filter(fleet, constraints, net, epochs)] == [0, 1, 2, 3, 5]
    # one ulp under the deadline drops only the device that sat on it
    tighter = replace(constraints, completion_threshold=math.nextafter(deadline, 0.0))
    assert [d.id for d in filter_eligible(fleet, tighter, net, epochs)] == [0, 1, 2, 5]
    # a drained device stays out under a floor of 0, and no deadline keeps all the rest that are reachable
    lax = ConstraintConfig(min_battery=0.0, min_snr_db=-math.inf, min_data_size=0)
    drained = [_profile(8, 0.0, 5.0, 16), *fleet]
    assert [d.id for d in filter_eligible(drained, lax, net, epochs)] == [0, 1, 2, 3, 5, 6, 7]


@pytest.mark.parametrize("epochs", [1, 2, 3])
def test_filter_deadline_is_exact_to_the_ulp(epochs):
    # awkward values, with compute or upload dominating by turns, so a reordered term moves some time by an ulp
    rng = np.random.default_rng(epochs)
    sizes = sorted(_DATASETS)
    fleet = [
        _profile(i, 0.9, rng.uniform(-5.0, 30.0), sizes[i % 5], rng.uniform(1e5, 3e6), 10 ** rng.uniform(5.0, 9.5))
        for i in range(16)
    ]
    net = NetworkConfig(total_bandwidth=1.3e6, model_size_bits=7.7e4)
    for dev in fleet:
        at = ConstraintConfig(min_snr_db=-math.inf, completion_threshold=_completion(dev, net, len(fleet), epochs))
        assert dev in filter_eligible(fleet, at, net, epochs)
        under = replace(at, completion_threshold=math.nextafter(at.completion_threshold, 0.0))
        assert dev not in filter_eligible(fleet, under, net, epochs)


@pytest.mark.parametrize("field", ["cpu_freq", "cycles"])
def test_filter_drops_a_device_whose_completion_time_is_nan(field):
    # nan is not > any deadline, so a `> deadline` check kept this device and its NaN share
    # then failed the schedule; every deadline, inf included, drops it
    broken, ok = make_device(device_id=0, **{field: math.nan}), make_device(device_id=1)
    constraints = ConstraintConfig(min_battery=0.0)
    for filt in (filter_eligible, _scalar_filter):
        assert [d.id for d in filt([broken, ok], constraints, NET, 1)] == [1]
    eligible = filter_eligible([broken, ok], constraints, NET, 1)
    decision = schedule_pre_training(eligible, {0: 1.0, 1: 0.5}, k=2, weights=ScoreWeights(), constraints=constraints, net=replace(NET, allocation_strategy="equalize_completion"), epochs=1)
    assert decision.selected == (1,) and decision.bandwidth_share == {1: NET.total_bandwidth}


def test_filter_share_underflow_raises_only_once_a_device_passes_the_floors():
    # 5e-324 Hz over two devices is a share of 0: the rate is never positive
    net = NetworkConfig(total_bandwidth=5e-324)
    drained, deaf, ok = _profile(0, 0.0, 5.0, 16), _profile(1, 0.9, -20.0, 16), _profile(2, 0.9, 5.0, 16)
    for filt in (filter_eligible, _scalar_filter):
        assert filt([drained, deaf], ConstraintConfig(), net, 1) == []
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            filt([drained, ok], ConstraintConfig(), net, 1)
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            filt([ok, _profile(3, 0.9, -4000.0, 16)], ConstraintConfig(), net, 1)


def test_filter_rejects_zero_epochs_only_once_a_device_is_reachable():
    unreachable, ok = _profile(0, 0.9, -4000.0, 16), _profile(1, 0.9, 5.0, 16)
    for filt in (filter_eligible, _scalar_filter):
        assert filt([unreachable], LAX, NET, 0) == []
        with pytest.raises(ValueError, match="epochs >= 1"):
            filt([unreachable, ok], LAX, NET, 0)


# ------------------------------------------------------------- pre-training


def test_pre_training_pure_diversity_ranking():
    devices = _fleet(5)
    div = {0: 0.1, 1: 0.9, 2: 0.5, 3: 0.7, 4: 0.3}
    decision = schedule_pre_training(
        devices, div, k=2, weights=ScoreWeights(1.0, 0.0, 0.0), constraints=LAX, net=NET, epochs=1
    )
    assert decision.selected == (1, 3)
    assert decision.round_valid


def test_pre_training_battery_breaks_diversity_tie():
    devices = [
        make_device(device_id=0, battery=0.2),
        make_device(device_id=1, battery=0.9),
    ]
    div = {0: 0.5, 1: 0.5}
    decision = schedule_pre_training(
        devices, div, k=1, weights=ScoreWeights(0.6, 0.4, 0.0), constraints=LAX, net=NET, epochs=1
    )
    assert decision.selected == (1,)


def test_pre_training_channel_term():
    devices = [
        make_device(device_id=0, snr_db=0.0),
        make_device(device_id=1, snr_db=25.0),
    ]
    div = {0: 0.5, 1: 0.5}
    decision = schedule_pre_training(
        devices, div, k=1, weights=ScoreWeights(0.0, 0.0, 1.0), constraints=LAX, net=NET, epochs=1
    )
    assert decision.selected == (1,)


def test_pre_training_exact_ties_prefer_lower_id():
    devices = _fleet(4)
    div = {i: 0.5 for i in range(4)}
    decision = schedule_pre_training(
        devices, div, k=2, weights=ScoreWeights(1.0, 0.0, 0.0), constraints=LAX, net=NET, epochs=1
    )
    assert decision.selected == (0, 1)


@pytest.mark.parametrize("order", [[3, 1, 0, 2], [2, 3, 1, 0], [0, 1, 2, 3]])
def test_pre_training_equal_scores_prefer_lower_id_in_any_input_order(order):
    devices = [make_device(device_id=i) for i in order]
    decision = schedule_pre_training(
        devices, {i: 0.5 for i in order}, k=3, weights=ScoreWeights(), constraints=LAX, net=NET, epochs=1
    )
    assert decision.selected == (0, 1, 2)


def test_best_first_ties_negative_zero_with_zero():
    devices = [SimpleNamespace(id=i) for i in (4, 2, 9, 1)]
    ranked = _best_first(devices, np.array([0.0, -0.0, -0.0, 0.0]), k=4)
    assert [d.id for d in ranked] == [1, 2, 4, 9]


def test_best_first_orders_as_the_sorted_score_id_key():
    rng = np.random.default_rng(12)
    ids = rng.permutation(5000)[:2000]
    score = rng.integers(-40, 40, size=2000) / 7.0  # many exact ties
    score[rng.integers(0, 2000, size=200)] = -0.0
    score[rng.integers(0, 2000, size=50)] = math.inf
    score[rng.integers(0, 2000, size=50)] = -math.inf
    tie = rng.integers(0, 3, size=2000)
    devices = [SimpleNamespace(id=int(i)) for i in ids]
    expected = sorted(range(2000), key=lambda i: (-score[i], ids[i]))
    assert [d.id for d in _best_first(devices, score, k=2000)] == [int(ids[i]) for i in expected]
    # a tie key orders equal scores before the id does
    expected = sorted(range(2000), key=lambda i: (-score[i], tie[i], ids[i]))
    assert [d.id for d in _best_first(devices, score, tie, k=2000)] == [int(ids[i]) for i in expected]


_RANK_SCORES = st.sampled_from([0.0, -0.0, 0.5, -0.5, 2.0, math.inf, -math.inf, math.nan])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(_RANK_SCORES, st.integers(0, 2), st.integers(0, 99)), min_size=1, max_size=30, unique_by=lambda r: r[2]
    ),
    st.integers(1, 32),
    st.booleans(),
)
@example(rows=[(math.nan, 0, 5), (0.5, 1, 3), (math.nan, 2, 1)], k=2, with_tie=False)  # the k-th best is NaN
def test_best_first_is_the_first_k_of_the_sorted_key(rows, k, with_tie):
    n = len(rows)
    k = 1 + (k - 1) % (n + 2)  # 1 to n + 2
    score = np.array([s for s, _, _ in rows])
    tie = [t for _, t, _ in rows]
    ids = [i for _, _, i in rows]
    devices = [SimpleNamespace(id=i) for i in ids]

    # the key of test_best_first_orders_as_the_sorted_score_id_key, with a NaN score last
    def key(i):
        nan = math.isnan(score[i])
        return (nan, 0.0 if nan else -score[i], tie[i] if with_tie else 0, ids[i])

    expected = [ids[i] for i in sorted(range(n), key=key)][:k]
    ranked = _best_first(devices, score, *([tie] if with_tie else []), k=k)
    assert [d.id for d in ranked] == expected


def test_pre_training_selection_invariant_to_index_rescaling():
    # a strictly increasing transform of the reported indices cannot change
    # a pure-diversity ranking
    devices = _fleet(6)
    rng = np.random.default_rng(3)
    div = {i: float(rng.uniform(0, 3)) for i in range(6)}
    warped = {i: math.exp(2.0 * v) + 1.0 for i, v in div.items()}
    w = ScoreWeights(1.0, 0.0, 0.0)
    a = schedule_pre_training(devices, div, k=3, weights=w, constraints=LAX, net=NET, epochs=1)
    b = schedule_pre_training(devices, warped, k=3, weights=w, constraints=LAX, net=NET, epochs=1)
    assert a.selected == b.selected


def test_pre_training_k_larger_than_pool_takes_all():
    devices = _fleet(3)
    decision = schedule_pre_training(
        devices, {i: 0.1 * i for i in range(3)}, k=10, weights=ScoreWeights(), constraints=LAX, net=NET, epochs=1
    )
    assert sorted(decision.selected) == [0, 1, 2]


def test_pre_training_empty_pool_invalid_round():
    decision = schedule_pre_training(
        [], {}, k=3, weights=ScoreWeights(), constraints=ConstraintConfig(min_participants=2), net=NET, epochs=1
    )
    assert decision.selected == ()
    assert not decision.round_valid


def test_pre_training_min_participants_gate():
    devices = _fleet(2)
    div = {0: 0.1, 1: 0.9}
    constraints = ConstraintConfig(min_battery=0.0, min_participants=3)
    decision = schedule_pre_training(devices, div, k=2, weights=ScoreWeights(), constraints=constraints, net=NET, epochs=1)
    assert decision.selected == (1, 0) or set(decision.selected) == {0, 1}
    assert not decision.round_valid


def test_pre_training_decision_shares():
    devices = _fleet(4, snr_db=10.0)
    div = {i: float(i) for i in range(4)}
    decision = schedule_pre_training(devices, div, k=3, weights=ScoreWeights(), constraints=LAX, net=NET, epochs=1)
    assert set(decision.bandwidth_share) == set(decision.selected)
    assert sum(decision.bandwidth_share.values()) == pytest.approx(NET.total_bandwidth, rel=1e-9)


def test_pre_training_k_must_be_positive():
    with pytest.raises(ValueError):
        schedule_pre_training(_fleet(2), {0: 0.0, 1: 0.0}, k=0, weights=ScoreWeights(), constraints=LAX, net=NET, epochs=1)


# ------------------------------------------------------------ post-training


def test_post_training_top_k_by_index():
    devices = _fleet(5)
    indices = {0: 0.2, 1: 0.9, 2: 0.4, 3: 0.9, 4: 0.1}
    decision = schedule_post_training(devices, indices, k=3, constraints=LAX, net=NET, epochs=1)
    assert decision.selected == (1, 3, 2)  # tie at 0.9 broken by id


def test_post_training_ranks_a_nan_index_last():
    # a diverged model's NaN index compares false both ways; a sort keyed on
    # (-index, id) then ranked device 0 (0.5) above device 2 (0.9)
    decision = schedule_post_training(_fleet(3), {0: 0.5, 1: math.nan, 2: 0.9}, k=2, constraints=LAX, net=NET, epochs=1)
    assert decision.selected == (2, 0)


@pytest.mark.parametrize("position", range(5))
def test_post_training_ranks_finite_indices_first_wherever_the_nan_sits(position):
    finite = [0.3, 0.8, 0.1, 0.6, 0.4]
    indices = {i: math.nan if i == position else v for i, v in enumerate(finite)}
    decision = schedule_post_training(_fleet(5), indices, k=5, constraints=LAX, net=NET, epochs=1)
    expected = sorted((i for i in range(5) if i != position), key=lambda i: -finite[i]) + [position]
    assert decision.selected == tuple(expected)


def test_post_training_empty():
    decision = schedule_post_training([], {}, k=2, constraints=LAX, net=NET, epochs=1)
    assert decision.selected == ()


# ------------------------------------------------------------------- random


def test_random_is_seeded_and_without_replacement():
    devices = _fleet(10)
    a = schedule_random(devices, k=4, seed=11, constraints=LAX, net=NET, epochs=1)
    b = schedule_random(devices, k=4, seed=11, constraints=LAX, net=NET, epochs=1)
    c = schedule_random(devices, k=4, seed=12, constraints=LAX, net=NET, epochs=1)
    assert a.selected == b.selected
    assert len(set(a.selected)) == 4
    assert a.selected != c.selected


def test_random_marginals_roughly_uniform():
    devices = _fleet(8)
    counts = {i: 0 for i in range(8)}
    trials = 1200
    for seed in range(trials):
        picked = schedule_random(devices, k=2, seed=seed, constraints=LAX, net=NET, epochs=1).selected
        for did in picked:
            counts[did] += 1
    expected = trials * 2 / 8
    for did, cnt in counts.items():
        assert abs(cnt - expected) < 0.2 * expected


# ---------------------------------------------------------------- data-size


def test_data_size_priority_favors_large_datasets():
    small = [make_device(device_id=i, n_samples=5) for i in range(4)]
    big = make_device(device_id=9, n_samples=5000)
    hits = 0
    for seed in range(200):
        decision = schedule_data_size_priority(small + [big], k=1, seed=seed, constraints=LAX, net=NET, epochs=1)
        hits += decision.selected == (9,)
    assert hits > 180


def test_data_size_priority_inverse_flips_preference():
    small = make_device(device_id=0, n_samples=5)
    big = make_device(device_id=1, n_samples=5000)
    hits = 0
    for seed in range(200):
        decision = schedule_data_size_priority(
            [small, big], k=1, seed=seed, constraints=LAX, net=NET, epochs=1, inverse=True
        )
        hits += decision.selected == (0,)
    assert hits > 180


def test_data_size_priority_degenerate_and_take_all():
    zeros = [make_device(device_id=i, n_samples=0) for i in range(3)]
    with pytest.raises(DegenerateWeightsError):
        schedule_data_size_priority(zeros, k=2, seed=0, constraints=LAX, net=NET, epochs=1)
    devices = _fleet(3)
    decision = schedule_data_size_priority(devices, k=3, seed=0, constraints=LAX, net=NET, epochs=1)
    assert sorted(decision.selected) == [0, 1, 2]


# ----------------------------------------------------------------- age-fair


def test_age_fair_never_participated_wins():
    veteran = make_device(device_id=0, participation_count=6, last_round=9)
    fresh = make_device(device_id=1)
    decision = schedule_age_fair([veteran, fresh], k=1, current_round=10, constraints=LAX, net=NET, epochs=1)
    assert decision.selected == (1,)


def test_age_fair_orders_by_staleness_then_count():
    devices = [
        make_device(device_id=0, participation_count=2, last_round=8),
        make_device(device_id=1, participation_count=2, last_round=3),
        make_device(device_id=2, participation_count=5, last_round=3),
    ]
    decision = schedule_age_fair(devices, k=2, current_round=10, constraints=LAX, net=NET, epochs=1)
    assert decision.selected == (1, 2)  # both aged 7, fewer participations first


def test_age_fair_rotation_converges_to_even_counts():
    # simulate 12 rounds of k=2 over 4 devices by hand
    state = {i: {"count": 0, "last": None} for i in range(4)}
    for rnd in range(12):
        devices = [
            make_device(device_id=i, participation_count=state[i]["count"], last_round=state[i]["last"])
            for i in range(4)
        ]
        decision = schedule_age_fair(devices, k=2, current_round=rnd, constraints=LAX, net=NET, epochs=1)
        for did in decision.selected:
            state[did]["count"] += 1
            state[did]["last"] = rnd
    counts = [state[i]["count"] for i in range(4)]
    assert max(counts) - min(counts) <= 1
    assert jain_fairness(counts) > 0.99


def _sorted_age_fair(devices: list, current_round: int) -> list:
    """The ranking as one ``sorted`` key: (-age, participations, id)."""

    def age(dev) -> float:
        if dev.last_participation_round is None:
            return math.inf
        return float(current_round - dev.last_participation_round)

    return sorted(devices, key=lambda d: (-age(d), d.participation_count, d.id))


@st.composite
def _age_fair_histories(draw):
    n = draw(st.integers(1, 9))
    current_round = draw(st.integers(0, 6))
    # few distinct rounds and counts, so equal ages and equal counts are common
    lasts = draw(st.lists(st.none() | st.integers(0, current_round), min_size=n, max_size=n))
    counts = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    ids = draw(st.permutations(range(n)))
    devices = [make_device(device_id=i, participation_count=c, last_round=r) for i, r, c in zip(ids, lasts, counts)]
    return devices, current_round, draw(st.integers(1, n + 1))


@settings(max_examples=50, deadline=None)
@given(_age_fair_histories())
def test_age_fair_ranks_as_the_sorted_age_count_id_key(case):
    devices, current_round, k = case
    decision = schedule_age_fair(devices, k=k, current_round=current_round, constraints=LAX, net=NET, epochs=1)
    assert decision.selected == tuple(d.id for d in _sorted_age_fair(devices, current_round)[:k])


# ------------------------------------------------------------------ fairness


def test_jain_anchors():
    assert jain_fairness([3, 3, 3]) == pytest.approx(1.0, abs=1e-12)
    assert jain_fairness([6, 0, 0]) == pytest.approx(1.0 / 3.0, rel=1e-12)
    assert jain_fairness({0: 1, 1: 1, 2: 0, 3: 0}) == pytest.approx(0.5, rel=1e-12)
    assert jain_fairness([0, 0, 0]) == 1.0


def test_jain_rejects_bad_input():
    with pytest.raises(ValueError):
        jain_fairness([])
    with pytest.raises(ValueError):
        jain_fairness([1, -2])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=12))
def test_jain_matches_oracle_and_bounds(counts):
    got = jain_fairness(counts)
    want = oracles.jain(counts)
    assert got == pytest.approx(want, rel=1e-12)
    assert 1.0 / len(counts) - 1e-12 <= got <= 1.0 + 1e-12
