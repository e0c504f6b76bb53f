"""Synthetic pool, partitioning, and fleet generation."""

from __future__ import annotations

import copy
import pickle
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from feelsim import seeding
from feelsim.datagen import (
    SIZE_DISTS,
    SKEW_KINDS,
    FleetSpec,
    PartitionSpec,
    _largest_remainder,
    _target_sizes,
    make_classification_pool,
    make_fleet,
    partition,
)
from feelsim.diversity import shannon_entropy
from feelsim.domain import ChannelState, DeviceProfile, LocalDataset
from feelsim.errors import InsufficientPoolError, ValidationError
from feelsim.learning import TrainConfig, evaluate, init_model, local_train


def test_pool_shapes_and_histogram():
    pool = make_classification_pool(n_classes=3, dim=5, samples_per_class=40, class_sep=2.0, seed=0)
    assert pool.features.shape == (120, 5)
    assert list(np.bincount(pool.labels)) == [40, 40, 40]


def test_pool_arrays_are_read_only():
    pool = make_classification_pool(n_classes=3, dim=5, samples_per_class=4, class_sep=2.0, seed=0)
    assert (pool.features.dtype, pool.labels.dtype) == (np.float64, np.int64)
    for arr in (pool.features, pool.labels):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


def test_pool_centers_respect_separation():
    pool = make_classification_pool(4, 6, 200, class_sep=5.0, seed=3)
    centers = np.array([pool.features[pool.labels == c].mean(axis=0) for c in range(4)])
    for i in range(4):
        for j in range(i + 1, 4):
            # empirical means sit near the true centers, which are >= 5 apart
            assert np.linalg.norm(centers[i] - centers[j]) > 4.0


def test_pool_is_seed_deterministic():
    a = make_classification_pool(3, 4, 10, 2.0, seed=7)
    b = make_classification_pool(3, 4, 10, 2.0, seed=7)
    c = make_classification_pool(3, 4, 10, 2.0, seed=8)
    assert np.array_equal(a.features, b.features)
    assert not np.array_equal(a.features, c.features)


def test_pool_is_linearly_separable_at_high_separation():
    pool = make_classification_pool(3, 4, 100, class_sep=10.0, seed=1)
    model = init_model(4, 3, seed=0)
    trained = local_train(model, pool, TrainConfig(epochs=30, batch_size=32, learning_rate=0.3, seed=0))
    accuracy, _ = evaluate(trained.params, pool)
    assert accuracy >= 0.99


def _uniform_pool(n: int = 8, n_classes: int = 2, tag_rows: bool = False) -> LocalDataset:
    # feature column 0 tags the pool row so partitions can be traced
    features = np.zeros((n, 2))
    if tag_rows:
        features[:, 0] = np.arange(n)
    labels = np.tile(np.arange(n_classes), n // n_classes)
    return LocalDataset("classification", features, labels)


def test_iid_balanced_exact_division():
    pool = _uniform_pool(n=8, n_classes=2)
    parts = partition(pool, PartitionSpec(n_devices=4), seed=0)
    assert [p.n_samples for p in parts] == [2, 2, 2, 2]
    for p in parts:
        assert list(p.class_counts(2)) == [1, 1]


@pytest.mark.parametrize("alpha", [0.001, 0.05, 0.1, 0.3, 5.0])
@pytest.mark.parametrize("k", [2, 6])
def test_one_dirichlet_draw_of_n_rows_equals_n_draws(alpha, k):
    # partition draws every device's proportions at once; numpy takes
    # different paths for alpha <= 0.1 and above
    batched, sequential = np.random.default_rng(9), np.random.default_rng(9)
    rows = batched.dirichlet(np.full(k, alpha), size=40)
    one_by_one = np.array([sequential.dirichlet(np.full(k, alpha)) for _ in range(40)])
    assert rows.tobytes() == one_by_one.tobytes()
    assert batched.random() == sequential.random()


def _quota_rows():
    rng = np.random.default_rng(4)
    random_rows = rng.dirichlet(np.ones(6), size=200), rng.integers(0, 500, size=200)
    uniform_ties = np.full((5, 6), 1.0 / 6.0), np.array([7, 8, 11, 13, 601])
    tiny_totals = rng.dirichlet(np.ones(6), size=4), np.array([0, 1, 0, 1])
    exact = np.tile([0.5, 0.25, 0.125, 0.125, 0.0, 0.0], (3, 1)), np.array([8, 16, 800])  # short = 0
    return [random_rows, uniform_ties, tiny_totals, exact]


@pytest.mark.parametrize("proportions, totals", _quota_rows(), ids=["random", "ties", "totals_0_1", "short_0"])
def test_quotas_match_the_per_device_reference(proportions, totals):
    quotas = _largest_remainder(proportions, totals)
    assert quotas.tolist() == [oracles.largest_remainder(p.tolist(), int(t)) for p, t in zip(proportions, totals)]
    assert quotas.sum(axis=1).tolist() == totals.tolist()


def test_partitions_are_disjoint_in_pool_rows():
    pool = _uniform_pool(n=64, n_classes=4, tag_rows=True)
    parts = partition(pool, PartitionSpec(n_devices=6, skew="dirichlet", alpha=0.3), seed=5)
    seen: set = set()
    for p in parts:
        tags = {int(t) for t in p.features[:, 0]}
        assert not (tags & seen)
        seen |= tags


def test_dirichlet_skew_reduces_label_entropy():
    pool = make_classification_pool(4, 3, 500, 2.0, seed=0)
    iid = partition(pool, PartitionSpec(n_devices=10), seed=1)
    skewed = partition(pool, PartitionSpec(n_devices=10, skew="dirichlet", alpha=0.1), seed=1)
    iid_h = np.median([shannon_entropy(p.class_counts(4)) for p in iid])
    skew_h = np.median([shannon_entropy(p.class_counts(4)) for p in skewed])
    assert skew_h < iid_h


def test_dirichlet_high_alpha_approaches_pool_proportions():
    pool = make_classification_pool(4, 3, 500, 2.0, seed=2)
    parts = partition(pool, PartitionSpec(n_devices=8, skew="dirichlet", alpha=1000.0), seed=3)
    pool_props = pool.class_counts(4) / pool.n_samples
    for p in parts:
        props = p.class_counts(4) / p.n_samples
        assert np.abs(props - pool_props).max() < 0.1


def test_lognormal_sizes_unbalanced_and_within_pool():
    pool = make_classification_pool(2, 3, 1000, 2.0, seed=0)
    spec = PartitionSpec(n_devices=10, size_dist="lognormal", size_sigma=1.0, min_size=5)
    parts = partition(pool, spec, seed=4)
    sizes = [p.n_samples for p in parts]
    assert sum(sizes) <= pool.n_samples
    assert min(sizes) >= 5
    assert max(sizes) > 2 * min(sizes)  # genuinely unbalanced at sigma = 1


def test_powerlaw_sizes_heavy_tailed():
    pool = make_classification_pool(2, 3, 2000, 2.0, seed=0)
    spec = PartitionSpec(n_devices=20, size_dist="powerlaw", power_exponent=1.5, min_size=10)
    parts = partition(pool, spec, seed=9)
    sizes = sorted(p.n_samples for p in parts)
    assert sizes[0] >= 10
    assert sizes[-1] > 3 * np.median(sizes)


def test_redundancy_halves_distinct_samples():
    pool = _uniform_pool(n=400, n_classes=2, tag_rows=True)
    spec = PartitionSpec(n_devices=2, redundancy_factor=0.5)
    parts = partition(pool, spec, seed=0)
    for p in parts:
        distinct = len({int(t) for t in p.features[:, 0]})
        assert distinct == p.n_samples - int(0.5 * p.n_samples)


def test_redundant_rows_are_copies_of_local_rows():
    pool = _uniform_pool(n=100, n_classes=2, tag_rows=True)
    parts = partition(pool, PartitionSpec(n_devices=2, redundancy_factor=0.4), seed=1)
    all_tags = [set(int(t) for t in p.features[:, 0]) for p in parts]
    assert not (all_tags[0] & all_tags[1])  # duplicates never leak across devices


@pytest.mark.parametrize("size_dist", ["balanced", "lognormal", "powerlaw"])
def test_insufficient_pool_raises(size_dist):
    # the size draw is the one pool-size check, under every size distribution
    pool = _uniform_pool(n=8, n_classes=2)
    with pytest.raises(InsufficientPoolError, match="pool of 8 cannot cover 3 devices at min_size 4"):
        partition(pool, PartitionSpec(n_devices=3, min_size=4, size_dist=size_dist), seed=0)


@pytest.mark.parametrize("size_dist", SIZE_DISTS)
def test_empty_pool_raises_insufficient_pool(size_dist):
    # a test split that holds out every row leaves no training pool
    pool = LocalDataset("classification", np.zeros((0, 2)), np.zeros(0, dtype=np.int64))
    with pytest.raises(InsufficientPoolError, match="pool of 0 cannot cover 3 devices at min_size 1"):
        partition(pool, PartitionSpec(n_devices=3, size_dist=size_dist), seed=0)


def test_partition_datasets_are_read_only_views_of_one_array():
    pool = make_classification_pool(n_classes=3, dim=4, samples_per_class=20, class_sep=2.0, seed=0)
    parts = partition(pool, PartitionSpec(n_devices=5, size_dist="lognormal", redundancy_factor=0.3), seed=1)
    features, labels = parts[0].features.base, parts[0].labels.base
    assert all(p.features.base is features and p.labels.base is labels for p in parts)
    assert not features.flags.writeable and not labels.flags.writeable
    # each device's rows are its own range of the one array, in device order
    assert np.concatenate([p.features for p in parts]).tobytes() == features.tobytes()
    assert np.concatenate([p.labels for p in parts]).tobytes() == labels.tobytes()
    for arr in (parts[2].features, parts[2].labels, features):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 7


@st.composite
def _size_cases(draw):
    spec = PartitionSpec(
        n_devices=draw(st.integers(1, 60)),
        size_dist=draw(st.sampled_from(SIZE_DISTS)),
        size_sigma=draw(st.floats(0.0, 30.0)),
        power_exponent=draw(st.floats(0.05, 5.0)),
        min_size=draw(st.integers(1, 12)),
    )
    return spec, draw(st.integers(0, 4000)), draw(st.integers(0, 2**32 - 1))


# 100 devices need 500 rows of a pool of 800, but the integer rule's second floor overshot
_SIGMA_2 = (PartitionSpec(n_devices=100, size_dist="lognormal", size_sigma=2.0, min_size=5), 800, 0)
# sigma 30 draws past the int64 range, which the integer rule's cast wrapped
_SIGMA_30 = (PartitionSpec(n_devices=20, size_dist="lognormal", size_sigma=30.0, min_size=3), 4000, 0)
_POWER_005 = (PartitionSpec(n_devices=40, size_dist="powerlaw", power_exponent=0.05, min_size=7), 4000, 2)
# an exponent of 0.001 draws inf for most devices
_POWER_INF = (PartitionSpec(n_devices=10, size_dist="powerlaw", power_exponent=0.001, min_size=2), 4000, 4)
# an exact fit: every device gets min_size rows
_EXACT_FIT = (PartitionSpec(n_devices=50, size_dist="powerlaw", power_exponent=0.8, min_size=4), 200, 3)
# sizes near 2**62 whose int64 sum wrapped negative, so the integer rule returned them unscaled
_WRAPPED_SUM = (PartitionSpec(n_devices=8, size_dist="lognormal", size_sigma=20.5, min_size=5), 1608, 688451250)


@settings(max_examples=60, deadline=None)
@given(_size_cases())
@example(_SIGMA_2)
@example(_SIGMA_30)
@example(_POWER_005)
@example(_EXACT_FIT)
@example(_WRAPPED_SUM)
@example(_POWER_INF)
def test_target_sizes_cover_the_devices_exactly_when_the_pool_fits(case):
    spec, pool_size, seed = case
    if spec.n_devices * spec.min_size > pool_size:
        with pytest.raises(InsufficientPoolError, match=f"pool of {pool_size} cannot cover {spec.n_devices} devices"):
            _target_sizes(spec, pool_size, np.random.default_rng(seed))
        return
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sizes = _target_sizes(spec, pool_size, np.random.default_rng(seed))
    assert sizes.dtype == np.int64 and sizes.shape == (spec.n_devices,)
    assert sizes.min() >= spec.min_size
    assert sum(sizes.tolist()) <= pool_size


@settings(max_examples=60, deadline=None)
@given(_size_cases())
@example(_SIGMA_2)
@example(_SIGMA_30)
@example(_POWER_005)
@example(_EXACT_FIT)
@example(_WRAPPED_SUM)
def test_target_sizes_match_the_integer_rule_wherever_its_sizes_fit(case):
    spec, pool_size, seed = case
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            expected = oracles.reference_target_sizes(spec, pool_size, np.random.default_rng(seed))
        except (InsufficientPoolError, RuntimeWarning, ValueError):
            return  # it refused the pool, wrapped a draw in its cast or took log(0)
    if sum(expected.tolist()) > pool_size:
        return  # its int64 sum wrapped: the sizes overshoot the pool
    got = _target_sizes(spec, pool_size, np.random.default_rng(seed))
    assert got.dtype == np.int64
    assert got.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.0, 400.0), min_size=1, max_size=30), st.integers(1, 8), st.integers(0, 500))
@example([300.0, 40.0, 40.0, 2.0, 1.0, 1.0], 5, 30)  # the raise to 5 adds rows past a pool of 60
def test_target_sizes_take_the_surplus_a_row_at_a_time_off_the_largest(raw, min_size, slack):
    n = len(raw)
    pool_size = n * min_size + slack
    spec = PartitionSpec(n_devices=n, size_dist="lognormal", min_size=min_size)
    drawn = SimpleNamespace(lognormal=lambda *args: np.array(raw))
    assert _target_sizes(spec, pool_size, drawn).tolist() == oracles.fit_sizes(raw, min_size, pool_size)


@st.composite
def _partition_cases(draw):
    labels = draw(st.lists(st.integers(0, 4), min_size=1, max_size=48))
    spec = PartitionSpec(
        n_devices=draw(st.integers(1, min(8, len(labels)))),
        skew=draw(st.sampled_from(SKEW_KINDS)),
        alpha=draw(st.sampled_from([0.01, 0.3, 5.0])),
        size_dist=draw(st.sampled_from(SIZE_DISTS)),
        redundancy_factor=draw(st.sampled_from([0.0, 0.25, 0.6])),
    )
    return labels, spec, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_partition_cases())
# alpha 0.01 gives each device nearly one class, so classes run dry and picks spill
@example(([0, 1, 2] * 10, PartitionSpec(n_devices=8, skew="dirichlet", alpha=0.01, redundancy_factor=0.25), 3))
# devices 0 to 138 take their quotas whole; device 139 is the first a class cannot serve, and 12 of the 61 from it on spill
@example(
    (
        [0, 1, 2, 3, 4] * 100,
        PartitionSpec(n_devices=200, skew="dirichlet", alpha=0.01, size_dist="lognormal", redundancy_factor=0.25),
        4,
    )
)
# class 1 has no rows, but the Dirichlet draw still gives it quotas
@example(([0, 2, 2, 0, 2, 0, 2, 2], PartitionSpec(n_devices=3, skew="dirichlet", alpha=0.3), 1))
@example(([1, 0, 1, 1, 0], PartitionSpec(n_devices=1, size_dist="lognormal", redundancy_factor=0.6), 0))
def test_partition_matches_the_per_device_reference(case):
    labels, spec, seed = case
    features = np.random.default_rng(seed).standard_normal((len(labels), 3))
    pool = LocalDataset("classification", features, labels)
    try:
        expected = oracles.reference_partition(pool, spec, seed)
    except InsufficientPoolError:
        with pytest.raises(InsufficientPoolError):
            partition(pool, spec, seed)
        return
    got = partition(pool, spec, seed)
    assert len(got) == len(expected)
    for dataset, (feats, labs) in zip(got, expected):
        assert dataset.features.tobytes() == feats.tobytes()
        assert dataset.labels.tobytes() == labs.tobytes()
        assert (dataset.features.dtype, dataset.labels.dtype) == (np.float64, np.int64)
        assert dataset.features.shape == (dataset.n_samples, 3)


def test_partition_spec_validation():
    with pytest.raises(ValidationError) as err:
        PartitionSpec(n_devices=4, skew="dirichlet", alpha=-1.0)
    assert err.value.code == "nonpositive_alpha"
    with pytest.raises(ValidationError):
        PartitionSpec(n_devices=4, redundancy_factor=1.0)
    with pytest.raises(ValidationError):
        PartitionSpec(n_devices=4, size_dist="zipf")


def test_partition_is_seed_deterministic():
    pool = make_classification_pool(3, 4, 200, 2.0, seed=0)
    spec = PartitionSpec(n_devices=5, skew="dirichlet", alpha=0.5, size_dist="lognormal")
    a = partition(pool, spec, seed=11)
    b = partition(pool, spec, seed=11)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.features, pb.features)
        assert np.array_equal(pa.labels, pb.labels)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=1e-6, max_value=1.0),
    st.floats(min_value=0.0, max_value=2.0),
)
def test_fleet_profiles_always_validate(seed, battery_min, tx_power_min):
    # FleetSpec bounds every value make_fleet draws or copies, so no profile needs re-checking
    spec = FleetSpec(n_devices=5, battery_min=battery_min, tx_power_min=tx_power_min, tx_power_max=2.0)
    datasets = [_uniform_pool(n=10, n_classes=2) for _ in range(5)]
    fleet = make_fleet(spec, datasets, seed)
    assert [d.id for d in fleet] == [0, 1, 2, 3, 4]
    for dev in fleet:
        assert 0 < spec.battery_min <= dev.battery_level <= spec.battery_max <= 1
        assert 0 < spec.cpu_freq_min <= dev.cpu_freq <= spec.cpu_freq_max
        assert 0 < spec.cycles_per_sample_min <= dev.cpu_cycles_per_sample <= spec.cycles_per_sample_max
        assert 0 <= spec.tx_power_min <= dev.tx_power <= spec.tx_power_max
        assert (dev.energy_per_cycle, dev.capacity_joules) == (spec.energy_per_cycle, spec.capacity_joules)
        assert dev.channel.std_snr_db == spec.std_snr_db
        assert dev.participation_count == 0 and dev.last_participation_round is None


def test_fleet_spec_rejects_negative_tx_power():
    FleetSpec(tx_power_min=0.0)  # a silent device is allowed
    with pytest.raises(ValidationError, match="negative_tx_power"):
        FleetSpec(tx_power_min=-0.5)


def test_fleet_spec_rejects_negative_energy_per_cycle():
    FleetSpec(energy_per_cycle=0.0)  # free compute is allowed
    with pytest.raises(ValidationError, match="negative_energy_per_cycle"):
        FleetSpec(energy_per_cycle=-1e-9)


def test_fleet_device_streams_are_independent():
    datasets = [_uniform_pool(n=10, n_classes=2) for _ in range(6)]
    small = make_fleet(FleetSpec(n_devices=3), datasets[:3], master_seed=0)
    large = make_fleet(FleetSpec(n_devices=6), datasets, master_seed=0)
    for a, b in zip(small, large):
        assert a.cpu_freq == b.cpu_freq
        assert a.channel.snr_db == b.channel.snr_db


def test_fleet_profiles_are_plain_device_profiles():
    datasets = [_uniform_pool(n=4)] * 6
    spec = FleetSpec(n_devices=6)
    for dev, dataset in zip(make_fleet(spec, datasets, master_seed=3), datasets):
        channel = dev.channel
        built = DeviceProfile(
            id=dev.id,
            cpu_cycles_per_sample=dev.cpu_cycles_per_sample,
            cpu_freq=dev.cpu_freq,
            battery_level=dev.battery_level,
            tx_power=dev.tx_power,
            energy_per_cycle=spec.energy_per_cycle,
            capacity_joules=spec.capacity_joules,
            channel=ChannelState(channel.snr_db, channel.mean_snr_db, channel.std_snr_db),
            dataset=dataset,
        )
        assert type(dev) is DeviceProfile and (dev, repr(dev)) == (built, repr(built))
        # a dataset compares by identity, so a copy is compared with the copied dataset put back
        for copied in (pickle.loads(pickle.dumps(dev)), copy.deepcopy(dev)):
            assert copied.dataset.features.tobytes() == dataset.features.tobytes()
            assert replace(copied, dataset=dataset) == dev
        assert replace(dev) == dev and replace(dev, battery_level=0.5).battery_level == 0.5
        # the four fields the engine updates in place
        dev.battery_level, dev.participation_count, dev.last_participation_round = 0.25, 2, 7
        dev.channel = replace(channel, snr_db=-3.0)
        assert (dev.battery_level, dev.participation_count, dev.last_participation_round) == (0.25, 2, 7)
        assert dev.channel.snr_db == -3.0 and dev != built


def _reference_fleet_fields(spec: FleetSpec, master_seed: int) -> list:
    """Each device's float fields as ``float.hex``, drawn with one ``rng.uniform`` call per field."""
    rows = []
    for seed in seeding.substream_seeds(master_seed, seeding.FLEET, range(spec.n_devices)):
        rng = np.random.default_rng(seed)
        mean_snr = float(spec.mean_snr_db + spec.snr_spread_db * rng.standard_normal())
        cycles = rng.uniform(spec.cycles_per_sample_min, spec.cycles_per_sample_max)
        freq = rng.uniform(spec.cpu_freq_min, spec.cpu_freq_max)
        battery = rng.uniform(spec.battery_min, spec.battery_max)
        power = rng.uniform(spec.tx_power_min, spec.tx_power_max)
        values = (cycles, freq, battery, power, spec.energy_per_cycle, spec.capacity_joules)
        rows.append([float(v).hex() for v in values + (mean_snr, mean_snr, spec.std_snr_db)])
    return rows


@pytest.mark.parametrize(
    "spec",
    [
        FleetSpec(n_devices=40),
        FleetSpec(n_devices=1),
        FleetSpec(
            n_devices=25,
            cpu_freq_min=1e9,
            cpu_freq_max=1e9,
            cycles_per_sample_min=3e5,
            cycles_per_sample_max=3e5,
            tx_power_min=0.4,
            tx_power_max=0.4,
            battery_min=1.0,
            battery_max=1.0,
        ),
        FleetSpec(n_devices=25, tx_power_min=0.0, tx_power_max=3.0, battery_min=1e-300, snr_spread_db=0.0),
        FleetSpec(
            n_devices=25,
            cpu_freq_min=5e-324,
            cpu_freq_max=1.7976931348623157e308,
            cycles_per_sample_min=1e-300,
            cycles_per_sample_max=1e300,
            tx_power_min=0.0,
            tx_power_max=1e308,
            mean_snr_db=-1e3,
            snr_spread_db=1e3,
        ),
    ],
    ids=["default", "one_device", "min_eq_max", "silent_and_wide_battery", "very_wide"],
)
@pytest.mark.parametrize("master_seed", [0, 11, 2**31 - 1])
def test_fleet_fields_have_the_bits_of_one_uniform_call_each(spec, master_seed):
    # make_fleet takes its four uniforms from one rng.random(4) as lo + (hi - lo) * u
    datasets = [_uniform_pool(n=4)] * spec.n_devices
    fleet = make_fleet(spec, datasets, master_seed)
    got = [
        [
            float(v).hex()
            for v in (
                d.cpu_cycles_per_sample,
                d.cpu_freq,
                d.battery_level,
                d.tx_power,
                d.energy_per_cycle,
                d.capacity_joules,
                d.channel.snr_db,
                d.channel.mean_snr_db,
                d.channel.std_snr_db,
            )
        ]
        for d in fleet
    ]
    assert got == _reference_fleet_fields(spec, master_seed)
    assert all(type(v) is float for d in fleet for v in (d.cpu_freq, d.battery_level, d.tx_power))
