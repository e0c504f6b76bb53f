"""Synthetic pool, partitioning, and fleet generation."""

from __future__ import annotations

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
    make_classification_pool,
    make_fleet,
    partition,
)
from feelsim.diversity import shannon_entropy
from feelsim.domain import LocalDataset
from feelsim.errors import InsufficientPoolError, ValidationError
from feelsim.learning import TrainConfig, evaluate, init_model, local_train


def test_pool_shapes_and_histogram():
    pool = make_classification_pool(n_classes=3, dim=5, samples_per_class=40, class_sep=2.0, seed=0)
    assert pool.features.shape == (120, 5)
    assert list(np.bincount(pool.labels)) == [40, 40, 40]


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
