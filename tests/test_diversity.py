"""Diversity measures against brute-force oracles, anchors, and properties."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

import oracles
from feelsim.diversity import (
    DissimilarityMetric,
    DiversityConfig,
    _template_counts,
    approximate_entropy,
    dataset_diversity_index,
    dataset_diversity_indices,
    entropy_tolerance,
    gini_simpson,
    mean_pairwise_dissimilarity,
    model_diversity_index,
    model_diversity_indices,
    model_global_dissimilarity,
    outlier_ceiling,
    parameter_redundancy,
    sample_entropy,
    shannon_entropy,
)
from feelsim.domain import LocalDataset, ModelParams
from feelsim.errors import (
    EmptyDatasetError,
    NoTemplateMatchesError,
    SeriesTooShortError,
    ShapeMismatchError,
    UndefinedAngleError,
    ValidationError,
)

# ---------------------------------------------------------------- histograms


def test_shannon_balanced_four_classes_is_ln4():
    assert shannon_entropy([4, 4, 4, 4]) == pytest.approx(math.log(4), abs=1e-12)


def test_shannon_single_class_is_zero():
    assert shannon_entropy([10, 0, 0]) == 0.0
    # +0.0, not -0.0, which would print as "-0"
    for counts in ([5], [0, 7, 0]):
        assert math.copysign(1.0, shannon_entropy(counts)) == 1.0


def test_shannon_skewed_frozen_value():
    # oracle value for [2, 1, 1]: 1.5 * ln 2
    assert shannon_entropy([2, 1, 1]) == pytest.approx(1.0397207708399179, rel=1e-12)


def test_shannon_empty_histogram_errors():
    with pytest.raises(EmptyDatasetError):
        shannon_entropy([0, 0, 0])
    with pytest.raises(EmptyDatasetError):
        shannon_entropy([])


def test_gini_simpson_anchors():
    assert gini_simpson([5, 5]) == pytest.approx(0.5, abs=1e-12)
    assert gini_simpson([1, 1, 1, 1]) == pytest.approx(0.75, abs=1e-12)
    assert gini_simpson([7, 0]) == 0.0


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        shannon_entropy([3, -1])
    with pytest.raises(ValueError):
        gini_simpson([3, -1])


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1, max_size=12).filter(lambda c: sum(c) > 0))
def test_histogram_measures_match_oracle_and_bounds(counts):
    h = shannon_entropy(counts)
    g = gini_simpson(counts)
    assert h == pytest.approx(oracles.shannon_entropy(counts), rel=1e-9, abs=1e-12)
    assert g == pytest.approx(oracles.gini_simpson(counts), rel=1e-9, abs=1e-12)
    k = len(counts)
    assert -1e-12 <= h <= math.log(k) + 1e-12
    assert -1e-12 <= g <= 1.0 - 1.0 / k + 1e-12
    # permutation invariance
    assert shannon_entropy(list(reversed(counts))) == pytest.approx(h, rel=1e-12)


# ---------------------------------------------------------------- entropies


def test_apen_alternating_series_is_nearly_zero():
    x = np.tile([0.0, 1.0], 50)
    assert abs(approximate_entropy(x, m=2, r=0.5)) < 0.05


def test_apen_noise_exceeds_apen_sine():
    rng = np.random.default_rng(11)
    noise = rng.uniform(size=300)
    t = np.arange(300)
    sine = np.sin(2 * np.pi * 5 * t / 300)
    assert approximate_entropy(noise, 2, 0.2 * noise.std()) > approximate_entropy(sine, 2, 0.2 * sine.std())


def test_apen_short_series_errors():
    with pytest.raises(SeriesTooShortError):
        approximate_entropy([1.0, 2.0, 3.0], m=2, r=0.5)


def test_apen_parameter_validation():
    x = np.arange(20.0)
    with pytest.raises(ValueError):
        approximate_entropy(x, m=0, r=0.5)
    with pytest.raises(ValueError):
        approximate_entropy(x, m=2, r=0.0)


def test_sampen_constant_series_is_zero():
    got = sample_entropy(np.ones(40), m=2, r=0.2)
    assert got == 0.0 and math.copysign(1.0, got) == 1.0  # +0.0: -ln(A/B) at A == B would be -0.0


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_series_is_refused(value):
    series = np.sin(np.arange(40) / 4)
    series[17] = value
    with pytest.raises(ValidationError, match="not_finite"):
        entropy_tolerance(series, 0.2)
    with pytest.raises(ValidationError, match="not_finite"):
        sample_entropy(series, 2, 0.2)
    with pytest.raises(ValidationError, match="not_finite"):
        approximate_entropy(series, 2, 0.2)
    with pytest.raises(ValidationError, match="not_finite"):
        dataset_diversity_index(LocalDataset("timeseries", series[:, None]), DiversityConfig())


def test_sine_more_regular_than_ar_noise():
    t = np.arange(256)
    sine = np.sin(2.0 * np.pi * 4.0 * t / 256)
    innovations = np.random.default_rng(0).standard_normal(256)
    ar = np.empty(256)
    ar[0] = innovations[0]
    for i in range(1, 256):
        ar[i] = 0.6 * ar[i - 1] + innovations[i]  # AR(1) noise
    assert sample_entropy(sine, 2, 0.2 * sine.std()) < sample_entropy(ar, 2, 0.2 * ar.std())


def test_sampen_ramp_has_no_matches():
    with pytest.raises(NoTemplateMatchesError):
        sample_entropy(np.arange(64.0), m=1, r=0.5)


def test_sampen_mostly_length_independent():
    rng = np.random.default_rng(3)
    x = rng.uniform(size=1000)
    r = 0.2 * x[:500].std()
    s_short = sample_entropy(x[:500], 2, r)
    s_long = sample_entropy(x, 2, r)
    a_short = approximate_entropy(x[:500], 2, r)
    a_long = approximate_entropy(x, 2, r)
    assert abs(s_long - s_short) < abs(a_long - a_short)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=1, max_value=3))
def test_entropies_match_bruteforce_oracle(seed, m):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(m + 5, 60))
    x = rng.normal(size=n)
    r = 0.25 * float(x.std()) + 1e-3
    assert approximate_entropy(x, m, r) == pytest.approx(oracles.approximate_entropy(list(x), m, r), rel=1e-6, abs=1e-9)
    expected = oracles.sample_entropy(list(x), m, r)
    if expected is None:
        with pytest.raises(NoTemplateMatchesError):
            sample_entropy(x, m, r)
    else:
        assert sample_entropy(x, m, r) == pytest.approx(expected, rel=1e-6, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_entropies_invariant_under_offset(seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=50)
    r = 0.3 * float(x.std()) + 1e-3
    shift = 17.5
    assert approximate_entropy(x + shift, 2, r) == pytest.approx(approximate_entropy(x, 2, r), rel=1e-9, abs=1e-12)
    try:
        base = sample_entropy(x, 2, r)
    except NoTemplateMatchesError:
        return
    assert sample_entropy(x + shift, 2, r) == pytest.approx(base, rel=1e-9, abs=1e-12)


def one_pass_template_counts(x, m, r):
    """Every template against every other in one (n, n, m) array: the rule the row blocks split up."""
    templates = sliding_window_view(x, m)
    return (np.abs(templates[:, None, :] - templates[None, :, :]).max(axis=2) <= r).sum(axis=1)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n_templates", [255, 256, 257, 513])
def test_blocked_template_counts_equal_the_one_pass_rule(n_templates, m):
    # one short of, at and one past a 256-row block, and one past two blocks
    # values rounded to 0.1 put many distances on or near r
    x = np.round(np.random.default_rng(n_templates * 3 + m).normal(size=n_templates + m - 1), 1)
    got, want = _template_counts(x, m, 0.3), one_pass_template_counts(x, m, 0.3)
    assert got.dtype == want.dtype and got.shape == (n_templates,)
    np.testing.assert_array_equal(got, want)


def test_sample_entropy_memory_does_not_grow_with_the_square_of_the_length():
    # one (n, n, m) float array of this series alone is 900 * 900 * 3 * 8 bytes, 18.5 MiB
    x = np.random.default_rng(5).normal(size=900)
    tracemalloc.start()
    try:
        sample_entropy(x, 2, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


# ----------------------------------------------------- pairwise dissimilarity


def test_euclidean_and_cosine_anchors():
    e1, e2 = np.eye(2)
    m = DissimilarityMetric("euclidean")
    assert mean_pairwise_dissimilarity(np.array([e1, e2]), m) == pytest.approx(math.sqrt(2), rel=1e-12)
    c = DissimilarityMetric("cosine")
    assert mean_pairwise_dissimilarity(np.array([e1, e2]), c) == pytest.approx(1.0, abs=1e-12)
    # opposite vectors: maximal cosine dissimilarity 2
    assert mean_pairwise_dissimilarity(np.array([e1, -e1]), c) == pytest.approx(2.0, abs=1e-12)


def test_heat_kernel_anchor():
    e1, e2 = np.eye(2)
    h = DissimilarityMetric("heat_kernel", sigma=1.0)
    assert mean_pairwise_dissimilarity(np.array([e1, e2]), h) == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)


def test_cosine_zero_vector_undefined():
    pts = np.array([[0.0, 0.0], [1.0, 0.0]])
    with pytest.raises(UndefinedAngleError):
        mean_pairwise_dissimilarity(pts, DissimilarityMetric("cosine"))


def test_metric_sigma_iff_heat_kernel():
    with pytest.raises(ValidationError):
        DissimilarityMetric("heat_kernel")
    with pytest.raises(ValidationError):
        DissimilarityMetric("euclidean", sigma=1.0)
    with pytest.raises(ValidationError):
        DissimilarityMetric("mahalanobis")


def test_identical_points_have_zero_dissimilarity():
    pts = np.ones((5, 3))
    for metric in (DissimilarityMetric("euclidean"), DissimilarityMetric("heat_kernel", sigma=0.5)):
        assert mean_pairwise_dissimilarity(pts, metric) == 0.0
    assert mean_pairwise_dissimilarity(pts, DissimilarityMetric("cosine")) == pytest.approx(0.0, abs=1e-12)


def test_sampling_is_seed_deterministic():
    rng = np.random.default_rng(5)
    pts = rng.normal(size=(200, 4))
    m = DissimilarityMetric("euclidean")
    a = mean_pairwise_dissimilarity(pts, m, sample_size=32, seed=9)
    b = mean_pairwise_dissimilarity(pts, m, sample_size=32, seed=9)
    c = mean_pairwise_dissimilarity(pts, m, sample_size=32, seed=10)
    assert a == b
    assert a != c  # different subsample almost surely differs


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_mean_pairwise_matches_exhaustive_oracle(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 14))
    d = int(rng.integers(1, 6))
    pts = rng.normal(size=(n, d)) + 0.1  # keep away from exact zero vectors
    sigma = 0.8
    cases = [
        (DissimilarityMetric("euclidean"), oracles.euclidean),
        (DissimilarityMetric("cosine"), oracles.cosine_dissimilarity),
        (DissimilarityMetric("heat_kernel", sigma=sigma), lambda u, v: oracles.heat_kernel_dissimilarity(u, v, sigma)),
    ]
    for metric, ref in cases:
        got = mean_pairwise_dissimilarity(pts, metric, sample_size=n)
        want = oracles.mean_pairwise([list(p) for p in pts], ref)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-12)


# ------------------------------------------------------------ dataset index


def test_dataset_index_balanced_composition():
    # 4 classes x 25 samples: normalized entropy 1, index ln(1 + 100)
    labels = np.repeat(np.arange(4), 25)
    ds = LocalDataset("classification", np.zeros((100, 2)), labels)
    profile = dataset_diversity_index(ds, DiversityConfig(), n_classes=4)
    assert profile.uncertainty == pytest.approx(math.log(4), rel=1e-12)
    assert profile.diversity_index == pytest.approx(math.log(101), rel=1e-12)


def test_dataset_index_single_class_is_zero():
    ds = LocalDataset("classification", np.zeros((50, 2)), np.zeros(50, dtype=int))
    profile = dataset_diversity_index(ds, DiversityConfig(), n_classes=4)
    assert profile.diversity_index == 0.0


def test_dataset_index_normalizes_by_global_class_count():
    # two locally balanced classes out of a 4-class problem: u_hat = ln2/ln4
    labels = np.repeat([0, 1], 30)
    ds = LocalDataset("classification", np.zeros((60, 2)), labels)
    profile = dataset_diversity_index(ds, DiversityConfig(), n_classes=4)
    assert profile.diversity_index == pytest.approx((math.log(2) / math.log(4)) * math.log(61), rel=1e-12)


def test_dataset_index_monotone_in_samples():
    cfg = DiversityConfig()
    small = LocalDataset("classification", np.zeros((40, 2)), np.tile([0, 1], 20))
    large = LocalDataset("classification", np.zeros((400, 2)), np.tile([0, 1], 200))
    one = dataset_diversity_index(small, cfg, n_classes=2)
    two = dataset_diversity_index(large, cfg, n_classes=2)
    assert two.diversity_index > one.diversity_index


def test_dataset_index_empty_errors():
    ds = LocalDataset("classification", np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(EmptyDatasetError):
        dataset_diversity_index(ds, DiversityConfig(), n_classes=2)


def test_dataset_index_classification_needs_the_class_count():
    # the largest label is no class count: one sparse label would inflate k and deflate the index
    ds = LocalDataset("classification", np.zeros((4, 2)), np.array([0, 1, 1, 9]))
    with pytest.raises(ValidationError, match="n_classes_required"):
        dataset_diversity_index(ds, DiversityConfig())


@st.composite
def label_histograms(draw):
    """(k, per-device class counts): drawn rows, then one with every class present, then single-class rows."""
    k = draw(st.integers(min_value=2, max_value=12))
    row = st.lists(st.integers(min_value=0, max_value=20), min_size=k, max_size=k).filter(any)
    full = draw(st.lists(st.integers(min_value=1, max_value=20), min_size=k, max_size=k))
    # k >= 8 present classes take numpy's pairwise sum; n = 1 and one class must give +0.0 entropy
    return k, draw(st.lists(row, min_size=1, max_size=6)) + [full, [0] * (k - 1) + [1], [5] + [0] * (k - 1)]


def histogram_rule(counts, measure: str) -> float:
    """README's float order: one 1-D numpy sum over the present classes (Shannon) or every class (Gini-Simpson)."""
    c = np.asarray(counts, dtype=float)
    if measure == "shannon":
        p = c[c > 0] / c.sum()
        return float(0.0 - np.add.reduce(p * np.log(p)))
    p = c / c.sum()
    return float(1.0 - np.add.reduce(p * p))


@settings(max_examples=30, deadline=None)
@given(label_histograms(), st.sampled_from(["shannon", "gini_simpson"]))
def test_dataset_indices_are_each_dataset_alone_bit_for_bit(histograms, measure):
    k, rows = histograms
    cfg = DiversityConfig(classification_measure=measure)
    datasets = [LocalDataset("classification", np.zeros((sum(r), 1)), np.repeat(np.arange(k), r)) for r in rows]
    batch = dataset_diversity_indices(datasets, cfg, k)
    shannon = measure == "shannon"
    scalar, oracle = (shannon_entropy, oracles.shannon_entropy) if shannon else (gini_simpson, oracles.gini_simpson)
    for counts, ds, got in zip(rows, datasets, batch):
        alone = dataset_diversity_index(ds, cfg, n_classes=k)
        assert got.uncertainty.hex() == alone.uncertainty.hex() == scalar(counts).hex()
        assert got.uncertainty.hex() == histogram_rule(counts, measure).hex()
        assert got.diversity_index.hex() == alone.diversity_index.hex()
        # the oracle adds left to right with math.log; each of k terms may differ by about an ulp
        want = oracle(counts)
        assert abs(got.uncertainty - want) <= k * math.ulp(max(abs(want), 1.0))
    for single in batch[-2:]:
        assert single.uncertainty == 0.0 and math.copysign(1.0, single.uncertainty) == 1.0
        assert single.diversity_index == 0.0


def test_dataset_indices_refuse_a_label_outside_the_classes():
    # a label of k or more would count in the next dataset's bins
    ok = LocalDataset("classification", np.zeros((3, 1)), np.array([0, 1, 2]))
    wide = LocalDataset("classification", np.zeros((3, 1)), np.array([0, 3, 1]))
    with pytest.raises(ValidationError, match="label_out_of_range"):
        dataset_diversity_indices([wide, ok], DiversityConfig(), 3)
    with pytest.raises(ValidationError, match="label_out_of_range"):
        dataset_diversity_index(wide, DiversityConfig(), n_classes=3)
    assert len(dataset_diversity_indices([ok, ok], DiversityConfig(), 3)) == 2


def test_dataset_indices_refuse_an_empty_or_unlabelled_dataset():
    ok = LocalDataset("classification", np.zeros((3, 1)), np.array([0, 1, 1]))
    empty = LocalDataset("classification", np.zeros((0, 1)), np.zeros(0, dtype=int))
    with pytest.raises(EmptyDatasetError):
        dataset_diversity_indices([ok, empty], DiversityConfig(), 2)
    assert dataset_diversity_indices([], DiversityConfig(), 2) == []
    with pytest.raises(ValidationError, match="missing_labels"):
        dataset_diversity_indices([ok, LocalDataset("timeseries", np.zeros((3, 1)))], DiversityConfig(), 2)


def test_dataset_index_gini_variant():
    labels = np.repeat(np.arange(4), 10)
    ds = LocalDataset("classification", np.zeros((40, 2)), labels)
    cfg = DiversityConfig(classification_measure="gini_simpson")
    profile = dataset_diversity_index(ds, cfg, n_classes=4)
    assert profile.diversity_index == pytest.approx(math.log(41), rel=1e-12)  # 0.75 / 0.75 * ln(41)


def test_dataset_index_timeseries_no_matches_is_maximal():
    ds = LocalDataset("timeseries", np.arange(64.0)[:, None])
    cfg = DiversityConfig(tolerance_scale=1e-6)
    profile = dataset_diversity_index(ds, cfg)
    assert profile.diversity_index == pytest.approx(math.log(65), rel=1e-12)  # u_hat = 1


def test_entropy_tolerance_scales_the_std_and_floors_a_flat_series():
    series = np.sin(np.arange(50) / 3)
    assert entropy_tolerance(series, 0.2) == 0.2 * float(series.std())
    assert entropy_tolerance(np.ones(50), 0.2) == 1e-12
    assert entropy_tolerance(series, 0.0) == 1e-12


def test_dataset_index_constant_timeseries_is_zero_uncertainty():
    ds = LocalDataset("timeseries", np.ones(64)[:, None])
    profile = dataset_diversity_index(ds, DiversityConfig())
    assert profile.uncertainty == 0.0
    assert profile.diversity_index == 0.0


def test_dataset_index_clustering_uses_pairwise():
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(30, 3))
    ds = LocalDataset("clustering", pts)
    cfg = DiversityConfig(uncertainty_cap=10.0)
    profile = dataset_diversity_index(ds, cfg, seed=4)
    want = mean_pairwise_dissimilarity(pts, cfg.metric, cfg.sample_size, seed=4) / 10.0 * math.log(31)
    assert profile.diversity_index == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------ model diversity


def _params(values):
    return ModelParams(np.asarray(values, dtype=float))


def test_model_dissimilarity_identical_is_zero():
    p = _params([1.0, 2.0, 3.0, 4.0])
    assert model_global_dissimilarity(p, p, DissimilarityMetric("cosine")) == pytest.approx(0.0, abs=1e-12)
    assert model_global_dissimilarity(p, p, DissimilarityMetric("euclidean")) == 0.0


def test_model_dissimilarity_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        model_global_dissimilarity(_params([1.0, 2.0]), _params([1.0, 2.0, 3.0]), DissimilarityMetric("euclidean"))


def test_parameter_redundancy_identical_groups_zero():
    p = _params([1.0, 2.0, 1.0, 2.0, 1.0, 2.0])
    assert parameter_redundancy(p, (3, 2)) == 0.0


def test_parameter_redundancy_orthonormal_anchor():
    p = _params([1.0, 0.0, 0.0, 1.0])
    assert parameter_redundancy(p, (2, 2)) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_parameter_redundancy_bad_grouping():
    with pytest.raises(ShapeMismatchError):
        parameter_redundancy(_params([1.0, 2.0, 3.0]), (2, 2))


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_parameter_redundancy_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    gc = int(rng.integers(2, 7))
    gs = int(rng.integers(1, 9))
    flat = rng.normal(size=gc * gs)
    got = parameter_redundancy(_params(flat), (gc, gs))
    want = oracles.l21_pairwise_redundancy([list(r) for r in flat.reshape(gc, gs)])
    assert got == pytest.approx(want, rel=1e-9, abs=1e-12)
    # permutation of groups leaves the measure unchanged
    perm = rng.permutation(gc)
    shuffled = flat.reshape(gc, gs)[perm].ravel()
    assert parameter_redundancy(_params(shuffled), (gc, gs)) == pytest.approx(got, rel=1e-9)


def test_model_diversity_index_blend_and_clamp():
    rng = np.random.default_rng(2)
    local = _params(rng.normal(size=12))
    ref = _params(rng.normal(size=12))
    dissim = model_global_dissimilarity(local, ref, DissimilarityMetric("cosine"))
    red = parameter_redundancy(local, (3, 4))
    cap = 2.0
    want = 0.7 * dissim + 0.3 * min(red / cap, 1.0)
    got = model_diversity_index(local, ref, (3, 4), DiversityConfig(redundancy_cap=cap))
    assert got == pytest.approx(want, rel=1e-12)


def test_model_diversity_index_is_bitwise_the_blend():
    rng = np.random.default_rng(17)
    cosine = DissimilarityMetric("cosine")
    groupings = [(1, 5), (2, 3), (6, 17), (10, 9)]
    for step in range(24):
        grouping = groupings[step % len(groupings)]
        size = grouping[0] * grouping[1]
        scale = 10.0 ** rng.uniform(-3.0, 150.0)
        ref = _params(rng.normal(size=size) * scale)
        local = _params(ref.weights + rng.normal(size=size) * scale * 10.0 ** rng.uniform(-9.0, 0.0))
        for weights, cap in (((0.7, 0.3), 1.0), ((0.25, 0.75), 0.05)):
            cfg = DiversityConfig(model_dissimilarity_weight=weights[0], model_redundancy_weight=weights[1], redundancy_cap=cap)
            got = model_diversity_index(local, ref, grouping, cfg)
            want = weights[0] * model_global_dissimilarity(local, ref, cosine) + weights[1] * min(
                parameter_redundancy(local, grouping) / cap, 1.0
            )
            assert np.float64(got).view(np.uint64) == np.float64(want).view(np.uint64)


def test_model_diversity_index_keeps_its_checks():
    p, cfg = _params(np.ones(6)), DiversityConfig()
    with pytest.raises(UndefinedAngleError):
        model_diversity_index(_params(np.zeros(6)), p, (2, 3), cfg)
    with pytest.raises(UndefinedAngleError):
        model_diversity_index(p, _params(np.zeros(6)), (2, 3), cfg)
    with pytest.raises(ShapeMismatchError):
        model_diversity_index(p, _params(np.ones(4)), (2, 3), cfg)
    with pytest.raises(ShapeMismatchError):
        model_diversity_index(p, p, (4, 2), cfg)


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


@pytest.mark.parametrize("lead", [(1,), (2,), (7,), (300,), (7, 1), (300, 1), (7, 3)])
def test_row_sums_of_a_c_contiguous_stack_are_each_rows_own(lead):
    # model_diversity_indices relies on this: a reduction along the contiguous last axis adds each row as alone
    rng = np.random.default_rng(sum(lead))
    # one NaN, the one arithmetic makes: which of two different NaNs a sum keeps is up to numpy's compiled loop
    special = np.array([-0.0, 0.0, np.inf, -np.inf, np.inf - np.inf, 1e308, -1e308, 5e-324])
    for n in [*range(0, 40), 63, 64, 65, 127, 128, 129, 130, 136, 255, 256, 257, 300, 1000, 1031]:
        stack = rng.standard_normal((*lead, n)) * 10.0 ** rng.uniform(-8, 8, size=(*lead, n))
        flat = stack.reshape(math.prod(lead), n)  # a view: one row of ``flat`` per row of ``stack``
        if n:
            rows = rng.integers(0, flat.shape[0], size=4)
            flat[rows, rng.integers(0, n, size=4)] = rng.choice(special, size=4)
            flat[rows[0]] = rng.choice(special, size=n)  # one row of IEEE corner cases only
        with np.errstate(all="ignore"):
            got = np.add.reduce(stack, axis=-1).ravel()
            want = [np.add.reduce(row) for row in flat]
        assert np.array_equal(_bits(got), _bits(want)), n


def _post_fleet_updates(count, grouping, seed):
    """A global model and ``count`` local models spread around it at scales from 1e-9 to 1e2, as the rows of one stack."""
    rng = np.random.default_rng(seed)
    size = grouping[0] * grouping[1]
    ref = rng.uniform(-0.25, 0.25, size=size)
    scales = 10.0 ** rng.uniform(-9.0, 2.0, size=(count, 1))
    return _params(ref), ref + rng.normal(size=(count, size)) * scales


@pytest.mark.parametrize(
    "count, grouping",
    [(300, (6, 17)), (40, (10, 17)), (40, (2, 3)), (40, (1, 5))],  # post_fleet's shape; 170 parameters take the halving branch
)
def test_model_diversity_indices_are_each_models_own(count, grouping):
    ref, stack = _post_fleet_updates(count, grouping, seed=grouping[0])
    locals_ = [_params(w) for w in stack]
    cosine = DissimilarityMetric("cosine")
    for weights, cap in (((0.7, 0.3), 1.0), ((0.25, 0.75), 0.05)):
        cfg = DiversityConfig(model_dissimilarity_weight=weights[0], model_redundancy_weight=weights[1], redundancy_cap=cap)
        got = model_diversity_indices(stack, ref, grouping, cfg)
        alone = [model_diversity_index(local, ref, grouping, cfg) for local in locals_]
        blend = [
            weights[0] * model_global_dissimilarity(local, ref, cosine)
            + weights[1] * min(parameter_redundancy(local, grouping) / cap, 1.0)
            for local in locals_
        ]
        assert all(type(v) is float for v in got)
        assert np.array_equal(_bits(got), _bits(alone))
        assert np.array_equal(_bits(got), _bits(blend))


def test_model_diversity_indices_keep_nan_bits():
    ref, poisoned = _post_fleet_updates(40, (6, 17), seed=3)
    rng = np.random.default_rng(4)
    for w in poisoned[1::2]:  # every other model holds NaNs as a diverged SGD leaves them, and infinities
        w[rng.integers(0, w.size, size=3)] = rng.choice([np.inf - np.inf, np.inf, -np.inf], size=3)
    cfg = DiversityConfig()
    with np.errstate(invalid="ignore"):
        got = model_diversity_indices(poisoned, ref, (6, 17), cfg)
        alone = [model_diversity_index(_params(w), ref, (6, 17), cfg) for w in poisoned]
    assert sum(math.isnan(v) for v in got) == 20
    assert np.array_equal(_bits(got), _bits(alone))


def test_model_diversity_indices_keep_their_checks():
    ref, stack = _post_fleet_updates(5, (2, 3), seed=1)
    cfg = DiversityConfig()
    assert model_diversity_indices(stack[:0], ref, (2, 3), cfg) == []
    with pytest.raises(UndefinedAngleError):
        model_diversity_indices(np.vstack([stack, np.zeros(6)]), ref, (2, 3), cfg)
    with pytest.raises(UndefinedAngleError):
        model_diversity_indices(stack, _params(np.zeros(6)), (2, 3), cfg)
    with pytest.raises(ShapeMismatchError):  # a wrong global model
        model_diversity_indices(stack, _params(np.ones(4)), (2, 3), cfg)
    for wrong in (stack[:, :4], np.ones((0, 4)), stack[0], stack[None]):  # a wrong width, or not a stack of rows
        with pytest.raises(ShapeMismatchError):
            model_diversity_indices(wrong, ref, (2, 3), cfg)
    with pytest.raises(ShapeMismatchError):
        model_diversity_indices(stack, ref, (4, 2), cfg)


@pytest.mark.parametrize("cap", ["uncertainty_cap", "redundancy_cap"])
def test_diversity_config_caps_must_be_positive(cap):
    for value in (0.0, -1.0):
        with pytest.raises(ValidationError, match="nonpositive_cap"):
            DiversityConfig(**{cap: value})


def test_diversity_config_tolerance_scale_must_be_positive():
    # a zero or negative scale would clamp every tolerance to the flat-series 1e-12
    for value in (0.0, -0.2):
        with pytest.raises(ValidationError, match="nonpositive_tolerance_scale"):
            DiversityConfig(tolerance_scale=value)


def test_diversity_config_model_weights_must_be_simplex():
    # model_diversity_index takes its weights from the config, which alone checks them
    DiversityConfig(model_dissimilarity_weight=0.25, model_redundancy_weight=0.75)
    for weights in ((0.9, 0.3), (1.2, -0.2), (math.nan, 0.5), (math.nan, math.nan)):
        with pytest.raises(ValidationError, match="weights_not_simplex"):
            DiversityConfig(model_dissimilarity_weight=weights[0], model_redundancy_weight=weights[1])


def test_outlier_ceiling_is_percentile():
    values = list(range(1, 101))
    assert outlier_ceiling(values, 95.0) == pytest.approx(np.percentile(values, 95))


def test_outlier_ceiling_skips_non_finite_indices_and_caps_the_finite_outlier():
    raw = [0.3, 0.5, math.nan, 2.0, 0.4]
    ceiling = outlier_ceiling(raw, 95.0)
    assert ceiling == pytest.approx(1.775)  # 0.5 + 0.85 * (2.0 - 0.5), over the four finite indices
    assert outlier_ceiling([0.3, 0.5, math.inf, 2.0, 0.4], 95.0) == ceiling
    capped = [min(v, ceiling) for v in raw]
    assert capped[3] == ceiling and capped[:2] == [0.3, 0.5] and math.isnan(capped[2])


def test_outlier_ceiling_of_no_finite_index_is_nan_and_caps_nothing():
    ceiling = outlier_ceiling([math.nan, math.inf, math.nan], 95.0)
    assert math.isnan(ceiling)
    assert min(0.7, ceiling) == 0.7


def test_measures_are_bit_reproducible():
    rng = np.random.default_rng(42)
    x = rng.normal(size=80)
    assert approximate_entropy(x, 2, 0.3) == approximate_entropy(x, 2, 0.3)
    assert sample_entropy(x, 2, 0.3) == sample_entropy(x, 2, 0.3)
    pts = rng.normal(size=(50, 3))
    m = DissimilarityMetric("euclidean")
    assert mean_pairwise_dissimilarity(pts, m, 20, seed=1) == mean_pairwise_dissimilarity(pts, m, 20, seed=1)
