"""Dataset-diversity and model-diversity measures.

Dataset diversity is evaluated on the device from two ingredients: richness
(how many samples the device holds) and uncertainty (how mixed those samples
are).  Uncertainty is task specific:

* classification  - Shannon entropy or Gini-Simpson index of the label
  histogram (a fleet's indices are one stacked pass,
  ``dataset_diversity_indices``, over one histogram with a row per device),
* timeseries      - sample entropy at tolerance r = tolerance_scale * std
  (``entropy_tolerance``; approximate entropy is available for comparison),
* clustering      - mean pairwise euclidean distance of the feature rows
  (of 64 sampled rows when there are more).

Model diversity compares a locally trained parameter vector against the
global model: a dissimilarity term (how far the local model moved) plus a
parameter-redundancy term (an L2,1 norm over pairwise differences of
parameter groups), weighted as a checked DiversityConfig says.  Only scalar
indices ever leave the device.  A round's indices are one stacked pass
(``model_diversity_indices``) over its models as the rows of one array,
each bit for bit what its model gets alone.

All functions are pure and bit-reproducible given identical inputs and seeds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .domain import DatasetProfile, LocalDataset, ModelParams, _trusted_dataset_profile, require_finite, require_simplex
from .errors import (
    EmptyDatasetError,
    NoTemplateMatchesError,
    SeriesTooShortError,
    ShapeMismatchError,
    UndefinedAngleError,
    ValidationError,
)

# --------------------------------------------------------------------------
# label-histogram uncertainty


def _histogram(class_counts, measure: str) -> np.ndarray:
    """The counts as a one-row float histogram; raises unless they are usable."""
    counts = np.asarray(class_counts, dtype=float).reshape(1, -1)
    if counts.size and np.any(counts < 0):
        raise ValueError("class counts must be nonnegative")
    if counts.size == 0 or counts.sum() <= 0:
        raise EmptyDatasetError(f"{measure} of an empty histogram")
    return counts


def _uncertainties(counts: np.ndarray, measure: str) -> np.ndarray:
    """Shannon entropy or Gini-Simpson index of each row of a float histogram.

    Each row's value is bit for bit the one it gets alone: every sum runs
    along the contiguous last axis, where ``np.add.reduce`` adds a row as it
    adds that row alone.  Shannon sums only the classes present, so its rows
    are grouped by how many classes are present and never zero-padded: a
    padded row of 8 or more terms would add pairwise in another order.
    """
    total = np.add.reduce(counts, axis=-1)[:, None]
    if measure == "gini_simpson":
        p = counts / total
        return 1.0 - np.add.reduce(p * p, axis=-1)
    present = counts > 0
    width = np.count_nonzero(present, axis=-1)
    h = np.empty(len(counts))
    for m in np.flatnonzero(np.bincount(width)):  # np.bincount, not np.unique: see README's Performance section
        rows = np.flatnonzero(width == m)
        p = counts[rows][present[rows]].reshape(rows.size, m) / total[rows]
        h[rows] = 0.0 - np.add.reduce(p * np.log(p), axis=-1)  # not -sum: one class gives +0.0, not -0.0
    return h


def shannon_entropy(class_counts) -> float:
    """Shannon entropy of a label histogram, in nats.

    H = -sum_c p_c ln p_c with p_c = count_c / total and 0 ln 0 = 0.
    Maximal (ln k) for a balanced histogram over k classes, 0 when a single
    class holds every sample.
    """
    return float(_uncertainties(_histogram(class_counts, "entropy"), "shannon")[0])


def gini_simpson(class_counts) -> float:
    """Gini-Simpson index 1 - sum_c p_c^2 (with-replacement form).

    The probability that two independently drawn samples belong to different
    classes.  0 for a single class, 1 - 1/k for a balanced k-class histogram.
    """
    return float(_uncertainties(_histogram(class_counts, "gini-simpson"), "gini_simpson")[0])


# --------------------------------------------------------------------------
# time-series irregularity


_TEMPLATE_BLOCK = 256  # templates compared with all the others at once


def _template_counts(x: np.ndarray, m: int, r: float) -> np.ndarray:
    """For each length-m template, how many templates lie within Chebyshev r.

    Counts include the self-match (distance zero).  Time is O(n^2 m); the
    templates are compared in row blocks, one coordinate at a time, so
    memory stays O(n).
    """
    n = x.size - m + 1
    counts = np.empty(n, dtype=np.intp)
    for lo in range(0, n, _TEMPLATE_BLOCK):
        hi = min(lo + _TEMPLATE_BLOCK, n)
        dist = np.abs(x[lo:hi, None] - x[None, :n])
        for j in range(1, m):  # the Chebyshev distance is the largest coordinate gap
            np.maximum(dist, np.abs(x[lo + j : hi + j, None] - x[None, j : j + n]), out=dist)
        counts[lo:hi] = (dist <= r).sum(axis=1)
    return counts


def _finite(series) -> np.ndarray:
    """The series as a flat float array; raises ``not_finite`` unless every value is finite."""
    x = np.asarray(series, dtype=float).ravel()
    if not np.isfinite(x).all():
        raise ValidationError("not_finite", "a time series must hold only finite values")
    return x


def _series(series, m: int, r: float) -> np.ndarray:
    """The finite series as a flat float array; raises unless m, r and its length suit an entropy."""
    x = _finite(series)
    if m < 1:
        raise ValueError("embedding dimension m must be >= 1")
    if r <= 0:
        raise ValueError("tolerance r must be positive")
    if x.size <= m + 1:
        raise SeriesTooShortError(f"need length > {m + 1}, got {x.size}")
    return x


def entropy_tolerance(series: np.ndarray, scale: float) -> float:
    """Tolerance r = scale * std of the finite series; 1e-12 where that is not positive (a flat series)."""
    r = scale * float(_finite(series).std())
    return r if r > 0 else 1e-12


def approximate_entropy(series, m: int = 2, r: float = 0.2) -> float:
    """Approximate entropy: regularity with self-matches included.

    phi(m) = mean_i ln(C_i_m) where C_i_m is the fraction of length-m
    templates within Chebyshev tolerance r of template i (self included);
    the result is phi(m) - phi(m+1).  Low for regular series, higher for
    irregular ones; carries a known bias that shrinks with series length.
    """
    x = _series(series, m, r)

    def phi(mm: int) -> float:
        counts = _template_counts(x, mm, r)
        frac = counts / counts.size
        return float(np.mean(np.log(frac)))

    return phi(m) - phi(m + 1)


def sample_entropy(series, m: int = 2, r: float = 0.2) -> float:
    """Sample entropy: -ln(A/B) with self-matches excluded.

    B counts template pairs of length m within tolerance r, A the same pairs
    extended to length m+1; both range over the first N-m templates so the
    counts are comparable.  Largely free of the length bias of approximate
    entropy.  Raises ``no_template_matches`` when A or B is zero, since the
    ratio is undefined there; callers treating that case as maximal
    irregularity should catch the error.
    """
    x = _series(series, m, r)

    def pairs(y: np.ndarray, mm: int) -> int:
        # every template matches itself; any other match is counted from both ends
        counts = _template_counts(y, mm, r)
        return (int(counts.sum()) - counts.size) // 2

    b, a = pairs(x[:-1], m), pairs(x, m + 1)
    if a == 0 or b == 0:
        raise NoTemplateMatchesError(f"A={a}, B={b}")
    return 0.0 - math.log(a / b)  # not -log: a regular series gives +0.0, not -0.0


# --------------------------------------------------------------------------
# pairwise dissimilarity

METRIC_KINDS = ("euclidean", "cosine", "heat_kernel")


@dataclass(frozen=True)
class DissimilarityMetric:
    """Pairwise dissimilarity: euclidean, cosine, or heat-kernel."""

    kind: str
    sigma: Optional[float] = None

    def __post_init__(self):
        if self.kind not in METRIC_KINDS:
            raise ValidationError("unknown_metric", self.kind)
        if self.kind == "heat_kernel":
            if self.sigma is None or self.sigma <= 0:
                raise ValidationError("sigma_required", "heat_kernel needs sigma > 0")
        elif self.sigma is not None:
            raise ValidationError("sigma_forbidden", f"{self.kind} takes no sigma")
        require_finite(self)


_COSINE = DissimilarityMetric("cosine")
_EUCLIDEAN = DissimilarityMetric("euclidean")


def _pairwise(a: np.ndarray, b: np.ndarray, metric: DissimilarityMetric) -> np.ndarray:
    """Dissimilarity between row i of ``a`` and row i of ``b``."""
    if metric.kind == "euclidean":
        return np.linalg.norm(a - b, axis=1)
    if metric.kind == "heat_kernel":
        sq = ((a - b) ** 2).sum(axis=1)
        return 1.0 - np.exp(-sq / (2.0 * metric.sigma**2))
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    if np.any(na == 0) or np.any(nb == 0):
        raise UndefinedAngleError("cosine dissimilarity of a zero vector")
    cos = np.clip((a * b).sum(axis=1) / (na * nb), -1.0, 1.0)
    return 1.0 - cos


def mean_pairwise_dissimilarity(
    points, metric: DissimilarityMetric, sample_size: int = 64, seed: int = 0
) -> float:
    """Mean dissimilarity over all unordered pairs of (sampled) rows.

    When ``points`` has more rows than ``sample_size``, a uniform
    without-replacement subsample is drawn first; the draw is a pure function
    of ``seed``.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise ValueError("need a 2-d array with at least two rows")
    if sample_size < 2:
        raise ValueError("sample_size must be >= 2")
    n = pts.shape[0]
    if n > sample_size:
        idx = np.sort(np.random.default_rng(seed).choice(n, size=sample_size, replace=False))
        pts = pts[idx]
        n = sample_size
    i, j = np.triu_indices(n, k=1)
    return float(_pairwise(pts[i], pts[j], metric).mean())


# --------------------------------------------------------------------------
# combined dataset diversity

_UNCERTAINTY_CAP = 2.5  # the normalizer of the unbounded measures: sample entropy and mean pairwise distance


@dataclass(frozen=True)
class DiversityConfig:
    """Knobs for both dataset-side and model-side diversity computation."""

    classification_measure: str = "shannon"  # or "gini_simpson"
    embedding_m: int = 2
    tolerance_scale: float = 0.2  # tolerance r as a multiple of the series std
    model_dissimilarity_weight: float = 0.7
    model_redundancy_weight: float = 0.3
    redundancy_cap: float = 1.0
    outlier_percentile: float = 95.0

    def __post_init__(self):
        if self.classification_measure not in ("shannon", "gini_simpson"):
            raise ValidationError("unknown_measure", self.classification_measure)
        if self.redundancy_cap <= 0:
            raise ValidationError("nonpositive_cap")
        if self.tolerance_scale <= 0:
            raise ValidationError("nonpositive_tolerance_scale")
        if not (0 < self.outlier_percentile <= 100):
            raise ValidationError("percentile_out_of_range")
        require_simplex(self.model_dissimilarity_weight, self.model_redundancy_weight)
        require_finite(self)


def _profile(uncertainty: float, u_hat: float, n: int) -> DatasetProfile:
    """The profile of ``n`` samples: the index is u_hat, clamped to [0, 1], times ln(1 + n)."""
    u_hat = min(max(u_hat, 0.0), 1.0)
    return _trusted_dataset_profile(float(uncertainty), u_hat * math.log1p(n))


def dataset_diversity_index(
    dataset: LocalDataset,
    cfg: DiversityConfig,
    n_classes: Optional[int] = None,
    seed: int = 0,
) -> DatasetProfile:
    """Combine richness and normalized uncertainty into one scalar.

    The normalized uncertainty u_hat lies in [0, 1]: entropy is divided by
    ln(k) over the global class count k = ``n_classes``, which a
    classification dataset must pass (so locally missing classes depress
    it), Gini-Simpson by 1 - 1/k, and the unbounded measures by the cap
    2.5.  The index is u_hat * ln(1 + n_samples), so it grows
    with data volume but only as fast as the data is actually mixed.  A
    classification dataset is ``dataset_diversity_indices`` of one dataset.

    A time series in which no template pair matches is treated as maximally
    irregular (u_hat = 1).
    """
    n = dataset.n_samples
    if n == 0:
        raise EmptyDatasetError("diversity of an empty dataset")
    if dataset.task_kind == "classification":
        if n_classes is None:
            raise ValidationError("n_classes_required", "a classification index needs the global class count")
        return dataset_diversity_indices([dataset], cfg, n_classes)[0]
    if dataset.task_kind == "timeseries":
        series = dataset.features.ravel()
        try:
            uncertainty = sample_entropy(series, cfg.embedding_m, entropy_tolerance(series, cfg.tolerance_scale))
            u_hat = uncertainty / _UNCERTAINTY_CAP
        except NoTemplateMatchesError:
            uncertainty = math.inf
            u_hat = 1.0
    else:  # clustering
        uncertainty = mean_pairwise_dissimilarity(dataset.features, _EUCLIDEAN, seed=seed)
        u_hat = uncertainty / _UNCERTAINTY_CAP
    return _profile(uncertainty, u_hat, n)


def dataset_diversity_indices(datasets: Sequence[LocalDataset], cfg: DiversityConfig, n_classes: int) -> list:
    """``dataset_diversity_index`` of each classification dataset, from one label histogram.

    The (datasets, n_classes) class counts are one ``np.bincount`` over
    dataset x class, and every uncertainty is a row reduction of them, so
    each profile is bit for bit the one its dataset gets alone.  Raises
    ``EmptyDatasetError`` for an empty dataset and ``label_out_of_range``
    for a label of ``n_classes`` or more, which would otherwise count in the
    next dataset's bins.
    """
    if any(d.labels is None for d in datasets):
        raise ValidationError("missing_labels")
    sizes = [d.n_samples for d in datasets]
    if 0 in sizes:
        raise EmptyDatasetError("diversity of an empty dataset")
    if not datasets:
        return []
    labels = np.concatenate([d.labels for d in datasets])
    k = n_classes
    if labels.max() >= k:
        raise ValidationError("label_out_of_range", f"label {labels.max()} of {k} classes")
    owner = np.repeat(np.arange(len(sizes)), sizes)
    counts = np.bincount(owner * k + labels, minlength=len(sizes) * k).reshape(len(sizes), k)
    uncertainty = _uncertainties(counts.astype(float), cfg.classification_measure)
    if cfg.classification_measure == "shannon":
        cap = math.log(k) if k > 1 else 0.0
    else:
        cap = 1.0 - 1.0 / k if k > 1 else 0.0
    return [_profile(u, u / cap if cap > 0 else 0.0, n) for u, n in zip(uncertainty.tolist(), sizes)]


# --------------------------------------------------------------------------
# model diversity


def model_global_dissimilarity(
    local: ModelParams, global_model: ModelParams, metric: DissimilarityMetric
) -> float:
    """Dissimilarity between a local and the global flat parameter vector."""
    if local.weights.shape != global_model.weights.shape:
        raise ShapeMismatchError(f"{local.weights.shape} vs {global_model.weights.shape}")
    return float(_pairwise(local.weights[None, :], global_model.weights[None, :], metric)[0])


def parameter_redundancy(params: ModelParams, grouping: tuple) -> float:
    """L2,1 norm of pairwise group differences, per pair: ``_redundancies`` of one model."""
    return float(_redundancies(params.weights[None], grouping)[0])


def _redundancies(rows: np.ndarray, grouping: tuple) -> np.ndarray:
    """Each row's L2,1 norm of pairwise group differences, per pair.

    A row is viewed as ``group_count`` groups of ``group_size``; each
    unordered pair of groups gives one row of a difference matrix D, and the
    row's value is the L2,1 norm of D over D's row count: zero when all
    groups are identical, growing as they spread apart.  Raises
    ``ShapeMismatchError`` unless ``grouping`` tiles a row.  Every sum runs
    along the contiguous last axis, so each value is bit for bit its row's alone.
    """
    group_count, group_size = grouping
    if group_count < 1 or group_size < 1 or group_count * group_size != rows.shape[1]:
        raise ShapeMismatchError(f"grouping {grouping} does not tile a vector of length {rows.shape[1]}")
    if group_count == 1:
        return np.zeros(len(rows))
    groups = rows.reshape(len(rows), group_count, group_size)
    norms = []  # (rows, pairs) norms in np.triu_indices order, the pairs of one first group at a time
    for first in range(group_count - 1):
        diffs = groups[:, first, None] - groups[:, first + 1 :]
        diffs *= diffs
        norms.append(np.sqrt(np.add.reduce(diffs, axis=-1)))
    return np.add.reduce(np.concatenate(norms, axis=1), axis=-1) / (group_count * (group_count - 1) // 2)


def model_diversity_index(local: ModelParams, global_model: ModelParams, grouping: tuple, cfg: DiversityConfig) -> float:
    """Weighted blend of model movement and internal redundancy.

    index = w_div * cosine dissimilarity(local, global)
          + w_red * clamp(parameter_redundancy / redundancy_cap, 0, 1)

    with the weights and cap of ``cfg``.  The round loop caps the indices of one
    round at their ``outlier_ceiling`` so single outliers cannot monopolize selection.
    This is ``model_diversity_indices`` for one model.
    """
    return model_diversity_indices(local.weights[None], global_model, grouping, cfg)[0]


def model_diversity_indices(stack: np.ndarray, global_model: ModelParams, grouping: tuple, cfg: DiversityConfig) -> list:
    """``model_diversity_index`` of each local model, the rows of ``stack``, in one pass.

    Each index is bit for bit the one its model gets alone.  The models are
    the rows of one C-contiguous array, such as the stack ``train_many``
    returns, and every sum over a model's parameters, groups or group pairs
    runs along the contiguous last axis, where ``np.add.reduce`` adds each
    row as it adds that row alone.
    """
    v = global_model.weights
    rows = np.ascontiguousarray(stack, dtype=float)  # no copy of a C-contiguous float stack
    if rows.ndim != 2 or rows.shape[1] != v.size:
        raise ShapeMismatchError(f"models {rows.shape} vs {v.shape}")
    if not len(rows):
        return []
    dissim = _pairwise(rows, v[None, :], _COSINE)
    red = _redundancies(rows, grouping)
    w_div, w_red, cap = cfg.model_dissimilarity_weight, cfg.model_redundancy_weight, cfg.redundancy_cap
    # the blend in Python floats, as a lone model's: Python and numpy keep different NaNs of a NaN + NaN
    return [float(w_div * d + w_red * min(r / cap, 1.0)) for d, r in zip(dissim.tolist(), red.tolist())]


def outlier_ceiling(values: Sequence[float], percentile: float) -> float:
    """Ceiling below which reported indices are kept as-is: a percentile of the finite ones.

    A NaN or infinite index takes no part in it, so one diverging model
    cannot lift the ceiling off the others.  With no finite index the
    ceiling is NaN, and ``min(v, nan)`` keeps every index as it is.
    """
    arr = np.asarray(list(values), dtype=float)
    if arr.size == 0:
        raise ValueError("cannot take a percentile of no values")
    finite = arr[np.isfinite(arr)]
    return float(np.percentile(finite, percentile)) if finite.size else math.nan
