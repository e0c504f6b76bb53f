"""Local training, evaluation, and update aggregation.

The model is multinomial logistic regression stored as one flat vector of
length n_classes * (dim + 1): one (weights | bias) block per class.  Local
training is plain mini-batch SGD on softmax cross-entropy with an optional L2
penalty on the non-bias weights.  A round's devices train in lockstep
(``train_many``): each epoch is a row of slots, one per full minibatch and
then one per distinct ragged length, and the devices whose minibatch falls
in the same slot take one stacked step.  Every device ends with the bits it
gets training alone.  Training returns models only, as the rows of one
stack.  A device's final loss on its own data goes with its upload
(``upload``), so it is computed only for the devices whose update is
aggregated; ``local_train`` is both steps for one device.  Aggregation is
sample-count weighted averaging, with a loss-reweighted variant that favors
poorly served devices; the reduction always runs in ascending device id so
results are bit-deterministic regardless of caller ordering.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .domain import LocalDataset, ModelParams, require_finite
from .errors import (
    DegenerateWeightsError,
    EmptyDatasetError,
    NoUpdatesError,
    ShapeMismatchError,
    ValidationError,
)

_GATHER_ROWS = 1024  # rows of features and one-hot labels train_many gathers at a time


@dataclass(frozen=True)
class TrainConfig:
    """Local SGD settings.

    ``seed`` seeds ``local_train``'s per-epoch shuffles through
    ``np.random.default_rng``.  ``train_many`` does not read it and takes
    one seed per device instead, such as the ``PresetSeed``s the engine
    derives per device and round.
    """

    epochs: int = 1
    batch_size: int = 16
    learning_rate: float = 0.1
    l2_reg: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValidationError("nonpositive_epochs")
        if self.batch_size < 1:
            raise ValidationError("nonpositive_batch_size")
        if self.learning_rate < 0:
            raise ValidationError("negative_learning_rate")
        if self.l2_reg < 0:
            raise ValidationError("negative_l2_reg")
        require_finite(self)


@dataclass(frozen=True, eq=False)
class Update:
    """One device's contribution to a round."""

    params: ModelParams
    n_samples: int
    final_loss: float
    device_id: int


def init_model(dim: int, n_classes: int, seed: int) -> ModelParams:
    """Uniform(-1/sqrt(dim), 1/sqrt(dim)) class weights with zero biases."""
    if dim < 1 or n_classes < 2:
        raise ValueError("need dim >= 1 and n_classes >= 2")
    rng = np.random.default_rng(seed)
    scale = 1.0 / math.sqrt(dim)
    w = rng.uniform(-scale, scale, size=(n_classes, dim))
    flat = np.hstack([w, np.zeros((n_classes, 1))]).ravel()
    return ModelParams(flat)


def _unpack(weights: np.ndarray, dim: int):
    if weights.size % (dim + 1) != 0:
        raise ShapeMismatchError(f"vector of {weights.size} is not k x (dim+1) for dim={dim}")
    blocks = weights.reshape(-1, dim + 1)
    return blocks[:, :dim], blocks[:, dim]


def _softmax(features: np.ndarray, w_mat: np.ndarray, bias: np.ndarray):
    """Logits shifted so each row's max is 0, and the row sums of their exponentials."""
    logits = features @ w_mat.T + bias
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    return logits, np.add.reduce(np.exp(logits), axis=1)


def _cross_entropy(logits: np.ndarray, z: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy from shifted logits and their row sums."""
    losses = np.log(z) - logits[np.arange(logits.shape[0]), labels]
    return float(np.add.reduce(losses) / losses.shape[0])  # ndarray.mean's sum and division, without its wrapper


def _penalized(ce: float, l2_reg: float, w_mat: np.ndarray) -> float:
    # kept even at l2_reg = 0: 0 * inf is NaN, which marks a diverged model
    return ce + 0.5 * l2_reg * float((w_mat * w_mat).sum())


def _gradients(w: np.ndarray, xb: np.ndarray, onehot: np.ndarray, l2_reg: float) -> np.ndarray:
    """The loss gradient of each slice of a stack: (G, k, dim+1) blocks.

    Slice g is the gradient at weights ``w[g]`` on the rows ``xb[g]`` with
    one-hot labels ``onehot[g]``, bit for bit what it is with G = 1: each
    product is a stack of per-slice products, which numpy computes slice by
    slice with the same gemm call, and each sum runs along the same
    contiguous axis as it does for one slice.  Subtracting the one-hot row
    equals subtracting 1 at the label alone, since x - 0.0 == x for every
    float, -0.0 and NaN included.
    """
    n, dim = xb.shape[1:]
    w_mat = w[:, :, :dim]
    probs = xb @ w_mat.transpose(0, 2, 1)
    probs += w[:, None, :, dim]
    probs -= np.maximum.reduce(probs, axis=2, keepdims=True)
    np.exp(probs, out=probs)
    probs /= np.add.reduce(probs, axis=2)[:, :, None]
    probs -= onehot
    probs /= n
    grad = np.empty_like(w)
    grad_w = grad[:, :, :dim]
    np.matmul(probs.transpose(0, 2, 1), xb, out=grad_w)
    grad_w += l2_reg * w_mat
    np.add.reduce(probs, axis=1, out=grad[:, :, dim])
    return grad


def loss_and_grad(weights: np.ndarray, features: np.ndarray, labels: np.ndarray, l2_reg: float):
    """Mean softmax cross-entropy plus 0.5 * l2 * ||W||^2, and its gradient.

    The penalty covers class weights only, never biases.  Returns
    (loss, flat gradient).  The gradient is the one every SGD step takes.
    """
    dim = features.shape[1]
    w_mat, bias = _unpack(weights, dim)
    logits, z = _softmax(features, w_mat, bias)
    loss = _penalized(_cross_entropy(logits, z, labels), l2_reg, w_mat)
    blocks = weights.reshape(1, -1, dim + 1)
    onehot = np.eye(blocks.shape[1])[labels]
    return loss, _gradients(blocks, features[None], onehot[None], l2_reg).ravel()


def local_train(model: ModelParams, data: LocalDataset, cfg: TrainConfig, device_id: int = 0) -> Update:
    """Mini-batch SGD from the given model; the input model is not modified.

    The per-epoch shuffle comes from ``cfg.seed`` alone, so an identical
    (model, data, config) triple always produces the identical update.  This
    is ``train_many`` for one device, then its ``upload``.
    """
    return upload(ModelParams(train_many(model, [data], cfg, [cfg.seed])[0]), data, device_id)


def train_many(model: ModelParams, datasets: list, cfg: TrainConfig, seeds: list) -> np.ndarray:
    """Many devices' mini-batch SGD from one model, in lockstep; the trained models as one stack.

    Row i of the returned read-only, C-contiguous ``(devices, n_weights)``
    array is device i's trained weight vector; no devices give zero rows.
    No per-device ``ModelParams`` is made: a caller wraps the rows it keeps.

    Device i trains on ``datasets[i]`` with the shuffles of
    ``np.random.default_rng(seeds[i])``; ``cfg.seed`` is not read.  Every
    device's model is bit for bit the one it gets when it trains alone,
    whichever devices train beside it: ``w = w - lr * loss_and_grad(w,
    batch)[1]`` step by step.  No loss is computed here; ``upload`` takes it.

    The devices whose minibatches fall in the same slot of
    ``_lockstep_steps`` take one stacked step (``_gradients``): the j-th
    full minibatch of every device in one slot, and every ragged last
    minibatch of one length in another.  The call puts every step's rows in
    step order once, as an index into one concatenation of the devices'
    data, so a stacked step is one contiguous slice of it.  Features and
    one-hot labels (rows of ``np.eye(k)``) are gathered for a run of whole
    steps at a time, at most ``_GATHER_ROWS`` rows unless one step alone
    has more.  A step's slice, reshaped to (G, L, dim), has the shape and
    strides a gather of that step alone would have, so its products keep
    their bits.  A dataset whose feature width or labels do not fit the
    model raises ``ShapeMismatchError`` naming its index.
    """
    n_weights = model.weights.size
    if not datasets:
        return np.empty((0, n_weights))
    dim = datasets[0].features.shape[1]
    for i, data in enumerate(datasets):
        if data.task_kind != "classification" or data.n_samples == 0:
            raise EmptyDatasetError("local training needs a non-empty classification set")
        width = data.features.shape[1]
        if n_weights % (width + 1):
            raise ShapeMismatchError(f"dataset {i}'s {width} features do not fit a model of {n_weights} weights")
        if width != dim:
            raise ShapeMismatchError(f"dataset {i} has {width} features, dataset 0 has {dim}")
    n_classes = n_weights // (dim + 1)
    sizes = np.array([data.n_samples for data in datasets])
    labels = np.concatenate([data.labels for data in datasets])
    if labels.max() >= n_classes:
        i = np.searchsorted(np.cumsum(sizes), np.argmax(labels >= n_classes), side="right")
        raise ShapeMismatchError(f"dataset {i} has a label at or above the model's {n_classes} classes")
    device, first, length, edges = _lockstep_steps(sizes, cfg.batch_size, cfg.epochs)
    ends = np.cumsum(length)
    rows = _shuffled_rows(sizes, seeds, cfg.epochs)[np.repeat(first - (ends - length), length) + np.arange(ends[-1])]
    cuts = np.concatenate(([0], ends))[edges].tolist()  # where each stacked step's rows start, then their end
    features = np.concatenate([data.features for data in datasets])
    eye = np.eye(n_classes)
    weights = np.tile(model.weights, (len(datasets), 1)).reshape(len(datasets), -1, dim + 1)
    end = 0
    for lo, hi, a, b in zip(edges, edges[1:], cuts, cuts[1:]):
        if b > end:  # gather the whole steps from here on that fit in _GATHER_ROWS rows, at least this one
            start, end = a, max(b, cuts[bisect.bisect_right(cuts, a + _GATHER_ROWS) - 1])
            block = rows[start:end]
            x, onehot = features[block], eye[labels[block]]
        ids = device[lo:hi]
        w = weights[ids]
        xb = x[a - start : b - start].reshape(hi - lo, -1, dim)
        yb = onehot[a - start : b - start].reshape(hi - lo, -1, n_classes)
        grad = _gradients(w, xb, yb, cfg.l2_reg)
        grad *= cfg.learning_rate
        w -= grad
        weights[ids] = w
    stack = weights.reshape(len(datasets), n_weights)  # a view: the trained weights are not copied
    stack.flags.writeable = False
    return stack


def upload(params: ModelParams, data: LocalDataset, device_id: int) -> Update:
    """The update a device trained to ``params`` on ``data`` sends the server.

    ``final_loss`` is the mean cross-entropy of ``params`` over the local
    data (plus the penalty term at l2 = 0, which turns a diverged model's
    loss into NaN), which is what loss-weighted aggregation consumes.
    """
    w_mat, bias = _unpack(params.weights, data.features.shape[1])
    logits, z = _softmax(data.features, w_mat, bias)
    final_loss = _penalized(_cross_entropy(logits, z, data.labels), 0.0, w_mat)
    return Update(params, data.n_samples, final_loss, device_id)


def _shuffled_rows(sizes: np.ndarray, seeds: list, epochs: int) -> np.ndarray:
    """Every device's epochs of shuffles in a row, as rows of the devices' concatenated data.

    Device i draws each epoch's shuffle from its own ``default_rng(seeds[i])``,
    in the order ``local_train`` draws them.  Each epoch is a slice of one
    order array, copied from the device's ascending row numbers and shuffled
    in place; ``Generator.shuffle`` moves elements by position alone, so the
    slice holds ``permutation(n)`` plus the device's first row, bit for bit.
    """
    ends = np.cumsum(sizes)
    rows = np.arange(ends[-1])
    order = np.empty(epochs * rows.size, dtype=np.int64)
    lo = 0
    for first, end, seed in zip((ends - sizes).tolist(), ends.tolist(), seeds, strict=True):
        shuffle = np.random.default_rng(seed).shuffle
        for _ in range(epochs):
            hi = lo + end - first
            epoch = order[lo:hi]
            epoch[...] = rows[first:end]
            shuffle(epoch)
            lo = hi
    return order


def _lockstep_steps(sizes: np.ndarray, batch: int, epochs: int) -> tuple:
    """Every device's SGD steps, grouped into the stacked steps that run them.

    Each epoch has ``span + R`` slots: ``span`` is the largest count of full
    minibatches, and ``R`` the number of distinct ragged lengths ``n %
    batch`` other than 0.  A device's j-th full minibatch of epoch e runs in
    slot ``e * (span + R) + j``, and its ragged one in slot ``e * (span + R)
    + span + r``, where r ranks its length among the ragged lengths.  So a
    slot holds minibatches of one length and at most one step per device,
    and each device's slots rise with its steps.

    Returns, one entry per device and step, the device, where the step's
    minibatch starts in ``_shuffled_rows`` and its length, sorted by slot
    (stably, so by device within one); and the edges of the runs of equal
    slot, each one stacked step.
    """
    full, rest = np.divmod(sizes, batch)
    per_epoch = full + (rest > 0)
    ragged_lengths = np.bincount(rest, minlength=1) > 0  # no np.unique: its first call maps 1.6 MB
    ragged_lengths[0] = False
    rank = np.cumsum(ragged_lengths) - 1
    span = full.max()
    width = span + rank[-1] + 1
    steps = epochs * per_epoch
    device = np.repeat(np.arange(sizes.size), steps)
    step = np.arange(device.size) - np.repeat(np.cumsum(steps) - steps, steps)
    epoch, j = np.divmod(step, per_epoch[device])
    ragged = j == full[device]
    length = np.where(ragged, rest[device], batch)
    slot = epoch * width + np.where(ragged, span + rank[rest[device]], j)
    first = epochs * (np.cumsum(sizes) - sizes)[device] + epoch * sizes[device] + j * batch
    ranked = np.argsort(slot, kind="stable")
    slot = slot[ranked]
    edges = np.flatnonzero(slot[1:] != slot[:-1]) + 1
    return device[ranked], first[ranked], length[ranked], [0, *edges.tolist(), slot.size]


def evaluate(model: ModelParams, test: LocalDataset):
    """(accuracy, mean cross-entropy) on a held-out classification set."""
    if test.task_kind != "classification" or test.n_samples == 0:
        raise EmptyDatasetError("evaluation needs a non-empty classification set")
    w_mat, bias = _unpack(model.weights, test.features.shape[1])
    logits, z = _softmax(test.features, w_mat, bias)
    loss = _cross_entropy(logits, z, test.labels)
    accuracy = float((logits.argmax(axis=1) == test.labels).mean())
    return accuracy, loss


def aggregate_fedavg(updates: list) -> ModelParams:
    """Sample-count weighted average: loss-weighted aggregation at q = 0."""
    return aggregate_loss_weighted(updates, 0.0)


def aggregate_loss_weighted(updates: list, q: float = 0.0) -> ModelParams:
    """Aggregation with weights proportional to n_k * loss_k^q, reduced in
    ascending device id.

    q > 0 tilts the average toward devices the current model serves worst;
    q = 0 is plain sample-count averaging (FedAvg).
    """
    if q < 0:
        raise ValueError("q must be nonnegative")
    if not updates:
        raise NoUpdatesError("nothing to aggregate")
    ordered = sorted(updates, key=lambda u: u.device_id)
    length = ordered[0].params.weights.size
    for u in ordered:
        if u.params.weights.size != length:
            raise ShapeMismatchError(f"update from device {u.device_id} has length {u.params.weights.size}")
    raw = np.array([u.n_samples * u.final_loss**q for u in ordered], dtype=float)
    total = raw.sum()
    if not total > 0:
        raise DegenerateWeightsError("all aggregation weights vanished")
    acc = np.zeros(length)
    for weight, u in zip(raw / total, ordered):
        acc += weight * u.params.weights
    return ModelParams(acc)
