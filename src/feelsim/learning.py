"""Local training, evaluation, and update aggregation.

The model is multinomial logistic regression stored as one flat vector of
length n_classes * (dim + 1): one (weights | bias) block per class.  Local
training is plain mini-batch SGD on softmax cross-entropy with an optional L2
penalty on the non-bias weights.  A round's devices train in lockstep
(``train_many``): each epoch is a row of slots, one per full minibatch and
then one per distinct ragged length, and the devices whose minibatch falls
in the same slot take one stacked step, and an epoch's ragged steps run as
one pass of the gradient kernel.  Every device ends with the bits it gets
training alone (a diverged device's NaN sign aside, see ``train_many``).
Training returns models only, as the rows of one stack.  A device's final
loss on its own data goes with its upload (``upload``), and is computed the
first time it is read; ``local_train`` is both steps for one device.
Aggregation is sample-count weighted averaging (FedAvg), with a q-FFL
loss-reweighted variant that favors poorly served devices.  Only that
variant at q > 0 reads a loss, so FedAvg computes none.  The reduction
always runs in ascending device id so results are bit-deterministic
regardless of caller ordering.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property

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
_CHAIN_ROWS = 128  # rows from which the class-axis row max and row sum run as column chains


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
    """One device's contribution to a round.

    ``final_loss`` is the model's loss on the device's data.  An update made
    by ``upload`` computes it the first time it is read.
    """

    params: ModelParams
    n_samples: int
    final_loss: float
    device_id: int


class _Upload(Update):
    """An ``Update`` whose ``final_loss`` is computed from ``data`` on first read, then kept."""

    def __init__(self, params: ModelParams, data: LocalDataset, device_id: int):
        # through __dict__, as cached_property stores final_loss: the frozen __setattr__ refuses fields
        self.__dict__.update(params=params, n_samples=data.n_samples, device_id=device_id, data=data)

    @cached_property
    def final_loss(self) -> float:
        return _penalized_loss(self.params.weights, self.data.features, self.data.labels, 0.0)


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


def _column_chain(ufunc, a: np.ndarray) -> np.ndarray:
    """``ufunc.reduce(a, axis=1)`` bit for bit, as ``ufunc`` over the columns left to right below 8 columns.

    numpy's reduce runs its inner loop once per row, a chain once per
    column.  Below 8 terms ``np.add.reduce`` adds left to right and
    ``np.maximum.reduce`` breaks a tie of ±0 as the chain does; from 8 (add)
    or 9 (maximum) terms they do neither, so 8 columns and more keep the
    reduce.  Which NaN a row keeps can differ between the two, so the rows
    whose chain is NaN take the reduce.
    """
    if a.shape[1] > 7:
        return ufunc.reduce(a, axis=1)
    out = a[:, 0].copy()
    for column in a.T[1:]:
        ufunc(out, column, out=out)
    nan = np.isnan(out)
    if nan.any():
        out[nan] = ufunc.reduce(a[nan], axis=1)
    return out


def _shifted_exp_sums(a: np.ndarray, out=None) -> np.ndarray:
    """Shift each row of ``a`` in place so its max is 0, put its ``exp`` in ``out``, and return the row sums.

    The reduces' bits through ``_column_chain``, which pays from about
    ``_CHAIN_ROWS`` rows; callers keep the reduces for smaller blocks.
    """
    a -= _column_chain(np.maximum, a)[:, None]
    return _column_chain(np.add, np.exp(a, out=out))


def _softmax(features: np.ndarray, w_mat: np.ndarray, bias: np.ndarray):
    """Logits shifted so each row's max is 0, and the row sums of their exponentials."""
    logits = features @ w_mat.T + bias
    if logits.shape[0] >= _CHAIN_ROWS:
        return logits, _shifted_exp_sums(logits)
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    return logits, np.add.reduce(np.exp(logits), axis=1)


def _cross_entropy(logits: np.ndarray, z: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy from shifted logits and their row sums."""
    losses = np.log(z) - logits[np.arange(logits.shape[0]), labels]
    return float(np.add.reduce(losses) / losses.shape[0])  # ndarray.mean's sum and division, without its wrapper


def _penalized_loss(weights: np.ndarray, features: np.ndarray, labels: np.ndarray, l2_reg: float) -> float:
    """Mean softmax cross-entropy plus 0.5 * l2_reg * ||W||^2 over the class weights, never the biases."""
    w_mat, bias = _unpack(weights, features.shape[1])
    logits, z = _softmax(features, w_mat, bias)
    # the penalty is kept even at l2_reg = 0: 0 * inf is NaN, which marks a diverged model
    return _cross_entropy(logits, z, labels) + 0.5 * l2_reg * float((w_mat * w_mat).sum())


def _pass_gradients(w: np.ndarray, x: np.ndarray, onehot: np.ndarray, steps: list, l2_reg: float) -> np.ndarray:
    """The loss gradients of one pass of stacked steps on distinct devices: (D, k, dim+1) blocks.

    ``steps`` lists each step's (devices G, rows per device L) in order; ``w``
    holds the D devices' weights in that order, and ``x`` and ``onehot`` their
    rows, device after device.  Each step's blocks are bit for bit what the
    step alone gives, whatever steps share the pass.

    Per step: the two gemms, (G, L, d) @ (G, d, k) into the step's slice of
    one (rows, k) buffer and the weight-gradient product out of it (numpy
    calls the same BLAS routine on each slice of a stack); the divide by L,
    a Python int; and the two additions of arrays, the bias and the L2
    penalty.  numpy's add may keep the first operand's NaN in one part of
    its loop and the second's in another (with AVX-512: a full vector
    against the loop's tail), so where a NaN meets a NaN its bits depend on
    where the pair sits in the call, and these additions run over the
    step's own arrays.  The rest runs once over the whole buffer: the row
    max and row sum give each row the bits of a reduce along its own k
    entries (as column chains from ``_CHAIN_ROWS`` rows and below 8 classes,
    where a NaN row takes the reduce), and a subtraction, division or exp
    keeps the same bits wherever an element sits.  Subtracting the one-hot
    row equals subtracting 1 at the label alone, since x - 0.0 == x for
    every float, -0.0 and NaN included.
    """
    dim = x.shape[1]
    w_mat = w[:, :, :dim]
    probs = np.empty(onehot.shape)
    parts = []
    g = r = 0
    for devices, n in steps:
        h, s = g + devices, r + devices * n
        p, xb = probs[r:s].reshape(devices, n, -1), x[r:s].reshape(devices, n, dim)
        np.matmul(xb, w_mat[g:h].transpose(0, 2, 1), out=p)
        p += w[g:h, None, :, dim]
        parts.append((g, h, n, p, xb))
        g, r = h, s
    if probs.shape[0] < _CHAIN_ROWS:
        probs -= np.maximum.reduce(probs, axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs /= np.add.reduce(probs, axis=1, keepdims=True)
    else:
        z = _shifted_exp_sums(probs, out=probs)
        probs /= z[:, None]
    probs -= onehot
    penalty = l2_reg * w_mat
    grad = np.empty_like(w)
    for g, h, n, p, xb in parts:
        p /= n
        grad_w = grad[g:h, :, :dim]
        np.matmul(p.transpose(0, 2, 1), xb, out=grad_w)
        grad_w += penalty[g:h]
        np.add.reduce(p, axis=1, out=grad[g:h, :, dim])
    return grad


def loss_and_grad(weights: np.ndarray, features: np.ndarray, labels: np.ndarray, l2_reg: float):
    """Mean softmax cross-entropy plus 0.5 * l2 * ||W||^2, and its gradient.

    The penalty covers class weights only, never biases.  Returns
    (loss, flat gradient).  The gradient is the one every SGD step takes.
    """
    loss = _penalized_loss(weights, features, labels, l2_reg)
    n, dim = features.shape
    blocks = weights.reshape(1, -1, dim + 1)
    onehot = np.eye(blocks.shape[1])[labels]
    return loss, _pass_gradients(blocks, features, onehot, [(1, n)], l2_reg).ravel()


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
    batch)[1]`` step by step.  The one exception is a diverged device whose
    NaNs of both signs meet in a stacked step's bias or L2 addition: which
    NaN numpy keeps can depend on the device's place in the step.  No loss
    is computed here; ``upload`` takes it.

    The devices whose minibatches fall in the same slot of
    ``_lockstep_steps`` take one stacked step: the j-th full minibatch of
    every device in one slot, and every ragged last minibatch of one length
    in another.  The steps run in passes of ``_pass_gradients``, one update
    of the pass's devices each: every full step alone, then each epoch's
    ragged steps, which hold distinct devices, in runs of at most
    ``_GATHER_ROWS`` rows.  So a call takes E * (span + 1) passes when each
    epoch's ragged rows fit in one run.  The call puts every step's rows in
    step order once, as an index into one concatenation of the devices'
    data, so a pass is one contiguous slice of it.  Features and one-hot
    labels (rows of ``np.eye(k)``) are gathered for a run of whole passes at
    a time, at most ``_GATHER_ROWS`` rows unless one pass alone has more.  A
    step's slice, reshaped to (G, L, dim), has the shape and strides a
    gather of that step alone would have, so its products keep their bits.
    A dataset whose feature width or labels do not fit the model raises
    ``ShapeMismatchError`` naming its index.
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
    batch = cfg.batch_size
    device, first, length, edges = _lockstep_steps(sizes, batch, cfg.epochs)
    ends = np.cumsum(length)
    rows = _shuffled_rows(sizes, seeds, cfg.epochs)[np.repeat(first - (ends - length), length) + np.arange(ends[-1])]
    cuts = np.concatenate(([0], ends))[edges].tolist()  # where each stacked step's rows start, then their end
    lengths = length[edges[:-1]].tolist()
    steps = list(zip(np.diff(edges).tolist(), lengths))  # (devices, rows per device) of each stacked step
    width = len(steps) // cfg.epochs
    span = lengths[:width].count(batch)
    passes = []  # each pass's first step, then the step count
    for e in range(0, len(steps), width):
        passes += range(e, e + span)  # each full step alone
        for s in range(e + span, e + width):  # the epoch's ragged steps, in runs of at most _GATHER_ROWS rows
            if s == e + span or cuts[s + 1] - cuts[passes[-1]] > _GATHER_ROWS:
                passes.append(s)
    passes.append(len(steps))
    starts = [cuts[s] for s in passes]  # where each pass's rows start, then their end
    features = np.concatenate([data.features for data in datasets])
    eye = np.eye(n_classes)
    weights = np.tile(model.weights, (len(datasets), 1)).reshape(len(datasets), -1, dim + 1)
    end = 0
    for s, t, a, b in zip(passes, passes[1:], starts, starts[1:]):
        if b > end:  # gather the whole passes from here on that fit in _GATHER_ROWS rows, at least this one
            start, end = a, max(b, starts[bisect.bisect_right(starts, a + _GATHER_ROWS) - 1])
            block = rows[start:end]
            x, onehot = features[block], eye[labels[block]]
        lo, hi = edges[s], edges[t]
        ids = device[lo:hi]
        w = weights.take(ids, axis=0)
        grad = _pass_gradients(w, x[a - start : b - start], onehot[a - start : b - start], steps[s:t], cfg.l2_reg)
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
    loss into NaN), which is what loss-weighted aggregation consumes.  It is
    computed the first time it is read, and kept: only aggregation at q > 0
    reads it, so a FedAvg round computes no loss.
    """
    return _Upload(params, data, device_id)


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


def _tilted_weight(u: Update, q: float) -> float:
    """``u``'s aggregation weight n * loss ** q at q > 0; one past the float range or NaN raises ``DegenerateWeightsError``."""
    loss = u.final_loss
    try:
        weight = u.n_samples * loss**q
    except OverflowError:  # a float power past the float range raises; a product past it is inf
        weight = math.inf
    if not weight < math.inf:
        fault = "is NaN" if math.isnan(weight) else "overflows"
        raise DegenerateWeightsError(f"device {u.device_id}'s aggregation weight {u.n_samples} * {loss!r} ** {q} {fault}")
    return weight


def aggregate_loss_weighted(updates: list, q: float = 0.0) -> ModelParams:
    """Aggregation with weights proportional to n_k * loss_k^q, reduced in
    ascending device id.

    q > 0 tilts the average toward devices the current model serves worst;
    q = 0 is plain sample-count averaging (FedAvg), which reads no update's
    ``final_loss``.  A weight past the float range or NaN raises
    ``DegenerateWeightsError`` naming its device, and weights whose sum is
    past the float range or zero raise it too.  A diverged upload's loss
    overflows in its ``||W||^2`` and is NaN; that overflow is refused as a
    NaN weight, not warned of.
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
    if q:
        with np.errstate(over="ignore"):  # a loss whose ||W||^2 overflows is NaN; it and a sum past the range are refused
            raw = np.array([_tilted_weight(u, q) for u in ordered])
            total = raw.sum()
    else:  # n * loss ** 0.0 is float(n) for every loss, NaN and ±inf included, so no loss is read
        raw = np.array([float(u.n_samples) for u in ordered])
        total = raw.sum()
    if not total > 0:
        raise DegenerateWeightsError("all aggregation weights vanished")
    if total == math.inf:
        raise DegenerateWeightsError(f"the aggregation weights' sum overflows at q = {q}")
    acc = np.zeros(length)
    for weight, u in zip(raw / total, ordered):
        acc += weight * u.params.weights
    return ModelParams(acc)
