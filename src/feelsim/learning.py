"""Local training, evaluation, and update aggregation.

The model is multinomial logistic regression stored as one flat vector of
length n_classes * (dim + 1): one (weights | bias) block per class.  Local
training is plain mini-batch SGD on softmax cross-entropy with an optional L2
penalty on the non-bias weights.  Aggregation is sample-count weighted
averaging, with a loss-reweighted variant that favors poorly served devices;
the reduction always runs in ascending device id so results are
bit-deterministic regardless of caller ordering.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class TrainConfig:
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
    """Logits shifted so each row's max is 0, their exponentials, row sums."""
    logits = features @ w_mat.T + bias
    logits -= np.maximum.reduce(logits, axis=1, keepdims=True)
    exp = np.exp(logits)
    return logits, exp, np.add.reduce(exp, axis=1)


def _cross_entropy(logits: np.ndarray, z: np.ndarray, labels: np.ndarray) -> float:
    """Mean softmax cross-entropy from shifted logits and their row sums."""
    return float((np.log(z) - logits[np.arange(logits.shape[0]), labels]).mean())


def _penalized(ce: float, l2_reg: float, w_mat: np.ndarray) -> float:
    # kept even at l2_reg = 0: 0 * inf is NaN, which marks a diverged model
    return ce + 0.5 * l2_reg * float((w_mat * w_mat).sum())


def _gradient_into(grad, w_mat, exp, z, onehot, features, l2_reg: float) -> None:
    """Write the flat gradient, as a (k, dim+1) block, into ``grad``.

    Consumes ``exp`` as scratch.  Subtracting the one-hot rows equals
    subtracting 1 at each label: x - 0.0 == x for every float.
    """
    dim = features.shape[1]
    probs = exp
    probs /= z[:, None]
    probs -= onehot
    probs /= features.shape[0]
    grad_w = grad[:, :dim]
    np.matmul(probs.T, features, out=grad_w)
    grad_w += l2_reg * w_mat
    np.add.reduce(probs, axis=0, out=grad[:, dim])


def loss_and_grad(weights: np.ndarray, features: np.ndarray, labels: np.ndarray, l2_reg: float):
    """Mean softmax cross-entropy plus 0.5 * l2 * ||W||^2, and its gradient.

    The penalty covers class weights only, never biases.  Returns
    (loss, flat gradient).
    """
    dim = features.shape[1]
    w_mat, bias = _unpack(weights, dim)
    logits, exp, z = _softmax(features, w_mat, bias)
    loss = _penalized(_cross_entropy(logits, z, labels), l2_reg, w_mat)
    k = w_mat.shape[0]
    grad = np.empty((k, dim + 1))
    _gradient_into(grad, w_mat, exp, z, np.eye(k)[labels], features, l2_reg)
    return loss, grad.ravel()


def local_train(model: ModelParams, data: LocalDataset, cfg: TrainConfig, device_id: int = 0) -> Update:
    """Mini-batch SGD from the given model; the input model is not modified.

    The per-epoch shuffle comes from ``cfg.seed`` alone, so an identical
    (model, data, config) triple always produces the identical update.
    ``final_loss`` is the mean cross-entropy over the local data after the
    last step (the penalty term at l2 = 0), which is what loss-weighted
    aggregation consumes.

    Each step updates one weight vector in place from one gradient buffer
    and computes no loss; every bit equals ``w = w - lr * loss_and_grad(w,
    batch)[1]`` step by step.
    """
    if data.task_kind != "classification" or data.n_samples == 0:
        raise EmptyDatasetError("local training needs a non-empty classification set")
    features, labels = data.features, data.labels
    n, dim = features.shape
    w = model.weights.copy()
    w_mat, bias = _unpack(w, dim)
    grad = np.empty((w_mat.shape[0], dim + 1))
    flat_grad = grad.reshape(-1)
    eye = np.eye(w_mat.shape[0])
    rng = np.random.default_rng(cfg.seed)
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        shuffled, onehot = features[order], eye[labels[order]]
        for start in range(0, n, cfg.batch_size):
            stop = start + cfg.batch_size
            batch = shuffled[start:stop]
            _, exp, z = _softmax(batch, w_mat, bias)
            _gradient_into(grad, w_mat, exp, z, onehot[start:stop], batch, cfg.l2_reg)
            flat_grad *= cfg.learning_rate
            w -= flat_grad
    logits, _, z = _softmax(features, w_mat, bias)
    final_loss = _penalized(_cross_entropy(logits, z, labels), 0.0, w_mat)
    return Update(params=ModelParams(w), n_samples=n, final_loss=final_loss, device_id=device_id)


def evaluate(model: ModelParams, test: LocalDataset):
    """(accuracy, mean cross-entropy) on a held-out classification set."""
    if test.task_kind != "classification" or test.n_samples == 0:
        raise EmptyDatasetError("evaluation needs a non-empty classification set")
    w_mat, bias = _unpack(model.weights, test.features.shape[1])
    logits, _, z = _softmax(test.features, w_mat, bias)
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
