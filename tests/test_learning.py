"""Local training, evaluation, and aggregation."""

from __future__ import annotations

import math
import tracemalloc
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from feelsim import learning, seeding
from feelsim.domain import LocalDataset, ModelParams
from feelsim.errors import DegenerateWeightsError, EmptyDatasetError, NoUpdatesError, ShapeMismatchError
from feelsim.learning import (
    TrainConfig,
    Update,
    _lockstep_steps,
    aggregate_fedavg,
    aggregate_loss_weighted,
    evaluate,
    init_model,
    local_train,
    loss_and_grad,
    train_many,
    upload,
)


def _dataset(features, labels) -> LocalDataset:
    return LocalDataset("classification", np.asarray(features, float), np.asarray(labels))


def _update(device_id, weights, n, loss=1.0) -> Update:
    return Update(ModelParams(np.asarray(weights, float)), n_samples=n, final_loss=loss, device_id=device_id)


# ------------------------------------------------------------------ init


def test_init_model_layout_and_bounds():
    model = init_model(dim=5, n_classes=3, seed=0)
    assert model.weights.size == 3 * (5 + 1)
    blocks = model.weights.reshape(3, 6)
    assert np.all(blocks[:, 5] == 0.0)  # biases start at zero
    scale = 1.0 / math.sqrt(5)
    assert np.all(np.abs(blocks[:, :5]) <= scale)


def test_init_model_seed_determinism():
    a = init_model(4, 3, seed=9)
    b = init_model(4, 3, seed=9)
    c = init_model(4, 3, seed=10)
    assert np.array_equal(a.weights, b.weights)
    assert not np.array_equal(a.weights, c.weights)


# ------------------------------------------------------------------ gradient


def test_single_sample_single_step_matches_hand_computation():
    features = np.array([[1.0, 2.0]])
    labels = np.array([0])
    data = _dataset(features, labels)
    model = init_model(2, 3, seed=1)
    cfg = TrainConfig(epochs=1, batch_size=1, learning_rate=0.1, l2_reg=0.0, seed=0)
    result = local_train(model, data, cfg)

    blocks = model.weights.reshape(3, 3)
    logits = blocks[:, :2] @ features[0] + blocks[:, 2]
    p = np.exp(logits - logits.max())
    p /= p.sum()
    err = p.copy()
    err[0] -= 1.0
    grad_blocks = np.hstack([np.outer(err, features[0]), err[:, None]])
    expected = model.weights - 0.1 * grad_blocks.ravel()
    np.testing.assert_allclose(result.params.weights, expected, rtol=1e-12)


def test_analytic_gradient_matches_central_differences():
    rng = np.random.default_rng(0)
    features = rng.standard_normal((3, 2))
    labels = np.array([0, 1, 2])
    w = rng.standard_normal(3 * 3) * 0.5
    l2 = 0.1
    _, grad = loss_and_grad(w, features, labels, l2)

    def f(vec):
        return oracles.softmax_ce_loss(list(vec), [list(r) for r in features], list(labels), 3, l2)

    fd = np.array(oracles.central_difference_gradient(f, list(w), eps=1e-6))
    rel = np.linalg.norm(grad - fd) / max(1.0, np.linalg.norm(fd))
    assert rel < 1e-5


def test_loss_matches_independent_formula():
    rng = np.random.default_rng(4)
    features = rng.standard_normal((6, 3))
    labels = rng.integers(0, 2, size=6)
    w = rng.standard_normal(2 * 4)
    loss, _ = loss_and_grad(w, features, labels, 0.05)
    want = oracles.softmax_ce_loss(list(w), [list(r) for r in features], list(labels), 2, 0.05)
    assert loss == pytest.approx(want, rel=1e-12)


# ------------------------------------------------------------------ training


def test_zero_learning_rate_leaves_model_unchanged(toy_classification):
    model = init_model(3, 3, seed=2)
    cfg = TrainConfig(epochs=3, batch_size=8, learning_rate=0.0, seed=0)
    result = local_train(model, toy_classification, cfg)
    assert np.array_equal(result.params.weights, model.weights)
    initial_loss, _ = loss_and_grad(model.weights, toy_classification.features, toy_classification.labels, 0.0)
    assert result.final_loss == pytest.approx(initial_loss, rel=1e-12)


def test_training_does_not_mutate_input_model(toy_classification):
    model = init_model(3, 3, seed=2)
    before = model.weights.copy()
    local_train(model, toy_classification, TrainConfig(epochs=2, seed=1))
    assert np.array_equal(model.weights, before)


def test_training_is_seed_deterministic(toy_classification):
    model = init_model(3, 3, seed=2)
    cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=0.05, seed=3)
    a = local_train(model, toy_classification, cfg)
    b = local_train(model, toy_classification, cfg)
    assert np.array_equal(a.params.weights, b.params.weights)


def test_full_batch_loss_nonincreasing_over_epochs():
    rng = np.random.default_rng(1)
    features = rng.standard_normal((24, 3))
    labels = rng.integers(0, 3, size=24)
    data = _dataset(features, labels)
    model = init_model(3, 3, seed=0)
    losses = []
    for epochs in range(1, 6):
        cfg = TrainConfig(epochs=epochs, batch_size=24, learning_rate=1e-3, seed=0)
        losses.append(local_train(model, data, cfg).final_loss)
    assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))


def test_training_empty_dataset_errors():
    model = init_model(2, 2, seed=0)
    empty = LocalDataset("classification", np.zeros((0, 2)), np.zeros(0, dtype=int))
    with pytest.raises(EmptyDatasetError):
        local_train(model, empty, TrainConfig())


# ------------------------------------------------------- bitwise reference


def _bits(values) -> np.ndarray:
    return np.asarray(values, dtype=float).view(np.uint64)


def _sgd_problem(n, n_classes, dim, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    features = rng.standard_normal((n, dim)) * scale
    labels = rng.integers(0, n_classes, size=n)
    weights = rng.standard_normal(n_classes * (dim + 1))
    return weights, features, labels


def _assert_train_matches_reference(weights, features, labels, cfg) -> float:
    """local_train equals the plain SGD loop bit for bit; returns its loss."""
    got = local_train(ModelParams(weights), _dataset(features, labels), cfg)
    want_w, want_loss = oracles.reference_local_train(
        weights, features, labels, cfg.epochs, cfg.batch_size, cfg.learning_rate, cfg.l2_reg, cfg.seed
    )
    assert np.array_equal(_bits(got.params.weights), _bits(want_w))
    assert _bits(got.final_loss) == _bits(want_loss)
    return want_loss


@pytest.mark.parametrize("epochs", [1, 3])
@pytest.mark.parametrize("batch", [1, 7, 16, 35])  # 7 and 16 leave a ragged last batch of 30 rows; 35 > n
@pytest.mark.parametrize("l2", [0.0, 0.05])
def test_local_train_is_bitwise_the_reference_loop(l2, batch, epochs):
    weights, features, labels = _sgd_problem(30, 4, 5, seed=batch + 10 * epochs)
    cfg = TrainConfig(epochs=epochs, batch_size=batch, learning_rate=0.1, l2_reg=l2, seed=3)
    _assert_train_matches_reference(weights, features, labels, cfg)
    # the engine's precomputed seed trains exactly as the int seed it stands for
    by_int = replace(cfg, seed=seeding.derive_seed(5, seeding.TRAINING, batch, epochs))
    (preset,) = seeding.derived_seeds(5, seeding.TRAINING, [batch], epochs)
    _assert_train_matches_reference(weights, features, labels, by_int)
    data = _dataset(features, labels)
    got = upload(ModelParams(train_many(ModelParams(weights), [data], cfg, [preset])[0]), data, 0)
    want = local_train(ModelParams(weights), data, by_int)
    assert np.array_equal(_bits(got.params.weights), _bits(want.params.weights))
    assert _bits(got.final_loss) == _bits(want.final_loss)


@pytest.mark.parametrize("l2", [0.0, 0.05])
def test_local_train_single_sample_is_bitwise_the_reference_loop(l2):
    weights, features, labels = _sgd_problem(1, 3, 4, seed=5)
    cfg = TrainConfig(epochs=3, batch_size=16, learning_rate=0.5, l2_reg=l2, seed=1)
    _assert_train_matches_reference(weights, features, labels, cfg)


@pytest.mark.parametrize(
    "shape, scale, cfg",
    [
        # ||W||^2 overflows, and the zero-weight penalty term turns that into a NaN loss
        ((30, 4, 5), 50.0, TrainConfig(epochs=3, batch_size=1, learning_rate=1e3, l2_reg=0.05, seed=2)),
        # steps overflow at l2 = 0; the NaN bits depend on the zero-weight penalty gradient
        ((5, 3, 5), 1e100, TrainConfig(epochs=3, batch_size=7, learning_rate=1e300, l2_reg=0.0, seed=0)),
    ],
)
def test_local_train_diverging_device_is_bitwise_the_reference_loop(shape, scale, cfg):
    weights, features, labels = _sgd_problem(*shape, seed=0, scale=scale)
    with np.errstate(all="ignore"):
        final_loss = _assert_train_matches_reference(weights, features, labels, cfg)
    assert math.isnan(final_loss)


@pytest.mark.parametrize("n", [1, 6, 40])
@pytest.mark.parametrize("l2", [0.0, 0.05])
def test_loss_and_grad_is_bitwise_the_reference_kernel(n, l2):
    for scale in (1.0, 1e3):
        weights, features, labels = _sgd_problem(n, 3, 4, seed=n, scale=scale)
        with np.errstate(all="ignore"):
            loss, grad = loss_and_grad(weights * scale, features, labels, l2)
            want_loss, want_grad = oracles.reference_loss_and_grad(weights * scale, features, labels, l2)
        assert _bits(loss) == _bits(want_loss)
        assert np.array_equal(_bits(grad), _bits(want_grad))


# ------------------------------------------------------- lockstep training

RAGGED = (1, 2, 3, 16, 17, 31, 64)


def _fleet(sizes, n_classes=4, dim=5, seed=0, scale=1.0):
    """One model's weights and a dataset per size, each drawn at its own scale."""
    rng = np.random.default_rng(seed)
    weights = rng.standard_normal(n_classes * (dim + 1))
    datasets = [
        _dataset(rng.standard_normal((n, dim)) * scale * 10.0 ** rng.uniform(-1, 1), rng.integers(0, n_classes, size=n))
        for n in sizes
    ]
    return weights, datasets


def _uploads(weights, datasets, cfg, seeds, ids) -> list:
    """train_many's models, each with the update upload makes of its row."""
    trained = train_many(ModelParams(weights), datasets, cfg, seeds)
    assert trained.shape == (len(datasets), weights.size)
    return [upload(ModelParams(row), data, device_id) for row, data, device_id in zip(trained, datasets, ids, strict=True)]


def _assert_each_device_trains_as_alone(weights, datasets, cfg, seeds, ids):
    """train_many equals the plain SGD loop and local_train for every device, NaN bits included."""
    got = _uploads(weights, datasets, cfg, seeds, ids)
    for upd, data, seed, device_id in zip(got, datasets, seeds, ids):
        want_w, want_loss = oracles.reference_local_train(
            weights, data.features, data.labels, cfg.epochs, cfg.batch_size, cfg.learning_rate, cfg.l2_reg, seed
        )
        alone = local_train(ModelParams(weights), data, replace(cfg, seed=seed), device_id=device_id)
        assert (upd.device_id, upd.n_samples) == (device_id, data.n_samples) == (alone.device_id, alone.n_samples)
        assert np.array_equal(_bits(upd.params.weights), _bits(want_w))
        assert np.array_equal(_bits(upd.params.weights), _bits(alone.params.weights))
        assert _bits(upd.final_loss) == _bits(want_loss) == _bits(alone.final_loss)
    return got


@pytest.mark.parametrize("batch", [1, 7, 16, 100])  # 100 is above every size
@pytest.mark.parametrize("l2", [0.0, 0.05])
def test_train_many_trains_ragged_devices_each_as_alone(l2, batch):
    sizes = RAGGED + RAGGED[::-1]  # equal sizes share every stacked step
    weights, datasets = _fleet(sizes, seed=batch)
    cfg = TrainConfig(epochs=2, batch_size=batch, learning_rate=0.1, l2_reg=l2)
    _assert_each_device_trains_as_alone(weights, datasets, cfg, list(range(50, 50 + len(sizes))), list(range(len(sizes))))


@pytest.mark.parametrize("l2", [0.0, 0.05])
def test_train_many_stacks_equal_ragged_lengths_from_different_steps(l2):
    # every device ends on a ragged 5-row minibatch, at its steps 0, 1, 2 and 3
    sizes, cfg = (5, 21, 37, 53), TrainConfig(epochs=2, batch_size=16, learning_rate=0.1, l2_reg=l2)
    device, _, length, edges = _lockstep_steps(np.array(sizes), cfg.batch_size, cfg.epochs)
    assert [device[lo:hi].tolist() for lo, hi in zip(edges, edges[1:]) if length[lo] == 5] == [[0, 1, 2, 3]] * 2
    weights, datasets = _fleet(sizes, seed=7)
    _assert_each_device_trains_as_alone(weights, datasets, cfg, [11, 12, 13, 14], [0, 1, 2, 3])


def _row_cap(cap, sizes, cfg) -> int:
    """A gather cap of one row, of 7 rows (inside most steps) or of exactly the first stacked step's rows."""
    if cap == "one step":
        _, _, length, edges = _lockstep_steps(np.array(sizes), cfg.batch_size, cfg.epochs)
        return int(length[0]) * (edges[1] - edges[0])
    return {"one row": 1, "inside a step": 7}[cap]


@pytest.mark.parametrize("cap", ["one row", "inside a step", "one step"])
@pytest.mark.parametrize("batch", [1, 7, 16, 100])
@pytest.mark.parametrize("l2", [0.0, 0.05])
def test_train_many_keeps_every_devices_bits_at_any_gather_cap(monkeypatch, l2, batch, cap):
    sizes = RAGGED + RAGGED[::-1]
    weights, datasets = _fleet(sizes, seed=batch)
    cfg = TrainConfig(epochs=2, batch_size=batch, learning_rate=0.1, l2_reg=l2)
    monkeypatch.setattr(learning, "_GATHER_ROWS", _row_cap(cap, sizes, cfg))
    _assert_each_device_trains_as_alone(weights, datasets, cfg, list(range(50, 50 + len(sizes))), list(range(len(sizes))))


@pytest.mark.parametrize("cap", ["one row", "inside a step", "one step"])
def test_train_many_diverging_device_keeps_its_nan_bits_at_any_gather_cap(monkeypatch, cap):
    sizes = RAGGED + RAGGED[::-1]
    weights, datasets = _fleet(sizes, seed=2, scale=50.0)
    cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e306)
    monkeypatch.setattr(learning, "_GATHER_ROWS", _row_cap(cap, sizes, cfg))
    with np.errstate(all="ignore"):
        got = _assert_each_device_trains_as_alone(weights, datasets, cfg, list(range(len(sizes))), list(range(len(sizes))))
    assert all(math.isnan(u.final_loss) for u in got)


# at batch 8: span 3 and four ragged lengths an epoch (2, 3, 5 and 6 rows: 2 + 9 + 15 + 18 = 44 rows);
# at batch 32 every minibatch is ragged, so an epoch's run is all of its steps
PASS_SIZES = (3, 5, 6, 11, 13, 14, 19, 21, 24, 2, 30)
# a cap of 26 rows splits an epoch's ragged run at batch 8 into the 2-, 3- and 5-row steps and the 6-row one
SPLIT_RUN = 26


@pytest.mark.parametrize(
    "cap, chain",
    [(None, False), (SPLIT_RUN, False), (None, True), (SPLIT_RUN, True)],
    ids=["None", str(SPLIT_RUN), "None-chain", f"{SPLIT_RUN}-chain"],
)
@pytest.mark.parametrize("batch", [8, 32])
@pytest.mark.parametrize("lr", [0.1, 1e306])  # 1e306 diverges every device to NaN
@pytest.mark.parametrize("l2", [0.0, 0.05])
def test_train_many_ragged_steps_in_one_pass_keep_every_devices_bits(monkeypatch, l2, lr, batch, cap, chain):
    if cap is not None:
        monkeypatch.setattr(learning, "_GATHER_ROWS", cap)
    if chain:
        monkeypatch.setattr(learning, "_CHAIN_ROWS", 0)
    weights, datasets = _fleet(PASS_SIZES, seed=batch, scale=50.0 if lr > 1 else 1.0)
    cfg = TrainConfig(epochs=3, batch_size=batch, learning_rate=lr, l2_reg=l2)
    ids = list(range(len(PASS_SIZES)))
    with np.errstate(all="ignore"):
        got = _assert_each_device_trains_as_alone(weights, datasets, cfg, [70 + i for i in ids], ids)
    assert all(math.isnan(u.final_loss) for u in got) == (lr > 1)


@pytest.mark.parametrize("cap, runs", [(None, 1), (SPLIT_RUN, 2)])
def test_train_many_runs_one_pass_per_full_step_and_per_ragged_run(monkeypatch, cap, runs):
    if cap is not None:
        monkeypatch.setattr(learning, "_GATHER_ROWS", cap)
    passes = []
    kernel = learning._pass_gradients

    def spy(w, x, onehot, steps, l2_reg):
        passes.append(steps)
        return kernel(w, x, onehot, steps, l2_reg)

    monkeypatch.setattr(learning, "_pass_gradients", spy)
    weights, datasets = _fleet(PASS_SIZES, seed=1)
    epochs, batch = 3, 8
    train_many(ModelParams(weights), datasets, TrainConfig(epochs=epochs, batch_size=batch), list(range(len(PASS_SIZES))))
    span = max(PASS_SIZES) // batch
    assert len(passes) == epochs * (span + runs)
    per_epoch = len(passes) // epochs
    for e in range(epochs):
        epoch = passes[e * per_epoch : (e + 1) * per_epoch]
        assert epoch[:span] == [[(7, 8)], [(4, 8)], [(2, 8)]]  # each full step alone
        # the ragged steps in ascending length, as _lockstep_steps orders them, split only by the cap
        assert [step for steps in epoch[span:] for step in steps] == [(1, 2), (3, 3), (3, 5), (3, 6)]
        assert all(sum(g * n for g, n in steps) <= (cap or learning._GATHER_ROWS) for steps in epoch[span:])
    passes.clear()
    loss_and_grad(weights, datasets[3].features, datasets[3].labels, 0.0)
    assert passes == [[(1, 11)]]  # one step of one device: the same kernel


def _special(rng, shape):
    """Floats drawn from finite values, both infinities and NaNs of either sign with assorted payloads."""
    nans = (rng.integers(1, 2**51, size=8, dtype=np.uint64) | np.uint64(0x7FF8 << 48)).view(float)
    pool = np.concatenate([nans, -nans, [np.inf, -np.inf, 0.0, -0.0], rng.standard_normal(16)])
    return rng.choice(pool, size=shape)


@pytest.mark.parametrize("n_classes", [4, 9])  # 9 classes fill a SIMD vector of 8 and leave a tail
@pytest.mark.parametrize("l2", [0.0, 0.05])
def test_pass_kernel_gives_each_step_the_bits_of_the_step_alone(l2, n_classes):
    # NaNs of both signs meet in the bias and penalty additions; numpy keeps another operand's
    # NaN in a vector than in a loop's tail, so those additions must run step by step
    steps, dim = [(1, 2), (2, 3), (1, 5), (3, 6), (2, 1)], 5
    for seed in range(20):
        rng = np.random.default_rng(seed)
        n_dev, n_rows = sum(g for g, _ in steps), sum(g * n for g, n in steps)
        w = _special(rng, (n_dev, n_classes, dim + 1))
        x = _special(rng, (n_rows, dim))
        onehot = np.eye(n_classes)[rng.integers(0, n_classes, size=n_rows)]
        with np.errstate(all="ignore"):
            got = learning._pass_gradients(w, x, onehot, steps, l2)
            g = r = 0
            for devices, n in steps:
                alone = learning._pass_gradients(
                    w[g : g + devices].copy(), x[r : r + devices * n].copy(), onehot[r : r + devices * n].copy(), [(devices, n)], l2
                )
                assert np.array_equal(_bits(got[g : g + devices]), _bits(alone)), (seed, devices, n)
                g, r = g + devices, r + devices * n


def _edge_values(rng, shape):
    """Normal floats with a random share of NaNs of both signs and assorted payloads, ±0, ±inf, 5e-324 and ±1e308."""
    nans = (rng.integers(1, 2**51, size=4, dtype=np.uint64) | np.uint64(0x7FF8 << 48)).view(float)
    pool = np.concatenate([nans, -nans, [0.0, -0.0, np.inf, -np.inf, 5e-324, 1e308, -1e308]])
    values = rng.standard_normal(shape)
    edge = rng.random(shape) < rng.choice([0.0, 0.05, 0.5])
    values[edge] = rng.choice(pool, size=int(edge.sum()))
    return values


def _reduce_softmax(logits):
    """The row max and row sum as numpy's reduces along axis 1: shifted logits and their exp row sums."""
    shifted = logits.copy()
    shifted -= np.maximum.reduce(shifted, axis=1, keepdims=True)
    return shifted, np.add.reduce(np.exp(shifted), axis=1)


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(2, 10),
    rows=st.sampled_from([1, 7, learning._CHAIN_ROWS - 1, learning._CHAIN_ROWS, learning._CHAIN_ROWS + 45]),
    seed=st.integers(0, 2**32 - 1),
)
@example(k=6, rows=learning._CHAIN_ROWS, seed=0)
@example(k=9, rows=learning._CHAIN_ROWS, seed=0)  # from 9 terms the max reduce breaks row 0's ±0 tie otherwise than a chain
def test_column_chains_keep_the_bits_of_the_row_reduces(k, rows, seed):
    rng = np.random.default_rng(seed)
    logits = _edge_values(rng, (rows, k))
    logits[0] = -1.0
    logits[0, :2] = (-0.0, 0.0)  # a tie of ±0 as a row's max
    with np.errstate(all="ignore"):
        want, want_z = _reduce_softmax(logits)
        shifted = logits.copy()
        assert np.array_equal(_bits(learning._shifted_exp_sums(shifted)), _bits(want_z))
        assert np.array_equal(_bits(shifted), _bits(want))
        probs = logits.copy()  # in place, as the gradient kernel calls it
        assert np.array_equal(_bits(learning._shifted_exp_sums(probs, out=probs)), _bits(want_z))
        assert np.array_equal(_bits(probs), _bits(np.exp(want)))
        # a row alone takes the reduces; inside a block it has the same bits
        for i in {0, rows - 1, *np.flatnonzero(np.isnan(want_z))[:2].tolist()}:
            alone, alone_z = _reduce_softmax(logits[i : i + 1])
            assert np.array_equal(_bits(alone[0]), _bits(shifted[i])) and _bits(alone_z[0]) == _bits(want_z[i])
        # the callers give the reduces' bits with every block on the chains, with none and at the threshold
        dim = 3
        features, weights = _edge_values(rng, (rows, dim)), _edge_values(rng, k * (dim + 1))
        labels = rng.integers(0, k, size=rows)
        w_mat, bias = learning._unpack(weights, dim)
        want, want_z = _reduce_softmax(features @ w_mat.T + bias)
        results = []
        for chain_rows in (0, rows + 1, learning._CHAIN_ROWS):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(learning, "_CHAIN_ROWS", chain_rows)
                got, got_z = learning._softmax(features, w_mat, bias)
                accuracy, loss = evaluate(ModelParams(weights), _dataset(features, labels))
                results.append((accuracy, _bits(loss), _bits(learning._penalized_loss(weights, features, labels, 0.05))))
            assert np.array_equal(_bits(got), _bits(want)) and np.array_equal(_bits(got_z), _bits(want_z))
    assert results[0] == results[1] == results[2]


def test_one_hot_subtraction_is_bitwise_subtracting_one_at_each_label():
    nan_payloads = np.array([0x7FF8000000000123, 0xFFF8000000000456], dtype=np.uint64).view(float)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, *nan_payloads, 1.0, -1.0, 5e-324, 1e308])
    rng = np.random.default_rng(0)
    probs = rng.choice(special, size=(3, 40, 5))
    labels = rng.integers(0, 5, size=(3, 40))
    fancy = probs.copy()
    fancy.reshape(labels.size, -1)[np.arange(labels.size), labels.ravel()] -= 1.0
    onehot = probs.copy()
    onehot -= np.eye(5)[labels]
    assert np.array_equal(_bits(onehot), _bits(fancy))


def test_train_many_peak_memory_stays_near_the_per_step_gather():
    # a post-training round as post_fleet trains it; gathering each step on its own peaked at
    # 3,193,280 bytes on this input (numpy 2.4, Python 3.11), and a run of steps may add 10%
    sizes = [int(n) for n in np.random.default_rng(4).lognormal(math.log(20), 1.0, size=300).round().clip(1, None)]
    weights, datasets = _fleet(sizes, n_classes=6, dim=16, seed=5)
    cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.1)
    train_many(ModelParams(weights), datasets, cfg, list(range(300)))  # first-call allocations are not the round's
    tracemalloc.start()
    try:
        train_many(ModelParams(weights), datasets, cfg, list(range(300)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.10 * 3_193_280


@settings(max_examples=50, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 300), min_size=1, max_size=20),
    batch=st.integers(1, 33),
    epochs=st.integers(1, 3),
)
def test_lockstep_steps_schedule_every_device_step_once_in_order(sizes, batch, epochs):
    sizes = np.array(sizes)
    device, first, length, edges = _lockstep_steps(sizes, batch, epochs)
    starts = epochs * (np.cumsum(sizes) - sizes)
    want = sorted(
        (i, int(starts[i]) + e * n + lo, min(batch, n - lo))
        for i, n in enumerate(sizes.tolist())
        for e in range(epochs)
        for lo in range(0, n, batch)
    )
    assert sorted(zip(device.tolist(), first.tolist(), length.tolist())) == want
    for i in range(sizes.size):
        assert np.all(np.diff(first[device == i]) > 0)  # each device's steps in its own order
    assert edges[0] == 0 and edges[-1] == device.size and all(lo < hi for lo, hi in zip(edges, edges[1:]))
    for lo, hi in zip(edges, edges[1:]):
        assert np.all(length[lo:hi] == length[lo])
        assert np.unique(device[lo:hi]).size == hi - lo
    ragged_lengths = {n % batch for n in sizes.tolist()} - {0}
    # no schedule has fewer steps: each ragged length needs a step of its own in every epoch, and
    # the largest device needs all its full ones besides, so the slot count is the least possible
    assert len(edges) - 1 == epochs * (int((sizes // batch).max()) + len(ragged_lengths))


def test_lockstep_steps_of_a_post_training_fleet():
    # a post-training round trains every eligible device; grouping by global step ran 134 stacked steps here
    sizes = np.random.default_rng(0).lognormal(math.log(20), 0.75, size=300).round().clip(1, None).astype(int)
    *_, edges = _lockstep_steps(sizes, 16, 2)
    assert len(edges) - 1 <= 60


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 300), min_size=1, max_size=12),
    epochs=st.integers(1, 3),
    seed=st.integers(0, 2**32 - 1),
    preset=st.booleans(),
)
@example(sizes=[1], epochs=3, seed=0, preset=True)
@example(sizes=[1, 300, 1], epochs=2, seed=7, preset=False)
def test_shuffled_rows_are_bitwise_the_per_device_permutations(sizes, epochs, seed, preset):
    ids = list(range(len(sizes)))
    seeds = list(seeding.derived_seeds(seed, seeding.TRAINING, ids, 3)) if preset else [seed + i for i in ids]
    got = learning._shuffled_rows(np.array(sizes), seeds, epochs)
    want = oracles.reference_shuffled_rows(np.array(sizes), seeds, epochs)
    assert got.dtype == want.dtype == np.int64
    assert np.array_equal(got, want)


def test_train_many_takes_the_engines_preset_seeds():
    weights, datasets = _fleet(RAGGED, seed=3)
    ids = [9, 4, 7, 0, 2, 5, 8]
    presets = list(seeding.derived_seeds(5, seeding.TRAINING, ids, 2))
    by_int = [seeding.derive_seed(5, seeding.TRAINING, i, 2) for i in ids]
    cfg = TrainConfig(epochs=3, batch_size=7, learning_rate=0.1)
    got = _assert_each_device_trains_as_alone(weights, datasets, cfg, by_int, ids)
    for a, b in zip(got, _uploads(weights, datasets, cfg, presets, ids)):
        assert np.array_equal(_bits(a.params.weights), _bits(b.params.weights))
        assert _bits(a.final_loss) == _bits(b.final_loss)


# "chain": every pass takes the column chains and their NaN fallback, as _CHAIN_ROWS = 0 makes it
@pytest.mark.parametrize(
    "l2, chain", [(0.0, False), (0.05, False), (0.0, True), (0.05, True)], ids=["0.0", "0.05", "0.0-chain", "0.05-chain"]
)
def test_train_many_diverging_devices_keep_their_nan_bits(monkeypatch, l2, chain):
    if chain:
        monkeypatch.setattr(learning, "_CHAIN_ROWS", 0)
    sizes = [int(n) for n in np.random.default_rng(1).integers(1, 40, size=24)]
    weights, datasets = _fleet(sizes, seed=2, scale=50.0)
    cfg = TrainConfig(epochs=2, batch_size=4, learning_rate=1e306, l2_reg=l2)
    with np.errstate(all="ignore"):
        got = _assert_each_device_trains_as_alone(weights, datasets, cfg, list(range(len(sizes))), list(range(len(sizes))))
    assert all(math.isnan(u.final_loss) for u in got)


def test_train_many_device_is_the_same_alone_in_a_crowd_and_in_any_order():
    sizes = [int(n) for n in np.random.default_rng(4).lognormal(math.log(20), 1.0, size=300).round().clip(1, None)]
    weights, datasets = _fleet(sizes, n_classes=6, dim=16, seed=5)
    cfg = TrainConfig(epochs=2, batch_size=16, learning_rate=0.1)
    seeds, ids = list(range(1000, 1300)), list(range(300))
    crowd = _uploads(weights, datasets, cfg, seeds, ids)
    perm = np.random.default_rng(6).permutation(300).tolist()
    shuffled = _uploads(weights, [datasets[i] for i in perm], cfg, [seeds[i] for i in perm], perm)
    for upd in shuffled:
        assert np.array_equal(_bits(upd.params.weights), _bits(crowd[upd.device_id].params.weights))
        assert _bits(upd.final_loss) == _bits(crowd[upd.device_id].final_loss)
    for i in (0, 17, 299):
        (alone,) = _uploads(weights, [datasets[i]], cfg, [seeds[i]], [i])
        assert np.array_equal(_bits(alone.params.weights), _bits(crowd[i].params.weights))
        assert _bits(alone.final_loss) == _bits(crowd[i].final_loss)


def test_train_many_of_no_devices_is_empty():
    assert train_many(init_model(2, 2, seed=0), [], TrainConfig(), []).shape == (0, 6)


def test_train_many_returns_one_read_only_c_contiguous_stack_of_each_devices_model():
    weights, datasets = _fleet(RAGGED, seed=8)
    cfg = TrainConfig(epochs=2, batch_size=7, learning_rate=0.1)
    stack = train_many(ModelParams(weights), datasets, cfg, list(range(len(RAGGED))))
    assert stack.shape == (len(RAGGED), weights.size) and stack.dtype == np.float64
    assert stack.flags.c_contiguous and not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0] = 0.0
    for i, data in enumerate(datasets):
        (alone,) = train_many(ModelParams(weights), [data], cfg, [i])
        assert np.array_equal(_bits(stack[i]), _bits(alone))


@pytest.mark.parametrize("position, width", [(0, 4), (2, 4), (2, 3)])  # 4 fits no model of 24 weights, 3 fits one
def test_train_many_names_a_dataset_of_the_wrong_width(position, width):
    weights, datasets = _fleet([3, 5, 4])
    datasets[position] = _dataset(np.zeros((4, width)), [0, 1, 2, 3])
    with pytest.raises(ShapeMismatchError, match=f"dataset {position}"):
        train_many(ModelParams(weights), datasets, TrainConfig(), [0, 1, 2])


@pytest.mark.parametrize("position", [0, 2])
def test_train_many_names_a_dataset_with_a_label_the_model_lacks(position):
    weights, datasets = _fleet([3, 5, 4], n_classes=4)
    datasets[position] = _dataset(np.zeros((4, 5)), [0, 1, 4, 3])
    with pytest.raises(ShapeMismatchError, match=f"dataset {position}"):
        train_many(ModelParams(weights), datasets, TrainConfig(), [0, 1, 2])
    with pytest.raises(ShapeMismatchError, match="dataset 0"):
        local_train(ModelParams(weights), datasets[position], TrainConfig())


def test_train_many_refuses_an_empty_dataset_among_others():
    weights, datasets = _fleet([3, 5])
    empty = LocalDataset("classification", np.zeros((0, 5)), np.zeros(0, dtype=int))
    with pytest.raises(EmptyDatasetError):
        train_many(ModelParams(weights), [*datasets, empty], TrainConfig(), [0, 1, 2])


# ------------------------------------------------------------------ evaluate


def test_evaluate_zero_weights_gives_log_k_loss():
    data = _dataset(np.random.default_rng(0).standard_normal((50, 4)), np.tile([0, 1, 2], 17)[:50])
    model = ModelParams(np.zeros(3 * 5))
    _, loss = evaluate(model, data)
    assert loss == pytest.approx(math.log(3), rel=1e-12)


def test_evaluate_random_init_near_chance():
    rng = np.random.default_rng(12)
    ds = _dataset(rng.standard_normal((200, 6)), np.tile([0, 1], 100))
    accuracy, _ = evaluate(init_model(6, 2, seed=5), ds)
    assert accuracy == 0.47  # measured once with this seed, then frozen
    assert 0.3 <= accuracy <= 0.7


def test_evaluate_perfect_model_reaches_full_accuracy():
    # two classes far apart along the first axis, weights along that axis
    features = np.vstack([np.full((20, 2), -5.0), np.full((20, 2), 5.0)])
    labels = np.repeat([0, 1], 20)
    weights = np.array([-1.0, 0.0, 0.0, 1.0, 0.0, 0.0])  # class blocks (w|b)
    accuracy, _ = evaluate(ModelParams(weights), _dataset(features, labels))
    assert accuracy == 1.0


def test_evaluate_empty_errors():
    with pytest.raises(EmptyDatasetError):
        evaluate(init_model(2, 2, seed=0), LocalDataset("classification", np.zeros((0, 2)), np.zeros(0, dtype=int)))


# ---------------------------------------------------------------- aggregation


def test_fedavg_weighted_mean_anchor():
    updates = [_update(0, [1.0], 1), _update(1, [3.0], 3)]
    merged = aggregate_fedavg(updates)
    assert merged.weights[0] == pytest.approx(2.5, abs=1e-12)


def test_fedavg_single_update_unchanged():
    w = np.random.default_rng(0).standard_normal(6)
    merged = aggregate_fedavg([_update(4, w, 17)])
    assert np.array_equal(merged.weights, w)


def test_fedavg_permutation_invariant_bitwise():
    rng = np.random.default_rng(3)
    updates = [_update(i, rng.standard_normal(8), int(rng.integers(1, 50))) for i in range(5)]
    a = aggregate_fedavg(updates)
    b = aggregate_fedavg(list(reversed(updates)))
    assert np.array_equal(a.weights, b.weights)


def test_fedavg_errors():
    with pytest.raises(NoUpdatesError):
        aggregate_fedavg([])
    with pytest.raises(ShapeMismatchError):
        aggregate_fedavg([_update(0, [1.0, 2.0], 5), _update(1, [1.0], 5)])


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_fedavg_is_convex_combination(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    updates = [_update(i, rng.uniform(-2, 2, size=5), int(rng.integers(1, 100))) for i in range(k)]
    merged = aggregate_fedavg(updates)
    stacked = np.vstack([u.params.weights for u in updates])
    assert np.all(merged.weights <= stacked.max(axis=0) + 1e-12)
    assert np.all(merged.weights >= stacked.min(axis=0) - 1e-12)


def test_loss_weighted_anchor():
    # equal sizes, losses (1, 2), q = 1: weights 1/3 and 2/3
    updates = [_update(0, [0.0], 10, loss=1.0), _update(1, [3.0], 10, loss=2.0)]
    merged = aggregate_loss_weighted(updates, q=1.0)
    assert merged.weights[0] == pytest.approx(2.0, rel=1e-12)


def test_loss_weighted_q_zero_is_exactly_fedavg():
    rng = np.random.default_rng(9)
    updates = [_update(i, rng.standard_normal(7), int(rng.integers(1, 40)), loss=float(rng.uniform(0, 3))) for i in range(4)]
    a = aggregate_loss_weighted(updates, q=0.0)
    b = aggregate_fedavg(updates)
    assert np.array_equal(a.weights, b.weights)


def test_loss_weighted_degenerate_weights():
    updates = [_update(0, [1.0], 10, loss=0.0), _update(1, [2.0], 10, loss=0.0)]
    with pytest.raises(DegenerateWeightsError):
        aggregate_loss_weighted(updates, q=2.0)


@pytest.mark.parametrize(
    "updates, message",
    [
        # 1e200 ** 2 leaves the float range, where Python's float power raises OverflowError
        ([Update(ModelParams(np.array([1.0])), 1, 1e200, 0), Update(ModelParams(np.array([3.0])), 3, 1.0, 1)], "device 0's"),
        # 1e154 ** 2 is finite, and 3 times it is inf
        ([_update(0, [1.0], 1), _update(1, [3.0], 3, loss=1e154)], "device 1's"),
        # each weight is finite, and their sum is not
        ([_update(0, [1.0], 1, loss=1e154), _update(1, [3.0], 1, loss=1.3e154)], "sum"),
    ],
)
def test_loss_weighted_refuses_a_weight_that_overflows(updates, message):
    with pytest.raises(DegenerateWeightsError, match=message):
        aggregate_loss_weighted(updates, q=2.0)


def test_loss_weighted_reads_a_diverged_loss_without_a_numpy_warning():
    # ||W||^2 of weights near 1e300 overflows inside the upload's loss, which is NaN; the
    # overflow warning, an error under warnings-as-errors, must not end the aggregation first
    weights, features, labels = _sgd_problem(20, 3, 4, seed=7)
    data = _dataset(features, labels)
    updates = [upload(ModelParams(weights), data, 0), upload(ModelParams(weights * 1e300), data, 1)]
    with pytest.raises(DegenerateWeightsError, match=r"device 1's aggregation weight 20 \* nan \*\* 1.0 is NaN"):
        aggregate_loss_weighted(updates, q=1.0)


@pytest.mark.parametrize("loss", [math.nan, -math.nan])
def test_loss_weighted_names_the_device_whose_weight_is_nan(loss):
    updates = [_update(0, [1.0], 4, loss=2.0), Update(ModelParams(np.array([3.0])), 7, loss, 5)]
    with pytest.raises(DegenerateWeightsError, match=r"device 5's aggregation weight 7 \* nan \*\* 0.5 is NaN"):
        aggregate_loss_weighted(updates, q=0.5)


# NaNs of both signs, both infinities, both zeros, the least subnormal and a loss near the float maximum
ODD_LOSSES = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 1.7e308]


def test_q_zero_weights_are_bitwise_n_times_loss_to_the_zeroth():
    sizes = [1, 7, 3, 2**40, 5, 12, 1, 9]
    updates = [Update(ModelParams(np.eye(len(sizes))[i]), n, loss, i) for i, (n, loss) in enumerate(zip(sizes, ODD_LOSSES))]
    want = np.array(oracles.qffl_weights(sizes, ODD_LOSSES, 0.0))
    # unit-vector models: the merged model is the weights over their sum, bit for bit
    merged = aggregate_loss_weighted(updates, 0.0)
    assert np.array_equal(_bits(merged.weights), _bits(want / want.sum()))


@pytest.mark.parametrize("scale", [1.0, 1e154, 1e300, math.nan])  # 1e154 and above: ||W||^2 overflows, and 0 * inf is NaN
def test_upload_computes_its_loss_on_first_read_bitwise_the_eager_loss(monkeypatch, scale):
    weights, features, labels = _sgd_problem(20, 3, 4, seed=7)
    params, data = ModelParams(weights * scale), _dataset(features, labels)
    calls = []
    penalized_loss = learning._penalized_loss

    def counted(*args):
        calls.append(args)
        return penalized_loss(*args)

    monkeypatch.setattr(learning, "_penalized_loss", counted)
    with np.errstate(all="ignore"):
        eager = penalized_loss(params.weights, features, labels, 0.0)
        upd = upload(params, data, 3)
        assert upd.params is params and (upd.n_samples, upd.device_id, len(calls)) == (20, 3, 0)
        first, second = upd.final_loss, upd.final_loss
    assert len(calls) == 1
    assert _bits(first) == _bits(second) == _bits(eager)
    assert math.isnan(eager) == (scale != 1.0)


def test_updates_stay_frozen():
    weights, features, labels = _sgd_problem(5, 2, 3, seed=1)
    uploaded = upload(ModelParams(weights), _dataset(features, labels), 0)
    for upd in (_update(0, [1.0], 1), uploaded):
        with pytest.raises(FrozenInstanceError):
            upd.final_loss = 2.0
        with pytest.raises(FrozenInstanceError):
            upd.n_samples = 2


def test_train_config_validation():
    with pytest.raises(Exception):
        TrainConfig(epochs=0)
    with pytest.raises(Exception):
        TrainConfig(batch_size=0)
    with pytest.raises(Exception):
        TrainConfig(learning_rate=-0.1)
