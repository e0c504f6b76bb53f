"""Brute-force reference implementations used as independent oracles.

Everything here is written as directly as possible from the defining
formulas: explicit Python loops, ``math`` scalar ops, no shared code with the
package under test.  Slow on purpose.  There are five exceptions:
``reference_local_train``, the straightforward numpy SGD loop that the fast
path in ``feelsim.learning`` must match bit for bit;
``reference_shuffled_rows``, the per-device ``permutation`` loop whose
shuffles ``feelsim.learning._shuffled_rows`` must match bit for bit;
``reference_partition``, the per-device loop that ``feelsim.datagen.partition``
must match bit for bit, which takes its sizes and quotas from the package,
since only the bookkeeping after them is under test; and
``reference_target_sizes``, the integer size rule whose sizes
``feelsim.datagen._target_sizes`` must match wherever they fit the pool; and
``reference_equalize_completion``, the bisection of all 60 steps whose
shares ``feelsim.network.allocate_bandwidth`` must match bit for bit, which
takes each device's spectral efficiency and compute time from the package.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from feelsim.datagen import _largest_remainder, _target_sizes
from feelsim.errors import InsufficientPoolError
from feelsim.network import channel_rate, compute_time


def shannon_entropy(counts) -> float:
    total = sum(counts)
    h = 0.0
    for c in counts:
        if c > 0:
            p = c / total
            h -= p * math.log(p)
    return h


def gini_simpson(counts) -> float:
    total = sum(counts)
    acc = 0.0
    for c in counts:
        p = c / total
        acc += p * p
    return 1.0 - acc


def _chebyshev(x, i, j, m) -> float:
    return max(abs(x[i + t] - x[j + t]) for t in range(m))


def approximate_entropy(x, m: int, r: float) -> float:
    n = len(x)

    def phi(mm: int) -> float:
        count = n - mm + 1
        total = 0.0
        for i in range(count):
            matches = 0
            for j in range(count):
                if _chebyshev(x, i, j, mm) <= r:
                    matches += 1
            total += math.log(matches / count)
        return total / count

    return phi(m) - phi(m + 1)


def sample_entropy(x, m: int, r: float):
    """Returns -ln(A/B), or None when A or B is zero."""
    n = len(x)
    count = n - m
    a = b = 0
    for i in range(count):
        for j in range(i + 1, count):
            if _chebyshev(x, i, j, m) <= r:
                b += 1
            if _chebyshev(x, i, j, m + 1) <= r:
                a += 1
    if a == 0 or b == 0:
        return None
    return -math.log(a / b)


def euclidean(u, v) -> float:
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(u, v)))


def cosine_dissimilarity(u, v) -> float:
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    dot = sum(a * b for a, b in zip(u, v))
    return 1.0 - max(-1.0, min(1.0, dot / (nu * nv)))


def heat_kernel_dissimilarity(u, v, sigma: float) -> float:
    sq = sum((a - b) ** 2 for a, b in zip(u, v))
    return 1.0 - math.exp(-sq / (2.0 * sigma * sigma))


def mean_pairwise(points, dissim) -> float:
    n = len(points)
    total = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += dissim(points[i], points[j])
            pairs += 1
    return total / pairs


def l21_pairwise_redundancy(groups) -> float:
    """Sum of euclidean norms of pairwise group differences, per pair."""
    n = len(groups)
    if n < 2:
        return 0.0
    total = 0.0
    pairs = 0
    for i in range(n):
        for j in range(i + 1, n):
            total += euclidean(groups[i], groups[j])
            pairs += 1
    return total / pairs


def softmax_ce_loss(weights, features, labels, n_classes: int, l2_reg: float) -> float:
    """Mean cross-entropy (plus L2 on non-bias weights) from first principles.

    ``weights`` is the flat per-class (w | b) block layout.
    """
    n = len(features)
    dim = len(features[0])
    loss = 0.0
    for row, label in zip(features, labels):
        logits = []
        for c in range(n_classes):
            block = weights[c * (dim + 1) : (c + 1) * (dim + 1)]
            logits.append(sum(w * x for w, x in zip(block[:dim], row)) + block[dim])
        mx = max(logits)
        z = sum(math.exp(l - mx) for l in logits)
        loss += -(logits[label] - mx - math.log(z))
    loss /= n
    penalty = 0.0
    for c in range(n_classes):
        block = weights[c * (dim + 1) : (c + 1) * (dim + 1)]
        penalty += sum(w * w for w in block[:dim])
    return loss + 0.5 * l2_reg * penalty


def qffl_weights(sizes, losses, q: float) -> list:
    """q-FFL's unnormalized aggregation weights: n * loss ** q per device."""
    return [n * loss**q for n, loss in zip(sizes, losses)]


def central_difference_gradient(f, w, eps: float = 1e-6):
    grad = []
    w = list(w)
    for i in range(len(w)):
        hi = list(w)
        lo = list(w)
        hi[i] += eps
        lo[i] -= eps
        grad.append((f(hi) - f(lo)) / (2.0 * eps))
    return grad


def jain(xs) -> float:
    s = sum(xs)
    if s == 0:
        return 1.0
    return s * s / (len(xs) * sum(x * x for x in xs))


def reference_loss_and_grad(weights, features, labels, l2_reg: float):
    """Mean softmax cross-entropy plus 0.5 * l2 * ||W||^2, and its flat gradient."""
    n, dim = features.shape
    blocks = weights.reshape(-1, dim + 1)
    w_mat, bias = blocks[:, :dim], blocks[:, dim]
    logits = features @ w_mat.T + bias
    logits = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    z = exp.sum(axis=1)
    ce = float((np.log(z) - logits[np.arange(n), labels]).mean())
    loss = ce + 0.5 * l2_reg * float((w_mat * w_mat).sum())

    probs = exp / z[:, None]
    probs[np.arange(n), labels] -= 1.0
    probs /= n
    grad_w = probs.T @ features + l2_reg * w_mat
    grad_b = probs.sum(axis=0)
    grad = np.hstack([grad_w, grad_b[:, None]]).ravel()
    return loss, grad


def reference_local_train(weights, features, labels, epochs: int, batch_size: int, learning_rate: float, l2_reg: float, seed: int):
    """Plain mini-batch SGD: (final weights, final unpenalized loss)."""
    n = len(labels)
    w = weights.copy()
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            batch = order[start : start + batch_size]
            _, grad = reference_loss_and_grad(w, features[batch], labels[batch], l2_reg)
            w = w - learning_rate * grad
    final_loss, _ = reference_loss_and_grad(w, features, labels, 0.0)
    return w, final_loss


def reference_shuffled_rows(sizes: np.ndarray, seeds: list, epochs: int) -> np.ndarray:
    """Every device's epochs of ``permutation``s from its own ``default_rng(seed)``, in a row,
    each moved to the device's rows of the concatenated data."""
    shuffles = []
    for n, seed in zip(sizes.tolist(), seeds, strict=True):
        rng = np.random.default_rng(seed)
        shuffles += [rng.permutation(n) for _ in range(epochs)]
    order = np.concatenate(shuffles)
    order += np.repeat(np.cumsum(sizes) - sizes, epochs * sizes)
    return order


def reference_equalize_completion(selected: list, cfg, epochs: int) -> dict:
    """The ``equalize_completion`` shares after all 60 bisection steps on the common finish time."""
    band, bits = cfg.total_bandwidth, cfg.model_size_bits
    terms = [(channel_rate(d.channel, 1.0), compute_time(d, d.dataset.n_samples, epochs)) for d in selected]

    def demand(t: float) -> float:
        return functools.reduce(operator.add, (bits / (e * (t - c)) for e, c in terms), 0.0)

    lo = max(c for _, c in terms)
    hi = max(c + bits / (e * (band / len(selected))) for e, c in terms)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if demand(mid) > band:
            lo = mid
        else:
            hi = mid
    raw = [bits / (e * (hi - c)) for e, c in terms]
    scale = band / functools.reduce(operator.add, raw, 0.0)
    return {d.id: share * scale for d, share in zip(selected, raw)}


def largest_remainder(proportions, total: int) -> list:
    """One row's integer quotas summing to ``total``: floor each class, then
    one unit to each of the ``short`` largest remainders, ties toward the
    lower class."""
    ideal = [p * total for p in proportions]
    base = [math.floor(x) for x in ideal]
    short = total - sum(base)
    order = sorted(range(len(ideal)), key=lambda c: (-(ideal[c] - base[c]), c))
    for c in order[:short]:
        base[c] += 1
    return base


def reference_target_sizes(spec, pool_size: int, rng) -> np.ndarray:
    """Sizes in int64: the draw is cast, floored at ``min_size`` and, when it
    sums past the pool, scaled into it and floored again; a floor that still
    overshoots raises.  A draw past the int64 range wraps in the cast (with a
    ``RuntimeWarning``), and a sum past it wraps silently."""
    if spec.size_dist == "balanced":
        sizes = np.full(spec.n_devices, pool_size // spec.n_devices, dtype=np.int64)
    elif spec.size_dist == "lognormal":
        mean_share = pool_size / spec.n_devices
        raw = rng.lognormal(math.log(mean_share), spec.size_sigma, spec.n_devices)
        sizes = np.rint(raw).astype(np.int64)
    else:  # powerlaw
        raw = spec.min_size * (1.0 + rng.pareto(spec.power_exponent, spec.n_devices))
        sizes = np.rint(raw).astype(np.int64)
    sizes = np.maximum(sizes, spec.min_size)
    if sizes.sum() > pool_size:
        scaled = np.floor(sizes * (pool_size / sizes.sum())).astype(np.int64)
        sizes = np.maximum(scaled, spec.min_size)
        if sizes.sum() > pool_size:
            raise InsufficientPoolError(
                f"pool of {pool_size} cannot cover {spec.n_devices} devices at min_size {spec.min_size}"
            )
    return sizes


def fit_sizes(raw, min_size: int, pool_size: int) -> list:
    """A size draw fitted to the pool: round, raise to ``min_size``, scale a
    draw that overshoots into the pool, floor and raise again, then take one
    row at a time off the first largest size until the sizes fit."""
    sizes = [max(round(x), min_size) for x in raw]
    total = sum(sizes)
    if total > pool_size:
        sizes = [max(math.floor(s * (pool_size / total)), min_size) for s in sizes]
    while sum(sizes) > pool_size:
        sizes[sizes.index(max(sizes))] -= 1
    return sizes


def reference_partition(pool, spec, seed: int) -> list:
    """``(features, labels)`` per device: each device pops its quotas off the
    class stacks one row at a time, spills from the first longest stack, and
    takes its duplicates from a concatenated copy."""
    rng = np.random.default_rng(seed)
    n_classes = int(pool.labels.max()) + 1
    sizes = _target_sizes(spec, pool.n_samples, rng)

    if spec.skew == "iid":
        pool_counts = pool.class_counts(n_classes).astype(float)
        proportions = np.tile(pool_counts / pool_counts.sum(), (spec.n_devices, 1))
    else:
        proportions = rng.dirichlet(np.full(n_classes, spec.alpha), size=spec.n_devices)
    quotas = _largest_remainder(proportions, sizes)

    stacks = [list(rng.permutation(np.flatnonzero(pool.labels == c))) for c in range(n_classes)]

    datasets = []
    for dev in range(spec.n_devices):
        size = int(sizes[dev])
        picked = [stacks[c].pop() for c in range(n_classes) for _ in range(min(int(quotas[dev, c]), len(stacks[c])))]
        while len(picked) < size:
            picked.append(max(stacks, key=len).pop())
        rows = np.array(picked, dtype=np.int64)
        rng.shuffle(rows)

        n_dup = int(math.floor(spec.redundancy_factor * size))
        if n_dup > 0:
            kept = rows[: size - n_dup]
            copies = kept[rng.integers(0, kept.size, size=n_dup)]
            rows = np.concatenate([kept, copies])
            rng.shuffle(rows)

        datasets.append((pool.features[rows], pool.labels[rows]))
    return datasets
