"""Brute-force references for the package's row-wise and blocked code paths."""

import csv
import math

import numpy as np

from ideal_al import augment, propagator, selector
from ideal_al import loop as loop_mod
from ideal_al.data import Dataset
from ideal_al.errors import DataError, UsageError
from ideal_al.model import PROB_FLOOR, kl_rows, train_step


def score_pool_whole(loop, rng):
    """`ActiveLearningLoop._score_pool` as one pass over the whole pool: every
    (n * k_aug, width) intermediate at once, the VAT normals in one draw."""
    cfg, model = loop.config, loop.model
    unlabeled = loop.pool.labels < 0
    ids = loop.pool.ids[unlabeled]
    X = loop.pool.features[unlabeled]
    P_orig = model.predict(X)
    A = augment.coarse_augment_batch(X, cfg.k_aug, cfg.delta, rng)
    flat = A.reshape(-1, A.shape[-1])
    P_bar_flat = model.predict(flat)
    P_bar = P_bar_flat.reshape(len(ids), cfg.k_aug, -1)

    if cfg.gamma == 0:
        in_coa = np.zeros(len(ids))
    else:
        in_coa = selector.coarse_inconsistency(
            np.concatenate([P_orig[:, None, :], P_bar], axis=1))

    if cfg.gamma == 1:
        in_fin = np.zeros(len(ids))
    else:
        R, _ = vat_perturbation_reference(
            model, flat, P_bar_flat, cfg.epsilon, cfg.xi, rng.normal(size=flat.shape))
        P_hat_flat = model.predict(flat + R)
        in_fin = kl_rows(P_bar_flat, P_hat_flat).reshape(len(ids), cfg.k_aug).sum(axis=1)

    in_total = selector.total_inconsistency(
        selector.percentiles(in_coa), selector.percentiles(in_fin), cfg.gamma)
    return selector.Scores(ids=ids, in_total=in_total,
                           entropy=selector.entropy_rows(P_orig), reps=X)


def score_pool_reference(loop, rng):
    """`ActiveLearningLoop._score_pool` as its blocks once ran, one after
    another over the same `_row_blocks`: four forward passes a block (its
    rows, their coarse variants, the VAT step's own probe pass, the perturbed
    variants), each a product of its own, the coarse variants drawn by
    `coarse_augment_batch_reference`."""
    cfg, model = loop.config, loop.model
    unlabeled = loop.pool.labels < 0
    ids = loop.pool.ids[unlabeled]
    X = loop.pool.features[unlabeled]
    n, k = len(ids), cfg.k_aug
    A = coarse_augment_batch_reference(X, k, cfg.delta, rng)
    in_coa, in_fin, ent = np.zeros(n), np.zeros(n), np.empty(n)
    for s, e in loop_mod._row_blocks(n, loop_mod.SCAN_ROWS):
        P_orig = _forward_reference(model, X[s:e])[0][-1]
        flat = A[s:e].reshape(-1, X.shape[1])
        P_bar = _forward_reference(model, flat)[0][-1]
        if cfg.gamma > 0:
            in_coa[s:e] = selector.coarse_inconsistency(np.concatenate(
                [P_orig[:, None, :], P_bar.reshape(e - s, k, -1)], axis=1))
        if cfg.gamma < 1:
            R, _ = vat_perturbation_reference(model, flat, P_bar, cfg.epsilon, cfg.xi,
                                              rng.normal(size=flat.shape))
            P_hat = _forward_reference(model, flat + R)[0][-1]
            in_fin[s:e] = kl_rows(P_bar, P_hat).reshape(e - s, k).sum(axis=1)
        ent[s:e] = selector.entropy_rows(P_orig)
    in_total = selector.total_inconsistency(
        selector.percentiles(in_coa), selector.percentiles(in_fin), cfg.gamma)
    return selector.Scores(ids=ids, in_total=in_total, entropy=ent, reps=X)


def entropy_records_whole(loop):
    """`ActiveLearningLoop._entropy_records` as one predict over the pool."""
    unlabeled = loop.pool.labels < 0
    X = loop.pool.features[unlabeled]
    return selector.Scores(ids=loop.pool.ids[unlabeled], in_total=np.zeros(len(X)),
                           entropy=selector.entropy_rows(loop.model.predict(X)), reps=X)


def accuracy_whole(loop):
    """`ActiveLearningLoop.accuracy` as one predict over the test set."""
    ds = loop.test_data
    return float((loop.model.predict(ds.features).argmax(axis=1) == ds.labels).mean())


def density_factors_reference(reps):
    """`selector.density_factors` with the unit rows built in a zeroed array
    and summed over a boolean-indexed copy, for every input."""
    norms = np.linalg.norm(reps, axis=1)
    good = norms > selector.NORM_FLOOR
    unit = np.zeros_like(reps)
    unit[good] = reps[good] / norms[good, None]
    m_eff = max(int(good.sum()), 1)
    mean_unit = unit[good].sum(axis=0) / m_eff
    factors = unit @ mean_unit
    factors[~good] = 0.0
    return factors


def coarse_augment_batch_reference(X, k, delta, rng):
    """`augment.coarse_augment_batch` with every transform applied to a copy
    of the repeated rows and one whole-array sup-norm check at the end: the
    same draws in the same order."""
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    m = n * k
    base = np.repeat(X, k, axis=0)
    choice = rng.integers(len(augment.TRANSFORM_NAMES), size=m)
    if d == 1:
        choice[choice == 0] = 2
    out = base.copy()

    roll_rows = np.where(choice == 0)[0]
    if roll_rows.size:
        shifts = rng.integers(1, d, size=roll_rows.size)
        cols = (np.arange(d)[None, :] - shifts[:, None]) % d
        out[roll_rows] = base[roll_rows][np.arange(roll_rows.size)[:, None], cols]

    flip_rows = np.where(choice == 1)[0]
    if flip_rows.size:
        lo = rng.integers(0, d, size=flip_rows.size)
        hi = rng.integers(lo + 1, d + 1)
        cols = np.arange(d)[None, :]
        mask = (cols >= lo[:, None]) & (cols < hi[:, None])
        block = base[flip_rows]
        out[flip_rows] = np.where(mask, -block, block)

    jit_rows = np.where(choice == 2)[0]
    if jit_rows.size:
        u = rng.uniform(-1.0, 1.0, size=(jit_rows.size, d))
        m_abs = np.maximum(np.abs(u).max(axis=1, keepdims=True), 1e-12)
        out[jit_rows] = base[jit_rows] + u * (2.0 * delta / m_abs)

    # enforce the sup-norm > delta contract uniformly
    close = np.abs(out - base).max(axis=1) <= delta
    idx = np.where(close)[0]
    if idx.size:
        u = rng.uniform(-1.0, 1.0, size=(idx.size, d))
        m_abs = np.maximum(np.abs(u).max(axis=1, keepdims=True), 1e-12)
        out[idx] = out[idx] + u * (2.0 * delta / m_abs)
    return out.reshape(n, k, d)


def labeled_distances_whole(reps, labeled_reps):
    """Each row's distance to its nearest labeled row, from the whole
    C-contiguous (d, L, n) difference array, its squares summed over axis 0:
    one feature at a time (a transposed view would be summed pairwise along
    its contiguous feature axis)."""
    L = np.atleast_2d(np.asarray(labeled_reps, dtype=float))
    diff = np.ascontiguousarray(reps.T[:, None, :] - L.T[:, :, None])
    d2 = (diff ** 2).sum(axis=0)
    return np.sqrt(d2.min(axis=0))


def coreset_select_whole(scores, budget, labeled_reps):
    """`baseline_select("coreset", ...)` with the labeled-set distances taken
    from the whole difference array, and each pick's distances from the
    C-contiguous (d, n) differences summed over axis 0."""
    reps_t = np.ascontiguousarray(scores.reps.T)
    min_dist = labeled_distances_whole(scores.reps, labeled_reps)
    chosen = []
    for _ in range(budget):
        i = int(np.argmax(min_dist))
        chosen.append(int(scores.ids[i]))
        dist = np.sqrt(((reps_t - reps_t[:, i:i + 1]) ** 2).sum(axis=0))
        min_dist = np.minimum(min_dist, dist)
        min_dist[i] = -np.inf
    return chosen


def _forward_reference(model, X):
    """A plain forward pass, (activations, pre-activations), the softmax
    taken with numpy's row reductions."""
    acts, zs = [np.asarray(X, dtype=float)], []
    for i, (W, b) in enumerate(zip(model.weights, model.biases)):
        z = acts[-1] @ W + b
        zs.append(z)
        if i == len(model.weights) - 1:
            e = np.exp(z - z.max(axis=1, keepdims=True))
            acts.append(e / e.sum(axis=1, keepdims=True))
        else:
            acts.append(np.maximum(z, 0.0))
    return acts, zs


def _unit_rows_reference(V):
    """Each row of V over its L2 norm, e_0 for a row whose norm is not above
    1e-12; returns (unit rows, norms)."""
    norms = np.linalg.norm(V, axis=1)
    good = norms > 1e-12
    e0 = np.zeros_like(V)
    e0[:, 0] = 1.0
    return np.where(good[:, None], V / np.where(good, norms, 1.0)[:, None], e0), norms


def vat_perturbation_reference(model, X_bar, Y_bar, epsilon, xi, normals):
    """`augment.vat_perturbation_batch` as the step once ran on its own:
    unit directions d from `normals` (left as they are), a forward pass of
    its own at X_bar + xi*d and a backward loop of its own to the inputs,
    the gradient rows normalized and scaled to epsilon, a row whose gradient
    vanishes falling back to epsilon*d. Returns (R, degenerate_mask)."""
    D, _ = _unit_rows_reference(np.asarray(normals, dtype=float))
    acts, zs = _forward_reference(model, np.asarray(X_bar, dtype=float) + xi * D)
    delta = acts[-1] - Y_bar
    for i in range(len(model.weights) - 1, -1, -1):
        delta = delta @ model.weights[i].T
        if i > 0:
            delta = delta * (zs[i - 1] > 0)
    G, norms = _unit_rows_reference(delta)
    degenerate = norms < augment.GRAD_NORM_FLOOR
    G[degenerate] = D[degenerate]
    return epsilon * G, degenerate


def _accumulate_reference(model, acts, zs, delta, grads_w, grads_b):
    """Add every layer's weight and bias gradients for the output-logit
    gradient `delta` into the zeroed accumulators, ReLU masks taken from the
    pre-activations."""
    for i in range(len(model.weights) - 1, -1, -1):
        grads_w[i] += acts[i].T @ delta
        grads_b[i] += delta.sum(axis=0)
        if i > 0:
            delta = (delta @ model.weights[i].T) * (zs[i - 1] > 0)


def train_step_two_pass(model, labeled, unlabeled, learning_rate, lambda_u):
    """`model.train_step` as two forward passes: `labeled` and `unlabeled` are
    (X, Y) pairs or None, each traced on its own, supervised gradients
    accumulated first. Shares no forward or backward code with the package.
    Updates the model in place; returns the loss."""
    n_l = 0 if labeled is None else len(labeled[0])
    n_u = 0 if unlabeled is None else len(unlabeled[0])
    if n_l == 0 and n_u == 0:
        raise UsageError("train_step requires a nonempty batch")
    grads_w = [np.zeros_like(w) for w in model.weights]
    grads_b = [np.zeros_like(b) for b in model.biases]
    loss = 0.0
    if n_l:
        Xl, Yl = (np.asarray(v, dtype=float) for v in labeled)
        acts, zs = _forward_reference(model, Xl)
        probs = acts[-1]
        loss += -np.mean(np.sum(Yl * np.log(np.maximum(probs, PROB_FLOOR)), axis=1))
        _accumulate_reference(model, acts, zs, (probs - Yl) / n_l, grads_w, grads_b)
    if n_u:
        Xu, Yu = (np.asarray(v, dtype=float) for v in unlabeled)
        acts, zs = _forward_reference(model, Xu)
        probs = acts[-1]
        loss += lambda_u * float(np.mean((probs - Yu) ** 2))
        g = lambda_u * 2.0 * (probs - Yu) / (probs.shape[1] * n_u)
        delta = probs * (g - np.sum(g * probs, axis=1, keepdims=True))
        _accumulate_reference(model, acts, zs, delta, grads_w, grads_b)
    for i in range(len(model.weights)):
        model.weights[i] -= learning_rate * grads_w[i]
        model.biases[i] -= learning_rate * grads_b[i]
    return float(loss)


def train_phase_reference(loop, rng):
    """`ActiveLearningLoop._train_phase` as each step once ran: the batch
    built by concatenation and four forward passes, `[Xu; variants]`, the
    VAT gradient at the probe rows, the perturbed variants and the mixed
    batch, with the VAT step making its own probe pass
    (`vat_perturbation_reference`)."""
    cfg = loop.config
    if cfg.cold_start:
        loop.model = loop._initial_model()
    pool = loop.pool
    is_labeled = pool.labels >= 0
    Xl_all = pool.features[is_labeled]
    Yl_all = np.eye(loop.dataset.n_classes)[pool.labels[is_labeled]]
    Xu_all = pool.features[~is_labeled]
    n_l = len(Xl_all)
    w = np.asarray(cfg.resolved_weights())
    for _ in range(cfg.train_steps_per_cycle):
        bl = rng.choice(n_l, size=min(cfg.batch_size, n_l),
                        replace=n_l < cfg.batch_size)
        X, Y = Xl_all[bl], Yl_all[bl]
        if len(Xu_all):
            bu = rng.choice(len(Xu_all), size=min(cfg.batch_size, len(Xu_all)),
                            replace=False)
            Xu = Xu_all[bu]
            A = augment.coarse_augment_batch(Xu, cfg.k_aug, cfg.delta, rng)
            flat = A.reshape(-1, A.shape[-1])
            P = loop.model.predict(np.concatenate([Xu, flat]))
            R, _ = vat_perturbation_reference(
                loop.model, flat, P[len(Xu):], cfg.epsilon, cfg.xi,
                rng.normal(size=flat.shape))
            tilde = flat + R
            P_tilde = loop.model.predict(tilde).reshape(len(Xu), cfg.k_aug, -1)
            guessed = propagator.guess_labels_batch(P[:len(Xu)], P_tilde, w)
            X = np.concatenate([X, Xu, tilde])
            Y = np.concatenate([Y, guessed, np.repeat(guessed, cfg.k_aug, axis=0)])
        Xm, Ym, _, _ = propagator.build_training_arrays(X, Y, cfg.alpha, rng)
        train_step(loop.model, Xm, Ym, len(bl), cfg.learning_rate, cfg.lambda_u)


def kl(p, q):
    """KL(p || q) of one pair of distributions, q floored like `kl_rows`."""
    return sum(pi * math.log(pi / max(qi, 1e-12)) for pi, qi in zip(p, q) if pi > 0)


def entropy(p):
    """Shannon entropy (natural log) of one distribution."""
    return -sum(pi * math.log(pi) for pi in p if pi > 0)


def percentile(value, values):
    """Fraction of the population strictly smaller than value."""
    return sum(v < value for v in values) / len(values)


def percentiles_reference(values):
    """`selector.percentiles` as a sort and a left `searchsorted` of every
    value: NaN, sorted last, ranks at the count of non-NaN values."""
    values = np.asarray(values, dtype=float)
    order = np.sort(values)
    return np.searchsorted(order, values, side="left") / values.size


def weighted_average(preds, weights):
    """Weighted average of prediction rows."""
    total = sum(w * np.asarray(p, dtype=float) for p, w in zip(preds, weights))
    return total / sum(weights)


def load_dataset_reference(path):
    """`data.load_dataset` one row at a time: `csv` fields through Python's
    `int`/`float`, checked row by row."""
    ids, labels, rows = [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 3:
            raise DataError(f"{path}: header must have id, label and features")
        d = len(header) - 2
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise DataError(f"{path}:{lineno}: expected {d + 2} fields, got {len(row)}")
            try:
                sid = int(row[0])
                label = int(row[1])
                feats = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if label < 0:
                raise DataError(f"{path}:{lineno}: negative class index {label}")
            if not all(np.isfinite(feats)):
                raise DataError(f"{path}:{lineno}: non-finite feature value")
            ids.append(sid)
            labels.append(label)
            rows.append(feats)
    if not ids:
        raise DataError(f"{path}: no data rows")
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate sample ids")
    return Dataset.from_raw(ids, rows, labels, max(labels) + 1)
