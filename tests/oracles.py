"""Brute-force references for the package's row-wise and blocked code paths."""

import math

import numpy as np

from ideal_al import augment, selector
from ideal_al.model import kl_rows


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

    if cfg.disable_coarse:
        in_coa = np.zeros(len(ids))
    else:
        in_coa = selector.coarse_inconsistency(
            np.concatenate([P_orig[:, None, :], P_bar], axis=1))

    if cfg.disable_fine:
        in_fin = np.zeros(len(ids))
    else:
        H_bar = model.tap_representation(flat)
        R, _ = augment.vat_perturbation_batch(
            model, H_bar, P_bar_flat, cfg.epsilon, cfg.xi, rng)
        P_hat_flat = model.predict(H_bar + R, start=model.tap_layer)
        in_fin = kl_rows(P_bar_flat, P_hat_flat).reshape(len(ids), cfg.k_aug).sum(axis=1)

    gamma = cfg.gamma
    if cfg.disable_coarse and not cfg.disable_fine:
        gamma = 0.0
    elif cfg.disable_fine and not cfg.disable_coarse:
        gamma = 1.0
    in_total = selector.total_inconsistency(
        selector.percentiles(in_coa), selector.percentiles(in_fin), gamma)
    return selector.Scores(ids=ids, in_total=in_total,
                           entropy=selector.entropy_rows(P_orig),
                           reps=model.tap_representation(X))


def coreset_select_whole(scores, budget, labeled_reps):
    """`baseline_select("coreset", ...)` with the labeled-set distances taken
    from the whole (n, L, d) difference array."""
    reps = scores.reps
    L = np.atleast_2d(np.asarray(labeled_reps, dtype=float))
    d2 = ((reps[:, None, :] - L[None, :, :]) ** 2).sum(axis=2)
    min_dist = np.sqrt(d2.min(axis=1))
    chosen = []
    for _ in range(budget):
        i = int(np.argmax(min_dist))
        chosen.append(int(scores.ids[i]))
        min_dist = np.minimum(min_dist, np.linalg.norm(reps - reps[i], axis=1))
        min_dist[i] = -np.inf
    return chosen


def kl(p, q):
    """KL(p || q) of one pair of distributions, q floored like `kl_rows`."""
    return sum(pi * math.log(pi / max(qi, 1e-12)) for pi, qi in zip(p, q) if pi > 0)


def entropy(p):
    """Shannon entropy (natural log) of one distribution."""
    return -sum(pi * math.log(pi) for pi in p if pi > 0)


def percentile(value, values):
    """Fraction of the population strictly smaller than value."""
    return sum(v < value for v in values) / len(values)


def weighted_average(preds, weights):
    """Weighted average of prediction rows."""
    total = sum(w * np.asarray(p, dtype=float) for p, w in zip(preds, weights))
    return total / sum(weights)
