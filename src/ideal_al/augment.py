"""Coarse (human-perceivable) and fine (adversarial) augmentation.

Coarse variants come from a small family of vector transforms — coordinate
roll, sign flip of a random block, rescaled uniform jitter — each guaranteed
to displace the source by more than the perceivability threshold delta in
sup norm. Fine variants are virtual-adversarial perturbations of fixed L2
norm epsilon, obtained with a single power-iteration step.
"""

import numpy as np

from .errors import UsageError
from .model import grad_kl_wrt_input_batch

TRANSFORM_NAMES = ("roll", "block_flip", "jitter")

GRAD_NORM_FLOOR = 1e-12


def coarse_augment_batch(X, k, delta, rng):
    """Coarse augmentation: (n, d) -> (n, k, d).

    Each (sample, variant) draws one transform of the family independently;
    a variant still within delta of its source in sup norm gets extra jitter.
    Deterministic given rng.
    """
    X = np.asarray(X, dtype=float)
    if k < 1:
        raise UsageError("need at least one coarse variant")
    if delta <= 0:
        raise UsageError("delta must be positive")
    n, d = X.shape
    m = n * k
    base = np.repeat(X, k, axis=0)
    choice = rng.integers(len(TRANSFORM_NAMES), size=m)
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


def _unit_rows(V):
    norms = np.linalg.norm(V, axis=-1, keepdims=True)
    fallback = np.zeros_like(V)
    fallback[..., 0] = 1.0
    safe = np.where(norms > 1e-12, norms, 1.0)
    return np.where(norms > 1e-12, V / safe, fallback)


def vat_perturbation_batch(model, X_bar, Y_bar, epsilon, xi, rng):
    """Row-wise virtual adversarial perturbations: (R, degenerate_mask).

    One power-iteration step per row: random unit direction d, KL gradient
    evaluated at X + xi*d, normalized and scaled to epsilon. Rows whose
    gradient vanishes fall back to epsilon*d.
    """
    if epsilon <= 0 or xi <= 0:
        raise UsageError("epsilon and xi must be positive")
    X_bar = np.atleast_2d(np.asarray(X_bar, dtype=float))
    Y_bar = np.atleast_2d(np.asarray(Y_bar, dtype=float))
    D = _unit_rows(rng.normal(size=X_bar.shape))
    G = grad_kl_wrt_input_batch(model, X_bar, Y_bar, xi * D)
    norms = np.linalg.norm(G, axis=1)
    degenerate = norms < GRAD_NORM_FLOOR
    direction = np.where(degenerate[:, None], D, _unit_rows(G))
    return epsilon * direction, degenerate
