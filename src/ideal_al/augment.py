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
    choice = rng.integers(len(TRANSFORM_NAMES), size=n * k)
    if d == 1:
        choice[choice == 0] = 2
    out = np.repeat(X, k, axis=0)
    gap = np.empty(n * k)  # each variant's sup-norm distance from its source

    def put(rows, src, moved):
        out[rows] = moved
        moved -= src
        gap[rows] = np.abs(moved, out=moved).max(axis=1)

    rows = np.flatnonzero(choice == 0)
    if rows.size:
        shifts = rng.integers(1, d, size=rows.size)
        cols = (np.arange(d)[None, :] - shifts[:, None]) % d
        src = out[rows]
        put(rows, src, src[np.arange(rows.size)[:, None], cols])

    rows = np.flatnonzero(choice == 1)
    if rows.size:
        lo = rng.integers(0, d, size=rows.size)
        hi = rng.integers(lo + 1, d + 1)
        cols = np.arange(d)[None, :]
        src = out[rows]
        put(rows, src, np.where((cols >= lo[:, None]) & (cols < hi[:, None]), -src, src))

    rows = np.flatnonzero(choice == 2)
    if rows.size:
        u = rng.uniform(-1.0, 1.0, size=(rows.size, d))
        u *= 2.0 * delta / np.maximum(np.abs(u).max(axis=1, keepdims=True), 1e-12)
        src = out[rows]
        u += src
        put(rows, src, u)

    # enforce the sup-norm > delta contract uniformly
    rows = np.flatnonzero(gap <= delta)
    if rows.size:
        u = rng.uniform(-1.0, 1.0, size=(rows.size, d))
        m_abs = np.maximum(np.abs(u).max(axis=1, keepdims=True), 1e-12)
        out[rows] += u * (2.0 * delta / m_abs)
    return out.reshape(n, k, d)


def _unit_rows(V):
    """Scale each row of V to unit L2 norm in place; a row whose norm is not
    above 1e-12 becomes e_0. Returns the norms from before the scaling."""
    norms = np.sqrt((V * V).sum(axis=1))
    bad = ~(norms > 1e-12)
    if bad.any():
        V[bad] = 0.0
        V[bad, 0] = 1.0
        V /= np.where(bad, 1.0, norms)[:, None]
    else:
        V /= norms[:, None]
    return norms


def vat_perturbation_batch(model, X_bar, Y_bar, epsilon, xi, normals):
    """Row-wise virtual adversarial perturbations: (R, degenerate_mask).

    One power-iteration step per row: the random unit direction d of that
    row of `normals` (standard normal draws shaped like X_bar, scaled in
    place), the KL gradient evaluated at X + xi*d, normalized and scaled to
    epsilon. Rows whose gradient vanishes fall back to epsilon*d.
    """
    if epsilon <= 0 or xi <= 0:
        raise UsageError("epsilon and xi must be positive")
    X_bar = np.atleast_2d(np.asarray(X_bar, dtype=float))
    Y_bar = np.atleast_2d(np.asarray(Y_bar, dtype=float))
    D = np.atleast_2d(np.asarray(normals, dtype=float))
    _unit_rows(D)
    G = grad_kl_wrt_input_batch(model, X_bar, Y_bar, xi * D)
    degenerate = _unit_rows(G) < GRAD_NORM_FLOOR
    if degenerate.any():
        G[degenerate] = D[degenerate]
    G *= epsilon
    return G, degenerate
