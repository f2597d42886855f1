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

# values per block of `coarse_augment_batch`'s sup-norm check
GAP_VALUES = 1 << 16


def coarse_augment_batch(X, k, delta, rng, out=None):
    """Coarse augmentation: (n, d) -> (n, k, d).

    Each (sample, variant) draws one transform of the family independently;
    a variant still within delta of its source in sup norm gets extra jitter.
    Deterministic given rng. The variants are built in `out`, a C-contiguous
    (n * k, d) array, when it is given, and returned as its (n, k, d) view.
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
    if out is None:
        out = np.empty((n * k, d))
    variants = out.reshape(n, k, d)
    variants[...] = X[:, None]  # np.repeat(X, k, axis=0)
    cols = np.arange(d)

    # each transform reads its rows' sources from `out` and writes them back
    rows = (choice == 0).nonzero()[0]
    if rows.size:
        shifts = rng.integers(1, d, size=rows.size)
        out[rows] = out[rows[:, None], (cols - shifts[:, None]) % d]

    rows = (choice == 1).nonzero()[0]
    if rows.size:
        lo = rng.integers(0, d, size=rows.size)
        hi = rng.integers(lo + 1, d + 1)
        moved = out[rows]
        np.negative(moved, out=moved,
                    where=(cols >= lo[:, None]) & (cols < hi[:, None]))
        out[rows] = moved

    rows = (choice == 2).nonzero()[0]
    if rows.size:
        u = rng.uniform(-1.0, 1.0, size=(rows.size, d))
        u *= 2.0 * delta / np.maximum(np.abs(u).max(axis=1, keepdims=True), 1e-12)
        u += out[rows]
        out[rows] = u

    # enforce the sup-norm > delta contract uniformly: each variant's sup-norm
    # distance from its source, taken over blocks of about GAP_VALUES values
    # so that a whole pool's variants need no difference array of their size
    gap = np.empty(n * k)
    step = max(GAP_VALUES // (k * d), 1)
    for s in range(0, n, step):
        diff = variants[s:s + step] - X[s:s + step, None]
        np.abs(diff, out=diff).max(axis=2, out=gap.reshape(n, k)[s:s + step])
    rows = (gap <= delta).nonzero()[0]
    if rows.size:
        u = rng.uniform(-1.0, 1.0, size=(rows.size, d))
        m_abs = np.maximum(np.abs(u).max(axis=1, keepdims=True), 1e-12)
        out[rows] += u * (2.0 * delta / m_abs)
    return variants


def _unit_rows(V):
    """Scale each row of V to unit L2 norm in place; a row whose norm is not
    above 1e-12 becomes e_0. Returns the norms from before the scaling."""
    norms = (V * V).sum(axis=1)
    np.sqrt(norms, out=norms)
    good = norms > 1e-12
    if good.all():
        V /= norms[:, None]
    else:
        V[~good] = 0.0
        V[~good, 0] = 1.0
        V /= np.where(good, norms, 1.0)[:, None]
    return norms


def vat_probe_rows(X_bar, normals, xi, out=None):
    """Scale `normals` to unit rows d in place and return the VAT probe rows
    X_bar + xi*d, written into `out` when it is given."""
    if xi <= 0:
        raise UsageError("xi must be positive")
    _unit_rows(normals)
    out = np.multiply(normals, xi, out=out)
    out += X_bar
    return out


def vat_perturbation_batch(model, probe_acts, reference, epsilon, directions):
    """Row-wise virtual adversarial perturbations: (R, degenerate_mask).

    One power-iteration step per row: the KL(reference_i || p) gradient at
    the probe row x_i + xi*d_i, from `probe_acts`, the caller's
    `model._trace` of the rows `vat_probe_rows` made, normalized and scaled
    to epsilon. `directions` holds the unit rows d that call left in the
    normals; a row whose gradient vanishes falls back to epsilon*d.
    """
    if epsilon <= 0:
        raise UsageError("epsilon must be positive")
    G = grad_kl_wrt_input_batch(model, probe_acts, reference)
    degenerate = _unit_rows(G) < GRAD_NORM_FLOOR
    if degenerate.any():
        G[degenerate] = directions[degenerate]
    G *= epsilon
    return G, degenerate
