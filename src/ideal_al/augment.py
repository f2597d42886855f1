"""Coarse (human-perceivable) and fine (adversarial) augmentation.

Coarse variants come from a small family of vector transforms — coordinate
roll, sign flip of a random block, rescaled uniform jitter — each guaranteed
to displace the source by more than the perceivability threshold delta in
sup norm. Fine variants are virtual-adversarial perturbations of fixed L2
norm epsilon, obtained with a single power-iteration step.
"""

from typing import NamedTuple

import numpy as np

from .errors import UsageError
from .model import grad_kl_wrt_input_batch

TRANSFORM_NAMES = ("roll", "block_flip", "jitter")

GRAD_NORM_FLOOR = 1e-12


class CoarseDraws(NamedTuple):
    """The integer draws of a coarse augmentation: the variant rows each
    transform takes, in ascending order, and their parameters."""

    roll: np.ndarray    # rows whose coordinates are rolled
    shifts: np.ndarray  # each one's shift, in 1..d-1
    flip: np.ndarray    # rows with a block of coordinates sign-flipped
    lo: np.ndarray      # each block's first column
    hi: np.ndarray      # and the column after its last
    jitter: np.ndarray  # rows jittered

    def rows(self, a, b):
        """The draws of variant rows a..b-1, their rows counted from a."""
        i, j = np.searchsorted(self.roll, (a, b))
        f, g = np.searchsorted(self.flip, (a, b))
        u, v = np.searchsorted(self.jitter, (a, b))
        return CoarseDraws(self.roll[i:j] - a, self.shifts[i:j], self.flip[f:g] - a,
                           self.lo[f:g], self.hi[f:g], self.jitter[u:v] - a)


def coarse_draws(m, d, rng):
    """Draw one transform of the family for each of m variant rows of width
    d, independently, and the integer parameters of the rolls and block
    flips: O(m) integers. The jitter rows' uniforms come next in the stream."""
    choice = rng.integers(len(TRANSFORM_NAMES), size=m)
    if d == 1:
        choice[choice == 0] = 2
    roll = (choice == 0).nonzero()[0]
    flip = (choice == 1).nonzero()[0]
    jitter = (choice == 2).nonzero()[0]
    shifts = rng.integers(1, d, size=roll.size) if roll.size else roll
    lo = rng.integers(0, d, size=flip.size) if flip.size else flip
    hi = rng.integers(lo + 1, d + 1) if flip.size else flip
    return CoarseDraws(roll, shifts, flip, lo, hi, jitter)


def coarse_variants(X, k, delta, draws, u, out, gap=None):
    """Build the k coarse variants of each row of X (n, d) in `out`, a
    C-contiguous (n * k, d) array, and return its (n, k, d) view.

    `draws` holds the n * k variant rows' draws, counted from 0, and `u` the
    (len(draws.jitter), d) uniforms of the jitter rows, which are
    overwritten. When `gap`, an (n * k,) array, is given it receives each
    variant's sup-norm distance from its source. Every row depends only on
    its own draws, so a row range built alone equals the same rows of a
    whole build.
    """
    n, d = X.shape
    variants = out.reshape(n, k, d)
    variants[...] = X[:, None]  # np.repeat(X, k, axis=0)
    cols = np.arange(d)

    # each transform reads its rows' sources from `out` and writes them back
    rows = draws.roll
    if rows.size:
        out[rows] = out[rows[:, None], (cols - draws.shifts[:, None]) % d]

    rows = draws.flip
    if rows.size:
        moved = out[rows]
        np.negative(moved, out=moved,
                    where=(cols >= draws.lo[:, None]) & (cols < draws.hi[:, None]))
        out[rows] = moved

    rows = draws.jitter
    if rows.size:
        u *= 2.0 * delta / np.maximum(np.abs(u).max(axis=1, keepdims=True), 1e-12)
        u += out[rows]
        out[rows] = u

    if gap is not None:
        np.abs(variants - X[:, None]).max(axis=2, out=gap.reshape(n, k))
    return variants


def coarse_fallback(m, d, delta, rng):
    """The extra jitter of m variants still within delta of their sources in
    sup norm: (m, d) rows of sup norm 2 * delta, to be added to them."""
    u = rng.uniform(-1.0, 1.0, size=(m, d))
    m_abs = np.maximum(np.abs(u).max(axis=1, keepdims=True), 1e-12)
    return u * (2.0 * delta / m_abs)


def coarse_augment_batch(X, k, delta, rng, out=None):
    """Coarse augmentation: (n, d) -> (n, k, d).

    Each (sample, variant) draws one transform of the family independently;
    a variant still within delta of its source in sup norm gets extra jitter.
    Deterministic given rng: `coarse_draws`, then the jitter rows' uniforms,
    then `coarse_fallback`'s, the three parts composed in one call. The
    variants are built in `out`, a C-contiguous (n * k, d) array, when it is
    given, and returned as its (n, k, d) view.
    """
    X = np.asarray(X, dtype=float)
    if k < 1:
        raise UsageError("need at least one coarse variant")
    if delta <= 0:
        raise UsageError("delta must be positive")
    n, d = X.shape
    draws = coarse_draws(n * k, d, rng)
    u = rng.uniform(-1.0, 1.0, size=(draws.jitter.size, d))
    if out is None:
        out = np.empty((n * k, d))
    gap = np.empty(n * k)
    variants = coarse_variants(X, k, delta, draws, u, out, gap)
    # enforce the sup-norm > delta contract uniformly
    rows = (gap <= delta).nonzero()[0]
    if rows.size:
        out[rows] += coarse_fallback(rows.size, d, delta, rng)
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
