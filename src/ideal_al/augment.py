"""Coarse (human-perceivable) and fine (adversarial) augmentation.

Coarse variants come from a small family of vector transforms — coordinate
roll, sign flip of a random block, rescaled uniform jitter — each guaranteed
to displace the source by more than the perceivability threshold delta in
sup norm. Fine variants are virtual-adversarial perturbations of fixed L2
norm epsilon, obtained with a single power-iteration step.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .model import grad_kl_wrt_input_batch

TRANSFORM_NAMES = ("roll", "block_flip", "jitter")

GRAD_NORM_FLOOR = 1e-12


@dataclass
class CoarseAugmentSet:
    source_id: object
    source: np.ndarray
    variants: list = field(default_factory=list)
    descriptors: list = field(default_factory=list)

    def __len__(self):
        return len(self.variants)


@dataclass
class Perturbation:
    vector: np.ndarray
    epsilon: float
    degenerate: bool = False


def _jitter(x, delta, rng):
    """Additive uniform noise rescaled to sup-norm displacement 2*delta."""
    u = rng.uniform(-1.0, 1.0, size=x.shape)
    m = np.abs(u).max()
    if m < 1e-12:
        u = np.zeros_like(u)
        u[0] = 1.0
        m = 1.0
    return u * (2.0 * delta / m)


def coarse_augment(x, k, delta, rng, source_id=None):
    """k randomly transformed variants of x, each sup-norm > delta away."""
    x = np.asarray(x, dtype=float)
    if k < 1:
        raise UsageError("need at least one coarse variant")
    if delta <= 0:
        raise UsageError("delta must be positive")
    d = x.shape[0]
    out = CoarseAugmentSet(source_id=source_id, source=x)
    for _ in range(k):
        name = TRANSFORM_NAMES[rng.integers(len(TRANSFORM_NAMES))]
        if name == "roll" and d > 1:
            shift = int(rng.integers(1, d))
            v = np.roll(x, shift)
            params = {"shift": shift}
        elif name == "block_flip":
            lo = int(rng.integers(0, d))
            hi = int(rng.integers(lo + 1, d + 1))
            v = x.copy()
            v[lo:hi] = -v[lo:hi]
            params = {"lo": lo, "hi": hi}
        else:
            disp = _jitter(x, delta, rng)
            v = x + disp
            name, params = "jitter", {}
        if np.abs(v - x).max() <= delta:
            # transform landed inside the perceivability threshold; push it
            # out with jitter so the delta contract always holds
            v = v + _jitter(v, delta, rng)
            params = dict(params, jitter_fallback=True)
        out.variants.append(v)
        out.descriptors.append((name, params))
    return out


def coarse_augment_batch(X, k, delta, rng):
    """Vectorized coarse augmentation: (n, d) -> (n, k, d).

    Same transform family as coarse_augment, drawn independently per
    (sample, variant); used on hot paths where a per-sample call would be
    too slow. Deterministic given rng.
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


def vat_perturbation_batch(model, X_bar, Y_bar, epsilon, xi, rng, start=None):
    """Row-wise virtual adversarial perturbations: (R, degenerate_mask).

    One power-iteration step per row: random unit direction d, KL gradient
    evaluated at X + xi*d, normalized and scaled to epsilon. Rows whose
    gradient vanishes fall back to epsilon*d.
    """
    if epsilon <= 0 or xi <= 0:
        raise UsageError("epsilon and xi must be positive")
    start = model.tap_layer if start is None else start
    X_bar = np.atleast_2d(np.asarray(X_bar, dtype=float))
    Y_bar = np.atleast_2d(np.asarray(Y_bar, dtype=float))
    D = _unit_rows(rng.normal(size=X_bar.shape))
    G = grad_kl_wrt_input_batch(model, X_bar, Y_bar, xi * D, start=start)
    norms = np.linalg.norm(G, axis=1)
    degenerate = norms < GRAD_NORM_FLOOR
    direction = np.where(degenerate[:, None], D, _unit_rows(G))
    return epsilon * direction, degenerate


def vat_perturbation(model, x_bar, y_bar, epsilon, xi, rng, start=None):
    """Single-sample virtual adversarial perturbation of L2 norm epsilon."""
    R, degenerate = vat_perturbation_batch(
        model, x_bar, y_bar, epsilon, xi, rng, start=start
    )
    return Perturbation(vector=R[0], epsilon=epsilon, degenerate=bool(degenerate[0]))


def fine_augment_set(model, coarse, epsilon, xi, rng, start=None):
    """Adversarially displaced version of every coarse variant."""
    if not coarse.variants:
        raise UsageError("coarse augment set is empty")
    X = np.stack(coarse.variants)
    Y = model.predict(X, start=model.tap_layer if start is None else start)
    R, _ = vat_perturbation_batch(model, X, Y, epsilon, xi, rng, start=start)
    return [X[i] + R[i] for i in range(len(coarse.variants))]
