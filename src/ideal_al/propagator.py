"""Label propagation pieces: guessed labels, Beta-folded mixing, batches.

Guessed labels are weighted averages of a sample's prediction and the
predictions of its augmented variants. Mixing combines two representations
and their targets with a coefficient drawn from a symmetric Beta
distribution folded onto [0.5, 1], so the first element always dominates.
"""

import numpy as np

from .errors import UsageError


def guess_labels_batch(P_orig, P_aug, weights):
    """Row-wise guessed labels.

    P_orig: (n, C) original predictions; P_aug: (n, K, C) augmented-variant
    predictions; weights: (w_u, w_1..w_K).
    """
    w = np.asarray(weights, dtype=float)
    K = P_aug.shape[1]
    if len(w) != K + 1:
        raise UsageError(f"expected {K + 1} weights, got {len(w)}")
    total = w[0] * P_orig + np.tensordot(P_aug, w[1:], axes=([1], [0]))
    return total / w.sum()


def build_training_arrays(H, Y, labeled_mask, alpha, rng):
    """Mix a concatenated batch against a random permutation of itself.

    H: (n, d) representations, Y: (n, C) targets, labeled_mask: (n,) bools.
    Returns ((Xl, Yl), (Xu, Yu), perm, lambdas) — rows whose first (dominant)
    element is labeled feed the supervised loss, the rest the consistency
    loss. Either partition may be empty (shape (0, .)).
    """
    n = len(H)
    if n == 0:
        raise UsageError("nothing to mix")
    perm = rng.permutation(n)
    lam = rng.beta(alpha, alpha, size=n)
    lam = np.maximum(lam, 1.0 - lam)[:, None]
    Xm = lam * H + (1.0 - lam) * H[perm]
    Ym = lam * Y + (1.0 - lam) * Y[perm]
    sup = np.asarray(labeled_mask, dtype=bool)
    return (Xm[sup], Ym[sup]), (Xm[~sup], Ym[~sup]), perm, lam[:, 0]
