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
    n, K, C = P_aug.shape
    if len(w) != K + 1:
        raise UsageError(f"expected {K + 1} weights, got {len(w)}")
    # np.tensordot(P_aug, w[1:], axes=([1], [0])) without its axis
    # bookkeeping: the same dot of the same two arrays
    total = np.dot(P_aug.transpose(0, 2, 1).reshape(n * C, K),
                   w[1:].reshape(K, 1)).reshape(n, C)
    total += w[0] * P_orig
    total /= w.sum()
    return total


def build_training_arrays(H, Y, alpha, rng):
    """Mix a batch against a random permutation of itself.

    H: (n, d) representations, Y: (n, C) targets. Returns (Xm, Ym, perm,
    lambdas) in batch order: lambda >= 1/2, so mixed row i is dominated by
    row i and keeps its place (the loop's labeled rows stay first).
    """
    n = len(H)
    if n == 0:
        raise UsageError("nothing to mix")
    perm = rng.permutation(n)
    lam = rng.beta(alpha, alpha, size=n)
    np.maximum(lam, 1.0 - lam, out=lam)
    lam = lam[:, None]
    mu = 1.0 - lam
    Xm, Ym = H.take(perm, axis=0), Y.take(perm, axis=0)
    Xm *= mu
    Xm += lam * H
    Ym *= mu
    Ym += lam * Y
    return Xm, Ym, perm, lam[:, 0]
