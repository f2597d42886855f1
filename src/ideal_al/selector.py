"""Inconsistency scoring, percentile fusion, and two-stage selection.

Every unlabeled sample gets a coarse inconsistency (summed per-class
population variance across its augmentation predictions) and a fine
inconsistency (summed KL between coarse and adversarially perturbed
predictions). Both are fused via strict-percentile ranks; the top candidates
are then re-ranked by prediction entropy weighted by mean cosine similarity
to the candidate set.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InputShapeError, UsageError

NORM_FLOOR = 1e-12


@dataclass
class Scores:
    """Selection scores as parallel arrays, rows in ascending id order."""

    ids: np.ndarray       # (n,) int
    in_total: np.ndarray  # (n,) fused inconsistency; zeros when unranked
    entropy: np.ndarray   # (n,) prediction entropy
    reps: np.ndarray      # (n, h) representations at the tap layer

    def __post_init__(self):
        if not (len(self.ids) == len(self.in_total) == len(self.entropy) == len(self.reps)):
            raise InputShapeError("score arrays differ in length")
        if np.any(np.diff(self.ids) <= 0):
            raise UsageError("score ids are not strictly ascending")

    def __len__(self):
        return len(self.ids)


def top_k(key, ids, k):
    """Indices of the k largest keys, ties broken by ascending id."""
    return np.lexsort((ids, -np.asarray(key)))[:k]


def coarse_inconsistency(preds):
    """Summed per-class population variance over the K+1 predictions, row-wise
    over leading axes: (..., K+1, C) -> (...), a float for one sample."""
    P = np.atleast_2d(np.asarray(preds, dtype=float))
    if P.shape[-2] < 2:
        raise UsageError("need the original plus at least one augmented prediction")
    out = P.var(axis=-2).sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def percentiles(values):
    """Strict-smaller percentile of every element within its own population."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise UsageError("empty population")
    order = np.sort(values)
    ranks = np.searchsorted(order, values, side="left")
    return ranks / values.size


def total_inconsistency(phi_coa, phi_fin, gamma):
    """Convex fusion of the two percentile criteria, elementwise."""
    if not 0.0 <= gamma <= 1.0:
        raise UsageError(f"gamma {gamma} outside [0, 1]")
    return gamma * phi_coa + (1.0 - gamma) * phi_fin


def entropy_rows(P):
    """Shannon entropy (natural log) of each probability row."""
    P = np.clip(np.asarray(P, dtype=float), 0.0, 1.0)
    terms = np.where(P > 0, P * np.log(np.where(P > 0, P, 1.0)), 0.0)
    return -terms.sum(axis=-1)


def density_factors(reps):
    """Mean pairwise cosine similarity of each row to the whole set."""
    norms = np.linalg.norm(reps, axis=1)
    good = norms > NORM_FLOOR
    if not good.all():
        warnings.warn(
            f"dropping {np.count_nonzero(~good)} zero-norm representation(s) "
            "from the density sum"
        )
    unit = np.zeros_like(reps)
    unit[good] = reps[good] / norms[good, None]
    m_eff = max(int(good.sum()), 1)
    mean_unit = unit[good].sum(axis=0) / m_eff
    factors = unit @ mean_unit
    factors[~good] = 0.0
    return factors


def select(scores, m_cand, budget, use_density=True):
    """Two-stage selection: top-m_cand by fused inconsistency, then top-budget
    by density-aware entropy computed over exactly that candidate set.

    Ties break by ascending sample id at both stages. Returns the selected
    ids in rank order.
    """
    if budget > m_cand:
        raise UsageError(f"budget {budget} exceeds candidate size {m_cand}")
    if m_cand > len(scores):
        raise UsageError(f"m_cand {m_cand} exceeds pool size {len(scores)}")
    cand = top_k(scores.in_total, scores.ids, m_cand)
    ids = scores.ids[cand]
    density_entropy = scores.entropy[cand]
    if use_density:
        density_entropy = density_entropy * density_factors(scores.reps[cand])
    return ids[top_k(density_entropy, ids, budget)].tolist()
