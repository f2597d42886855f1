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
from .model import class_sum

NORM_FLOOR = 1e-12


@dataclass
class Scores:
    """Selection scores as parallel arrays, rows in ascending id order."""

    ids: np.ndarray       # (n,) int
    in_total: np.ndarray  # (n,) fused inconsistency; zeros when unranked
    entropy: np.ndarray   # (n,) prediction entropy; zeros when nothing predicted
    reps: np.ndarray      # (n, d) normalized feature rows

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
    out = class_sum(P.var(axis=-2))
    return float(out) if out.ndim == 0 else out


def percentiles(values):
    """Strict-smaller percentile of every element within its own population.

    One sort ranks the values; each element's count of smaller ones is where
    its run of equal values starts in the sorted order. `-0.0` equals `0.0`,
    and every NaN, sorted last, counts the non-NaN values.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise UsageError("empty population")
    n = values.size
    order = np.argsort(values)
    ranked = values[order]
    starts = np.empty(n, dtype=bool)
    starts[0] = True
    np.greater(ranked[1:], ranked[:-1], out=starts[1:])
    if np.isnan(ranked[-1]):
        starts[np.searchsorted(ranked, np.nan)] = True
    first = starts.nonzero()[0]
    ranks = np.empty(n, dtype=np.intp)
    ranks[order] = np.repeat(first, np.diff(first, append=n))
    return ranks / n


def total_inconsistency(phi_coa, phi_fin, gamma):
    """Convex fusion of the two percentile criteria, elementwise."""
    if not 0.0 <= gamma <= 1.0:
        raise UsageError(f"gamma {gamma} outside [0, 1]")
    return gamma * phi_coa + (1.0 - gamma) * phi_fin


def entropy_rows(P):
    """Shannon entropy (natural log) of each probability row."""
    P = np.clip(np.asarray(P, dtype=float), 0.0, 1.0)
    terms = np.where(P > 0, P * np.log(np.where(P > 0, P, 1.0)), 0.0)
    return -class_sum(terms)


def density_factors(reps):
    """Mean pairwise cosine similarity of each row to the whole set."""
    unit = reps * reps  # the squares, then the unit rows in the same buffer
    norms = np.sqrt(np.add.reduce(unit, axis=1))  # np.linalg.norm, bit for bit
    good = norms > NORM_FLOOR
    if good.all():
        np.divide(reps, norms[:, None], out=unit)
        return unit @ (unit.sum(axis=0) / max(len(unit), 1))
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
    ids in rank order. At `m_cand` equal to the pool size `in_total` cuts
    nothing; at `m_cand == budget` below it the re-ranker has nothing to
    choose, and the candidates return in their `in_total` rank order with
    no density pass.
    """
    if budget > m_cand:
        raise UsageError(f"budget {budget} exceeds candidate size {m_cand}")
    if m_cand > len(scores):
        raise UsageError(f"m_cand {m_cand} exceeds pool size {len(scores)}")
    cand = top_k(scores.in_total, scores.ids, m_cand)
    if budget == m_cand < len(scores):
        return scores.ids[cand].tolist()
    if m_cand == len(scores) and np.array_equal(cand, np.arange(m_cand)):
        cand = slice(None)  # the whole pool in id order: read its rows in place
    ids = scores.ids[cand]
    density_entropy = scores.entropy[cand]
    if use_density:
        density_entropy = density_entropy * density_factors(scores.reps[cand])
    return ids[top_k(density_entropy, ids, budget)].tolist()
