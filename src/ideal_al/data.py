"""Dataset files, synthetic generation, and run artifacts.

Dataset files are CSV: a header row, then one row per sample holding the
integer id, the integer class index, and d feature values. Features are
min-max normalized to [0, 1] per dimension on load (zero-range dimensions
map to 0); the raw values are retained for lossless round trips.
"""

import csv
import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import DataError, UsageError


@dataclass
class Dataset:
    ids: np.ndarray          # (n,) int
    features: np.ndarray     # (n, d) normalized to [0, 1]
    raw_features: np.ndarray  # (n, d) as stored on disk
    labels: np.ndarray       # (n,) int class indices (oracle-only)
    n_classes: int

    def __len__(self):
        return len(self.ids)

    @property
    def dim(self):
        return self.features.shape[1]

    def subset(self, index):
        return Dataset(
            ids=self.ids[index],
            features=self.features[index],
            raw_features=self.raw_features[index],
            labels=self.labels[index],
            n_classes=self.n_classes,
        )


def _normalize(raw):
    lo = raw.min(axis=0)
    hi = raw.max(axis=0)
    span = hi - lo
    out = np.zeros_like(raw)
    nonflat = span > 0
    out[:, nonflat] = (raw[:, nonflat] - lo[nonflat]) / span[nonflat]
    return out


def load_dataset(path):
    """Read a dataset CSV; infers class count and feature dimension."""
    ids, labels, rows = [], [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 3:
            raise DataError(f"{path}: header must have id, label and features")
        d = len(header) - 2
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != d + 2:
                raise DataError(f"{path}:{lineno}: expected {d + 2} fields, got {len(row)}")
            try:
                sid = int(row[0])
                label = int(row[1])
                feats = [float(v) for v in row[2:]]
            except ValueError as exc:
                raise DataError(f"{path}:{lineno}: {exc}") from exc
            if label < 0:
                raise DataError(f"{path}:{lineno}: negative class index {label}")
            if not all(np.isfinite(feats)):
                raise DataError(f"{path}:{lineno}: non-finite feature value")
            ids.append(sid)
            labels.append(label)
            rows.append(feats)
    if not ids:
        raise DataError(f"{path}: no data rows")
    if len(set(ids)) != len(ids):
        raise DataError(f"{path}: duplicate sample ids")
    raw = np.array(rows, dtype=float)
    return Dataset(
        ids=np.array(ids, dtype=int),
        features=_normalize(raw),
        raw_features=raw,
        labels=np.array(labels, dtype=int),
        n_classes=int(max(labels)) + 1,
    )


def generate_synthetic(n_classes, clusters_per_class, per_class, noise, seed, dim=2):
    """Class-balanced Gaussian-mixture sample rows, deterministic per seed.

    Returns (header, rows) where each row is (id, label, features...).
    Cluster centers are drawn uniformly in [0.1, 0.9]^dim; points get
    isotropic Gaussian noise of the given scale.
    """
    if n_classes < 2:
        raise DataError("need at least two classes")
    if clusters_per_class < 1:
        raise DataError("need at least one cluster per class")
    if per_class < 1:
        raise DataError("need at least one sample per class")
    if noise < 0:
        raise DataError("noise must be nonnegative")
    if seed < 0:
        raise UsageError("seed must be >= 0")
    if dim < 1:
        raise UsageError("dim must be >= 1")
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.1, 0.9, size=(n_classes, clusters_per_class, dim))
    feats, labels = [], []
    for c in range(n_classes):
        # spread the class budget evenly over its clusters
        counts = [per_class // clusters_per_class] * clusters_per_class
        for i in range(per_class % clusters_per_class):
            counts[i] += 1
        for k, cnt in enumerate(counts):
            pts = centers[c, k] + noise * rng.standard_normal(size=(cnt, dim))
            feats.append(pts)
            labels.extend([c] * cnt)
    X = np.concatenate(feats)
    y = np.array(labels, dtype=int)
    order = rng.permutation(len(y))
    X, y = X[order], y[order]
    header = ["id", "label"] + [f"f{j}" for j in range(dim)]
    rows = [
        [i, int(y[i])] + [f"{v:.12g}" for v in X[i]]
        for i in range(len(y))
    ]
    return header, rows


def write_dataset(header, rows, path):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def synthetic_dataset(n_classes, clusters_per_class, per_class, noise, seed, dim=2):
    """In-memory synthetic dataset (same construction as the CSV path)."""
    header, rows = generate_synthetic(
        n_classes, clusters_per_class, per_class, noise, seed, dim=dim
    )
    raw = np.array([[float(v) for v in r[2:]] for r in rows])
    return Dataset(
        ids=np.array([r[0] for r in rows], dtype=int),
        features=_normalize(raw),
        raw_features=raw,
        labels=np.array([r[1] for r in rows], dtype=int),
        n_classes=n_classes,
    )


@dataclass
class RunArtifacts:
    metrics_path: str
    id_paths: list
    config_path: str


def write_reports(reports, out_dir, config=None):
    """Emit metrics.jsonl, one selected-ID CSV per cycle, and the config
    snapshot that reproduces the run."""
    from .config import format_config

    os.makedirs(out_dir, exist_ok=True)
    metrics_path = os.path.join(out_dir, "metrics.jsonl")
    id_paths = []
    with open(metrics_path, "w", encoding="utf-8") as fh:
        for rep in reports:
            record = {
                "cycle": rep.cycle,
                "n_labeled": rep.n_labeled,
                "accuracy": rep.accuracy,
                "mean_in_total": rep.mean_in_total,
                "select_ms": rep.select_ms,
                "strategy": rep.strategy,
                "seed": rep.seed,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    for rep in reports:
        p = os.path.join(out_dir, f"selected_cycle{rep.cycle:03d}.csv")
        with open(p, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["sample_id"])
            for sid in rep.selected_ids:
                writer.writerow([sid])
        id_paths.append(p)
    config_path = os.path.join(out_dir, "config.snapshot")
    if config is not None:
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(format_config(config))
    return RunArtifacts(metrics_path=metrics_path, id_paths=id_paths,
                        config_path=config_path)
