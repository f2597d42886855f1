"""Dataset files, synthetic generation, and run artifacts.

Dataset files are CSV: a header row, then one row per sample holding the
integer id, the integer class index, and d feature values. Features are
min-max normalized to [0, 1] per dimension on load (zero-range dimensions
map to 0); the dataset keeps that frame (`lo`, `span`) so that another
file's rows can be expressed in it.
"""

import csv
import itertools
import json
import os
import re
import warnings
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import NOT_UTF8, DataError, UsageError


@dataclass
class Dataset:
    ids: np.ndarray       # (n,) int
    features: np.ndarray  # (n, d) (raw - lo) / span, 0 where span == 0
    labels: np.ndarray    # (n,) int class indices (oracle-only)
    n_classes: int
    lo: np.ndarray        # (d,) frame: per-column min of the rows it was fit on
    span: np.ndarray      # (d,) frame: per-column max - min of those rows

    @classmethod
    def from_raw(cls, ids, raw, labels, n_classes):
        """Rows as stored, scaled to [0, 1] by their own per-column range."""
        raw = np.asarray(raw, dtype=float)
        lo = raw.min(axis=0)
        span = raw.max(axis=0) - lo
        return cls(np.asarray(ids, dtype=int), _scaled(raw, lo, span),
                   np.asarray(labels, dtype=int), int(n_classes), lo, span)

    def __len__(self):
        return len(self.ids)

    @property
    def dim(self):
        return self.features.shape[1]

    def subset(self, index):
        return replace(self, ids=self.ids[index], labels=self.labels[index],
                       features=self.features[index])

    def in_frame_of(self, other):
        """These rows in `other`'s frame; self (bit for bit) if it is theirs."""
        if np.array_equal(self.lo, other.lo) and np.array_equal(self.span, other.span):
            return self
        raw = self.features * self.span + self.lo
        return replace(self, features=_scaled(raw, other.lo, other.span),
                       lo=other.lo, span=other.span)


def _scaled(raw, lo, span):
    out = raw - lo
    np.divide(out, span, out=out, where=span > 0)
    out[:, span <= 0] = 0.0
    return out


def load_dataset(path):
    """Read a dataset CSV; infers class count and feature dimension.

    The header is read with `csv`; every data row is parsed by one
    `np.loadtxt` call. Only when that call refuses the file, or a row fails a
    check, is the file read again line by line to name the first bad line.
    """
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if NOT_UTF8.search(",".join(header)):
            raise DataError(f"{path}:{reader.line_num}: not valid UTF-8")
        if len(header) < 3:
            raise DataError(f"{path}: header must have id, label and features")
        header_lines = reader.line_num
    dtype = np.dtype([("id", np.int64), ("label", np.int64),
                      ("x", np.float64, (len(header) - 2,))])
    try:
        table = _parse(path, dtype, skiprows=header_lines)
        bad = _row_error(table)
    except ValueError as exc:
        bad = _reason(exc)
    if bad:
        raise _line_error(path, header_lines, dtype, bad)
    if not len(table):
        raise DataError(f"{path}: no data rows")
    # copies: a field view would keep the whole (n, d + 2) table alive
    ids, labels = table["id"].copy(), table["label"].copy()
    if len(np.unique(ids)) != len(ids):
        raise DataError(f"{path}: duplicate sample ids")
    return Dataset.from_raw(ids, table["x"], labels, labels.max() + 1)


def _parse(source, dtype, skiprows=0):
    """Data rows of a path or a list of lines as one structured array; blank
    lines are skipped and hold no row."""
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                UserWarning)
        return np.loadtxt(source, dtype=dtype, delimiter=",", comments=None,
                          quotechar='"', ndmin=1, skiprows=skiprows,
                          encoding="utf-8")


def _row_error(table):
    """Why the first row of `table` that fails a check fails it, or None."""
    negative = table["label"] < 0
    bad = negative | ~np.isfinite(table["x"]).all(axis=1)
    if not bad.any():
        return None
    i = int(bad.argmax())
    if negative[i]:
        return f"negative class index {table['label'][i]}"
    return "non-finite feature value"


def _line_error(path, header_lines, dtype, reason):
    """DataError naming the first data line that is not UTF-8, does not parse
    or fails a check, each line parsed on its own by `_parse`; the whole
    file's `reason` if no line fails alone."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        lines = itertools.islice(fh, header_lines, None)
        for lineno, line in enumerate(lines, start=header_lines + 1):
            if NOT_UTF8.search(line):
                return DataError(f"{path}:{lineno}: not valid UTF-8")
            try:
                bad = _row_error(_parse([line], dtype))
            except ValueError as exc:
                bad = _reason(exc)
            if bad:
                return DataError(f"{path}:{lineno}: {bad}")
    return DataError(f"{path}: {reason}")


def _reason(exc):
    """numpy's parse error without its row number, which `_line_error`
    replaces with the file line."""
    return re.sub(r" at row \d+(?:, column (\d+))?.*",
                  lambda m: f" in column {m[1]}" if m[1] else "",
                  str(exc), flags=re.S)


def generate_synthetic(n_classes, clusters_per_class, per_class, noise, seed, dim=2):
    """Class-balanced Gaussian-mixture sample rows, deterministic per seed.

    Returns (header, rows) where each row is (id, label, features...).
    Cluster centers are drawn uniformly in [0.1, 0.9]^dim; points get
    isotropic Gaussian noise of the given scale.
    """
    if n_classes < 2:
        raise UsageError("classes must be >= 2")
    if clusters_per_class < 1:
        raise UsageError("clusters must be >= 1")
    if per_class < 1:
        raise UsageError("per-class must be >= 1")
    if not 0 <= noise < np.inf:  # also rejects nan
        raise UsageError("noise must be finite and >= 0")
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
    raw = [[float(v) for v in r[2:]] for r in rows]
    return Dataset.from_raw([r[0] for r in rows], raw, [r[1] for r in rows], n_classes)


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
            record = asdict(rep)
            del record["selected_ids"]  # one CSV per cycle below
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
