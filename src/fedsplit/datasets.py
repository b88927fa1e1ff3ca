"""Dataset loading, synthesis, and client partitioning.

The synthetic generator produces Gaussian class clusters with exactly
balanced labels (round-robin assignment before shuffling), a desk-scale
stand-in for image benchmarks.  Client partitioning supports IID equal
shards and Dirichlet(alpha) label-skewed shards; both are fully seeded.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .seeds import as_rng

__all__ = [
    "Dataset",
    "synthetic_dataset",
    "load_csv_dataset",
    "train_test_split",
    "held_out_rows",
    "split_iid",
    "split_dirichlet",
]

DIRICHLET_DRAWS = 100


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64
    num_classes: int

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must match feature rows")
        if self.num_classes < 1:
            raise ValueError("num_classes must be >= 1")

    def __len__(self) -> int:
        return self.features.shape[0]

    @property
    def input_dim(self) -> int:
        return self.features.shape[1]

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(features=self.features[idx], labels=self.labels[idx],
                       num_classes=self.num_classes)


def synthetic_dataset(num_samples: int, input_dim: int, num_classes: int,
                      separation: float, seed) -> Dataset:
    """Gaussian class clusters with unit within-class noise.

    Class means are drawn on a sphere of radius ``separation``; labels are
    exactly balanced (within one sample) and shuffled deterministically.
    """
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    rng = as_rng(seed)
    means = rng.normal(0.0, 1.0, (num_classes, input_dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = means / norms * separation
    labels = np.arange(num_samples, dtype=np.int64) % num_classes
    rng.shuffle(labels)
    features = means[labels] + rng.normal(0.0, 1.0, (num_samples, input_dim))
    return Dataset(features=features, labels=labels, num_classes=num_classes)


def load_csv_dataset(path: str, num_classes: int) -> Dataset:
    """Parse a CSV with numeric feature columns and an integer ``label`` column.

    Malformed rows, non-finite features and out-of-range labels raise
    ValueError naming the file and line.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty file") from None
        header = [h.strip() for h in header]
        if "label" not in header:
            raise ValueError(f"{path}: header must contain a 'label' column")
        label_col = header.index("label")
        feature_cols = [i for i in range(len(header)) if i != label_col]
        rows, labels = [], []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(
                    f"{path}: line {line_no}: expected {len(header)} fields, "
                    f"got {len(row)}"
                )
            try:
                feats = [float(row[i]) for i in feature_cols]
                label = int(row[label_col])
                if not all(map(math.isfinite, feats)):
                    raise ValueError("non-finite feature value")
            except ValueError as exc:
                raise ValueError(f"{path}: line {line_no}: {exc}") from None
            if not 0 <= label < num_classes:
                raise ValueError(
                    f"{path}: line {line_no}: label {label} outside "
                    f"[0, {num_classes})"
                )
            rows.append(feats)
            labels.append(label)
    if not rows:
        raise ValueError(f"{path}: no data rows")
    return Dataset(features=np.array(rows, dtype=np.float64),
                   labels=np.array(labels, dtype=np.int64),
                   num_classes=num_classes)


def held_out_rows(num_rows: int, test_fraction: float) -> int:
    """Rows ``train_test_split`` holds out for evaluation."""
    return int(round(test_fraction * num_rows))


def train_test_split(ds: Dataset, test_fraction: float, seed) -> tuple[Dataset, Dataset]:
    """Deterministic shuffled split; the test side is the held-out eval set."""
    if not 0.0 <= test_fraction < 1.0:
        raise ValueError(f"test_fraction must lie in [0, 1), got {test_fraction}")
    rng = as_rng(seed)
    perm = rng.permutation(len(ds))
    n_test = held_out_rows(len(ds), test_fraction)
    return ds.subset(perm[n_test:]), ds.subset(perm[:n_test])


def split_iid(ds: Dataset, num_clients: int, seed) -> list[np.ndarray]:
    """Random equal-size shards (sizes differ by at most one sample)."""
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if num_clients > len(ds):
        raise ValueError(
            f"cannot split {len(ds)} samples across {num_clients} clients"
        )
    rng = as_rng(seed)
    perm = rng.permutation(len(ds))
    return [np.sort(part) for part in np.array_split(perm, num_clients)]


def split_dirichlet(ds: Dataset, num_clients: int, alpha: float,
                    seed) -> list[np.ndarray]:
    """Label-skewed shards: per-class client proportions ~ Dirichlet(alpha).

    Draws up to ``DIRICHLET_DRAWS`` times until every client holds a sample;
    if no draw does, each empty shard takes one sample from the largest.
    """
    if num_clients < 1:
        raise ValueError("num_clients must be >= 1")
    if num_clients > len(ds):
        raise ValueError(
            f"cannot split {len(ds)} samples across {num_clients} clients"
        )
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    rng = as_rng(seed)
    for _ in range(DIRICHLET_DRAWS):
        shards = [[] for _ in range(num_clients)]
        for cls in range(ds.num_classes):
            cls_idx = np.nonzero(ds.labels == cls)[0]
            if cls_idx.size == 0:
                continue
            cls_idx = rng.permutation(cls_idx)
            proportions = rng.dirichlet(np.full(num_clients, alpha))
            cuts = (np.cumsum(proportions)[:-1] * cls_idx.size).astype(np.int64)
            for client, part in enumerate(np.split(cls_idx, cuts)):
                shards[client].extend(part.tolist())
        if all(len(s) >= 1 for s in shards):
            break
    else:
        for shard in shards:  # at most num_clients <= len(ds) moves
            if not shard:
                shard.append(max(shards, key=len).pop())
    return [np.sort(np.array(s, dtype=np.int64)) for s in shards]
