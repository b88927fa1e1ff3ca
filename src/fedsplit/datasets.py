"""Dataset loading, synthesis, and client partitioning.

The synthetic generator produces Gaussian class clusters with exactly
balanced labels (round-robin assignment before shuffling), a desk-scale
stand-in for image benchmarks.  Client partitioning supports IID equal
shards and Dirichlet(alpha) label-skewed shards; both are fully seeded.

The train/test rows and both partitions read only the labels and the row
count, and the synthetic draw gives its labels before any feature
(``synthetic_labels``), then draws the features in row blocks, each placed
at the rows the caller names (``synthetic_features``).  So a run can work
out where every row goes first and fill one matrix in that order.
"""

from __future__ import annotations

import csv
import math
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import check_int, check_real


__all__ = [
    "Dataset",
    "synthetic_dataset",
    "synthetic_labels",
    "synthetic_features",
    "load_csv_dataset",
    "train_test_rows",
    "held_out_rows",
    "split_iid",
    "split_dirichlet",
    "check_dirichlet_sum",
]

DIRICHLET_DRAWS = 100
# Rows per block of the synthetic feature draw, so the draw holds no
# temporary near the size of the feature matrix.
_ROW_BLOCK = 512


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray    # (n,) int64

    def __post_init__(self):
        if self.features.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ValueError("labels length must match feature rows")

    def __len__(self) -> int:
        return self.features.shape[0]


def synthetic_dataset(num_samples: int, input_dim: int, num_classes: int,
                      separation: float, seed) -> Dataset:
    """Gaussian class clusters with unit within-class noise.

    Class means are drawn on a sphere of radius ``separation``; labels are
    exactly balanced (within one sample) and shuffled deterministically.
    This is ``synthetic_labels`` then ``synthetic_features`` in natural order.
    """
    labels, means, rng = synthetic_labels(num_samples, input_dim, num_classes,
                                          separation, seed)
    return Dataset(features=synthetic_features(labels, means, rng), labels=labels)


def synthetic_labels(num_samples: int, input_dim: int, num_classes: int,
                     separation: float, seed) -> tuple[np.ndarray, np.ndarray,
                                                       np.random.Generator]:
    """The label draw of ``synthetic_dataset``: its labels, and the class means
    and generator that ``synthetic_features`` draws the rows from next."""
    check_int("num_samples", num_samples, 1)
    check_int("input_dim", input_dim, 1)
    check_int("num_classes", num_classes, 1)
    if num_samples < num_classes:
        raise ValueError("need at least one sample per class")
    check_real("separation", separation, "(-inf, inf)")
    rng = np.random.default_rng(seed)
    means = rng.standard_normal((num_classes, input_dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = means / norms * separation
    labels = np.arange(num_samples, dtype=np.int64) % num_classes
    rng.shuffle(labels)
    return labels, means, rng


def synthetic_features(labels: np.ndarray, means: np.ndarray, rng: np.random.Generator,
                       order: np.ndarray | None = None) -> np.ndarray:
    """The row draw of ``synthetic_dataset``: row i is unit noise plus
    ``means[labels[i]]``, and it lands at row j where ``order[j] == i``
    (natural order when ``order`` is None).

    The noise is drawn in label order, ``_ROW_BLOCK`` rows at a time, into
    one reused block, so the draw holds the matrix and two blocks; the
    generator's stream is the same as one whole-matrix draw.  It draws from
    ``rng``, so call it once per ``synthetic_labels``.
    """
    n, d = labels.size, means.shape[1]
    dest = np.arange(n)
    if order is not None:
        dest[order] = np.arange(n)  # the inverse: row order[j] lands at j
    features = np.empty((n, d))
    block = np.empty((min(n, _ROW_BLOCK), d))
    for start in range(0, n, _ROW_BLOCK):
        rows = slice(start, start + _ROW_BLOCK)
        noise = block[:dest[rows].size]
        rng.standard_normal(out=noise)
        noise += means[labels[rows]]
        features[dest[rows]] = noise
    return features


def load_csv_dataset(path: str, input_dim: int, num_classes: int) -> Dataset:
    """Parse a UTF-8 CSV (a leading BOM is skipped) with ``input_dim`` numeric
    feature columns and an integer ``label`` column in [0, ``num_classes``).

    The file is read once, row by row, into flat ``array`` buffers that
    become the matrix without a copy, so the load holds the matrix and one
    row, not the file's text.  Bytes that are not UTF-8, a field longer than
    the csv module's limit, a header of the wrong width, malformed rows,
    non-finite features and out-of-range labels raise ValueError naming the
    file (and a row's line).  Faults are met in file order, so in a file
    over 8 KiB a row fault before an undecodable byte is the one reported.
    """
    line = None  # the data row being read, once the header is checked
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ValueError("empty file")
            header = [h.strip() for h in header]
            if "label" not in header:
                raise ValueError("header must contain a 'label' column")
            label_col = header.index("label")
            feature_cols = [i for i in range(len(header)) if i != label_col]
            if len(feature_cols) != input_dim:
                raise ValueError(f"header has {len(feature_cols)} feature columns, "
                                 f"but dataset.input_dim is {input_dim}")
            features, labels = array("d"), array("q")
            line = 2
            for row in reader:
                if row:
                    if len(row) != len(header):
                        raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                    feats = [float(row[i]) for i in feature_cols]
                    label = int(row[label_col])
                    if not all(map(math.isfinite, feats)):
                        raise ValueError("non-finite feature value")
                    if not 0 <= label < num_classes:
                        raise ValueError(f"label {label} outside [0, {num_classes})")
                    features.extend(feats)
                    labels.append(label)
                line += 1
    except UnicodeDecodeError as exc:  # a whole chunk is decoded: no line is known
        raise ValueError(f"{path}: {exc}") from None
    except (csv.Error, ValueError) as exc:
        where = "" if line is None else f"line {line}: "
        raise ValueError(f"{path}: {where}{exc}") from None
    if not labels:
        raise ValueError(f"{path}: no data rows")
    return Dataset(features=np.frombuffer(features).reshape(len(labels), input_dim),
                   labels=np.frombuffer(labels, dtype=np.int64))


def held_out_rows(num_rows: int, test_fraction: float) -> int:
    """Rows ``train_test_rows`` holds out for evaluation."""
    return int(round(test_fraction * num_rows))


def train_test_rows(num_rows: int, test_fraction: float,
                    seed) -> tuple[np.ndarray, np.ndarray]:
    """A deterministic shuffled split of rows 0..num_rows-1 into train and test
    sides; the test side (``held_out_rows`` rows) is the held-out eval set."""
    check_real("test_fraction", test_fraction, "[0, 1)")
    perm = np.random.default_rng(seed).permutation(num_rows)
    n_test = held_out_rows(num_rows, test_fraction)
    return perm[n_test:], perm[:n_test]


def split_iid(num_rows: int, num_clients: int, seed) -> list[np.ndarray]:
    """Random equal-size shards of rows 0..num_rows-1 (sizes differ by at most
    one sample)."""
    check_int("num_rows", num_rows, 1)
    check_int("num_clients", num_clients, 1, num_rows)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(num_rows)
    return [np.sort(part) for part in np.array_split(perm, num_clients)]


def split_dirichlet(labels: np.ndarray, num_clients: int, alpha: float,
                    seed) -> list[np.ndarray]:
    """Label-skewed shards of the rows of ``labels``: per-class client
    proportions ~ Dirichlet(alpha).

    Draws up to ``DIRICHLET_DRAWS`` times until every client holds a sample;
    if no draw does, each empty shard takes one sample from the largest.
    """
    check_int("num_clients", num_clients, 1, labels.size)
    # an infinite alpha draws NaN proportions, which cast to invalid cuts
    check_real("alpha", alpha, "(0, inf)")
    check_dirichlet_sum("alpha", alpha, "num_clients", num_clients)
    rng = np.random.default_rng(seed)
    for _ in range(DIRICHLET_DRAWS):
        shards = [[] for _ in range(num_clients)]
        for cls in np.unique(labels):
            cls_idx = rng.permutation(np.nonzero(labels == cls)[0])
            proportions = rng.dirichlet(np.full(num_clients, float(alpha)))
            cuts = (np.cumsum(proportions)[:-1] * cls_idx.size).astype(np.int64)
            for client, part in enumerate(np.split(cls_idx, cuts)):
                shards[client].extend(part.tolist())
        if all(len(s) >= 1 for s in shards):
            break
    else:
        for shard in shards:  # at most num_clients <= labels.size moves
            if not shard:
                shard.append(max(shards, key=len).pop())
    return [np.sort(np.array(s, dtype=np.int64)) for s in shards]


def check_dirichlet_sum(alpha_name: str, alpha: float, clients_name: str,
                        num_clients: int) -> None:
    """Raise ValueError if the Dirichlet draw's sum of ``num_clients`` gamma draws
    of about ``alpha`` each can overflow, which leaves a shard empty in every draw."""
    if num_clients > sys.float_info.max / (2 * float(alpha)):
        raise ValueError(f"{alpha_name}={alpha} times {clients_name}={num_clients} "
                         f"overflows the Dirichlet draw")
