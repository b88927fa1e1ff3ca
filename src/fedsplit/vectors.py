"""Flat parameter-vector arithmetic and partition masks.

A model update is always handled as one flat float64 vector; layer structure
is an ingestion-time concern only.  A :class:`PartitionMask` names the
coordinates that receive encrypted (exact) protection, and ``split``/``merge``
move between the full vector and its two disjoint parts.  ``merge`` is the
exact inverse of ``split``: the round trip is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = ["PartitionMask", "split", "merge"]


@dataclass(frozen=True)
class PartitionMask:
    """Strictly increasing index set of encrypted coordinates over ``[0, dim)``."""

    he_indices: np.ndarray
    dim: int

    def __post_init__(self):
        idx = np.asarray(self.he_indices, dtype=np.int64)
        if idx.ndim != 1:
            raise DimensionError("he_indices must be 1-D")
        if self.dim < 1:
            raise DimensionError(f"dim must be positive, got {self.dim}")
        if idx.size:
            if idx[0] < 0 or idx[-1] >= self.dim:
                raise DimensionError(
                    f"indices must lie in [0, {self.dim}), got range "
                    f"[{idx.min()}, {idx.max()}]"
                )
            if np.any(np.diff(idx) <= 0):
                raise ValueError("he_indices must be strictly increasing")
        object.__setattr__(self, "he_indices", idx)

    @classmethod
    def from_indices(cls, indices, dim: int) -> "PartitionMask":
        """Build a mask from an unordered, possibly unsorted index collection."""
        idx = np.unique(np.fromiter(indices, dtype=np.int64))
        return cls(he_indices=idx, dim=dim)

    @property
    def size(self) -> int:
        return int(self.he_indices.size)

    def complement(self) -> np.ndarray:
        """Ascending indices of the noise-protected (non-encrypted) part."""
        keep = np.ones(self.dim, dtype=bool)
        keep[self.he_indices] = False
        return np.nonzero(keep)[0].astype(np.int64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionMask):
            return NotImplemented
        return self.dim == other.dim and np.array_equal(self.he_indices, other.he_indices)


def split(u: np.ndarray, mask: PartitionMask) -> tuple[np.ndarray, np.ndarray]:
    """Divide ``u`` into ``(dp_part, he_part)``, in ``merge``'s argument order.

    Both parts are new arrays in ascending original-index order, so ``merge``
    can reconstruct ``u`` exactly.
    """
    u = np.asarray(u, dtype=np.float64)
    if u.ndim != 1 or u.size != mask.dim:
        raise DimensionError(
            f"vector length {u.size if u.ndim == 1 else u.shape} does not match "
            f"mask dim {mask.dim}"
        )
    return u[mask.complement()], u[mask.he_indices]


def merge(dp_part: np.ndarray, he_part: np.ndarray, mask: PartitionMask) -> np.ndarray:
    """Reassemble the full vector from its two parts; exact inverse of ``split``."""
    dp_part = np.asarray(dp_part, dtype=np.float64)
    he_part = np.asarray(he_part, dtype=np.float64)
    if he_part.size != mask.size:
        raise DimensionError(
            f"he_part length {he_part.size} does not match mask size {mask.size}"
        )
    if dp_part.size != mask.dim - mask.size:
        raise DimensionError(
            f"dp_part length {dp_part.size} does not match {mask.dim - mask.size} "
            f"non-encrypted coordinates"
        )
    out = np.empty(mask.dim, dtype=np.float64)
    out[mask.he_indices] = he_part
    out[mask.complement()] = dp_part
    return out
