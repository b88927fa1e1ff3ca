"""Flat parameter-vector arithmetic and partition masks.

A model update is always handled as one flat float64 vector; layer structure
is an ingestion-time concern only.  A :class:`PartitionMask` is the boolean
indicator of the coordinates that receive encrypted (exact) protection, and
``split``/``merge`` move between the full vector and its two disjoint parts.
``merge`` is the exact inverse of ``split``: the round trip is bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

__all__ = ["PartitionMask", "split", "merge"]


@dataclass(frozen=True)
class PartitionMask:
    """A non-empty 1-D ``bool`` array over the update's coordinates, True
    where a coordinate is encrypted."""

    encrypted: np.ndarray

    def __post_init__(self):
        e = self.encrypted  # not cast: an index or 0/1 int array is refused
        if not (isinstance(e, np.ndarray) and e.dtype == np.bool_ and e.ndim == 1 and e.size):
            got = f"{e.dtype} of shape {e.shape}" if isinstance(e, np.ndarray) else type(e).__name__
            raise DimensionError(f"a partition mask must be a non-empty 1-D bool array, got {got}")

    @property
    def dim(self) -> int:
        return int(self.encrypted.size)

    @property
    def size(self) -> int:
        """Number of encrypted coordinates."""
        return int(np.count_nonzero(self.encrypted))

    @property
    def he_indices(self) -> np.ndarray:
        """Ascending indices of the encrypted coordinates."""
        return np.flatnonzero(self.encrypted)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PartitionMask):
            return NotImplemented
        return np.array_equal(self.encrypted, other.encrypted)


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
    # np.compress, not u[mask.encrypted]: several times faster on a scattered mask
    return np.compress(~mask.encrypted, u), np.compress(mask.encrypted, u)


def merge(dp_part: np.ndarray, he_part: np.ndarray, mask: PartitionMask) -> np.ndarray:
    """Reassemble the full vector from its two parts; exact inverse of ``split``."""
    dp_part = np.asarray(dp_part, dtype=np.float64)
    he_part = np.asarray(he_part, dtype=np.float64)
    if dp_part.ndim != 1 or he_part.ndim != 1:
        raise DimensionError(f"dp_part and he_part must be 1-D, got shapes "
                             f"{dp_part.shape} and {he_part.shape}")
    k = mask.size
    if he_part.size != k:
        raise DimensionError(
            f"he_part length {he_part.size} does not match mask size {k}"
        )
    if dp_part.size != mask.dim - k:
        raise DimensionError(
            f"dp_part length {dp_part.size} does not match {mask.dim - k} "
            f"non-encrypted coordinates"
        )
    out = np.empty(mask.dim, dtype=np.float64)
    # index arrays, not out[mask.encrypted]: several times faster on a scattered mask
    out[mask.he_indices] = he_part
    out[np.flatnonzero(~mask.encrypted)] = dp_part
    return out
