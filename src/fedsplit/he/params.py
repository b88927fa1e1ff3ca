"""Parameters and cost model for the addition-only HE backends.

Values are encoded with coefficient packing: one real per ring coefficient,
so ``slot_count == ring_degree``.  Addition-only workloads never need
rotation/SIMD semantics, and aggregation cost depends only on plaintext
length.

The defaults (ring degree 4096, ~2^50 single-prime modulus, 2^20 scale,
256 additions) are TOY parameters chosen for headroom and speed, not for
cryptographic security.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["HeParams", "HeCostModel", "decode_tolerance", "simulated_cost",
           "simulated_round_cost"]

_MAX_MODULUS_BITS = 51  # exactness bound of the float-assisted modmul in ring.py


@dataclass(frozen=True)
class HeParams:
    """Ring and fixed-point encoding parameters shared by all backends."""

    ring_degree: int = 4096
    scale_bits: int = 20
    modulus_bits: int = 50
    max_additions: int = 256

    def __post_init__(self):
        n = self.ring_degree
        if n < 8 or n & (n - 1):
            raise ValueError(f"ring_degree must be a power of two >= 8, got {n}")
        if self.scale_bits < 1:
            raise ValueError(f"scale_bits must be >= 1, got {self.scale_bits}")
        if self.modulus_bits > _MAX_MODULUS_BITS:
            raise ValueError(
                f"modulus_bits must be <= {_MAX_MODULUS_BITS}, got {self.modulus_bits}"
            )
        if self.scale_bits >= self.modulus_bits:
            raise ValueError(
                f"scale_bits ({self.scale_bits}) must be smaller than "
                f"modulus_bits ({self.modulus_bits})"
            )
        if self.max_additions < 1:
            raise ValueError(f"max_additions must be >= 1, got {self.max_additions}")

    @property
    def slot_count(self) -> int:
        # coefficient packing: one real per coefficient
        return self.ring_degree

    @property
    def scale(self) -> float:
        return float(1 << self.scale_bits)

    @property
    def max_encodable(self) -> float:
        """Largest |value| encodable so that ``max_additions`` sums cannot wrap.

        The headroom ``modulus_bits - scale_bits`` must cover the sign bit
        plus log2(max_additions * max|value|).
        """
        headroom_bits = self.modulus_bits - self.scale_bits - 1
        return 2.0 ** headroom_bits / self.max_additions


@dataclass(frozen=True)
class HeCostModel:
    """Linear simulated-time model for the mock backend (per value, per call)."""

    per_slot_seconds: float = 1e-6
    per_op_seconds: float = 1e-3

    def __post_init__(self):
        if self.per_slot_seconds < 0 or self.per_op_seconds < 0:
            raise ValueError("cost model components must be nonnegative")


def decode_tolerance(params: HeParams) -> float:
    """Per-coordinate error bound for decrypting one fresh ciphertext.

    The decryption noise is e*u + e2*s + e1 with centered-binomial errors
    (variance 1/2) and ternary u, s (variance 2/3); its per-coefficient std
    is sqrt(2 * N * (1/2) * (2/3)).  A 10-sigma envelope divided by the
    fixed-point scale bounds the decoded error; additions scale it by
    (1 + add_count).
    """
    noise_std = math.sqrt(2.0 * params.ring_degree * 0.5 * (2.0 / 3.0) + 0.5)
    return (10.0 * noise_std + 0.5) / params.scale


def simulated_cost(cost_model: HeCostModel, n_vectors: int, vec_len: int) -> float:
    """Simulated seconds for one phase touching ``n_vectors`` of ``vec_len`` values."""
    if n_vectors < 0 or vec_len < 0:
        raise ValueError("n_vectors and vec_len must be nonnegative")
    return n_vectors * (cost_model.per_op_seconds
                        + cost_model.per_slot_seconds * vec_len)


def simulated_round_cost(cost_model: HeCostModel, n_vectors: int, vec_len: int) -> float:
    """Encrypt ``n_vectors`` vectors, then aggregate once and decrypt once."""
    return (simulated_cost(cost_model, n_vectors, vec_len)
            + simulated_cost(cost_model, 1, vec_len)
            + simulated_cost(cost_model, 1, vec_len))
