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

from ..errors import check_int, check_real

__all__ = ["HeParams", "HeCostModel", "decode_tolerance", "simulated_round_cost"]

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
        # twice the largest degree tested; a ring's one stage-table family takes 8 * log2(N) * N
        # bytes (184 bytes per coefficient at 2**17 with the twist, untwist and gather orders),
        # so a far larger degree would exhaust memory rather than fail cleanly
        check_int("ring_degree", n, 8, 2 ** 17)
        if n & (n - 1):
            raise ValueError(f"ring_degree must be a power of two >= 8, got {n}")
        check_int("scale_bits", self.scale_bits, 1)
        check_int("modulus_bits", self.modulus_bits, 2, _MAX_MODULUS_BITS)
        if self.scale_bits >= self.modulus_bits:
            raise ValueError(
                f"scale_bits ({self.scale_bits}) must be smaller than "
                f"modulus_bits ({self.modulus_bits})"
            )
        check_int("max_additions", self.max_additions, 1)

    @property
    def slot_count(self) -> int:
        # coefficient packing: one real per coefficient
        return self.ring_degree

    @property
    def scale(self) -> float:
        return float(1 << self.scale_bits)

    @property
    def max_encodable(self) -> float:
        """Largest |value| encodable so that a fold of ``max_additions + 1``
        ciphertexts cannot wrap.

        The fold's sum, (max_additions + 1) encoded values each with their
        rounding and 10-sigma noise envelope (``decode_tolerance``), must stay
        below q/2, and the prime q is above 2^(modulus_bits - 1).  Negative
        when the noise alone could wrap, so then every encrypt is refused.
        """
        fold_bound = math.ldexp(1.0, self.modulus_bits - 2 - self.scale_bits)
        return fold_bound / (self.max_additions + 1) - decode_tolerance(self)


@dataclass(frozen=True)
class HeCostModel:
    """Linear simulated-time model for the mock backend (per value, per call)."""

    per_slot_seconds: float = 1e-6
    per_op_seconds: float = 1e-3

    def __post_init__(self):
        check_real("per_slot_seconds", self.per_slot_seconds, "[0, inf)")
        check_real("per_op_seconds", self.per_op_seconds, "[0, inf)")


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


def simulated_round_cost(cost_model: HeCostModel, n_vectors: int, vec_len: int) -> float:
    """Encrypt ``n_vectors`` vectors, aggregate once and decrypt once: ``n_vectors + 2``
    operations of ``per_op_seconds + per_slot_seconds * vec_len`` simulated seconds each."""
    check_int("n_vectors", n_vectors, 0)
    check_int("vec_len", vec_len, 0)
    per = cost_model.per_op_seconds + cost_model.per_slot_seconds * vec_len
    return n_vectors * per + per + per
