"""Addition-only RLWE scheme over real vectors ("ckks-lite").

Encode: fixed-point scaling by 2^scale_bits, coefficient packing (one value
per ring coefficient).  Encrypt: standard RLWE with ternary ephemeral u and
centered-binomial errors; ciphertexts are kept in NTT (evaluation) form so
homomorphic addition is a vectorized modular add.  Decrypt: c0 + c1*s,
inverse transform, centered lift, unscale.

No multiplication, relinearization, rescaling, or bootstrapping: the
aggregation workload only adds.  Parameters are toy-sized; this backend
demonstrates the protocol, it is not a hardened cryptosystem.
"""

from __future__ import annotations

import numpy as np

from ..seeds import as_rng
from .base import HeBackend, KeyPair
from .params import HeParams
from .ring import NegacyclicRing

__all__ = ["CkksBackend"]


class CkksBackend(HeBackend):
    name = "ckks"
    time_basis = "wall"

    def __init__(self, params: HeParams):
        super().__init__(params)
        self.ring = NegacyclicRing(params.ring_degree, params.modulus_bits)

    def keygen(self, seed) -> KeyPair:
        """Public key (a, b) with b = -a*s + e, secret key s, all in evaluation form."""
        rng = as_rng(seed)
        ring = self.ring
        s_eval = ring.to_eval(ring.ternary(rng))
        a_eval = ring.to_eval(ring.uniform(rng))
        e_eval = ring.to_eval(ring.cbd_error(rng))
        b_eval = ring.addmod(ring.negmod(ring.mulmod(a_eval, s_eval)), e_eval)
        return KeyPair(public_key=(a_eval, b_eval), secret_key=s_eval,
                       params=self.params, backend=self.name)

    # Bound in this class body, not only inherited: bench/tracer.py wraps
    # each backend's own cls.__dict__ entries.
    encrypt, hom_add, decrypt = HeBackend.encrypt, HeBackend.hom_add, HeBackend.decrypt

    def _encrypt_chunk(self, key: tuple, chunk: np.ndarray, rng) -> tuple:
        ring = self.ring
        a_eval, b_eval = key
        m = np.zeros(self.params.ring_degree, dtype=np.int64)
        m[: chunk.size] = np.rint(chunk * self.params.scale).astype(np.int64)
        u_eval = ring.to_eval(ring.ternary(rng))
        e1_plus_m = ring.addmod(ring.cbd_error(rng), ring.from_signed(m))
        c0 = ring.addmod(ring.mulmod(b_eval, u_eval), ring.to_eval(e1_plus_m))
        c1 = ring.addmod(ring.mulmod(a_eval, u_eval),
                         ring.to_eval(ring.cbd_error(rng)))
        return c0, c1

    def _add_payloads(self, a: tuple, b: tuple) -> tuple:
        return self.ring.addmod(a[0], b[0]), self.ring.addmod(a[1], b[1])

    def _decrypt_chunk(self, s_eval: np.ndarray, payload: tuple) -> np.ndarray:
        ring = self.ring
        c0, c1 = payload
        m_res = ring.from_eval(ring.addmod(c0, ring.mulmod(c1, s_eval)))
        return ring.to_signed(m_res).astype(np.float64) / self.params.scale
