"""Shared ciphertext/key containers and the backend contract.

Both backends (the lattice scheme in ``ckks.py`` and the cost-modeled mock
in ``mock.py``) run one shared path, written once in ``HeBackend``: the key
check, plaintext validation (finite values within the fixed-point
headroom), chunking into at most ``slot_count`` values per ciphertext,
slot-aligned addition with its depth check, the chunk-layout check and
decrypt stitching (truncated to the caller's original length), and the
client-order fold of ``aggregate``.  A backend supplies only its per-chunk
math: ``_encrypt_chunk``, ``_add_payloads`` and ``_decrypt_chunk``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..errors import DimensionError, EncodingOverflowError, ProtocolError
from ..seeds import as_rng
from .params import HeParams

__all__ = ["Ciphertext", "KeyPair", "HeBackend", "chunk_bounds"]


@dataclass
class Ciphertext:
    """One encrypted chunk of a vector.

    ``add_count`` counts the homomorphic additions folded into this
    ciphertext; backends reject additions past ``params.max_additions``.
    """

    payload: object
    slots_used: int
    add_count: int
    params: HeParams
    backend: str


@dataclass
class KeyPair:
    public_key: object
    secret_key: object
    params: HeParams
    backend: str


def chunk_bounds(length: int, slot_count: int) -> list[tuple[int, int]]:
    """(start, stop) pairs covering [0, length) in slot_count-sized chunks."""
    return [(s, min(s + slot_count, length)) for s in range(0, length, slot_count)]


class HeBackend:
    """Operation contract both backends implement.

    Each backend declares its config/wire ``name`` and the ``time_basis``
    of its reports ("simulated" or "wall"), and defines ``keygen``,
    ``encrypt``, ``hom_add`` and ``decrypt`` in its own class body (the
    benchmark's tracer wraps them per class); the last three delegate to
    the shared ``_encrypt``, ``_hom_add`` and ``_decrypt`` below, which
    call the backend's per-chunk math: ``_encrypt_chunk(public_key, chunk,
    rng)``, ``_add_payloads(a, b)`` and ``_decrypt_chunk(secret_key,
    payload)``.

    decrypt with a mismatched secret key yields garbage without detection;
    only structural mismatches (params, chunk layout) raise.
    """

    name: str
    time_basis: str

    def __init__(self, params: HeParams):
        self.params = params

    def aggregate(self, kp: KeyPair, per_client_cts: Sequence[list], length: int) -> np.ndarray:
        """Fold each client's chunks in client order, decrypt, and divide by n."""
        n_chunks = len(per_client_cts[0])
        if any(len(cts) != n_chunks for cts in per_client_cts):
            raise ProtocolError("clients produced differing ciphertext chunk counts")
        summed = list(per_client_cts[0])
        for cts in per_client_cts[1:]:
            summed = [self.hom_add(a, b) for a, b in zip(summed, cts)]
        return self.decrypt(kp, summed, length) / len(per_client_cts)

    # -- the shared path -------------------------------------------------------

    def _check_key(self, kp: KeyPair, half: str) -> None:
        if kp.backend != self.name or kp.params != self.params:
            raise DimensionError(f"{half} key params/backend mismatch")

    def _ciphertext(self, payload, slots_used: int, add_count: int = 0) -> Ciphertext:
        return Ciphertext(payload=payload, slots_used=slots_used, add_count=add_count,
                          params=self.params, backend=self.name)

    def _encrypt(self, pk: KeyPair, x: np.ndarray, seed) -> list[Ciphertext]:
        self._check_key(pk, "public")
        x = np.asarray(x, dtype=np.float64)
        if not np.all(np.isfinite(x)):
            raise ValueError("plaintext contains non-finite values")
        worst = float(np.max(np.abs(x))) if x.size else 0.0
        p = self.params
        if worst > p.max_encodable:
            raise EncodingOverflowError(
                f"value magnitude {worst:g} exceeds fixed-point headroom "
                f"{p.max_encodable:g} (modulus_bits={p.modulus_bits}, "
                f"scale_bits={p.scale_bits}, max_additions={p.max_additions})")
        rng = as_rng(seed)
        return [self._ciphertext(self._encrypt_chunk(pk.public_key, x[start:stop], rng),
                                 stop - start)
                for start, stop in chunk_bounds(x.size, p.slot_count)]

    def _hom_add(self, a: Ciphertext, b: Ciphertext) -> Ciphertext:
        if a.backend != self.name or b.backend != self.name:
            raise DimensionError(f"ciphertext backend mismatch: {a.backend!r} + "
                                 f"{b.backend!r} under {self.name!r}")
        if a.params != b.params or a.params != self.params:
            raise DimensionError("ciphertext params mismatch in hom_add")
        if a.slots_used != b.slots_used:
            raise DimensionError(f"slot mismatch in hom_add: {a.slots_used} vs {b.slots_used}")
        add_count = a.add_count + b.add_count + 1
        if add_count > self.params.max_additions:
            raise ValueError(f"additive depth exhausted: {add_count} > "
                             f"max_additions={self.params.max_additions}")
        return self._ciphertext(self._add_payloads(a.payload, b.payload),
                                a.slots_used, add_count)

    def _decrypt(self, sk: KeyPair, cts: Sequence[Ciphertext], original_len: int) -> np.ndarray:
        self._check_key(sk, "secret")
        if original_len < 0:
            raise ValueError("original_len must be nonnegative")
        total = 0
        for i, ct in enumerate(cts):
            if ct.backend != self.name or ct.params != self.params:
                raise DimensionError(f"ciphertext {i} params/backend mismatch")
            if i < len(cts) - 1 and ct.slots_used != self.params.slot_count:
                raise DimensionError(f"non-final chunk {i} uses {ct.slots_used} slots, "
                                     f"expected {self.params.slot_count}")
            total += ct.slots_used
        if total < original_len:
            raise DimensionError(f"ciphertexts cover {total} values, need {original_len}")
        out = np.empty(original_len, dtype=np.float64)
        pos = 0
        for ct in cts:
            if pos >= original_len:
                break
            take = min(ct.slots_used, original_len - pos)
            out[pos: pos + take] = self._decrypt_chunk(sk.secret_key, ct.payload)[:take]
            pos += take
        return out
