"""Negacyclic polynomial ring Z_q[X]/(X^N + 1) with NTT multiplication.

q is a prime with q = 1 (mod 2N) so a primitive 2N-th root of unity psi
exists; multiplying coefficients by powers of psi turns negacyclic
convolution into a plain length-N NTT (the standard psi-twist).

All coefficient vectors are uint64 arrays reduced mod q.  Modular products
use a float64-assisted quotient estimate, exact for q < 2^51: the quotient
a*b/q fits in 53 bits with at most +-2 estimation error, and the remainder
is recovered through wrapping uint64 arithmetic.
"""

from __future__ import annotations

import numpy as np

__all__ = ["NegacyclicRing", "find_ntt_prime"]

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3e24
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def find_ntt_prime(modulus_bits: int, ring_degree: int) -> int:
    """Largest prime q < 2^modulus_bits with q = 1 (mod 2*ring_degree)."""
    two_n = 2 * ring_degree
    q = ((1 << modulus_bits) - 1) // two_n * two_n + 1
    floor = 1 << (modulus_bits - 1)
    while q > floor:
        if _is_prime(q):
            return q
        q -= two_n
    raise ValueError(
        f"no NTT-friendly prime with {modulus_bits} bits for ring degree {ring_degree}"
    )


def _find_psi(q: int, two_n: int) -> int:
    # primitive 2N-th root: psi^(N) == -1 (mod q)
    for g in range(2, 1 << 16):
        psi = pow(g, (q - 1) // two_n, q)
        if pow(psi, two_n // 2, q) == q - 1:
            return psi
    raise ValueError(f"no primitive {two_n}-th root of unity mod {q}")


def _pow_table(base: int, count: int, q: int, first: int = 1) -> np.ndarray:
    out = np.empty(count, dtype=np.uint64)
    acc = first
    for i in range(count):
        out[i] = acc
        acc = acc * base % q
    return out


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


class NegacyclicRing:
    """Arithmetic in Z_q[X]/(X^N + 1), vectorised over leading array dims."""

    def __init__(self, ring_degree: int, modulus_bits: int):
        self.n = ring_degree
        self.q = find_ntt_prime(modulus_bits, ring_degree)
        self._qv = np.uint64(self.q)
        self._qinv = 1.0 / self.q
        psi = _find_psi(self.q, 2 * self.n)
        omega = psi * psi % self.q
        self._psi_pows = _pow_table(psi, self.n, self.q)
        # n^-1 * psi^-i: the inverse transform's 1/n scaling and untwist in one table
        self._psi_inv_pows = _pow_table(pow(psi, self.q - 2, self.q), self.n, self.q,
                                        first=pow(self.n, self.q - 2, self.q))
        self._omega_pows = _pow_table(omega, self.n, self.q)
        self._omega_inv_pows = _pow_table(pow(omega, self.q - 2, self.q), self.n, self.q)
        self._bitrev = _bit_reverse_indices(self.n)

    # -- modular scalar/vector ops -------------------------------------------------

    def mulmod(self, a: np.ndarray, b) -> np.ndarray:
        """Exact (a * b) mod q for uint64 operands < q."""
        a = np.asarray(a, dtype=np.uint64)
        b = np.asarray(b, dtype=np.uint64)
        t = np.floor(a.astype(np.float64) * b.astype(np.float64) * self._qinv + 0.5)
        t = t.astype(np.uint64)
        r = (a * b - t * self._qv).view(np.int64) % self.q
        return r.view(np.uint64)

    def addmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        s = a + b  # < 2q < 2^52: no wrap
        return np.where(s >= self._qv, s - self._qv, s)

    def submod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        s = a + self._qv - b
        return np.where(s >= self._qv, s - self._qv, s)

    def negmod(self, a: np.ndarray) -> np.ndarray:
        return np.where(a == 0, a, self._qv - a)

    # -- integer <-> residue embedding ----------------------------------------------

    def from_signed(self, v: np.ndarray) -> np.ndarray:
        """Embed signed int64 coefficients (|v| < q/2) into [0, q)."""
        return np.mod(np.asarray(v, dtype=np.int64), self.q).astype(np.uint64)

    def to_signed(self, a: np.ndarray) -> np.ndarray:
        """Centered lift of residues to (-q/2, q/2]."""
        v = a.astype(np.int64)
        return np.where(v > self.q // 2, v - self.q, v)

    # -- transforms ------------------------------------------------------------------

    def _transform(self, a: np.ndarray, w_pows: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(a[..., self._bitrev])
        n = self.n
        length = 2
        while length <= n:
            half = length // 2
            tw = w_pows[(n // length) * np.arange(half)]
            y = x.reshape(*x.shape[:-1], n // length, length)
            lo = y[..., :half]
            hi = self.mulmod(y[..., half:], tw)
            added = self.addmod(lo, hi)
            y[..., half:] = self.submod(lo, hi)  # before lo is overwritten
            y[..., :half] = added
            length *= 2
        return x

    def to_eval(self, a: np.ndarray) -> np.ndarray:
        """Coefficient form -> evaluation (NTT) form, with the psi twist."""
        return self._transform(self.mulmod(a, self._psi_pows), self._omega_pows)

    def from_eval(self, a_eval: np.ndarray) -> np.ndarray:
        """Evaluation form -> coefficient form."""
        return self.mulmod(self._transform(a_eval, self._omega_inv_pows), self._psi_inv_pows)

    # -- sampling ---------------------------------------------------------------------

    def uniform(self, rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.q, self.n, dtype=np.uint64)

    def ternary(self, rng: np.random.Generator) -> np.ndarray:
        """Uniform {-1, 0, 1} secret/relay polynomial, embedded mod q."""
        return self.from_signed(rng.integers(-1, 2, self.n, dtype=np.int64))

    def cbd_error(self, rng: np.random.Generator) -> np.ndarray:
        """Centered-binomial error (difference of two coin flips), mod q."""
        e = (rng.integers(0, 2, self.n, dtype=np.int64)
             - rng.integers(0, 2, self.n, dtype=np.int64))
        return self.from_signed(e)
