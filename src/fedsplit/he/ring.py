"""Negacyclic polynomial ring Z_q[X]/(X^N + 1) with NTT multiplication.

q is a prime with q = 1 (mod 2N) so a primitive 2N-th root of unity psi
exists; multiplying coefficients by powers of psi turns negacyclic
convolution into a plain length-N NTT (the standard psi-twist).

All coefficient vectors are uint64 arrays reduced mod q.  Modular products
use a float64-assisted quotient estimate, exact for q < 2^51: the quotient
a*b/q fits in 53 bits with at most +-2 estimation error, and the remainder
is recovered through wrapping uint64 arithmetic.  Nothing divides or
branches: the remainder r = a*b - t*q of the truncated estimate t lies in
(-2q, 2q), where a negative r has wrapped above 2^64 - 2q, so
``min(r, r + 2q)`` lifts it into [0, 2q) and ``min(r, r - q)`` into [0, q);
a sum below 2q reduces as ``min(s, s - q)``.  Tabled multipliers w (twists
and twiddles) carry a float64 copy of w / q, so their estimate costs one
float product; it stays within the window for a multiplicand below 2q,
which lets a butterfly multiply its difference a + q - b unreduced.

The tables of powers are built by exact doubling: with ``first * base^i``
known for i < size, one vector product by ``base^size`` (a scalar below q,
squared as a Python int each step) fills i < 2*size.  Both factors are
below q, inside the product's window, so every entry is exactly what a
Python-int ``acc * base % q`` loop gives, from ceil(log2(count)) vector
products instead of count Python big-int steps.

The NTT is a natural-order Stockham radix-2 transform (decimation in
frequency).  With the rows viewed as ``(..., 2, m, s)``, the stage for
``s = 1, 2, ..., N/2`` (``m = N/(2s)``) reads the two contiguous halves
``a, b`` and writes ``a + b`` and ``(a - b) * omega^(p*s)`` to rows ``2p``
and ``2p + 1`` of a fresh ``(..., m, 2, s)`` buffer, so every pass is
contiguous and no bit-reversal permutation is needed.
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


def _mulmod_by(a: np.ndarray, table: tuple, qv: np.uint64, two_qv: np.uint64) -> np.ndarray:
    """Exact (a * w) mod q for a < 2q and a ``_with_quotients`` table of w < q."""
    w, w_over_q = table
    t = (a.astype(np.float64) * w_over_q).astype(np.int64)
    r = a * w - t.view(np.uint64) * qv  # wrapped into (-2q, 2q)
    r = np.minimum(r, r + two_qv)
    return np.minimum(r, r - qv)


def _pow_table(base: int, count: int, q: int, first: int = 1) -> np.ndarray:
    """first * base^i mod q for i < count, by exact doubling."""
    out = np.empty(count, dtype=np.uint64)
    out[:1] = first
    qv, two_qv = np.uint64(q), np.uint64(2 * q)
    step, size = base % q, 1
    while size < count:
        end = min(2 * size, count)
        out[size:end] = _mulmod_by(out[:end - size], (np.uint64(step), step / q), qv, two_qv)
        step, size = step * step % q, 2 * size
    return out


def _with_quotients(w: np.ndarray, q: int) -> tuple:
    """A multiplier table and its float64 quotients w / q, for ``_mulmod_by``."""
    return w, w.astype(np.float64) / q


def _stage_tables(omega: int, n: int, q: int) -> tuple:
    """Each Stockham stage's twiddles omega^(p*s), p < n/(2s), as (m, 1) columns."""
    pows = _pow_table(omega, n // 2, q)
    return tuple(_with_quotients(np.ascontiguousarray(pows[::s]).reshape(-1, 1), q)
                 for s in (1 << i for i in range(n.bit_length() - 1)))


class NegacyclicRing:
    """Arithmetic in Z_q[X]/(X^N + 1), vectorised over leading array dims."""

    def __init__(self, ring_degree: int, modulus_bits: int):
        self.n = ring_degree
        self.q = find_ntt_prime(modulus_bits, ring_degree)
        q = self.q
        self._qv = np.uint64(q)
        self._two_qv = np.uint64(2 * q)
        self._qinv = 1.0 / q
        psi = _find_psi(q, 2 * self.n)
        psi_inv = pow(psi, q - 2, q)
        self._twist = _with_quotients(_pow_table(psi, self.n, q), q)
        # n^-1 * psi^-i: the inverse transform's 1/n scaling and untwist in one table
        self._untwist = _with_quotients(
            _pow_table(psi_inv, self.n, q, first=pow(self.n, q - 2, q)), q)
        self._stages = _stage_tables(psi * psi % q, self.n, q)
        self._inv_stages = _stage_tables(psi_inv * psi_inv % q, self.n, q)

    # -- modular scalar/vector ops -------------------------------------------------

    def mulmod(self, a: np.ndarray, b) -> np.ndarray:
        """Exact (a * b) mod q for uint64 operands < q."""
        b = np.asarray(b, dtype=np.uint64)
        return _mulmod_by(np.asarray(a, dtype=np.uint64),
                          (b, b.astype(np.float64) * self._qinv), self._qv, self._two_qv)

    def addmod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        s = a + b  # < 2q < 2^52: no wrap
        return np.minimum(s, s - self._qv)

    def submod(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        s = a + self._qv - b
        return np.minimum(s, s - self._qv)

    # -- integer <-> residue embedding ----------------------------------------------

    def from_signed(self, v: np.ndarray) -> np.ndarray:
        """Embed signed int64 coefficients (|v| < q/2) into [0, q)."""
        u = np.asarray(v, dtype=np.int64).view(np.uint64)
        return np.minimum(u, u + self._qv)

    def to_signed(self, a: np.ndarray) -> np.ndarray:
        """Centered lift of residues to (-q/2, q/2]."""
        v = a.astype(np.int64)
        return np.where(v > self.q // 2, v - self.q, v)

    # -- transforms ------------------------------------------------------------------

    def _ntt(self, x: np.ndarray, stages: tuple) -> np.ndarray:
        """Natural-order NTT of the rows of ``x``; ``x`` itself is never written."""
        rows = x.reshape(-1, self.n)
        for table in stages:
            m = table[0].shape[0]
            s = self.n // (2 * m)
            halves = rows.reshape(rows.shape[0], 2, m, s)
            a, b = halves[:, 0], halves[:, 1]
            rows = np.empty_like(rows)
            out = rows.reshape(rows.shape[0], m, 2, s)
            out[:, :, 0] = self.addmod(a, b)
            out[:, :, 1] = _mulmod_by(a + self._qv - b, table, self._qv, self._two_qv)
        return rows

    def to_eval(self, a: np.ndarray) -> np.ndarray:
        """Coefficient form -> evaluation (NTT) form, with the psi twist."""
        a = np.asarray(a, dtype=np.uint64)
        return self._ntt(_mulmod_by(a, self._twist, self._qv, self._two_qv),
                         self._stages).reshape(a.shape)

    def from_eval(self, a_eval: np.ndarray) -> np.ndarray:
        """Evaluation form -> coefficient form."""
        a_eval = np.asarray(a_eval, dtype=np.uint64)
        return _mulmod_by(self._ntt(a_eval, self._inv_stages), self._untwist,
                          self._qv, self._two_qv).reshape(a_eval.shape)

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
