"""Negacyclic polynomial ring Z_q[X]/(X^N + 1) with NTT multiplication.

q is a prime with q = 1 (mod 2N) so a primitive 2N-th root of unity psi
exists; multiplying coefficients by powers of psi turns negacyclic
convolution into a plain length-N NTT (the standard psi-twist).

All coefficient vectors are uint64 arrays reduced mod q, except inside a
transform, where they stay in [0, 2q) (below).  Modular products use a
float64-assisted quotient estimate and recover the remainder through
wrapping uint64 arithmetic; nothing divides or branches.  ``_mulmod_by``
multiplies a < 4q by a tabled w < q (twists and twiddles) that carries a
float64 copy c of w / q.  The window holds for q < 2^51, so for every
modulus up to ``HeParams``' 51-bit cap: w / q < 1, so c is within 2^-54
of it and a*c is within 4q * 2^-54 < 1/2 of the true quotient
Q = a*w/q; the float product a*c < 4q < 2^53 rounds by at most 1/2, so
the estimate is within 1 of Q and its truncation t lies in (Q - 2, Q + 1).  The remainder r = a*w - t*q therefore lies in (-q, 2q),
where a negative r has wrapped above 2^64 - q, and ``min(r, r + 2q)``
lifts it into [0, 2q).  ``mulmod`` forms c as w * (1/q), two roundings
of 2^-53 relative each, which keeps the estimate within 1 of Q for its
operands below q.  Callers that need [0, q) reduce once more with
``min(r, r - q)``; a sum below 2q reduces the same way.

The twist table psi^i is built by exact doubling: with base^i known for
i < size, one vector product by ``base^size`` (a scalar below q, squared
as a Python int each step) fills i < 2*size.  Both factors are below q,
inside the product's window, so every entry is exactly what a Python-int
``acc * base % q`` loop gives, from ceil(log2(count)) vector products
instead of count Python big-int steps.  Every other table derives from
it.  omega = psi^2, so omega^t is the twist's entry 2t.  psi^N = -1, so
the untwist n^-1 * psi^-i is n^-1 * (q - psi^(N - i)) for 0 < i < N.  And
sum_j X_j omega^(-ij) is the forward transform's entry (N - i) mod N, so
the inverse runs the forward stages and gathers by ``bitrev[(-i) mod N]``.

The NTT is a constant-geometry radix-2 transform (Pease's layout, with
decimation in frequency).  Every one of its log2(N) stages reads the two
contiguous halves ``a = x[..., :N/2]`` and ``b = x[..., N/2:]`` and writes
``a + b`` to the even and ``(a - b) * w`` to the odd entries of another
buffer (two take turns), where entry t of stage k's flat twiddle table is
``omega^((t >> k) << k)``.  The result comes out in bit-reversed order,
and one gather by ``bitrev`` restores natural order.  The butterflies are
lazy (Harvey, 2014): entries stay in [0, 2q) between stages, the sum
reduces as ``min(s, s - 2q)`` and the difference is multiplied unreduced
as ``a + 2q - b < 4q``, inside the window above.  ``to_eval`` reduces its
result into [0, q) once, after the gather, and ``from_eval`` after its
untwist.  Each stage's table holds N/2 entries and their quotients, so
the stage tables take 8 * log2(N) * N bytes.
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


def _mulmod_by(a: np.ndarray, table: tuple, qv: np.uint64, two_qv: np.uint64,
               out: np.ndarray | None = None) -> np.ndarray:
    """(a * w) mod q, in [0, 2q), for a < 4q and a ``_with_quotients`` table of w < q."""
    w, w_over_q = table
    t = (a.astype(np.float64) * w_over_q).astype(np.int64).view(np.uint64)
    t *= qv
    r = a * w
    r -= t  # wrapped into (-q, 2q)
    return np.minimum(r, np.add(r, two_qv, out=t), out=out)


def _pow_table(base: int, count: int, q: int) -> np.ndarray:
    """base^i mod q for i < count, by exact doubling."""
    out = np.empty(count, dtype=np.uint64)
    out[:1] = 1
    qv, two_qv = np.uint64(q), np.uint64(2 * q)
    step, size = base % q, 1
    while size < count:
        end = min(2 * size, count)
        r = _mulmod_by(out[:end - size], (np.uint64(step), step / q), qv, two_qv)
        out[size:end] = np.minimum(r, r - qv)
        step, size = step * step % q, 2 * size
    return out


def _with_quotients(w: np.ndarray, q: int) -> tuple:
    """A multiplier table and its float64 quotients w / q, for ``_mulmod_by``."""
    return w, w.astype(np.float64) / q


def _stage_tables(pows: np.ndarray, q: int) -> tuple:
    """Each stage k's flat twiddle table omega^((t >> k) << k) for
    t < len(pows), from ``pows`` = omega^t."""
    return tuple(tuple(np.repeat(col[::1 << k], 1 << k) for col in _with_quotients(pows, q))
                 for k in range(pows.size.bit_length()))


def _bit_reverse(n: int) -> np.ndarray:
    """i with its log2(n) bits reversed, for i < n (a power of two)."""
    bits = n.bit_length() - 1
    # reversing the axes of the (2, ..., 2) view of arange(n) reverses each index's bits
    return np.arange(n).reshape((2,) * bits).transpose().reshape(-1)


class NegacyclicRing:
    """Arithmetic in Z_q[X]/(X^N + 1), vectorised over leading array dims."""

    def __init__(self, ring_degree: int, modulus_bits: int):
        self.n = ring_degree
        self.q = find_ntt_prime(modulus_bits, ring_degree)
        q = self.q
        self._qv = np.uint64(q)
        self._two_qv = np.uint64(2 * q)
        self._qinv = 1.0 / q
        twist = _pow_table(_find_psi(q, 2 * self.n), self.n, q)
        self._twist = _with_quotients(twist, q)
        # n^-1 * psi^-i (the inverse's 1/n scaling and untwist), as the module docstring derives
        self._untwist = _with_quotients(self.mulmod(
            np.concatenate((twist[:1], self._qv - twist[:0:-1])), pow(self.n, q - 2, q)), q)
        self._stages = _stage_tables(twist[::2], q)
        self._bitrev = _bit_reverse(self.n)
        self._neg_bitrev = self._bitrev[-np.arange(self.n) % self.n]

    # -- modular scalar/vector ops -------------------------------------------------

    def mulmod(self, a: np.ndarray, b) -> np.ndarray:
        """Exact (a * b) mod q for uint64 operands < q."""
        b = np.asarray(b, dtype=np.uint64)
        r = _mulmod_by(np.asarray(a, dtype=np.uint64),
                       (b, b.astype(np.float64) * self._qinv), self._qv, self._two_qv)
        return np.minimum(r, r - self._qv)

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

    def _ntt(self, x: np.ndarray, order: np.ndarray) -> np.ndarray:
        """The NTT along the last axis of ``x`` (entries below 2q), gathered
        by ``order`` from the bit-reversed stage output, with entries in
        [0, 2q); ``x`` itself is never written."""
        half = self.n // 2
        bufs = np.empty_like(x), np.empty_like(x)  # each stage writes the one it does not read
        for k, table in enumerate(self._stages):
            a, b = x[..., :half], x[..., half:]
            x = bufs[k % 2]
            s = a + b
            np.minimum(s, s - self._two_qv, out=x[..., 0::2])
            _mulmod_by(a + self._two_qv - b, table, self._qv, self._two_qv, out=x[..., 1::2])
        return np.take(x, order, axis=-1)

    def to_eval(self, a: np.ndarray) -> np.ndarray:
        """Coefficient form -> evaluation (NTT) form, with the psi twist."""
        a = np.asarray(a, dtype=np.uint64)
        r = self._ntt(_mulmod_by(a, self._twist, self._qv, self._two_qv), self._bitrev)
        return np.minimum(r, r - self._qv)

    def from_eval(self, a_eval: np.ndarray) -> np.ndarray:
        """Evaluation form -> coefficient form."""
        r = _mulmod_by(self._ntt(np.asarray(a_eval, dtype=np.uint64), self._neg_bitrev),
                       self._untwist, self._qv, self._two_qv)
        return np.minimum(r, r - self._qv)

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
