import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fedsplit.errors import DimensionError, EncodingOverflowError, ProtocolError
from fedsplit.he import (CkksBackend, HeCostModel, HeParams, MockBackend,
                         decode_tolerance, make_backend, simulated_round_cost)
from fedsplit.he.ring import (NegacyclicRing, _find_psi, _mulmod_by, _pow_table,
                              _with_quotients, find_ntt_prime)
from fedsplit.he.wire import deserialize, serialize

SMALL = HeParams(ring_degree=64, scale_bits=20, modulus_bits=50, max_additions=256)
# Both backends run one shared validation path; its tests cover each.
BACKEND_CLASSES = (CkksBackend, MockBackend)


def _fold_mean(backend, kp, per_client_cts):
    """The server's side of a round: each client's chunks folded in client
    order, then ``decrypt_mean``."""
    summed = None
    for cts in per_client_cts:
        summed = backend.fold(summed, cts)
    return backend.decrypt_mean(kp, summed, len(per_client_cts))


# -- ring ------------------------------------------------------------------------


def _bit_reverse_indices(n: int) -> np.ndarray:
    bits = n.bit_length() - 1
    idx = np.arange(n, dtype=np.int64)
    rev = np.zeros(n, dtype=np.int64)
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def _reference_pow_table(base: int, count: int, q: int, first: int = 1) -> np.ndarray:
    """``_pow_table`` as it was before the exact doubling: one Python-int
    step per entry, kept verbatim as the reference for every ring table."""
    out = np.empty(count, dtype=np.uint64)
    acc = first
    for i in range(count):
        out[i] = acc
        acc = acc * base % q
    return out


class _ReferenceRing:
    """The bit-reversed Cooley-Tukey NTT that ``NegacyclicRing`` replaced,
    kept as it was (int64 ``%`` and ``np.where`` reductions, strided
    butterflies): the new transform must equal it bit for bit."""

    def __init__(self, ring_degree: int, modulus_bits: int):
        self.n = ring_degree
        self.q = find_ntt_prime(modulus_bits, ring_degree)
        self._qv = np.uint64(self.q)
        self._qinv = 1.0 / self.q
        psi = _find_psi(self.q, 2 * self.n)
        omega = psi * psi % self.q
        self._psi_pows = _reference_pow_table(psi, self.n, self.q)
        # n^-1 * psi^-i: the inverse transform's 1/n scaling and untwist in one table
        self._psi_inv_pows = _reference_pow_table(pow(psi, self.q - 2, self.q), self.n, self.q,
                                                  first=pow(self.n, self.q - 2, self.q))
        self._omega_pows = _reference_pow_table(omega, self.n, self.q)
        self._omega_inv_pows = _reference_pow_table(pow(omega, self.q - 2, self.q), self.n,
                                                    self.q)
        self._bitrev = _bit_reverse_indices(self.n)

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


@functools.lru_cache(maxsize=None)
def _rings(ring_degree: int, modulus_bits: int) -> tuple:
    return NegacyclicRing(ring_degree, modulus_bits), _ReferenceRing(ring_degree, modulus_bits)


# A draw of -1 stands for q - 1 (tests reduce draws mod q), so the edge
# residues 0, 1 and q - 1 are reachable at every modulus.
_RESIDUE = st.integers(min_value=-1, max_value=2**51 - 1)
# The edge residues drawn often, beside any residue.
_EDGE_OR_RESIDUE = st.sampled_from([0, 1, -1]) | _RESIDUE


@functools.lru_cache(maxsize=None)
def _table_modulus(modulus_bits: int, ring_degree: int) -> int:
    """``find_ntt_prime``'s modulus for the largest degree <= ``ring_degree``
    that has one at ``modulus_bits`` (degree 1 has one at every width >= 2)."""
    while True:
        try:
            return find_ntt_prime(modulus_bits, ring_degree)
        except ValueError:
            ring_degree //= 2


@st.composite
def _ring_shapes(draw):
    """A degree 8 to 2^17 and a modulus width 2-51 with an NTT prime for it."""
    log_degree = draw(st.integers(3, 17))
    modulus_bits = draw(st.integers(log_degree + 2, 51))
    try:
        find_ntt_prime(modulus_bits, 1 << log_degree)
    except ValueError:
        assume(False)
    return 1 << log_degree, modulus_bits


def _same_table(got: tuple, want: np.ndarray, q: int) -> None:
    """A ``_with_quotients`` table equal, bit for bit, to ``want`` and want / q."""
    w, w_over_q = got
    assert w.dtype == np.uint64 and w.shape == want.shape
    assert w.tobytes() == want.tobytes()
    assert w_over_q.dtype == np.float64 and w_over_q.shape == want.shape
    assert w_over_q.tobytes() == (want.astype(np.float64) / q).tobytes()


class TestRing:
    def test_prime_properties(self):
        q = find_ntt_prime(50, 4096)
        assert q < 2**50 and q > 2**49
        assert (q - 1) % 8192 == 0

    @given(modulus_bits=st.integers(2, 51), log_degree=st.integers(3, 17),
           count=st.integers(0, 1 << 17), base=_EDGE_OR_RESIDUE)
    @example(modulus_bits=2, log_degree=3, count=3, base=-1)
    @example(modulus_bits=51, log_degree=17, count=1 << 17, base=-1)
    @example(modulus_bits=50, log_degree=12, count=4095, base=0)
    @example(modulus_bits=50, log_degree=12, count=1, base=1)
    @example(modulus_bits=30, log_degree=3, count=0, base=5)
    @settings(deadline=None)
    def test_pow_table_equals_the_python_int_loop(self, modulus_bits, log_degree, count, base):
        n = 1 << log_degree
        q = _table_modulus(modulus_bits, n)
        count, base = count % (n + 1), base % q  # count in 0..n
        got = _pow_table(base, count, q)
        want = _reference_pow_table(base, count, q)
        assert got.dtype == np.uint64 and got.tobytes() == want.tobytes(), (base, count, q)

    @given(shape=_ring_shapes())
    @example(shape=(8, 5))
    @example(shape=(1 << 17, 51))
    @example(shape=(4096, 50))
    @settings(deadline=None)
    def test_ring_tables_equal_the_python_int_loop(self, shape):
        n, modulus_bits = shape
        ring = NegacyclicRing(n, modulus_bits)
        q = ring.q
        psi = _find_psi(q, 2 * n)
        psi_inv = pow(psi, q - 2, q)
        _same_table(ring._twist, _reference_pow_table(psi, n, q), q)
        _same_table(ring._untwist, _reference_pow_table(psi_inv, n, q, first=pow(n, q - 2, q)),
                    q)
        pows = _reference_pow_table(psi * psi % q, n // 2, q)
        assert len(ring._stages) == n.bit_length() - 1
        for i, table in enumerate(ring._stages):
            _same_table(table, np.repeat(pows[::1 << i], 1 << i), q)
        bits = n.bit_length() - 1
        bitrev = [int(f"{i:0{bits}b}"[::-1], 2) for i in range(n)]
        assert ring._bitrev.tolist() == bitrev
        assert ring._neg_bitrev.tolist() == [bitrev[-j % n] for j in range(n)]

    def test_ring_holds_one_direction_of_tables(self):
        """A degree-4,096 ring holds at most 640 KiB: the twist, the untwist,
        one stage table per stage and two gather orders take 581 KiB, and a
        second stage-table family would add 384 KiB."""
        tracemalloc.start()
        try:
            ring = NegacyclicRing(4096, 50)  # bound, so its tables count as held
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held <= 640 * 1024, held

    @given(modulus_bits=st.integers(2, 51),
           a=st.sampled_from([0, 1, -1]) | st.integers(min_value=-1, max_value=2**53 - 1),
           w=_EDGE_OR_RESIDUE)
    @example(modulus_bits=51, a=-1, w=-1)
    @example(modulus_bits=2, a=-1, w=-1)
    @example(modulus_bits=51, a=8561015872289501, w=1575689633547210)  # r < 0 before the lift
    @settings(deadline=None)
    def test_mulmod_by_stays_in_the_lazy_window(self, modulus_bits, a, w):
        # the butterfly's unreduced difference a + 2q - b is below 4q
        q = _table_modulus(modulus_bits, 1 << 17)
        a, w = a % (4 * q), w % q
        table = _with_quotients(np.array([w], dtype=np.uint64), q)
        r = int(_mulmod_by(np.array([a], dtype=np.uint64), table, np.uint64(q),
                           np.uint64(2 * q))[0])
        assert 0 <= r < 2 * q and r % q == a * w % q, (a, w, q, r)

    @given(_RESIDUE, _RESIDUE)
    @example(0, 0)
    @example(0, -1)
    @example(1, -1)
    @example(-1, -1)
    @settings(max_examples=500, deadline=None)
    def test_mulmod_exact(self, a, b):
        for modulus_bits in (50, 51):  # 51: HeParams' cap
            ring = _rings(8, modulus_bits)[0]
            x, y = a % ring.q, b % ring.q
            out = ring.mulmod(np.array([x], dtype=np.uint64),
                              np.array([y], dtype=np.uint64))
            assert int(out[0]) == (x * y) % ring.q

    @given(_RESIDUE, _RESIDUE)
    @example(0, 0)
    @example(0, -1)
    @example(1, -1)
    @example(-1, -1)
    @settings(max_examples=500, deadline=None)
    def test_addmod_submod_exact(self, a, b):
        for modulus_bits in (50, 51):
            ring = _rings(8, modulus_bits)[0]
            x, y = a % ring.q, b % ring.q
            vx, vy = np.array([x], dtype=np.uint64), np.array([y], dtype=np.uint64)
            assert int(ring.addmod(vx, vy)[0]) == (x + y) % ring.q
            assert int(ring.submod(vx, vy)[0]) == (x - y) % ring.q

    @given(log_degree=st.integers(3, 12), modulus_bits=st.sampled_from([30, 50, 51]),
           kind=st.sampled_from(["random", "zero", "top", "ternary"]),
           lead=st.sampled_from([(), (1,), (3,), (2, 2)]), seed=st.integers(0, 2**32 - 1))
    @example(log_degree=12, modulus_bits=51, kind="top", lead=(3,), seed=0)
    @example(log_degree=12, modulus_bits=51, kind="top", lead=(2, 2), seed=0)
    @example(log_degree=12, modulus_bits=50, kind="random", lead=(), seed=0)
    @settings(deadline=None)
    def test_transforms_equal_the_cooley_tukey_reference(self, log_degree, modulus_bits,
                                                         kind, lead, seed):
        ring, reference = _rings(1 << log_degree, modulus_bits)
        shape = (*lead, ring.n)
        rng = np.random.default_rng(seed)
        a = {"random": lambda: rng.integers(0, ring.q, shape, dtype=np.uint64),
             "zero": lambda: np.zeros(shape, dtype=np.uint64),
             "top": lambda: np.full(shape, ring.q - 1, dtype=np.uint64),
             "ternary": lambda: np.mod(rng.integers(-1, 2, shape), ring.q).astype(np.uint64),
             }[kind]()
        before = a.copy()
        for name in ("to_eval", "from_eval"):
            got = getattr(ring, name)(a)
            assert got.dtype == np.uint64 and got.shape == shape
            assert np.array_equal(got, getattr(reference, name)(a))
            assert np.array_equal(a, before)

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_mul_matches_schoolbook(self, n):
        ring = NegacyclicRing(n, 50)
        rng = np.random.default_rng(n)
        a = rng.integers(0, ring.q, n, dtype=np.uint64)
        b = rng.integers(0, ring.q, n, dtype=np.uint64)
        got = ring.from_eval(ring.mulmod(ring.to_eval(a), ring.to_eval(b)))
        expected = [0] * n
        for i in range(n):
            for j in range(n):
                v = int(a[i]) * int(b[j])
                k = i + j
                if k >= n:
                    expected[k - n] = (expected[k - n] - v) % ring.q
                else:
                    expected[k] = (expected[k] + v) % ring.q
        assert [int(x) for x in got] == expected

    def test_transform_roundtrip(self):
        ring = NegacyclicRing(128, 50)
        rng = np.random.default_rng(1)
        a = rng.integers(0, ring.q, 128, dtype=np.uint64)
        assert np.array_equal(ring.from_eval(ring.to_eval(a)), a)


# -- params ----------------------------------------------------------------------


class TestParams:
    def test_defaults(self):
        p = HeParams()
        assert p.ring_degree == 4096
        assert p.slot_count == 4096  # coefficient packing
        assert p.scale == 2.0**20

    def test_bad_ring_degree(self):
        with pytest.raises(ValueError):
            HeParams(ring_degree=6)
        with pytest.raises(ValueError):
            HeParams(ring_degree=4)

    def test_ring_degree_is_capped(self):
        # 2**40 once parsed; where memory is overcommitted its tables took hours to fill
        assert HeParams(ring_degree=2**17).slot_count == 2**17
        for n in (2**18, 2**40):
            with pytest.raises(ValueError, match=rf"^ring_degree must be an integer in "
                                                 rf"\[8, 131072\], got {n}$"):
                HeParams(ring_degree=n)

    def test_scale_must_fit(self):
        with pytest.raises(ValueError):
            HeParams(scale_bits=50, modulus_bits=50)


# -- keygen / encrypt / decrypt ---------------------------------------------------


class TestCkksRoundtrip:
    def test_keygen_roundtrip_default_params(self):
        backend = CkksBackend(HeParams())
        kp = backend.keygen(42)
        rng = np.random.default_rng(0)
        x = rng.uniform(-1, 1, 1000)
        y = backend.decrypt(kp, backend.encrypt(kp, x, 1))
        assert np.max(np.abs(y - x)) < decode_tolerance(backend.params)

    def test_distinct_seeds_distinct_ciphertexts(self):
        backend = CkksBackend(SMALL)
        kp1 = backend.keygen(1)
        kp2 = backend.keygen(2)
        x = np.full(8, 0.25)
        ct1 = backend.encrypt(kp1, x, 5)[0]
        ct2 = backend.encrypt(kp2, x, 5)[0]
        assert not np.array_equal(ct1.payload[0], ct2.payload[0])
        for kp, ct in ((kp1, ct1), (kp2, ct2)):
            assert np.max(np.abs(backend.decrypt(kp, [ct]) - x)) < 1e-3

    def test_empty_input(self):
        backend = CkksBackend(SMALL)
        kp = backend.keygen(0)
        assert backend.encrypt(kp, np.empty(0), 0) == []
        assert backend.decrypt(kp, []).size == 0

    def test_zero_vector_full_slots(self):
        backend = CkksBackend(SMALL)
        kp = backend.keygen(0)
        x = np.zeros(SMALL.slot_count)
        y = backend.decrypt(kp, backend.encrypt(kp, x, 3))
        assert np.max(np.abs(y)) < 1e-3

    def test_chunking_8192_over_2048_slots(self):
        params = HeParams(ring_degree=2048)
        backend = CkksBackend(params)
        kp = backend.keygen(11)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 8192)
        cts = backend.encrypt(kp, x, 9)
        assert len(cts) == 4
        y = backend.decrypt(kp, cts)
        assert np.max(np.abs(y - x)) < 1e-3

    def test_roundtrip_two_values(self):
        backend = CkksBackend(SMALL)
        kp = backend.keygen(3)
        x = np.array([0.5, -0.25])
        y = backend.decrypt(kp, backend.encrypt(kp, x, 4))
        assert np.max(np.abs(y - x)) <= 1e-3

    def test_overflow_names_magnitude(self):
        import re
        for backend_cls in BACKEND_CLASSES:
            backend = backend_cls(SMALL)
            kp = backend.keygen(0)
            big = SMALL.max_encodable * 4
            with pytest.raises(EncodingOverflowError, match=re.escape(f"{big:g}")):
                backend.encrypt(kp, np.array([big]), 0)

    def test_randomized_encryption(self):
        backend = CkksBackend(SMALL)
        kp = backend.keygen(0)
        x = np.full(16, 0.5)
        ct_a = backend.encrypt(kp, x, 1)[0]
        ct_b = backend.encrypt(kp, x, 2)[0]
        assert not np.array_equal(ct_a.payload[0], ct_b.payload[0])
        ya = backend.decrypt(kp, [ct_a])
        yb = backend.decrypt(kp, [ct_b])
        assert np.max(np.abs(ya - yb)) < 2 * decode_tolerance(SMALL)


class TestHomAdd:
    def setup_method(self):
        self.backend = CkksBackend(HeParams(ring_degree=1024))
        self.kp = self.backend.keygen(7)

    def test_additive_identity(self):
        rng = np.random.default_rng(3)
        x = rng.uniform(-1, 1, 512)
        ct = self.backend.hom_add(self.backend.encrypt(self.kp, x, 1)[0],
                                  self.backend.encrypt(self.kp, np.zeros(512), 2)[0])
        y = self.backend.decrypt(self.kp, [ct])
        assert np.max(np.abs(y - x)) < 2 * decode_tolerance(self.backend.params)

    def test_additive_inverse(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 512)
        ct = self.backend.hom_add(self.backend.encrypt(self.kp, x, 1)[0],
                                  self.backend.encrypt(self.kp, -x, 2)[0])
        y = self.backend.decrypt(self.kp, [ct])
        assert np.max(np.abs(y)) < 2 * decode_tolerance(self.backend.params)

    def test_ten_vector_sum_against_plaintext_oracle(self):
        rng = np.random.default_rng(5)
        vecs = [rng.uniform(-1, 1, 1024) for _ in range(10)]
        cts = [self.backend.encrypt(self.kp, v, 10 + i)[0]
               for i, v in enumerate(vecs)]
        acc = cts[0]
        for ct in cts[1:]:
            acc = self.backend.hom_add(acc, ct)
        assert acc.add_count == 9
        y = self.backend.decrypt(self.kp, [acc])
        err = np.max(np.abs(y - np.sum(vecs, axis=0)))
        assert err < 1e-2
        # advertised accumulation contract
        assert err <= decode_tolerance(self.backend.params) * (1 + acc.add_count)

    def test_params_mismatch_rejected(self):
        for backend_cls in BACKEND_CLASSES:
            backend = backend_cls(HeParams(ring_degree=1024))
            other = backend_cls(HeParams(ring_degree=512))
            a = backend.encrypt(backend.keygen(7), np.ones(4), 1)[0]
            b = other.encrypt(other.keygen(1), np.ones(4), 1)[0]
            with pytest.raises(DimensionError):
                backend.hom_add(a, b)

    def test_depth_exhaustion(self):
        params = HeParams(ring_degree=64, max_additions=2)
        for backend_cls in BACKEND_CLASSES:
            backend = backend_cls(params)
            kp = backend.keygen(0)
            cts = [backend.encrypt(kp, np.ones(4) * 0.1, i)[0] for i in range(4)]
            acc = backend.hom_add(cts[0], cts[1])
            acc = backend.hom_add(acc, cts[2])  # add_count 2 == max
            with pytest.raises(ValueError):
                backend.hom_add(acc, cts[3])

    def test_slots_mismatch_rejected(self):
        for backend_cls in BACKEND_CLASSES:
            backend = backend_cls(HeParams(ring_degree=1024))
            kp = backend.keygen(7)
            a = backend.encrypt(kp, np.ones(4), 1)[0]
            b = backend.encrypt(kp, np.ones(5), 2)[0]
            with pytest.raises(DimensionError):
                backend.hom_add(a, b)


# A 12-bit modulus leaves a 3-term fold about 20 of headroom per value; the
# other set is the default encoding on a small ring, with a 257-term fold.
HEADROOM = (HeParams(ring_degree=8, scale_bits=4, modulus_bits=12, max_additions=2),
            HeParams(ring_degree=64, scale_bits=20, modulus_bits=50, max_additions=256))


class TestHeadroom:
    @given(params=st.sampled_from(HEADROOM), clients=st.integers(1, 257),
           length=st.integers(1, 2 * 64 + 1),
           fill=st.sampled_from(["top", "bottom", "ends", "uniform"]),
           seed=st.integers(0, 2**32 - 1))
    @example(params=HEADROOM[0], clients=3, length=8, fill="top", seed=0)
    @example(params=HEADROOM[0], clients=3, length=8, fill="bottom", seed=0)
    @example(params=HEADROOM[1], clients=257, length=64, fill="top", seed=0)
    @example(params=HEADROOM[1], clients=257, length=65, fill="bottom", seed=1)
    @settings(deadline=None)
    def test_a_full_fold_of_encodable_values_decodes(self, params, clients, length, fill,
                                                     seed):
        """Sums of up to max_additions + 1 ciphertexts of values in
        ±max_encodable, endpoints included, decode within
        decode_tolerance * (1 + add_count) and do not wrap."""
        clients = min(clients, params.max_additions + 1)
        top = params.max_encodable
        rng = np.random.default_rng(seed)
        shape = (clients, length)
        values = {"top": np.full(shape, top), "bottom": np.full(shape, -top),
                  "ends": rng.choice([-top, top], shape),
                  "uniform": rng.uniform(-top, top, shape)}[fill]
        backend = CkksBackend(params)
        kp = backend.keygen(seed)
        summed = None
        for i, x in enumerate(values):
            summed = backend.fold(summed, backend.encrypt(kp, x, (seed, i)))
        assert summed[0].add_count == clients - 1
        err = np.max(np.abs(backend.decrypt(kp, summed) - values.sum(axis=0)))
        assert err <= decode_tolerance(params) * (1 + summed[0].add_count)


@pytest.mark.parametrize("backend_cls", BACKEND_CLASSES, ids=lambda cls: cls.name)
class TestSharedValidation:
    def setup_method(self):
        self.x = np.linspace(-1.0, 1.0, 150)  # chunks of 64, 64 and 22 slots

    def test_key_mismatch_rejected(self, backend_cls):
        backend = backend_cls(SMALL)
        kp = backend.keygen(0)
        other = backend_cls(HeParams(ring_degree=128)).keygen(0)
        with pytest.raises(DimensionError, match="public key"):
            backend.encrypt(other, self.x, 1)
        cts = backend.encrypt(kp, self.x, 1)
        with pytest.raises(DimensionError, match="secret key"):
            backend.decrypt(other, cts)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_plaintext_rejected(self, backend_cls, bad):
        backend = backend_cls(SMALL)
        with pytest.raises(ValueError, match="non-finite"):
            backend.encrypt(backend.keygen(0), np.array([0.5, bad]), 1)

    @pytest.mark.parametrize("shape", [(2, 3), (), (1, 4)], ids=["2x3", "scalar", "1x4"])
    def test_plaintext_not_1d_rejected(self, backend_cls, shape):
        backend = backend_cls(SMALL)
        with pytest.raises(DimensionError, match="1-D"):
            backend.encrypt(backend.keygen(0), np.zeros(shape), 1)

    @pytest.mark.parametrize("slots_used", [-1, 0, SMALL.slot_count + 1, 2.5, True])
    def test_slots_used_outside_the_slots_rejected(self, backend_cls, slots_used):
        backend = backend_cls(SMALL)
        kp = backend.keygen(0)
        ct = dataclasses.replace(backend.encrypt(kp, self.x[:10], 1)[0],
                                 slots_used=slots_used)
        with pytest.raises(DimensionError, match="slots"):
            backend.decrypt(kp, [ct])
        with pytest.raises(DimensionError, match="slots"):
            backend.hom_add(ct, ct)

    def test_short_non_final_chunk_rejected(self, backend_cls):
        backend = backend_cls(SMALL)
        kp = backend.keygen(0)
        cts = backend.encrypt(kp, self.x, 1)
        with pytest.raises(DimensionError, match="non-final chunk 0"):
            backend.decrypt(kp, [cts[2], cts[0]])

    @given(length=st.integers(0, 3 * SMALL.slot_count + 1), clients=st.integers(1, 4),
           seed=st.integers(0, 2**32 - 1))
    @example(length=0, clients=1, seed=0)
    @example(length=SMALL.slot_count, clients=2, seed=1)
    @example(length=2 * SMALL.slot_count, clients=3, seed=2)
    @example(length=3 * SMALL.slot_count, clients=4, seed=3)
    @example(length=3 * SMALL.slot_count + 1, clients=4, seed=4)
    @settings(deadline=None)
    def test_decrypt_returns_exactly_what_was_encrypted(self, backend_cls, length, clients,
                                                        seed):
        """Every chunk gives back its ``slots_used`` values: decrypt and the
        fold's ``decrypt_mean`` return ``x.size`` values, exact on mock and
        within the decode tolerance on ckks, for lengths on and off the chunk
        boundaries."""
        backend = backend_cls(SMALL)
        kp = backend.keygen(seed)
        rng = np.random.default_rng(seed)
        xs = [rng.uniform(-1.0, 1.0, length) for _ in range(clients)]
        per_client = [backend.encrypt(kp, x, (seed, i)) for i, x in enumerate(xs)]
        client_order_mean = sum(xs[1:], xs[0]) / clients
        for got, want in ((backend.decrypt(kp, per_client[0]), xs[0]),
                          (_fold_mean(backend, kp, per_client), client_order_mean)):
            assert got.shape == (length,) and got.dtype == np.float64
            if backend.name == "mock":
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want), initial=0.0) <= decode_tolerance(SMALL)

    def test_aggregate_is_the_client_order_mean(self, backend_cls):
        backend = backend_cls(SMALL)
        kp = backend.keygen(0)
        per_client = [backend.encrypt(kp, self.x * (i + 1), i) for i in range(3)]
        mean = _fold_mean(backend, kp, per_client)
        assert np.max(np.abs(mean - 2 * self.x)) < 1e-3

    def test_aggregate_rejects_differing_chunk_counts(self, backend_cls):
        backend = backend_cls(SMALL)
        kp = backend.keygen(0)
        per_client = [backend.encrypt(kp, self.x, 1), backend.encrypt(kp, self.x[:100], 2)]
        with pytest.raises(ProtocolError, match="chunk counts"):
            _fold_mean(backend, kp, per_client)
        with pytest.raises(ProtocolError, match="no client"):
            _fold_mean(backend, kp, [])


def _reference_aggregate(backend, kp, per_client_cts):
    """``HeBackend.aggregate`` as it was before the fold, kept verbatim: both
    checks over the whole list first, then the list fold in client order."""
    if not per_client_cts:
        raise ProtocolError("no client ciphertexts to aggregate")
    n_chunks = len(per_client_cts[0])
    if any(len(cts) != n_chunks for cts in per_client_cts):
        raise ProtocolError("clients produced differing ciphertext chunk counts")
    summed = list(per_client_cts[0])
    for cts in per_client_cts[1:]:
        summed = [backend.hom_add(a, b) for a, b in zip(summed, cts)]
    return backend.decrypt(kp, summed) / len(per_client_cts)


FOLD = HeParams(ring_degree=16, scale_bits=20, modulus_bits=50, max_additions=6)


@pytest.mark.parametrize("backend_cls", BACKEND_CLASSES, ids=lambda cls: cls.name)
class TestFold:
    """``fold`` one client at a time, then ``decrypt_mean``, as a round runs
    it, against the list aggregate they replaced."""

    @staticmethod
    def outcome(backend, fn):
        """``fn()``'s value, or the type and message of the ProtocolError it
        raised, and the add counts (left, right) of every ``hom_add`` it made."""
        adds, hom_add = [], backend.hom_add

        def spy(a, b):
            adds.append((a.add_count, b.add_count))
            return hom_add(a, b)

        backend.hom_add = spy
        try:
            return fn(), adds
        except ProtocolError as exc:
            return (type(exc), str(exc)), adds
        finally:
            del backend.hom_add

    @given(length=st.integers(0, 3 * FOLD.slot_count + 1),
           clients=st.integers(0, FOLD.max_additions + 1),
           odd=st.none() | st.integers(0, FOLD.max_additions),
           seed=st.integers(0, 2**32 - 1))
    @example(length=0, clients=0, odd=None, seed=0)
    @example(length=0, clients=2, odd=1, seed=0)
    @example(length=FOLD.slot_count, clients=FOLD.max_additions + 1, odd=None, seed=1)
    @example(length=2 * FOLD.slot_count + 1, clients=3, odd=2, seed=2)
    @example(length=3 * FOLD.slot_count, clients=4, odd=0, seed=3)
    @settings(deadline=None)
    def test_equals_the_list_aggregate(self, backend_cls, length, clients, odd, seed):
        """Bit for bit, with the same hom_add calls (the running sum on the
        left), and the same ProtocolError for an empty cohort or a client
        whose chunk count differs (``odd``: one more chunk than the rest)."""
        backend = backend_cls(FOLD)
        kp = backend.keygen(seed)
        rng = np.random.default_rng(seed)
        per_client = [backend.encrypt(kp, rng.uniform(-1.0, 1.0, length + FOLD.slot_count
                                                      * (i == odd)), (seed, i))
                      for i in range(clients)]
        want, want_adds = self.outcome(backend, lambda: _reference_aggregate(backend, kp,
                                                                             per_client))
        if isinstance(want, tuple):
            want_adds = None  # the list fold checks every client before its first add
        got, adds = self.outcome(backend, lambda: _fold_mean(backend, kp, per_client))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
            assert adds == want_adds
            assert adds == [(i, 0) for i in range(clients - 1)
                            for _ in range(len(per_client[0]))]

    def test_fold_leaves_each_client_list_as_it_was(self, backend_cls):
        backend = backend_cls(FOLD)
        kp = backend.keygen(0)
        per_client = [backend.encrypt(kp, np.full(40, 0.1 * i), i) for i in range(3)]
        before = [[id(ct) for ct in cts] for cts in per_client]
        _fold_mean(backend, kp, per_client)
        assert [[id(ct) for ct in cts] for cts in per_client] == before


# -- mock backend -----------------------------------------------------------------


class TestMockBackend:
    def test_contracts_with_zero_tolerance(self):
        backend = MockBackend(HeParams(ring_degree=8))
        kp = backend.keygen(0)
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 20)
        cts = backend.encrypt(kp, x, 1)
        assert len(cts) == 3
        assert np.array_equal(backend.decrypt(kp, cts), x)

    def test_hom_add_exact(self):
        backend = MockBackend(HeParams())
        kp = backend.keygen(0)
        a = np.array([1.5, -2.0])
        b = np.array([0.25, 0.75])
        ct = backend.hom_add(backend.encrypt(kp, a, 1)[0],
                             backend.encrypt(kp, b, 2)[0])
        assert np.array_equal(backend.decrypt(kp, [ct]), a + b)

    def test_payloads_differ_across_seeds(self):
        backend = MockBackend(HeParams())
        kp = backend.keygen(0)
        x = np.ones(4)
        ct1 = backend.encrypt(kp, x, 1)[0]
        ct2 = backend.encrypt(kp, x, 2)[0]
        assert not np.array_equal(ct1.payload[0], ct2.payload[0])

    def test_make_backend_dispatch(self):
        assert isinstance(make_backend("mock"), MockBackend)
        assert isinstance(make_backend("ckks", HeParams(ring_degree=64)), CkksBackend)
        with pytest.raises(ValueError):
            make_backend("nope")


# -- cost model ---------------------------------------------------------------------


class TestSimulatedCost:
    def test_linear_cost_example(self):
        cm = HeCostModel(per_slot_seconds=1e-6, per_op_seconds=1e-3)
        assert simulated_round_cost(cm, 1, 4096) == pytest.approx(3 * 5.096e-3, rel=1e-12)

    def test_zero_length(self):
        cm = HeCostModel(per_slot_seconds=1e-6, per_op_seconds=1e-3)
        assert simulated_round_cost(cm, 7, 0) == pytest.approx(9e-3, rel=1e-12)

    def test_doubling_length_doubles_slot_component(self):
        cm = HeCostModel(per_slot_seconds=2e-6, per_op_seconds=1e-3)
        base = simulated_round_cost(cm, 3, 100) - 5 * cm.per_op_seconds
        double = simulated_round_cost(cm, 3, 200) - 5 * cm.per_op_seconds
        assert double == pytest.approx(2 * base, rel=1e-12)

    def test_round_cost_adds_aggregate_and_decrypt(self):
        cm = HeCostModel(per_slot_seconds=1e-6, per_op_seconds=1e-3)
        assert simulated_round_cost(cm, 5, 100) == pytest.approx(
            7 * (cm.per_op_seconds + 100 * cm.per_slot_seconds), rel=1e-12)

    @given(n=st.integers(0, 10**6), vec_len=st.integers(0, 10**7),
           per_op=st.floats(0.0, 1.0), per_slot=st.floats(0.0, 1e-3))
    @settings(max_examples=300, deadline=None)
    def test_round_cost_is_bitwise_the_three_phase_sum(self, n, vec_len, per_op, per_slot):
        """Mock report bytes rest on this exact float sum: encrypt n, aggregate, decrypt."""
        cm = HeCostModel(per_slot_seconds=per_slot, per_op_seconds=per_op)
        three_phases = (n * (per_op + per_slot * vec_len)
                        + 1 * (per_op + per_slot * vec_len)
                        + 1 * (per_op + per_slot * vec_len))
        assert simulated_round_cost(cm, n, vec_len) == three_phases

    def test_negative_count_or_length_rejected(self):
        cm = HeCostModel()
        for n, vec_len, name in ((-1, 10, "n_vectors"), (3, -1, "vec_len")):
            with pytest.raises(ValueError, match=f"^{name} must be an integer >= 0, got -1$"):
                simulated_round_cost(cm, n, vec_len)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            HeCostModel(per_slot_seconds=-1e-6, per_op_seconds=0.0)


# -- serialization -----------------------------------------------------------------


class TestWire:
    def test_ciphertext_roundtrip_decrypts_identically(self):
        backend = CkksBackend(SMALL)
        kp = backend.keygen(9)
        x = np.linspace(-0.5, 0.5, 30)
        cts = backend.encrypt(kp, x, 9)
        blobs = [serialize(ct) for ct in cts]
        assert all(blob[:4] == b"PAHE" for blob in blobs)
        restored = [deserialize(blob) for blob in blobs]
        assert np.array_equal(backend.decrypt(kp, restored),
                              backend.decrypt(kp, cts))

    def test_mock_ciphertext_roundtrip(self):
        backend = MockBackend(SMALL)
        kp = backend.keygen(9)
        cts = backend.encrypt(kp, np.array([1.0, -2.5]), 1)
        restored = deserialize(serialize(cts[0]))
        assert np.array_equal(backend.decrypt(kp, [restored]),
                              np.array([1.0, -2.5]))

    def test_bad_magic_rejected(self):
        from fedsplit.errors import ProtocolError
        with pytest.raises(ProtocolError):
            deserialize(b"XXXX" + bytes(10))

    def test_key_roundtrip(self):
        """Keys are plain arrays, provisioned to clients out of band, never on the wire."""
        from fedsplit.he import KeyPair
        backend = CkksBackend(SMALL)
        kp = backend.keygen(13)
        a_eval, b_eval = kp.public_key
        copy = [np.frombuffer(k.tobytes(), dtype=np.uint64)
                for k in (a_eval, b_eval, kp.secret_key)]
        restored = KeyPair(public_key=tuple(copy[:2]), secret_key=copy[2], params=SMALL,
                           backend="ckks")
        x = np.array([0.125, -0.5, 0.75])
        cts = backend.encrypt(restored, x, 3)
        assert np.array_equal(backend.decrypt(restored, cts),
                              backend.decrypt(kp, cts))
        assert np.max(np.abs(backend.decrypt(kp, cts) - x)) < 1e-3


# -- backend interchangeability ------------------------------------------------------


def test_homomorphism_randomized_sets():
    backend = CkksBackend(HeParams())
    kp = backend.keygen(2024)
    rng = np.random.default_rng(2024)
    for trial in range(5):
        count = int(rng.integers(2, 17))
        length = int(rng.integers(1, 5000))
        vecs = [rng.uniform(-1, 1, length) for _ in range(count)]
        all_cts = [backend.encrypt(kp, v, (trial, i)) for i, v in enumerate(vecs)]
        acc = all_cts[0]
        for cts in all_cts[1:]:
            acc = [backend.hom_add(a, b) for a, b in zip(acc, cts)]
        got = backend.decrypt(kp, acc)
        assert np.max(np.abs(got - np.sum(vecs, axis=0))) <= 1e-2
