import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedsplit.errors import DimensionError, EncodingOverflowError, ProtocolError
from fedsplit.he import (CkksBackend, HeCostModel, HeParams, MockBackend,
                         decode_tolerance, make_backend, simulated_cost,
                         simulated_round_cost)
from fedsplit.he.ring import NegacyclicRing, find_ntt_prime
from fedsplit.he.wire import deserialize, serialize

SMALL = HeParams(ring_degree=64, scale_bits=20, modulus_bits=50, max_additions=256)
# Both backends run one shared validation path; its tests cover each.
BACKEND_CLASSES = (CkksBackend, MockBackend)


# -- ring ------------------------------------------------------------------------


class TestRing:
    def test_prime_properties(self):
        q = find_ntt_prime(50, 4096)
        assert q < 2**50 and q > 2**49
        assert (q - 1) % 8192 == 0

    @given(st.integers(min_value=0, max_value=2**50 - 1),
           st.integers(min_value=0, max_value=2**50 - 1))
    @settings(max_examples=500, deadline=None)
    def test_mulmod_exact(self, a, b):
        ring = NegacyclicRing(8, 50)
        a %= ring.q
        b %= ring.q
        out = ring.mulmod(np.array([a], dtype=np.uint64),
                          np.array([b], dtype=np.uint64))
        assert int(out[0]) == (a * b) % ring.q

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_mul_matches_schoolbook(self, n):
        ring = NegacyclicRing(n, 50)
        rng = np.random.default_rng(n)
        a = rng.integers(0, ring.q, n, dtype=np.uint64)
        b = rng.integers(0, ring.q, n, dtype=np.uint64)
        got = ring.mul(a, b)
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
        y = backend.decrypt(kp, backend.encrypt(kp, x, 1), 1000)
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
            assert np.max(np.abs(backend.decrypt(kp, [ct], 8) - x)) < 1e-3

    def test_empty_input(self):
        backend = CkksBackend(SMALL)
        kp = backend.keygen(0)
        assert backend.encrypt(kp, np.empty(0), 0) == []
        assert backend.decrypt(kp, [], 0).size == 0

    def test_zero_vector_full_slots(self):
        backend = CkksBackend(SMALL)
        kp = backend.keygen(0)
        x = np.zeros(SMALL.slot_count)
        y = backend.decrypt(kp, backend.encrypt(kp, x, 3), x.size)
        assert np.max(np.abs(y)) < 1e-3

    def test_chunking_8192_over_2048_slots(self):
        params = HeParams(ring_degree=2048)
        backend = CkksBackend(params)
        kp = backend.keygen(11)
        rng = np.random.default_rng(2)
        x = rng.uniform(-1, 1, 8192)
        cts = backend.encrypt(kp, x, 9)
        assert len(cts) == 4
        y = backend.decrypt(kp, cts, 8192)
        assert np.max(np.abs(y - x)) < 1e-3

    def test_roundtrip_two_values(self):
        backend = CkksBackend(SMALL)
        kp = backend.keygen(3)
        x = np.array([0.5, -0.25])
        y = backend.decrypt(kp, backend.encrypt(kp, x, 4), 2)
        assert np.max(np.abs(y - x)) <= 1e-3

    def test_trailing_slots_discarded(self):
        backend = CkksBackend(SMALL)
        kp = backend.keygen(3)
        x = np.linspace(-1, 1, 40)
        cts = backend.encrypt(kp, x, 4)
        y = backend.decrypt(kp, cts, 10)
        assert y.size == 10
        assert np.max(np.abs(y - x[:10])) <= 1e-3

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
        ya = backend.decrypt(kp, [ct_a], 16)
        yb = backend.decrypt(kp, [ct_b], 16)
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
        y = self.backend.decrypt(self.kp, [ct], 512)
        assert np.max(np.abs(y - x)) < 2 * decode_tolerance(self.backend.params)

    def test_additive_inverse(self):
        rng = np.random.default_rng(4)
        x = rng.uniform(-1, 1, 512)
        ct = self.backend.hom_add(self.backend.encrypt(self.kp, x, 1)[0],
                                  self.backend.encrypt(self.kp, -x, 2)[0])
        y = self.backend.decrypt(self.kp, [ct], 512)
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
        y = self.backend.decrypt(self.kp, [acc], 1024)
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
            backend.decrypt(other, cts, self.x.size)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_plaintext_rejected(self, backend_cls, bad):
        backend = backend_cls(SMALL)
        with pytest.raises(ValueError, match="non-finite"):
            backend.encrypt(backend.keygen(0), np.array([0.5, bad]), 1)

    def test_short_non_final_chunk_rejected(self, backend_cls):
        backend = backend_cls(SMALL)
        kp = backend.keygen(0)
        cts = backend.encrypt(kp, self.x, 1)
        with pytest.raises(DimensionError, match="non-final chunk 0"):
            backend.decrypt(kp, [cts[2], cts[0]], 86)

    def test_too_few_slots_rejected(self, backend_cls):
        backend = backend_cls(SMALL)
        kp = backend.keygen(0)
        cts = backend.encrypt(kp, self.x, 1)
        with pytest.raises(DimensionError, match="cover 150 values, need 151"):
            backend.decrypt(kp, cts, 151)

    def test_negative_original_len_rejected(self, backend_cls):
        backend = backend_cls(SMALL)
        kp = backend.keygen(0)
        with pytest.raises(ValueError, match="nonnegative"):
            backend.decrypt(kp, backend.encrypt(kp, self.x, 1), -1)

    def test_aggregate_is_the_client_order_mean(self, backend_cls):
        backend = backend_cls(SMALL)
        kp = backend.keygen(0)
        per_client = [backend.encrypt(kp, self.x * (i + 1), i) for i in range(3)]
        mean = backend.aggregate(kp, per_client, self.x.size)
        assert np.max(np.abs(mean - 2 * self.x)) < 1e-3

    def test_aggregate_rejects_differing_chunk_counts(self, backend_cls):
        backend = backend_cls(SMALL)
        kp = backend.keygen(0)
        per_client = [backend.encrypt(kp, self.x, 1), backend.encrypt(kp, self.x[:100], 2)]
        with pytest.raises(ProtocolError, match="chunk counts"):
            backend.aggregate(kp, per_client, 100)


# -- mock backend -----------------------------------------------------------------


class TestMockBackend:
    def test_contracts_with_zero_tolerance(self):
        backend = MockBackend(HeParams(ring_degree=8))
        kp = backend.keygen(0)
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, 20)
        cts = backend.encrypt(kp, x, 1)
        assert len(cts) == 3
        assert np.array_equal(backend.decrypt(kp, cts, 20), x)

    def test_hom_add_exact(self):
        backend = MockBackend(HeParams())
        kp = backend.keygen(0)
        a = np.array([1.5, -2.0])
        b = np.array([0.25, 0.75])
        ct = backend.hom_add(backend.encrypt(kp, a, 1)[0],
                             backend.encrypt(kp, b, 2)[0])
        assert np.array_equal(backend.decrypt(kp, [ct], 2), a + b)

    def test_payloads_differ_across_seeds(self):
        backend = MockBackend(HeParams())
        kp = backend.keygen(0)
        x = np.ones(4)
        ct1 = backend.encrypt(kp, x, 1)[0]
        ct2 = backend.encrypt(kp, x, 2)[0]
        assert ct1.payload.nonce != ct2.payload.nonce

    def test_make_backend_dispatch(self):
        assert isinstance(make_backend("mock"), MockBackend)
        assert isinstance(make_backend("ckks", HeParams(ring_degree=64)), CkksBackend)
        with pytest.raises(ValueError):
            make_backend("nope")


# -- cost model ---------------------------------------------------------------------


class TestSimulatedCost:
    def test_linear_cost_example(self):
        cm = HeCostModel(per_slot_seconds=1e-6, per_op_seconds=1e-3)
        assert simulated_cost(cm, 1, 4096) == pytest.approx(5.096e-3, rel=1e-12)

    def test_zero_length(self):
        cm = HeCostModel(per_slot_seconds=1e-6, per_op_seconds=1e-3)
        assert simulated_cost(cm, 7, 0) == pytest.approx(7e-3, rel=1e-12)

    def test_doubling_length_doubles_slot_component(self):
        cm = HeCostModel(per_slot_seconds=2e-6, per_op_seconds=1e-3)
        base = simulated_cost(cm, 3, 100) - 3 * cm.per_op_seconds
        double = simulated_cost(cm, 3, 200) - 3 * cm.per_op_seconds
        assert double == pytest.approx(2 * base, rel=1e-12)

    def test_round_cost_adds_aggregate_and_decrypt(self):
        cm = HeCostModel(per_slot_seconds=1e-6, per_op_seconds=1e-3)
        assert simulated_round_cost(cm, 5, 100) == pytest.approx(
            simulated_cost(cm, 5, 100) + 2 * simulated_cost(cm, 1, 100), rel=1e-12)

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
        assert np.array_equal(backend.decrypt(kp, restored, 30),
                              backend.decrypt(kp, cts, 30))

    def test_mock_ciphertext_roundtrip(self):
        backend = MockBackend(SMALL)
        kp = backend.keygen(9)
        cts = backend.encrypt(kp, np.array([1.0, -2.5]), 1)
        restored = deserialize(serialize(cts[0]))
        assert np.array_equal(backend.decrypt(kp, [restored], 2),
                              np.array([1.0, -2.5]))

    def test_bad_magic_rejected(self):
        from fedsplit.errors import ProtocolError
        with pytest.raises(ProtocolError):
            deserialize(b"XXXX" + bytes(10))

    def test_key_roundtrip(self):
        from fedsplit.he import KeyPair
        from fedsplit.he.wire import serialize_secret
        backend = CkksBackend(SMALL)
        kp = backend.keygen(13)
        _, params_pub, backend_pub, pub = deserialize(serialize(kp))
        _, params_sec, backend_sec, sec = deserialize(serialize_secret(kp))
        assert params_pub == params_sec == SMALL
        assert backend_pub == backend_sec == "ckks"
        restored = KeyPair(public_key=pub, secret_key=sec, params=SMALL,
                           backend="ckks")
        x = np.array([0.125, -0.5, 0.75])
        cts = backend.encrypt(restored, x, 3)
        assert np.array_equal(backend.decrypt(restored, cts, 3),
                              backend.decrypt(kp, cts, 3))
        assert np.max(np.abs(backend.decrypt(kp, cts, 3) - x)) < 1e-3


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
        got = backend.decrypt(kp, acc, length)
        assert np.max(np.abs(got - np.sum(vecs, axis=0))) <= 1e-2
