"""Aggregating client vectors under addition-only encryption.

Ten clients each hold a real-valued vector.  Every client encrypts its
vector under a shared public key; the server folds the ciphertexts with
homomorphic addition and never sees a plaintext; the clients decrypt the
sum and divide by the client count.  The lattice backend ("ckks") is an
RLWE scheme with fixed-point coefficient packing; the "mock" backend holds
plaintext internally and exists to charge a reproducible simulated cost.
"""

import numpy as np

from fedsplit import HeParams, decode_tolerance, make_backend
from fedsplit.he import simulated_round_cost, HeCostModel

params = HeParams()  # ring degree 4096, ~2^50 modulus, 2^20 scale (TOY sizes)
backend = make_backend("ckks", params)
keys = backend.keygen(seed=42)
rng = np.random.default_rng(0)

n_clients, length = 10, 6000
vectors = [rng.uniform(-1, 1, length) for _ in range(n_clients)]

print(f"encrypting {n_clients} vectors of length {length} "
      f"({np.ceil(length / params.slot_count):.0f} ciphertexts each)")
encrypted = [backend.encrypt(keys, v, seed=i) for i, v in enumerate(vectors)]

mean = backend.aggregate(keys, encrypted, length)  # fold in client order, decrypt, / n
true_mean = np.mean(vectors, axis=0)
print(f"max |decrypted mean - plaintext mean| = "
      f"{np.max(np.abs(mean - true_mean)):.2e}")
print(f"advertised per-ciphertext decode tolerance: "
      f"{decode_tolerance(params):.2e} (x{n_clients} after {n_clients - 1} adds)")

print()
print("two encryptions of the same vector differ (randomized encryption):")
a = backend.encrypt(keys, vectors[0], seed=100)[0]
b = backend.encrypt(keys, vectors[0], seed=101)[0]
print(f"  payloads equal: {np.array_equal(a.payload[0], b.payload[0])}")

print()
cost = HeCostModel()
print("the mock backend charges the same workload a simulated "
      f"{simulated_round_cost(cost, n_clients, length):.4f} s "
      "(linear in plaintext length)")
