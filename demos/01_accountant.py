"""How the privacy budget turns into concrete noise.

The noise std applied to the plaintext part of every update is calibrated
once, up front, by ``PrivacyBudget.sigma_z`` from (epsilon, delta), the
sampling ratio q = n/N, the round count T and the sensitivity
``PrivacyBudget.delta_f``:

    sigma_z = (delta_f / epsilon) * sqrt(2 q T ln(1/delta)),
    delta_f = 2 theta / min_i |D_i|.

This script sweeps each knob with the others held fixed.
"""

from fedsplit import PrivacyBudget

BASE = dict(epsilon=1.0, delta=1e-5, q=1.0, rounds_T=50, theta=1.0,
            min_dataset_size=100)

print("reference point:", BASE)
base = PrivacyBudget(**BASE)
print(f"  delta_f = {base.delta_f}")
print(f"  sigma_z = {base.sigma_z:.6f}")
print()

print("tighter privacy (smaller epsilon) needs more noise:")
for eps in (0.25, 0.5, 1.0, 2.0, 4.0):
    b = PrivacyBudget(**{**BASE, "epsilon": eps})
    print(f"  epsilon={eps:<5} sigma_z={b.sigma_z:.5f}")
print()

print("longer training (more rounds) spends budget faster:")
for T in (10, 20, 50, 100, 200):
    b = PrivacyBudget(**{**BASE, "rounds_T": T})
    print(f"  T={T:<4} sigma_z={b.sigma_z:.5f}")
print()

print("larger local datasets shrink sensitivity, hence noise:")
for m in (25, 50, 100, 400, 1600):
    b = PrivacyBudget(**{**BASE, "min_dataset_size": m})
    print(f"  min|D|={m:<5} sigma_z={b.sigma_z:.5f}")
