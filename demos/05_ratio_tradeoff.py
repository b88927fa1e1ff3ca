"""The efficiency/utility dial: encrypted share r, static and decaying.

Sweeping the encrypted fraction r trades accuracy against (simulated)
encryption time under one fixed privacy budget.  The dynamic schedule
starts at r0 and shrinks it by lambda each round, spending encryption
where it matters most (early rounds set the convergence direction) and
drifting toward cheap noise later.
"""

from dataclasses import replace

import numpy as np

from fedsplit import ModelSpec
from fedsplit.config import (DataConfig, ExperimentConfig, ProtectionMode,
                             RatioSchedule, RoundConfig)
from fedsplit.runtime import run_experiment

base = ExperimentConfig(
    data=DataConfig(num_samples=600, separation=2.0, test_fraction=0.2),
    model=ModelSpec(kind="mlp", input_dim=48, num_classes=4, hidden_dims=(64,)),
    rounds=RoundConfig(clients_total_N=10, clients_sampled_n=10,
                       local_epochs_K=3, learning_rate_eta=0.2,
                       batch_size=32, rounds_T=20),
    protection=ProtectionMode(kind="parallel"),
    seed=0,
)
SEEDS = (0, 1, 2)


def mean_over_seeds(schedule):
    accs, sim = [], 0.0
    for seed in SEEDS:
        rep = run_experiment(replace(base, seed=seed, schedule=schedule))
        accs.append(rep.final_accuracy)
        sim = rep.total_sim_time_s
    return 100 * float(np.mean(accs)), sim


print("--- static schedules ---")
print(f"{'r':>6} {'mean acc %':>10} {'sim time s':>11} {'acc/sim x100':>13}")
for r in (0.0, 0.01, 0.05, 0.1, 0.2, 1.0):
    acc, sim = mean_over_seeds(RatioSchedule(r0=r, lam=1.0, mode="static"))
    eff = f"{acc / sim * 100:13.1f}" if sim > 0 else f"{'n/a':>13}"
    print(f"{r:6.2f} {acc:10.1f} {sim:11.4f} {eff}")

print()
print("--- dynamic schedules (r_t = r0 * lambda^t) ---")
print(f"{'r0 x lambda':>12} {'mean acc %':>10} {'sim time s':>11}")
for r0, lam in ((0.05, 0.99), (0.1, 0.99), (0.1, 0.95), (0.1, 0.9)):
    acc, sim = mean_over_seeds(RatioSchedule(r0=r0, lam=lam, mode="dynamic"))
    print(f"{f'{r0} x {lam}':>12} {acc:10.1f} {sim:11.4f}")

print()
print("a decaying schedule keeps most of the static accuracy at a lower "
      "encryption bill; larger static r buys accuracy linearly in time.")
