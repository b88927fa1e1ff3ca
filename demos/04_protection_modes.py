"""Every protection mode on one small federated task.

Modes, from no protection to paying for everything twice:

  none        plain federated averaging
  dp_only     clip + Gaussian noise on the whole update
  he_only     encrypt the whole update (exact, but slow)
  parallel    vote a partition; encrypt the hot part, noise the rest
  serial      noise the whole update, then also encrypt it
  varying_dp  noise with per-round amplitude decay (scale^t)

All runs share seeds, so differences come from the protection alone.
The simulated time column is the mock backend's cost model; wall time is
excluded here because at desk scale it measures the interpreter, not the
protocol.
"""

from dataclasses import replace

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
    schedule=RatioSchedule(r0=0.1, lam=1.0, mode="static"),
    seed=0,
)

print(f"{'mode':<12} {'final acc':>9} {'sim time (s)':>13} {'notes'}")
for kind in ("none", "dp_only", "he_only", "parallel", "serial", "varying_dp"):
    report = run_experiment(replace(base, protection=ProtectionMode(kind=kind)))
    note = report.notes[0][:48] + "..." if report.notes else ""
    print(f"{kind:<12} {report.final_accuracy:9.3f} "
          f"{report.total_sim_time_s:13.4f} {note}")

print()
print("reading the table: encryption preserves accuracy but buys it with "
      "simulated time; noise is cheap but costs accuracy; the parallel "
      "split sits in between, and serial pays both prices at once.")
