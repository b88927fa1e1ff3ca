"""The benchmark's workloads: one generated fedsplit config each, and why.

Every workload trains the MLP 100 -> 256 -> 10 (28,426 parameters) on
synthetic data.  The benchmark seed becomes the config's ``seed`` key and
nothing else, so the program sees only the generated config file.

Each workload also has a smoke shape used by ``run.py --smoke``: one round
and hidden width 16, which exercises the same code paths in well under a
second.  Its larger step size lets one round move the accuracy, so the
accuracy check still notices a change to the aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass

# The golden operation of every run uses this seed; bench/reference.json
# holds its expected outputs.
REFERENCE_SEED = 0

_MODEL = {
    "dataset.kind": "synthetic",
    "dataset.input_dim": "100",
    "dataset.num_classes": "10",
    "model.kind": "mlp",
    "model.hidden_dims": "256",
}

_SMOKE = {"model.hidden_dims": "16", "round.rounds_T": "1", "round.learning_rate_eta": "0.5"}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    keys: dict

    @property
    def backend(self) -> str:
        return self.keys["he.backend"]

    @property
    def workers(self) -> int:
        return int(self.keys["workers"])

    def config(self, seed: int, smoke: bool = False, workers: int | None = None) -> dict:
        flat = {**_MODEL, **self.keys, **(_SMOKE if smoke else {}), "seed": str(seed)}
        if workers is not None:
            flat["workers"] = str(workers)
        return flat

    def rounds(self, smoke: bool = False) -> int:
        return int(self.config(0, smoke)["round.rounds_T"])


WORKLOADS = {w.name: w for w in (
    Workload(
        name="vote_mock",
        why="parallel/mock, max strategy, r=0.3: the PRP vote is ~82% of traced "
            "self time and clients overlap (distinct_share 0.30); HE is nearly free",
        keys={
            "dataset.num_samples": "2000",
            "protection.kind": "parallel",
            "he.backend": "mock",
            "voting.strategy": "max",
            "schedule.mode": "static",
            "schedule.r0": "0.3",
            "round.clients_total_N": "10",
            "round.clients_sampled_n": "10",
            "round.local_epochs_K": "1",
            "round.rounds_T": "3",
            "workers": "1",
        }),
    Workload(
        name="he_ckks",
        why="he_only/ckks: NTT and ckks encrypt do ~85% of the work and the vote "
            "is bypassed, so vote changes must read no change here",
        keys={
            "dataset.num_samples": "2000",
            "protection.kind": "he_only",
            "he.backend": "ckks",
            "round.clients_total_N": "10",
            "round.clients_sampled_n": "10",
            "round.local_epochs_K": "1",
            "round.rounds_T": "6",
            "workers": "1",
        }),
    Workload(
        name="mixed_ckks",
        why="parallel/ckks, random strategy, dynamic r0=0.1: training leads, the "
            "vote barely overlaps, ckks chunks are part-filled, two worker threads",
        keys={
            "dataset.num_samples": "20000",
            "dataset.partition": "dirichlet",
            "dataset.dirichlet_alpha": "0.5",
            "protection.kind": "parallel",
            "he.backend": "ckks",
            "voting.strategy": "random",
            "schedule.mode": "dynamic",
            "schedule.r0": "0.1",
            "schedule.lambda": "0.8",
            "round.clients_total_N": "20",
            "round.clients_sampled_n": "10",
            "round.local_epochs_K": "2",
            "round.rounds_T": "6",
            "workers": "2",
        }),
)}


def config_text(flat: dict) -> str:
    return "".join(f"{key} = {value}\n" for key, value in sorted(flat.items()))
