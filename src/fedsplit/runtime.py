"""End-to-end federated rounds with parallel DP/HE protection.

One round, in protocol order: sample a client cohort, train locally,
vote on the partition (encrypted index tokens, server-side top-k), split
each update, clip-and-noise the plaintext part, encrypt the remainder,
aggregate both parts server-side, decrypt and merge client-side, and step
the global model.  Every protection mode runs these same steps; ``_PIPELINES``
says which coordinates each one encrypts and where it clips and noises
(no protection, noise everywhere, encryption everywhere, both serially, or
noise with per-round amplitude decay).

Determinism contract: every random stream is derived from
(experiment seed, purpose, round, client), aggregation folds in fixed
client-id order, and results are independent of the worker-pool size.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import seeds
from .datasets import (Dataset, load_csv_dataset, split_dirichlet, split_iid,
                       synthetic_dataset, train_test_split)
from .dp import DpParams, PrivacyBudget, protect_dp, sigma_from_budget
from .errors import DivergenceError, FedSplitError, ProtocolError
from .he import (BACKENDS, HeCostModel, HeParams, make_backend,
                 simulated_round_cost)
from .metrics import ExperimentReport, RoundMetrics, accuracy, efficiency_ratio
from .models import ModelSpec, init_params, local_train, param_count
from .vectors import PartitionMask, add_scaled, merge, split
from .voting import (PartitionStrategy, decode_partition, encrypt_indices,
                     new_vote_key, propose_partition, tally_votes, target_count)

__all__ = [
    "DataConfig", "RoundConfig", "RatioSchedule", "ProtectionMode",
    "ExperimentConfig", "ratio_at", "run_experiment", "RunAborted",
    "PROTECTION_KINDS",
]


@dataclass(frozen=True)
class _Pipeline:
    """What one protection kind does to each client update in a round."""

    # Coordinates encrypted: "none", "all", or "voted" (the consensus mask).
    encrypted: str
    # Where clip+noise applies: "" nowhere, "rest" the unencrypted
    # coordinates, "whole" the full update before the split.
    noised: str = ""
    # The noise std shrinks per round to sigma_z * amplitude_scale^t.
    decay: bool = False


_PIPELINES = {
    "none": _Pipeline("none"),
    "dp_only": _Pipeline("none", "rest"),
    "he_only": _Pipeline("all"),
    "serial": _Pipeline("all", "whole"),
    "parallel": _Pipeline("voted", "rest"),
    "varying_dp": _Pipeline("none", "rest", decay=True),
}
PROTECTION_KINDS = tuple(_PIPELINES)


class RunAborted(FedSplitError):
    """A round failed; ``.report`` holds the partial report (complete=False)."""

    def __init__(self, message: str, report: ExperimentReport):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class DataConfig:
    kind: str = "synthetic"
    num_samples: int = 600
    input_dim: int = 10
    num_classes: int = 3
    separation: float = 2.0
    path: str = ""
    partition: str = "iid"
    dirichlet_alpha: float = 0.5
    test_fraction: float = 0.2

    def __post_init__(self):
        if self.kind not in ("synthetic", "csv"):
            raise ValueError(f"dataset kind must be synthetic or csv, got {self.kind!r}")
        if self.partition not in ("iid", "dirichlet"):
            raise ValueError(
                f"partition must be iid or dirichlet, got {self.partition!r}"
            )
        if self.kind == "csv" and not self.path:
            raise ValueError("csv dataset requires a path")


@dataclass(frozen=True)
class RoundConfig:
    clients_total_N: int = 5
    clients_sampled_n: int = 5
    local_epochs_K: int = 1
    learning_rate_eta: float = 0.05
    batch_size: int = 32
    rounds_T: int = 3

    def __post_init__(self):
        if not 1 <= self.clients_sampled_n <= self.clients_total_N:
            raise ValueError(
                f"need 1 <= sampled n ({self.clients_sampled_n}) <= total N "
                f"({self.clients_total_N})"
            )
        if self.local_epochs_K < 1 or self.rounds_T < 1 or self.batch_size < 1:
            raise ValueError("local_epochs_K, rounds_T, batch_size must be >= 1")
        if not self.learning_rate_eta > 0:
            raise ValueError("learning_rate_eta must be positive")

    @property
    def sampling_ratio(self) -> float:
        return self.clients_sampled_n / self.clients_total_N


@dataclass(frozen=True)
class RatioSchedule:
    """Encrypted-fraction schedule: static r0, or r0 * lambda^t per round."""

    r0: float = 0.1
    lam: float = 0.99
    mode: str = "static"

    def __post_init__(self):
        if not 0.0 <= self.r0 <= 1.0:
            raise ValueError(f"r0 must lie in [0, 1], got {self.r0}")
        if not 0.0 < self.lam <= 1.0:
            raise ValueError(f"lambda must lie in (0, 1], got {self.lam}")
        if self.mode not in ("static", "dynamic"):
            raise ValueError(f"schedule mode must be static or dynamic, got {self.mode!r}")


def ratio_at(schedule: RatioSchedule, t: int) -> float:
    """Encrypted fraction at round t (round 0 uses r0)."""
    if t < 0:
        raise ValueError(f"round index must be >= 0, got {t}")
    if schedule.mode == "static":
        return schedule.r0
    return schedule.r0 * schedule.lam ** t


@dataclass(frozen=True)
class ProtectionMode:
    kind: str = "parallel"
    amplitude_scale: float = 0.9  # varying_dp only

    def __post_init__(self):
        if self.kind not in PROTECTION_KINDS:
            raise ValueError(
                f"protection kind must be one of {PROTECTION_KINDS}, got {self.kind!r}"
            )
        if not 0.0 < self.amplitude_scale <= 1.0:
            raise ValueError(
                f"amplitude_scale must lie in (0, 1], got {self.amplitude_scale}"
            )

    @property
    def pipeline(self) -> _Pipeline:
        return _PIPELINES[self.kind]

    @property
    def uses_dp(self) -> bool:
        return bool(self.pipeline.noised)

    @property
    def uses_he(self) -> bool:
        return self.pipeline.encrypted != "none"


@dataclass(frozen=True)
class ExperimentConfig:
    data: DataConfig = field(default_factory=DataConfig)
    model: ModelSpec = field(default_factory=lambda: ModelSpec(
        kind="logistic", input_dim=10, num_classes=3))
    rounds: RoundConfig = field(default_factory=RoundConfig)
    protection: ProtectionMode = field(default_factory=ProtectionMode)
    schedule: RatioSchedule = field(default_factory=RatioSchedule)
    strategy: PartitionStrategy = PartitionStrategy.MAX_NORM
    dp_epsilon: float = 1.0
    dp_delta: float = 1e-5
    dp_theta: float = 1.0
    he_backend: str = "mock"
    he_params: HeParams = field(default_factory=HeParams)
    he_cost: HeCostModel = field(default_factory=HeCostModel)
    seed: int = 0
    workers: int = 1
    include_wall_time: bool = False

    def __post_init__(self):
        object.__setattr__(self, "strategy", PartitionStrategy(self.strategy))
        if self.he_backend not in BACKENDS:
            raise ValueError(f"he_backend must be one of {list(BACKENDS)}, "
                             f"got {self.he_backend!r}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    def as_flat_dict(self) -> dict:
        """Canonical flat key -> string echo, the config-file vocabulary."""
        from .config import config_to_flat  # config imports this module
        return config_to_flat(self)


@dataclass
class _State:
    config: ExperimentConfig
    dim: int
    w: np.ndarray
    client_sets: list
    test_set: Dataset
    dp_params: DpParams | None
    backend: object | None
    keypair: object | None
    vote_key: object | None
    sigma_note: str = ""


def _build_dataset(cfg: ExperimentConfig) -> Dataset:
    d = cfg.data
    if d.kind == "synthetic":
        return synthetic_dataset(d.num_samples, d.input_dim, d.num_classes,
                                 d.separation, seeds.seed_sequence(cfg.seed, seeds.DATA))
    return load_csv_dataset(d.path, d.num_classes)


def _setup(cfg: ExperimentConfig) -> _State:
    full = _build_dataset(cfg)
    if full.input_dim != cfg.model.input_dim:
        raise ValueError(
            f"model.input_dim={cfg.model.input_dim} does not match dataset "
            f"input_dim={full.input_dim}"
        )
    if full.num_classes != cfg.model.num_classes:
        raise ValueError(
            f"model.num_classes={cfg.model.num_classes} does not match dataset "
            f"num_classes={full.num_classes}"
        )
    train, test = train_test_split(full, cfg.data.test_fraction,
                                   seeds.seed_sequence(cfg.seed, seeds.SPLIT, 0))
    if len(test) == 0:
        raise ValueError("test_fraction left an empty evaluation set")
    n_clients = cfg.rounds.clients_total_N
    shard_seed = seeds.seed_sequence(cfg.seed, seeds.SPLIT, 1)
    if cfg.data.partition == "iid":
        shards = split_iid(train, n_clients, shard_seed)
    else:
        shards = split_dirichlet(train, n_clients, cfg.data.dirichlet_alpha, shard_seed)
    client_sets = [train.subset(s) for s in shards]

    dp_params = None
    sigma_note = ""
    if cfg.protection.uses_dp:
        budget = PrivacyBudget(
            epsilon=cfg.dp_epsilon, delta=cfg.dp_delta,
            q=cfg.rounds.sampling_ratio, rounds_T=cfg.rounds.rounds_T,
            theta=cfg.dp_theta,
            min_dataset_size=min(len(c) for c in client_sets),
        )
        dp_params = DpParams(theta=cfg.dp_theta, sigma_z=sigma_from_budget(budget))
        sigma_note = (f"sigma_z={dp_params.sigma_z!r} calibrated once from "
                      f"(eps={budget.epsilon}, delta={budget.delta}, q={budget.q}, "
                      f"T={budget.rounds_T}, theta={budget.theta}, "
                      f"min|D|={budget.min_dataset_size})")

    backend = keypair = vote_key = None
    if cfg.protection.uses_he:
        backend = make_backend(cfg.he_backend, cfg.he_params)
        keypair = backend.keygen(seeds.seed_sequence(cfg.seed, seeds.HE_KEYGEN))
    if cfg.protection.pipeline.encrypted == "voted":
        vote_key = new_vote_key(seeds.seed_sequence(cfg.seed, seeds.VOTE_KEY))

    w = init_params(cfg.model, seeds.seed_sequence(cfg.seed, seeds.MODEL_INIT))
    return _State(config=cfg, dim=param_count(cfg.model), w=w,
                  client_sets=client_sets, test_set=test, dp_params=dp_params,
                  backend=backend, keypair=keypair, vote_key=vote_key,
                  sigma_note=sigma_note)


def _map_clients(fn, items, workers: int):
    if workers <= 1:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def _consensus_mask(state: _State, t: int, r_t: float, items: list) -> PartitionMask:
    """Vote on the round's encrypted coordinates: the top-k of the proposals."""
    cfg = state.config
    k = target_count(r_t, state.dim)
    vk = state.vote_key.for_round(t)

    def propose_one(item):
        client, u = item
        mask = propose_partition(u, r_t, cfg.strategy,
                                 seeds.seed_sequence(cfg.seed, seeds.PROPOSE, t, client))
        return encrypt_indices(mask, vk, client_id=client)

    messages = _map_clients(propose_one, items, cfg.workers)
    mask = decode_partition(tally_votes(messages, k), vk, state.dim, k)
    if mask.size != k:
        raise ProtocolError(
            f"round {t}: consensus mask has {mask.size} indices, expected {k}"
        )
    return mask


def _run_round(state: _State, t: int) -> RoundMetrics:
    cfg = state.config
    pipe = cfg.protection.pipeline
    started = time.perf_counter()
    rng_sample = seeds.rng_for(cfg.seed, seeds.SAMPLING, t)
    cohort = np.sort(rng_sample.choice(
        cfg.rounds.clients_total_N, size=cfg.rounds.clients_sampled_n,
        replace=False)).tolist()

    def train_one(client: int) -> np.ndarray:
        ds = state.client_sets[client]
        return local_train(cfg.model, state.w, ds.features, ds.labels,
                           cfg.rounds.local_epochs_K, cfg.rounds.learning_rate_eta,
                           cfg.rounds.batch_size,
                           seeds.seed_sequence(cfg.seed, seeds.TRAIN, t, client))

    items = list(zip(cohort, _map_clients(train_one, cohort, cfg.workers)))
    if pipe.encrypted == "voted":
        r_t = ratio_at(cfg.schedule, t)
        mask = _consensus_mask(state, t, r_t, items)
    else:
        r_t = 1.0 if pipe.encrypted == "all" else 0.0
        mask = PartitionMask(np.arange(target_count(r_t, state.dim)), state.dim)
    dp = state.dp_params
    if pipe.decay:
        dp = DpParams(theta=dp.theta,
                      sigma_z=dp.sigma_z * cfg.protection.amplitude_scale ** t)

    def protect_one(item):
        client, u = item
        dp_seed = seeds.seed_sequence(cfg.seed, seeds.DP_NOISE, t, client)
        if pipe.noised == "whole":
            u = protect_dp(u, dp, dp_seed)
        parts = split(u, mask)
        rest = parts.dp_part
        if pipe.noised == "rest":
            rest = protect_dp(rest, dp, dp_seed)
        cts = []
        if mask.size:
            cts = state.backend.encrypt(
                state.keypair, parts.he_part,
                seeds.seed_sequence(cfg.seed, seeds.HE_ENCRYPT, t, client))
        return rest, cts

    protected = _map_clients(protect_one, items, cfg.workers)
    rest_mean = np.mean(np.stack([p[0] for p in protected]), axis=0)
    he_mean = np.empty(0, dtype=np.float64)
    sim_time = 0.0
    if mask.size:
        he_mean = state.backend.aggregate(state.keypair, [p[1] for p in protected],
                                          mask.size)
        if state.backend.time_basis == "simulated":
            sim_time = simulated_round_cost(cfg.he_cost, len(cohort), mask.size)
    global_update = merge(rest_mean, he_mean, mask)

    if not np.all(np.isfinite(global_update)):
        raise DivergenceError(f"round {t}: non-finite global update")
    state.w = add_scaled(state.w, global_update, 1.0)
    acc = accuracy(cfg.model, state.w, state.test_set)
    if not math.isfinite(acc):
        raise DivergenceError(f"round {t}: non-finite accuracy")
    wall = time.perf_counter() - started
    return RoundMetrics(round=t, r_t=r_t, accuracy=acc, sim_time_s=sim_time,
                        wall_time_s=wall)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run T rounds and return a complete report.

    Reports are bit-identical across runs with the same config and seed,
    independent of the worker count; wall-clock timing is kept out of the
    deterministic payload.  A failing round raises RunAborted carrying the
    partial report (complete=False).
    """
    report = ExperimentReport(config=cfg.as_flat_dict(), seed=cfg.seed,
                              backend=cfg.he_backend,
                              time_basis=BACKENDS[cfg.he_backend].time_basis)
    if cfg.protection.pipeline.decay:
        report.notes.append(
            "varying_dp baseline uses the simplified per-round amplitude "
            f"sigma_z * {cfg.protection.amplitude_scale}^t"
        )
    try:
        state = _setup(cfg)
        if state.sigma_note:
            report.notes.append(state.sigma_note)
        for t in range(cfg.rounds.rounds_T):
            report.rounds.append(_run_round(state, t))
    except (FedSplitError, ValueError, OSError) as exc:
        _finalize(report, cfg.include_wall_time)
        raise RunAborted(f"experiment aborted: {exc}", report) from exc
    _finalize(report, cfg.include_wall_time)
    report.complete = True
    return report


def _finalize(report: ExperimentReport, include_wall_time: bool) -> None:
    if report.rounds:
        report.final_accuracy = report.rounds[-1].accuracy
        report.total_sim_time_s = float(sum(r.sim_time_s for r in report.rounds))
        report.total_wall_time_s = float(sum(r.wall_time_s for r in report.rounds))
    # A wall-clock ratio enters the report only on request, like wall times.
    basis_time = (report.total_sim_time_s if report.time_basis == "simulated"
                  else report.total_wall_time_s if include_wall_time else 0.0)
    if basis_time > 0 and report.rounds:
        report.efficiency_ratio = efficiency_ratio(report.final_accuracy * 100.0,
                                                   basis_time)
    else:
        report.efficiency_ratio = None
