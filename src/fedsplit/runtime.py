"""End-to-end federated rounds with parallel DP/HE protection.

One round, in protocol order, is two passes over a sampled cohort.  First,
each client trains and, under the voted pipeline, proposes a partition as
encrypted index tokens; the server tallies the top-k and clients decode the
round's mask, after which nothing of the vote is held.  Second, each client
splits its update, clips and noises the plaintext part and encrypts the
rest; the server aggregates both parts, clients decrypt and merge, and the
global model steps.  Every protection mode runs these steps; its pipeline
(``config._PIPELINES``) says which coordinates it encrypts and where it
clips and noises.  The experiment config and its checks live in
``config``; this module only runs it, and ``run_experiment`` times each
round from outside, so whatever a round frees counts toward that round's
wall time.  Both passes run on the calling thread in client-id order.

Determinism contract: every random stream, and the round's vote key, is derived
from (experiment seed, purpose, round, client), and aggregation folds in fixed
client-id order.  The ``workers`` key is accepted but does not change a run.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import seeds
from .config import ExperimentConfig, RatioSchedule, config_to_flat
from .datasets import (Dataset, load_csv_dataset, split_dirichlet, split_iid,
                       synthetic_dataset, train_test_split)
from .dp import DpParams, protect_dp, sigma_from_budget
from .errors import DivergenceError, FedSplitError
from .he import make_backend, simulated_round_cost
from .metrics import ExperimentReport, RoundMetrics, accuracy
from .models import init_params, local_train, param_count
from .vectors import PartitionMask, merge, split
from .voting import (decode_partition, encrypt_indices, new_vote_key,
                     propose_partition, tally_votes, target_count)

__all__ = ["RunAborted", "ratio_at", "run_experiment"]


class RunAborted(FedSplitError):
    """A round failed; ``.report`` holds the partial report (complete=False)."""

    def __init__(self, message: str, report: ExperimentReport):
        super().__init__(message)
        self.report = report


def ratio_at(schedule: RatioSchedule, t: int) -> float:
    """Encrypted fraction at round t (round 0 uses r0)."""
    if t < 0:
        raise ValueError(f"round index must be >= 0, got {t}")
    if schedule.mode == "static":
        return schedule.r0
    return schedule.r0 * schedule.lam ** t


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
    sigma_note: str = ""


def _build_dataset(cfg: ExperimentConfig) -> Dataset:
    d = cfg.data
    if d.kind == "synthetic":
        return synthetic_dataset(d.num_samples, d.input_dim, d.num_classes,
                                 d.separation, seeds.seed_sequence(cfg.seed, seeds.DATA))
    return load_csv_dataset(d.path, d.num_classes)


def _setup(cfg: ExperimentConfig) -> _State:
    full = _build_dataset(cfg)
    for attr in ("input_dim", "num_classes"):
        if getattr(full, attr) != getattr(cfg.model, attr):
            raise ValueError(f"model.{attr}={getattr(cfg.model, attr)} does not match "
                             f"dataset {attr}={getattr(full, attr)}")
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
    if cfg.protection.pipeline.noised:
        budget = cfg._budget(min(len(c) for c in client_sets))
        dp_params = DpParams(theta=cfg.dp_theta, sigma_z=sigma_from_budget(budget))
        sigma_note = (f"sigma_z={dp_params.sigma_z!r} calibrated once from "
                      f"(eps={budget.epsilon}, delta={budget.delta}, q={budget.q}, "
                      f"T={budget.rounds_T}, theta={budget.theta}, "
                      f"min|D|={budget.min_dataset_size})")

    backend = keypair = None
    if cfg.protection.pipeline.encrypted != "none":
        backend = make_backend(cfg.he_backend, cfg.he_params)
        keypair = backend.keygen(seeds.seed_sequence(cfg.seed, seeds.HE_KEYGEN))

    w = init_params(cfg.model, seeds.seed_sequence(cfg.seed, seeds.MODEL_INIT))
    return _State(config=cfg, dim=param_count(cfg.model), w=w,
                  client_sets=client_sets, test_set=test, dp_params=dp_params,
                  backend=backend, keypair=keypair, sigma_note=sigma_note)


def _map_clients(fn, items, workers: int):
    """``fn`` over ``items`` in order, on this thread.  The benchmark's tracer
    reads ``workers`` as the number of threads used, so callers pass 1."""
    return [fn(item) for item in items]


def _train_and_vote(state: _State, t: int, cohort: list, r_t: float,
                    k: int) -> tuple[list, PartitionMask]:
    """The first pass and the decode: each client's ``(client, update)`` and the mask.

    The round's vote key (with its memo) and the clients' vote messages live
    only in this frame, so nothing of the vote outlives the decode.
    """
    cfg = state.config
    voted = cfg.protection.pipeline.encrypted == "voted"
    vk = (new_vote_key(seeds.seed_sequence(cfg.seed, seeds.VOTE_KEY), round_binding=t)
          if voted else None)

    def train_one(client: int):
        ds = state.client_sets[client]
        u = local_train(cfg.model, state.w, ds.features, ds.labels,
                        cfg.rounds.local_epochs_K, cfg.rounds.learning_rate_eta,
                        cfg.rounds.batch_size,
                        seeds.seed_sequence(cfg.seed, seeds.TRAIN, t, client))
        if not voted:
            return client, u, None
        proposal = propose_partition(u, r_t, cfg.strategy,
                                     seeds.seed_sequence(cfg.seed, seeds.PROPOSE, t, client))
        return client, u, encrypt_indices(proposal, vk, client_id=client)

    trained = _map_clients(train_one, cohort, workers=1)
    mask = (decode_partition(tally_votes([v for _, _, v in trained], k), vk, state.dim, k)
            if voted else PartitionMask(np.arange(k), state.dim))
    return [(client, u) for client, u, _ in trained], mask


def _run_round(state: _State, t: int) -> tuple[float, float, float]:
    """Run round ``t``; return its encrypted share r_t, accuracy and simulated HE time."""
    cfg = state.config
    pipe = cfg.protection.pipeline
    rng_sample = seeds.as_rng(seeds.seed_sequence(cfg.seed, seeds.SAMPLING, t))
    cohort = np.sort(rng_sample.choice(
        cfg.rounds.clients_total_N, size=cfg.rounds.clients_sampled_n,
        replace=False)).tolist()
    voted = pipe.encrypted == "voted"
    r_t = ratio_at(cfg.schedule, t) if voted else float(pipe.encrypted == "all")
    k = target_count(r_t, state.dim)
    trained, mask = _train_and_vote(state, t, cohort, r_t, k)
    dp = state.dp_params
    if pipe.decay:
        dp = DpParams(theta=dp.theta,
                      sigma_z=dp.sigma_z * cfg.protection.amplitude_scale ** t)

    def protect_one(item):
        client, u = item
        dp_seed = seeds.seed_sequence(cfg.seed, seeds.DP_NOISE, t, client)
        if pipe.noised == "whole":
            u = protect_dp(u, dp, dp_seed)
        rest, he_part = split(u, mask)
        if pipe.noised == "rest":
            rest = protect_dp(rest, dp, dp_seed)
        cts = []
        if mask.size:
            cts = state.backend.encrypt(
                state.keypair, he_part,
                seeds.seed_sequence(cfg.seed, seeds.HE_ENCRYPT, t, client))
        return rest, cts

    protected = _map_clients(protect_one, trained, workers=1)
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
    state.w = state.w + global_update
    return r_t, accuracy(cfg.model, state.w, state.test_set), sim_time


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run T rounds and return a complete report.

    Reports are bit-identical across runs with the same config and seed,
    whatever ``workers`` says, since every round runs on this thread;
    wall-clock timing is kept out of the deterministic payload.  A failing
    round raises RunAborted carrying the partial report (complete=False).
    """
    report = ExperimentReport(config=config_to_flat(cfg), seed=cfg.seed,
                              backend=cfg.he_backend,
                              include_wall_time=cfg.include_wall_time)
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
            started = time.perf_counter()
            r_t, acc, sim_time = _run_round(state, t)
            report.rounds.append(RoundMetrics(t, r_t, acc, sim_time,
                                              time.perf_counter() - started))
    except (FedSplitError, ValueError, OSError) as exc:
        raise RunAborted(f"experiment aborted: {exc}", report) from exc
    report.complete = True
    return report

