"""End-to-end federated rounds with parallel DP/HE protection.

Setup places every data row once: the train/test split and the client
shards read only the labels, so the rows' order [test | client 0 | ... |
client N-1] is known before any feature exists, and the test set and each
client set are row slices of one feature matrix filled in that order.

One round, in protocol order, holds one client at a time.  Each client
trains, clips and noises its update (whole, or the plaintext part), splits
it by the round's mask and encrypts the rest; the server adds the
plaintext part into a running sum that starts at zeros and folds the
ciphertexts into a running ciphertext sum (``HeBackend.fold``), and the
update is dropped.  After the last client the server decrypts the sum
once, both sums are divided by n and merged, and the global model steps.
Only the voted pipeline needs the mask after training, so it makes two
passes: the first trains each client and proposes a partition, one PRP
batch tokenizes the union of the proposals, each client sends its
proposal as encrypted index tokens, the server tallies the top-k and
clients decode the mask, after which nothing of the vote is held; the
second protects and folds each held update, dropping it as it goes.
Every protection mode runs these steps; its pipeline
(``config._PIPELINES``) says which coordinates it encrypts and where it
clips and noises.  The experiment config and its checks live in
``config``; this module only runs it, and ``run_experiment`` times each
round from outside, so whatever a round frees counts toward that round's
wall time.  Every pass runs on the calling thread in client-id order.

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
                       synthetic_features, synthetic_labels, train_test_rows)
from .dp import DpParams, protect_dp
from .errors import DivergenceError, FedSplitError, check_int
from .he import make_backend, simulated_round_cost
from .metrics import ExperimentReport, RoundMetrics, accuracy
from .models import init_params, local_train, param_count
from .vectors import PartitionMask, merge, split
from .voting import (decode_partition, encrypt_indices, new_vote_key,
                     propose_partition, tally_votes, target_count, tokenize_round)

__all__ = ["RunAborted", "ratio_at", "run_experiment"]


class RunAborted(FedSplitError):
    """A round failed; ``.report`` holds the partial report (complete=False)."""

    def __init__(self, message: str, report: ExperimentReport):
        super().__init__(message)
        self.report = report


def ratio_at(schedule: RatioSchedule, t: int) -> float:
    """Encrypted fraction at round t (round 0 uses r0)."""
    check_int("round index t", t, 0)
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


def _placed_sets(cfg: ExperimentConfig) -> tuple[Dataset, list[Dataset]]:
    """The test set and the client sets, as row slices of one feature matrix
    laid out [test | client 0 | ... | client N-1].

    The train/test rows and the shards read only the labels, so every row's
    place is known before any feature exists: the synthetic draw fills the
    matrix in that order, and a CSV load is permuted into it in place.  The
    sets equal, bit for bit, those of the reference copy in
    ``tests/test_datasets.py::TestPlacement``, which builds the whole set
    and indexes its rows.
    """
    d, m = cfg.data, cfg.model
    if d.kind == "synthetic":
        labels, means, rng = synthetic_labels(d.num_samples, m.input_dim, m.num_classes,
                                              d.separation,
                                              seeds.seed_sequence(cfg.seed, seeds.DATA))
    else:
        loaded = load_csv_dataset(d.path, m.input_dim, m.num_classes)
        labels = loaded.labels
    train, test = train_test_rows(labels.size, d.test_fraction,
                                  seeds.seed_sequence(cfg.seed, seeds.SPLIT, 0))
    if test.size == 0:
        raise ValueError("test_fraction left an empty evaluation set")
    n_clients = cfg.rounds.clients_total_N
    shard_seed = seeds.seed_sequence(cfg.seed, seeds.SPLIT, 1)
    if d.partition == "iid":
        shards = split_iid(train.size, n_clients, shard_seed)
    else:
        shards = split_dirichlet(labels[train], n_clients, d.dirichlet_alpha, shard_seed)
    parts = [test, *(train[s] for s in shards)]
    order = np.concatenate(parts)
    if d.kind == "synthetic":
        features = synthetic_features(labels, means, rng, order)
    else:
        features = _permute_rows(loaded.features, order)
    cuts = np.cumsum([p.size for p in parts[:-1]])
    test_set, *client_sets = map(Dataset, np.split(features, cuts),
                                 np.split(labels[order], cuts))
    return test_set, client_sets


def _permute_rows(a: np.ndarray, order: np.ndarray) -> np.ndarray:
    """``a[order]``, written into ``a`` itself with one row of scratch: each
    cycle of the permutation moves its rows along one place."""
    row = np.empty(a.shape[1:], dtype=a.dtype)
    order = memoryview(order)  # Python ints on access, 8 bytes a row
    done = bytearray(len(order))
    for start in range(len(order)):
        if done[start]:
            continue
        row[...] = a[start]
        j = start
        while order[j] != start:
            a[j] = a[order[j]]
            done[j] = 1
            j = order[j]
        a[j] = row
        done[j] = 1
    return a


def _setup(cfg: ExperimentConfig) -> _State:
    # The sets are row slices of one placed matrix; nothing else holds the rows.
    test, client_sets = _placed_sets(cfg)

    dp_params = None
    sigma_note = ""
    if cfg.protection.pipeline.noised:
        budget = cfg._budget(min(len(c) for c in client_sets))
        dp_params = DpParams(theta=cfg.dp_theta, sigma_z=budget.sigma_z)
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


class _RestMean:
    """``np.mean(np.stack(rests), axis=0)`` of rests added one at a time, bit for bit.

    numpy adds the stacked rows in order onto zeros, so a running sum that
    starts at zeros matches it, -0.0 included (a coordinate that is -0.0 in
    every rest comes out +0.0).  A single column it sums pairwise instead,
    so a one-coordinate rest keeps its n values (n floats) for ``np.mean``.
    """

    def __init__(self, n: int, length: int):
        self.count = 0
        self.total = np.zeros((n, 1) if length == 1 else length)

    def add(self, rest: np.ndarray) -> None:
        if self.total.ndim == 2:
            self.total[self.count] = rest
        else:
            self.total += rest
        self.count += 1

    def mean(self) -> np.ndarray:
        if self.total.ndim == 2:
            return np.mean(self.total, axis=0)
        return self.total / self.count


def _train_and_vote(state: _State, t: int, cohort: list, r_t: float, k: int,
                    train) -> tuple[dict, PartitionMask]:
    """The voted pipeline's first pass and decode: each client's update, by
    client id, and the round's mask.

    The round's vote key (with its token table) and the clients' vote
    messages live only in this frame, so nothing of the vote outlives the
    decode.
    """
    cfg = state.config

    def train_and_propose(client: int):
        u = train(client)
        return client, u, propose_partition(
            u, r_t, cfg.strategy, seeds.seed_sequence(cfg.seed, seeds.PROPOSE, t, client))

    trained = _map_clients(train_and_propose, cohort, workers=1)
    vk = new_vote_key(seeds.seed_sequence(cfg.seed, seeds.VOTE_KEY), round_binding=t)
    vk = tokenize_round(vk, [proposal for _, _, proposal in trained])
    msgs = [encrypt_indices(proposal, vk) for _, _, proposal in trained]
    mask = decode_partition(tally_votes(msgs, k), vk, state.dim, k)
    return {client: u for client, u, _ in trained}, mask


def _run_round(state: _State, t: int) -> tuple[float, float, float]:
    """Run round ``t``; return its encrypted share r_t, accuracy and simulated HE time.

    Each client's update is folded into the running sums as soon as it is
    protected and then dropped, so the round holds one client's update,
    rest and ciphertexts at a time (and, under the vote, the cohort's
    updates until the mask is known).
    """
    cfg = state.config
    pipe = cfg.protection.pipeline
    rng_sample = np.random.default_rng(seeds.seed_sequence(cfg.seed, seeds.SAMPLING, t))
    cohort = np.sort(rng_sample.choice(
        cfg.rounds.clients_total_N, size=cfg.rounds.clients_sampled_n,
        replace=False)).tolist()
    voted = pipe.encrypted == "voted"
    r_t = ratio_at(cfg.schedule, t) if voted else float(pipe.encrypted == "all")
    k = target_count(r_t, state.dim)
    dp = state.dp_params
    if pipe.decay:
        dp = DpParams(theta=dp.theta,
                      sigma_z=dp.sigma_z * cfg.protection.amplitude_scale ** t)
    he_sum = None  # the running ciphertext sum, one client's chunks in size

    def train(client: int) -> np.ndarray:
        ds = state.client_sets[client]
        return local_train(cfg.model, state.w, ds.features, ds.labels,
                           cfg.rounds.local_epochs_K, cfg.rounds.learning_rate_eta,
                           cfg.rounds.batch_size,
                           seeds.seed_sequence(cfg.seed, seeds.TRAIN, t, client))

    def protect_and_fold(client: int, u: np.ndarray) -> None:
        nonlocal he_sum
        dp_seed = seeds.seed_sequence(cfg.seed, seeds.DP_NOISE, t, client)
        if pipe.noised == "whole":
            u = protect_dp(u, dp, dp_seed)
        rest, he_part = split(u, mask)
        del u  # the update is released once it is split
        if pipe.noised == "rest":
            rest = protect_dp(rest, dp, dp_seed)
        rests.add(rest)
        if mask.size:
            cts = state.backend.encrypt(
                state.keypair, he_part,
                seeds.seed_sequence(cfg.seed, seeds.HE_ENCRYPT, t, client))
            del he_part
            he_sum = state.backend.fold(he_sum, cts)

    if voted:
        updates, mask = _train_and_vote(state, t, cohort, r_t, k, train)
    else:  # the mask is known before training: each client trains as it is folded
        updates, mask = None, PartitionMask(np.arange(k), state.dim)
    rests = _RestMean(len(cohort), state.dim - k)
    _map_clients(lambda client: protect_and_fold(
        client, updates.pop(client) if voted else train(client)), cohort, workers=1)

    rest_mean = rests.mean()
    he_mean = np.empty(0, dtype=np.float64)
    sim_time = 0.0
    if mask.size:
        he_mean = state.backend.decrypt_mean(state.keypair, he_sum, len(cohort))
        if state.backend.time_basis == "simulated":
            sim_time = simulated_round_cost(cfg.he_cost, len(cohort), mask.size)
    global_update = merge(rest_mean, he_mean, mask)
    # the evaluation's activations need not sit on top of the sums
    del rests, he_sum, rest_mean, he_mean

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
    except (FedSplitError, ValueError, OSError, MemoryError) as exc:
        raise RunAborted(f"experiment aborted: {exc}", report) from exc
    report.complete = True
    return report

