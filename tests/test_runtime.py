import threading
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedsplit.runtime as runtime_mod
from fedsplit import seeds, voting
from fedsplit.he import HeParams
from fedsplit.metrics import emit_report
from fedsplit.models import ModelSpec, local_train, param_count
from fedsplit.config import (DataConfig, ExperimentConfig, ProtectionMode,
                             RatioSchedule, RoundConfig, config_from_flat)
from fedsplit.runtime import RunAborted, ratio_at, run_experiment
from fedsplit.voting import target_count
from test_golden import golden_config


def small_config(**overrides):
    base = dict(
        data=DataConfig(num_samples=400, separation=2.5, test_fraction=0.2),
        model=ModelSpec(kind="mlp", input_dim=8, num_classes=3, hidden_dims=(12,)),
        rounds=RoundConfig(clients_total_N=5, clients_sampled_n=4,
                           local_epochs_K=2, learning_rate_eta=0.1,
                           batch_size=32, rounds_T=4),
        protection=ProtectionMode(kind="parallel"),
        schedule=RatioSchedule(r0=0.2, lam=1.0, mode="static"),
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def accs(report):
    return [r.accuracy for r in report.rounds]


class TestRatioAt:
    def test_round_zero_uses_r0(self):
        assert ratio_at(RatioSchedule(r0=0.1, lam=0.99, mode="dynamic"), 0) == 0.1

    def test_decay_value(self):
        r = ratio_at(RatioSchedule(r0=0.1, lam=0.99, mode="dynamic"), 10)
        assert r == pytest.approx(0.0904382075008804, rel=1e-12)

    def test_lambda_one_is_constant(self):
        sched = RatioSchedule(r0=0.3, lam=1.0, mode="dynamic")
        assert all(ratio_at(sched, t) == 0.3 for t in range(20))

    def test_static_ignores_t(self):
        sched = RatioSchedule(r0=0.25, lam=0.5, mode="static")
        assert ratio_at(sched, 7) == 0.25

    def test_negative_round_rejected(self):
        with pytest.raises(ValueError):
            ratio_at(RatioSchedule(), -1)


class TestConfigValidation:
    def test_sampled_exceeds_total(self):
        with pytest.raises(ValueError):
            RoundConfig(clients_total_N=3, clients_sampled_n=4)

    @pytest.mark.parametrize("name,value", [
        ("rounds_T", 2.5), ("rounds_T", True), ("batch_size", 32.0),
        ("local_epochs_K", "1"), ("clients_total_N", 5.0), ("clients_sampled_n", False),
    ])
    def test_non_integer_counts_rejected(self, name, value):
        """A count that is not an integer is named here, before a noising
        config's privacy budget could see it."""
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            RoundConfig(**{name: value})

    def test_numpy_integer_counts_accepted(self):
        r = RoundConfig(clients_total_N=np.int64(5), rounds_T=np.uint16(3))
        assert small_config(rounds=r, protection=ProtectionMode(kind="dp_only")).rounds is r

    def test_protection_kind(self):
        with pytest.raises(ValueError):
            ProtectionMode(kind="both")

    def test_schedule_bounds(self):
        with pytest.raises(ValueError):
            RatioSchedule(r0=1.5)
        with pytest.raises(ValueError):
            RatioSchedule(lam=0.0)


class TestFedAvgExactness:
    def test_none_mode_equals_mean_update_trajectory(self):
        cfg = small_config(protection=ProtectionMode(kind="none"),
                           rounds=RoundConfig(clients_total_N=3, clients_sampled_n=3,
                                              local_epochs_K=1, learning_rate_eta=0.1,
                                              batch_size=16, rounds_T=2))
        report = run_experiment(cfg)

        # independent replay of the same protocol arithmetic
        state = runtime_mod._setup(cfg)
        w = state.w.copy()
        for t in range(2):
            rng = np.random.default_rng(seeds.seed_sequence(cfg.seed, seeds.SAMPLING, t))
            cohort = np.sort(rng.choice(3, size=3, replace=False)).tolist()
            updates = []
            for c in cohort:
                ds = state.client_sets[c]
                updates.append(local_train(cfg.model, w, ds.features, ds.labels,
                                           1, 0.1, 16,
                                           seeds.seed_sequence(cfg.seed, seeds.TRAIN, t, c)))
            w = w + np.mean(np.stack(updates), axis=0)
        from fedsplit.metrics import accuracy
        assert report.rounds[-1].accuracy == accuracy(cfg.model, w, state.test_set)

    def test_aggregation_is_plain_mean_within_1e_12(self):
        cfg = small_config(protection=ProtectionMode(kind="none"),
                           rounds=RoundConfig(clients_total_N=4, clients_sampled_n=4,
                                              local_epochs_K=1, learning_rate_eta=0.05,
                                              batch_size=64, rounds_T=1))
        state = runtime_mod._setup(cfg)
        w0 = state.w.copy()
        runtime_mod._run_round(state, 0)
        updates = []
        for c in range(4):
            ds = state.client_sets[c]
            updates.append(local_train(cfg.model, w0, ds.features, ds.labels,
                                       1, 0.05, 64,
                                       seeds.seed_sequence(cfg.seed, seeds.TRAIN, 0, c)))
        assert np.max(np.abs((state.w - w0) - np.mean(np.stack(updates), axis=0))) < 1e-12


class TestModeLimits:
    def test_r1_equals_he_only(self):
        para = run_experiment(small_config(
            schedule=RatioSchedule(r0=1.0, lam=1.0, mode="static")))
        he = run_experiment(small_config(protection=ProtectionMode(kind="he_only")))
        assert accs(para) == accs(he)

    def test_r0_equals_dp_only(self):
        para = run_experiment(small_config(
            schedule=RatioSchedule(r0=0.0, lam=1.0, mode="static")))
        dp = run_experiment(small_config(protection=ProtectionMode(kind="dp_only")))
        assert accs(para) == accs(dp)

    def test_serial_not_above_dp_only(self):
        serial = run_experiment(small_config(protection=ProtectionMode(kind="serial")))
        dp = run_experiment(small_config(protection=ProtectionMode(kind="dp_only")))
        assert serial.rounds[-1].accuracy <= dp.rounds[-1].accuracy + 1e-9

    def test_varying_dp_decays_noise(self):
        rep = run_experiment(small_config(
            protection=ProtectionMode(kind="varying_dp", amplitude_scale=0.5)))
        assert any("varying_dp" in note for note in rep.notes)


class TestNorthStarEndpoints:
    """parallel at r0 = 0 is dp_only and at r0 = 1 is he_only, round by round,
    for every strategy and both schedules, at the golden config."""

    ENDPOINTS = [("dp_only", RatioSchedule(r0=0.0, lam=0.8, mode="static")),
                 ("dp_only", RatioSchedule(r0=0.0, lam=0.8, mode="dynamic")),
                 ("he_only", RatioSchedule(r0=1.0, lam=1.0, mode="static")),
                 ("he_only", RatioSchedule(r0=1.0, lam=1.0, mode="dynamic"))]
    IDS = ["dp_only-static", "dp_only-dynamic", "he_only-static", "he_only-dynamic"]

    @pytest.mark.parametrize("strategy", ["max", "min", "random"])
    @pytest.mark.parametrize("kind,schedule", ENDPOINTS, ids=IDS)
    def test_mock_rounds_equal(self, kind, schedule, strategy):
        para, end = (run_experiment(golden_config(k, strategy, schedule=schedule))
                     for k in ("parallel", kind))
        assert ([(r.r_t, r.accuracy, r.sim_time_s) for r in para.rounds]
                == [(r.r_t, r.accuracy, r.sim_time_s) for r in end.rounds])

    @pytest.mark.parametrize("strategy", ["max", "min", "random"])
    @pytest.mark.parametrize("kind,schedule", ENDPOINTS, ids=IDS)
    def test_ckks_accuracies_equal(self, kind, schedule, strategy):
        para, end = (run_experiment(golden_config(k, strategy, schedule=schedule,
                                                  he_backend="ckks",
                                                  he_params=HeParams(ring_degree=256)))
                     for k in ("parallel", kind))
        assert accs(para) == accs(end)


class TestHePartFidelity:
    def test_he_coordinates_carry_exact_plaintext_mean(self):
        # under the mock backend the encrypted part of the applied update must
        # equal the plaintext mean of the clients' encrypted parts exactly;
        # noise may touch only the complement
        from fedsplit.vectors import split
        from fedsplit.voting import (decode_partition, encrypt_indices, new_vote_key,
                                     propose_partition, tally_votes)

        cfg = small_config(rounds=RoundConfig(clients_total_N=4, clients_sampled_n=4,
                                              local_epochs_K=1, learning_rate_eta=0.1,
                                              batch_size=32, rounds_T=1))
        state = runtime_mod._setup(cfg)
        w0 = state.w.copy()
        runtime_mod._run_round(state, 0)

        rng = np.random.default_rng(seeds.seed_sequence(cfg.seed, seeds.SAMPLING, 0))
        cohort = np.sort(rng.choice(4, size=4, replace=False)).tolist()
        updates = {c: local_train(cfg.model, w0, state.client_sets[c].features,
                                  state.client_sets[c].labels, 1, 0.1, 32,
                                  seeds.seed_sequence(cfg.seed, seeds.TRAIN, 0, c))
                   for c in cohort}
        r_t = 0.2
        k = target_count(r_t, state.dim)
        vk = new_vote_key(seeds.seed_sequence(cfg.seed, seeds.VOTE_KEY), round_binding=0)
        msgs = [encrypt_indices(
                    propose_partition(updates[c], r_t, cfg.strategy,
                                      seeds.seed_sequence(cfg.seed, seeds.PROPOSE, 0, c)),
                    vk)
                for c in cohort]
        mask = decode_partition(tally_votes(msgs, k), vk, state.dim, k)
        # left-fold like the ciphertext aggregation so rounding matches exactly
        he_parts = [split(updates[c], mask)[1] for c in cohort]
        he_sum = he_parts[0].copy()
        for part in he_parts[1:]:
            he_sum = he_sum + part
        he_idx = mask.he_indices
        assert np.array_equal(state.w[he_idx], w0[he_idx] + he_sum / len(cohort))
        # and the DP complement was actually noised (nonzero deviation)
        dp_mean = np.mean(np.stack([split(updates[c], mask)[0]
                                    for c in cohort]), axis=0)
        dp_idx = mask.complement()
        assert not np.allclose(state.w[dp_idx] - w0[dp_idx], dp_mean)


class TestDynamicSchedule:
    def test_mask_size_tracks_decayed_ratio_exactly(self, monkeypatch):
        recorded = []
        original = runtime_mod.decode_partition

        def spy(tokens, vk, dim, k):
            mask = original(tokens, vk, dim, k)
            recorded.append(mask.size)
            return mask

        monkeypatch.setattr(runtime_mod, "decode_partition", spy)
        cfg = small_config(schedule=RatioSchedule(r0=0.37, lam=0.9, mode="dynamic"),
                           rounds=RoundConfig(clients_total_N=3, clients_sampled_n=3,
                                              local_epochs_K=1, learning_rate_eta=0.05,
                                              batch_size=32, rounds_T=6))
        run_experiment(cfg)
        dim = param_count(cfg.model)
        assert recorded == [target_count(0.37 * 0.9 ** t, dim) for t in range(6)]

    def test_r_t_column_reports_schedule(self):
        cfg = small_config(schedule=RatioSchedule(r0=0.4, lam=0.5, mode="dynamic"),
                           rounds=RoundConfig(clients_total_N=2, clients_sampled_n=2,
                                              local_epochs_K=1, learning_rate_eta=0.05,
                                              batch_size=32, rounds_T=3))
        rep = run_experiment(cfg)
        assert [r.r_t for r in rep.rounds] == [0.4, 0.2, 0.1]


class TestVoteScope:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_nothing_of_the_vote_outlives_the_decode(self, monkeypatch, workers):
        refs, checked = [], []
        encrypt, split = runtime_mod.encrypt_indices, runtime_mod.split

        def encrypt_spy(mask, vk):
            msg = encrypt(mask, vk)
            refs.extend([weakref.ref(vk), weakref.ref(msg)])
            return msg

        def split_spy(u, mask):
            checked.append([ref for ref in refs if ref() is not None])
            return split(u, mask)

        monkeypatch.setattr(runtime_mod, "encrypt_indices", encrypt_spy)
        monkeypatch.setattr(runtime_mod, "split", split_spy)
        run_experiment(small_config(workers=workers))
        assert refs and len(checked) == 4 * 4
        assert all(alive == [] for alive in checked)

    def test_one_prp_batch_per_round(self, monkeypatch):
        """Each round runs the PRP once, forward, over the union of its
        proposals; every client's tokens and the decode read that batch
        from the round key ``tokenize_round`` returns."""
        proposals, batches = [], []
        propose, prp = runtime_mod.propose_partition, voting._prp

        def propose_spy(*args):
            proposals.append(propose(*args))
            return proposals[-1]

        def prp_spy(vk, blocks, inverse=False):
            if blocks.size:
                batches.append((blocks.tolist(), inverse))
            return prp(vk, blocks, inverse)

        monkeypatch.setattr(runtime_mod, "propose_partition", propose_spy)
        monkeypatch.setattr(voting, "_prp", prp_spy)
        run_experiment(small_config())
        assert len(proposals) == 4 * 4
        unions = [np.unique(np.concatenate([m.he_indices for m in proposals[t:t + 4]])).tolist()
                  for t in range(0, 16, 4)]
        assert batches == [(union, False) for union in unions]


class TestDeterminismAndBackends:
    def test_same_seed_byte_identical_reports(self):
        for backend in ("mock", "ckks"):
            a = emit_report(run_experiment(small_config(he_backend=backend)), "json")
            b = emit_report(run_experiment(small_config(he_backend=backend)), "json")
            assert a == b, backend

    def test_wall_ratio_only_on_request(self):
        assert run_experiment(small_config(he_backend="ckks")).efficiency_ratio is None
        rep = run_experiment(small_config(he_backend="ckks", include_wall_time=True))
        assert rep.efficiency_ratio > 0

    def test_worker_invariance(self):
        a = emit_report(run_experiment(small_config(workers=1)), "json")
        b = emit_report(run_experiment(small_config(workers=3)), "json")
        assert a == b

    def test_both_passes_run_on_the_calling_thread(self, monkeypatch):
        threads = []
        train, split = runtime_mod.local_train, runtime_mod.split

        def train_spy(*args, **kwargs):
            threads.append(threading.get_ident())
            return train(*args, **kwargs)

        def split_spy(u, mask):
            threads.append(threading.get_ident())
            return split(u, mask)

        monkeypatch.setattr(runtime_mod, "local_train", train_spy)
        monkeypatch.setattr(runtime_mod, "split", split_spy)
        run_experiment(small_config(workers=3))
        assert len(threads) == 2 * 4 * 4
        assert set(threads) == {threading.get_ident()}

    def test_mock_and_ckks_trajectories_agree(self):
        mock = run_experiment(small_config(he_backend="mock"))
        ckks = run_experiment(small_config(he_backend="ckks"))
        # decode noise is ~1e-4 per coordinate; desk-scale accuracies match
        assert np.allclose(accs(mock), accs(ckks), atol=0.02)
        assert mock.time_basis == "simulated"
        assert ckks.time_basis == "wall"

    def test_sim_time_strictly_increasing_in_r(self):
        sims = []
        for r in (0.0, 0.1, 0.5, 1.0):
            rep = run_experiment(small_config(
                schedule=RatioSchedule(r0=r, lam=1.0, mode="static")))
            sims.append(rep.total_sim_time_s)
        assert all(b > a for a, b in zip(sims, sims[1:]))


class TestMinimalAndErrors:
    def test_single_client_single_round(self):
        cfg = small_config(protection=ProtectionMode(kind="none"),
                           rounds=RoundConfig(clients_total_N=1, clients_sampled_n=1,
                                              local_epochs_K=1, learning_rate_eta=0.1,
                                              batch_size=32, rounds_T=1))
        rep = run_experiment(cfg)
        assert len(rep.rounds) == 1
        assert rep.complete

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_partial_report(self):
        # squared loss blows up under an absurd learning rate (tanh nets only
        # saturate, so use the linear model to trip the guard)
        cfg = small_config(
            protection=ProtectionMode(kind="none"),
            model=ModelSpec(kind="linear", input_dim=8, num_classes=3),
            rounds=RoundConfig(clients_total_N=2, clients_sampled_n=2,
                               local_epochs_K=3, learning_rate_eta=1e18,
                               batch_size=8, rounds_T=5))
        with pytest.raises(RunAborted) as excinfo:
            run_experiment(cfg)
        assert excinfo.value.report.complete is False

    def test_data_file_gone_after_parse_aborts_with_partial_report(self, tmp_path):
        # DataConfig does not check that the file exists; only the parse does
        cfg = small_config(data=DataConfig(kind="csv", path=str(tmp_path / "gone.csv")))
        with pytest.raises(RunAborted) as excinfo:
            run_experiment(cfg)
        assert excinfo.value.report.complete is False

    def test_sigma_note_recorded(self):
        rep = run_experiment(small_config())
        assert any("sigma_z" in note for note in rep.notes)


class TestRestMean:
    @given(clients=st.integers(1, 300), length=st.integers(0, 40),
           seed=st.integers(0, 2**32 - 1))
    @example(clients=8, length=1, seed=3)  # one column: np.mean sums it pairwise
    @example(clients=300, length=1, seed=0)
    @example(clients=3, length=2, seed=2)
    @settings(deadline=None)
    def test_equals_the_stacked_mean(self, clients, length, seed):
        """The rests added one at a time give ``np.mean(np.stack(rests), axis=0)``
        bit for bit; a coordinate that is -0.0 in every rest is +0.0 there,
        where a sum seeded with the first rest would keep -0.0."""
        rng = np.random.default_rng(seed)
        rests = [rng.standard_normal(length) * 10.0 ** rng.integers(-12, 12, length)
                 for _ in range(clients)]
        for rest in rests:
            rest[1:2] = -0.0
        mean = runtime_mod._RestMean(clients, length)
        for rest in rests:
            mean.add(rest)
        got, want = mean.mean(), np.mean(np.stack(rests), axis=0)
        assert got.shape == want.shape == (length,)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
        if length >= 2:
            assert not np.signbit(got[1])
            assert np.signbit(sum(rests[1:], rests[0].copy())[1])


class TestMemory:
    """``tracemalloc`` peaks of one round (round 1, after setup and round 0) at
    the benchmark's ``he_ckks`` shape, as multiples of one update's bytes
    (28,426 parameters): a round holds one client's update, rest and
    ciphertexts at a time, and under the vote the cohort's updates and the
    vote.  Holding every client's update, rest and ciphertexts to the end
    of the round read 31-36x."""

    @pytest.mark.parametrize("kind,backend,bound", [("he_only", "ckks", 10),
                                                    ("dp_only", "mock", 10),
                                                    ("parallel", "mock", 22)])
    def test_round_holds_one_client(self, kind, backend, bound):
        state = runtime_mod._setup(config_from_flat({
            "dataset.num_samples": "2000", "dataset.input_dim": "100",
            "dataset.num_classes": "10", "model.kind": "mlp", "model.hidden_dims": "256",
            "protection.kind": kind, "he.backend": backend,
            "round.clients_total_N": "10", "round.clients_sampled_n": "10",
            "round.local_epochs_K": "1", "round.rounds_T": "2", "seed": "1"}))
        runtime_mod._run_round(state, 0)
        tracemalloc.start()
        try:
            runtime_mod._run_round(state, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * state.dim * 8
