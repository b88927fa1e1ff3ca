"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criteria 5-7 and 10 share the pinned desk-scale ordering experiment
defined in conftest.acceptance_config.
"""

import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np
import pytest

from conftest import ACCEPT_SEEDS, acceptance_config
from fedsplit.cli import main
from fedsplit.he import CkksBackend, HeParams
from fedsplit.metrics import efficiency_ratio
from fedsplit.models import param_count
from fedsplit.config import RatioSchedule, config_to_flat
from fedsplit.runtime import run_experiment
from fedsplit.vectors import PartitionMask
from fedsplit.voting import (decode_partition, encrypt_indices, new_vote_key,
                             tally_votes, target_count, tokenize_round, _prp)


_CAPTURE = None


@pytest.fixture(autouse=True)
def _capture_handle(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _announce(line: str) -> None:
    # suspend pytest's capture so one line per criterion always reaches the
    # terminal
    if _CAPTURE is not None:
        with _CAPTURE.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@contextmanager
def criterion(number: int, description: str, limit_s: float):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        _announce(f"[criterion {number:2d}] FAIL  {description}")
        raise
    elapsed = time.perf_counter() - started
    status = "PASS" if elapsed < limit_s else "FAIL (over time budget)"
    _announce(f"[criterion {number:2d}] {status}  {description}  ({elapsed:.1f}s)")
    assert elapsed < limit_s, f"criterion {number} exceeded {limit_s}s"


def test_criterion_01_accountant_exactness(capfd):
    with criterion(1, "accountant matches arbitrary-precision closed form", 1.0):
        assert main(["accountant", "--epsilon", "1", "--delta", "1e-5",
                     "--q", "1", "--rounds", "50", "--theta", "1",
                     "--min-dataset", "100"]) == 0
        out = capfd.readouterr().out
        printed = float(out.splitlines()[1].split("=")[1])

        import mpmath as mp
        mp.mp.dps = 50
        df = mp.mpf(2) * 1 / 100
        expected = (df / 1) * mp.sqrt(2 * 1 * 50 * mp.log(1 / mp.mpf("1e-5")))
        # 6 significant digits
        assert abs(printed - float(expected)) < 1e-6 * float(expected)
        assert round(printed, 6) == round(float(expected), 6) == 0.678614


def test_criterion_02_efficiency_ratio_fidelity():
    with criterion(2, "efficiency ratio reproduces reference table rows", 1.0):
        pairs = [(80.93, 3571.0, 2.27), (20.28, 3007.0, 0.67),
                 (81.14, 18527.0, 0.44)]
        for acc_pct, time_s, expected in pairs:
            assert round(efficiency_ratio(acc_pct, time_s), 2) == expected


def test_criterion_03_he_correctness():
    with criterion(3, "100 random encrypted sums match plaintext sums at 1e-2", 60.0):
        backend = CkksBackend(HeParams())
        kp = backend.keygen(31337)
        rng = np.random.default_rng(31337)
        worst = 0.0
        for trial in range(100):
            count = int(rng.integers(1, 17))
            length = int(rng.integers(1, 8193))
            vecs = [rng.uniform(-1.0, 1.0, length) for _ in range(count)]
            encrypted = [backend.encrypt(kp, v, (trial, i))
                         for i, v in enumerate(vecs)]
            acc = encrypted[0]
            for cts in encrypted[1:]:
                acc = [backend.hom_add(a, b) for a, b in zip(acc, cts)]
            got = backend.decrypt(kp, acc)
            expected = np.sum(vecs, axis=0)
            worst = max(worst, float(np.max(np.abs(got - expected))))
        assert worst <= 1e-2, f"worst per-coordinate error {worst}"


def _oracle(proposals, k, token_of):
    counts = Counter()
    for prop in proposals:
        counts.update(prop)
    ranked = sorted(counts, key=lambda idx: (-counts[idx], token_of(idx)))
    chosen = set(ranked[:k])
    pad = 0
    while len(chosen) < k:
        if pad not in chosen:
            chosen.add(pad)
        pad += 1
    return sorted(chosen)


def test_criterion_04_voting_oracle_equivalence():
    with criterion(4, "1000 voting instances match the brute-force counter", 10.0):
        rng = np.random.default_rng(42)
        for trial in range(1000):
            dim = int(rng.integers(1, 65))
            n_clients = int(rng.integers(1, 17))
            k = int(rng.integers(0, dim + 1))
            vk = new_vote_key(int(rng.integers(0, 2**31)), round_binding=trial)
            proposals = []
            for client in range(n_clients):
                size = int(rng.integers(0, dim + 1))
                proposals.append(sorted(rng.choice(dim, size=size, replace=False).tolist()))
            masks = [PartitionMask(np.array(prop, dtype=np.int64), dim) for prop in proposals]
            vk = tokenize_round(vk, masks)
            msgs = [encrypt_indices(mask, vk) for mask in masks]
            got = decode_partition(tally_votes(msgs, k), vk, dim, k)
            tokens = _prp(vk, np.arange(dim, dtype=np.uint64)).tolist()
            expected = _oracle(proposals, k, tokens.__getitem__)
            assert got.he_indices.tolist() == expected, f"trial {trial}"

        # the reference three-client scenario: proposals {1,4}, {1,2}, {4,1}
        # must elect exactly {1, 4}
        masks = [PartitionMask(np.array(sorted(p)), 5) for p in ([1, 4], [1, 2], [4, 1])]
        vk = tokenize_round(new_vote_key(7, round_binding=0), masks)
        msgs = [encrypt_indices(mask, vk) for mask in masks]
        winners = decode_partition(tally_votes(msgs, 2), vk, 5, 2)
        assert winners.he_indices.tolist() == [1, 4]


def test_criterion_05_mode_limit_equivalence():
    with criterion(5, "r=1 equals encrypt-only and r=0 equals noise-only", 120.0):
        seed = ACCEPT_SEEDS[0]
        para1 = run_experiment(acceptance_config(
            seed, schedule=RatioSchedule(r0=1.0, lam=1.0, mode="static")))
        he_only = run_experiment(acceptance_config(seed, protection=_mode("he_only")))
        para0 = run_experiment(acceptance_config(
            seed, schedule=RatioSchedule(r0=0.0, lam=1.0, mode="static")))
        dp_only = run_experiment(acceptance_config(seed, protection=_mode("dp_only")))
        for a, b in ((para1, he_only), (para0, dp_only)):
            diffs = [abs(x.accuracy - y.accuracy)
                     for x, y in zip(a.rounds, b.rounds)]
            assert len(diffs) == 20
            assert max(diffs) <= 1e-12, f"max round accuracy diff {max(diffs)}"


def _mode(kind):
    from fedsplit.config import ProtectionMode
    return ProtectionMode(kind=kind)


def _mean_final(cfgs):
    return float(np.mean([run_experiment(c).final_accuracy for c in cfgs])) * 100.0


def test_criterion_06_strategy_ordering():
    with criterion(6, "largest-magnitude selection beats random and smallest "
                      "by >= 10 points", 600.0):
        means = {}
        for strategy in ("max", "random", "min"):
            means[strategy] = _mean_final(
                [acceptance_config(s, strategy=strategy) for s in ACCEPT_SEEDS])
        _announce(f"    strategy means: max={means['max']:.1f} "
                  f"random={means['random']:.1f} min={means['min']:.1f}")
        assert means["max"] >= means["random"] + 10.0
        assert means["max"] >= means["min"] + 10.0


def test_criterion_07_ratio_monotonicity():
    with criterion(7, "accuracy rises with encrypted share under a strict "
                      "budget; simulated time strictly increases", 900.0):
        ratios = (0.0, 0.05, 0.1, 0.2, 1.0)
        means, sims = [], []
        for r in ratios:
            reports = [run_experiment(acceptance_config(
                s, schedule=RatioSchedule(r0=r, lam=1.0, mode="static")))
                for s in ACCEPT_SEEDS]
            means.append(float(np.mean([rep.final_accuracy for rep in reports])) * 100)
            sims.append(reports[0].total_sim_time_s)
        _announce("    ratio means: " +
                  " ".join(f"r={r}:{m:.1f}" for r, m in zip(ratios, means)))
        assert means[-1] >= means[0] + 15.0
        inversions = [(a - b) for a, b in zip(means, means[1:]) if b < a]
        assert len(inversions) <= 1
        assert all(inv <= 2.0 for inv in inversions)
        assert all(b > a for a, b in zip(sims, sims[1:])), "sim time not increasing"


def test_criterion_08_dynamic_schedule_exactness(monkeypatch):
    with criterion(8, "encrypted-part size tracks r0*lambda^t exactly", 60.0):
        import fedsplit.runtime as runtime_mod
        recorded = []
        original = runtime_mod.decode_partition

        def spy(tokens, vk, dim, k):
            mask = original(tokens, vk, dim, k)
            recorded.append(mask.size)
            return mask

        monkeypatch.setattr(runtime_mod, "decode_partition", spy)
        cfg = acceptance_config(
            0, schedule=RatioSchedule(r0=0.1, lam=0.99, mode="dynamic"))
        run_experiment(cfg)
        dim = param_count(cfg.model)
        expected = [target_count(0.1 * 0.99 ** t, dim) for t in range(20)]
        assert recorded == expected


def test_criterion_10_determinism(tmp_path):
    with criterion(10, "byte-identical report.json across reruns and worker "
                       "counts", 600.0):
        cfg_path = tmp_path / "accept.conf"
        flat = config_to_flat(acceptance_config(ACCEPT_SEEDS[0]))
        cfg_path.write_text("".join(f"{k} = {v}\n" for k, v in flat.items()
                                    if v != ""))
        blobs = []
        for name, workers in (("a", "1"), ("b", "2"), ("c", "1")):
            out = tmp_path / name
            assert main(["run", "--config", str(cfg_path), "--out", str(out),
                         "--set", f"workers={workers}"]) == 0
            blobs.append((out / "report.json").read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]
        doc = json.loads(blobs[0].decode())
        assert doc["complete"] is True
        assert len(doc["rounds"]) == 20
