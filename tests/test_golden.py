"""Golden outputs of every protection mode at one small pinned config.

A refactor of the round loop or of the config vocabulary must leave these
values unchanged: the mock backend's ``report.json`` is pinned byte for byte
(through its sha256) at one and two workers, and the ckks backend's
per-round accuracies are pinned exactly.
"""

import hashlib

import pytest

from fedsplit.he import HeParams
from fedsplit.metrics import emit_report
from fedsplit.models import ModelSpec
from fedsplit.config import (DataConfig, ExperimentConfig, ProtectionMode,
                             RatioSchedule, RoundConfig)
from fedsplit.runtime import run_experiment


def golden_config(kind: str, strategy: str = "max", **overrides) -> ExperimentConfig:
    base = dict(
        data=DataConfig(num_samples=300, separation=2.0, test_fraction=0.2),
        model=ModelSpec(kind="mlp", input_dim=8, num_classes=3, hidden_dims=(12,)),
        rounds=RoundConfig(clients_total_N=4, clients_sampled_n=3,
                           local_epochs_K=1, learning_rate_eta=0.1,
                           batch_size=32, rounds_T=4),
        protection=ProtectionMode(kind=kind, amplitude_scale=0.7),
        schedule=RatioSchedule(r0=0.3, lam=0.8, mode="dynamic"),
        strategy=strategy,
        seed=3,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


MOCK_REPORT_SHA256 = {
    ("none", "max"):
        "ac3e843cd99357418df7345fd5162683dacfea604800132b51721b8fc679d98d",
    ("dp_only", "max"):
        "835fc27d39678fcd6c6ad791b8c22a58c7567f597b7d78d9519ea16754e332da",
    ("varying_dp", "max"):
        "438243d64a7ad5d308f94b852112d22e50c5702f5b2ad820a0c9e5b89296f714",
    ("he_only", "max"):
        "6513bc8b0dfecec35258632f910139e7b27a1c99df4e17b0df0ae9efc650b224",
    ("serial", "max"):
        "d0cbfc76b306860ee89fadc063d5db2bab098065d66bfd034f6a395ea8f08605",
    ("parallel", "max"):
        "1fd284e131ff4da85508ef0aee253abbb8e9cf99b9b8b47890985682ae31e869",
    ("parallel", "random"):
        "6e4e7b118c537f26a51d72f4881181b4a6a24d38c4a0d8f0c15e67cd44f3390a",
}

CKKS_ACCURACIES = {
    "he_only": [0.5666666666666667, 0.6166666666666667, 0.6166666666666667,
                0.6833333333333333],
    "serial": [0.4, 0.3, 0.36666666666666664, 0.4],
    "parallel": [0.5166666666666667, 0.6166666666666667, 0.6166666666666667, 0.6],
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind,strategy", sorted(MOCK_REPORT_SHA256))
def test_mock_report_sha256(kind, strategy, workers):
    report = run_experiment(golden_config(kind, strategy, workers=workers))
    digest = hashlib.sha256(emit_report(report, "json")).hexdigest()
    assert digest == MOCK_REPORT_SHA256[kind, strategy]


@pytest.mark.parametrize("kind", sorted(CKKS_ACCURACIES))
def test_ckks_round_accuracies(kind):
    report = run_experiment(golden_config(
        kind, he_backend="ckks", he_params=HeParams(ring_degree=256)))
    assert [r.accuracy for r in report.rounds] == CKKS_ACCURACIES[kind]
