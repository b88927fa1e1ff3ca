"""Shared test helpers: the pinned acceptance experiment configuration, and
the ``ci`` hypothesis profile (``--hypothesis-profile=ci``) that gives tests
without a fixed ``max_examples`` a larger, derandomized budget."""

from hypothesis import settings

from fedsplit.models import ModelSpec
from fedsplit.config import (DataConfig, ExperimentConfig, ProtectionMode,
                             RatioSchedule, RoundConfig)

ACCEPT_SEEDS = (0, 1, 2)

settings.register_profile("ci", max_examples=3000, derandomize=True, deadline=None)


def acceptance_config(seed: int, **overrides) -> ExperimentConfig:
    """The desk-scale ordering experiment: MLP with one 64-unit hidden layer
    on synthetic 4-class data, N=n=10, T=20, K=3, eps=1, delta=1e-5, theta=1,
    mock backend. Strategy/schedule are overridable per criterion.
    """
    base = dict(
        data=DataConfig(num_samples=600, separation=2.0, test_fraction=0.2),
        model=ModelSpec(kind="mlp", input_dim=48, num_classes=4,
                        hidden_dims=(64,)),
        rounds=RoundConfig(clients_total_N=10, clients_sampled_n=10,
                           local_epochs_K=3, learning_rate_eta=0.2,
                           batch_size=32, rounds_T=20),
        protection=ProtectionMode(kind="parallel"),
        schedule=RatioSchedule(r0=0.1, lam=1.0, mode="static"),
        strategy="max",
        dp_epsilon=1.0, dp_delta=1e-5, dp_theta=1.0,
        he_backend="mock",
        seed=seed,
    )
    base.update(overrides)
    return ExperimentConfig(**base)
