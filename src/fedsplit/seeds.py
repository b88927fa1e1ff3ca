"""Deterministic seed derivation for every random stream in an experiment.

All randomness flows from one experiment seed through
``numpy.random.SeedSequence`` keyed by (purpose, round, client).  Streams are
therefore independent of worker count and of which protection mode consumes
which stream.
"""

from __future__ import annotations

import numpy as np

# Purpose tags; values are part of the reproducibility contract.
DATA = 1
SPLIT = 2
MODEL_INIT = 3
SAMPLING = 4
TRAIN = 5
DP_NOISE = 6
PROPOSE = 7
HE_KEYGEN = 8
HE_ENCRYPT = 9
VOTE_KEY = 10


def seed_sequence(experiment_seed: int, purpose: int, round_index: int = 0,
                  client_id: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=int(experiment_seed),
        spawn_key=(int(purpose), int(round_index), int(client_id)),
    )


def as_rng(seed) -> np.random.Generator:
    """Accept an int, int tuple, SeedSequence, or Generator; return a Generator."""
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.Generator(np.random.PCG64(seed))
    if isinstance(seed, (tuple, list)):
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(s) for s in seed]))
        )
    return np.random.Generator(np.random.PCG64(int(seed)))
