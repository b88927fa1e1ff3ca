"""Deterministic seed derivation for every random stream in an experiment.

All randomness flows from one experiment seed through
``numpy.random.SeedSequence`` keyed by (purpose, round, client).  Streams are
therefore independent of worker count and of which protection mode consumes
which stream.  Every consumer builds its generator with
``numpy.random.default_rng``, which takes such a sequence, an int seed, or a
``Generator`` (returned as is).
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
                  client: int = 0) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=int(experiment_seed),
        spawn_key=(int(purpose), int(round_index), int(client)),
    )

