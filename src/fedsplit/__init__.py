"""Federated-learning protection simulator.

Model updates are partitioned by a voted consensus mask; the small
high-magnitude part is protected by additively homomorphic encryption and
the remainder by clipping plus Gaussian noise, trading efficiency against
utility under one privacy budget.
"""

from .config import (DataConfig, ExperimentConfig, ProtectionMode,
                     RatioSchedule, RoundConfig)
from .datasets import Dataset, synthetic_dataset
from .dp import DpParams, PrivacyBudget, protect_dp
from .he import (CkksBackend, HeCostModel, HeParams, MockBackend,
                 decode_tolerance, make_backend)
from .metrics import (ExperimentReport, RoundMetrics, accuracy, efficiency_ratio,
                      emit_report, parse_report_json)
from .models import ModelSpec, init_params, local_train, param_count
from .runtime import RunAborted, ratio_at, run_experiment
from .vectors import PartitionMask, merge, split
from .voting import (PartitionStrategy, VoteKey, VoteMessage, decode_partition,
                     encrypt_indices, new_vote_key, propose_partition,
                     tally_votes, target_count, tokenize_round)

__version__ = "0.1.0"
