"""The experiment config: its sections, defaults and parse-time checks, and
the flat dotted-key files that spell it.

File format: UTF-8, one ``key = value`` pair per line and each key at most
once, blank lines ignored.  A ``#`` at the start of a line or after
whitespace starts a comment; elsewhere it is part of the value.  The flat shape keeps sweep
overrides diff-friendly: a sweep mutates exactly one key.  Unknown keys,
unparsable values and configs that cannot run are rejected with the
offending key named.  Every key is declared once, in ``_KEYS``, which drives
the parse, ``KNOWN_KEYS`` and the echo; the keys ``dataset.input_dim`` and
``dataset.num_classes`` set the model's shape.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass, field, replace
from functools import reduce

from .datasets import check_dirichlet_sum, held_out_rows
from .dp import PrivacyBudget
from .errors import ConfigError, check_choice, check_int, check_real
from .he import BACKENDS, HeCostModel, HeParams, simulated_round_cost
from .he.ring import find_ntt_prime
from .metrics import efficiency_ratio
from .models import ModelSpec, param_count
from .voting import PartitionStrategy

__all__ = ["DataConfig", "RoundConfig", "RatioSchedule", "ProtectionMode",
           "ExperimentConfig", "PROTECTION_KINDS", "parse_kv_text",
           "apply_overrides", "config_from_flat", "config_to_flat", "read_flat_config",
           "load_config", "KNOWN_KEYS"]


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


@dataclass(frozen=True)
class DataConfig:
    """Where the rows come from and how they split; ``ModelSpec`` holds their shape."""

    kind: str = "synthetic"
    num_samples: int = 600
    separation: float = 2.0
    path: str = ""
    partition: str = "iid"
    dirichlet_alpha: float = 0.5
    test_fraction: float = 0.2

    def __post_init__(self):
        check_choice("kind", self.kind, ("synthetic", "csv"))
        check_choice("partition", self.partition, ("iid", "dirichlet"))
        if not isinstance(self.path, (str, os.PathLike)):
            raise ValueError(f"path must be a str or os.PathLike, not {type(self.path).__name__}")
        if self.kind == "csv" and not self.path:
            raise ValueError("csv dataset requires a path")
        check_int("num_samples", self.num_samples, 1)
        check_real("separation", self.separation, "(-inf, inf)")
        check_real("test_fraction", self.test_fraction, "(0, 1)")
        if self.partition == "dirichlet":
            check_real("dirichlet_alpha", self.dirichlet_alpha, "(0, inf)")
        if self.kind == "synthetic" and held_out_rows(self.num_samples, self.test_fraction) < 1:
            raise ValueError(f"test_fraction {self.test_fraction} of num_samples "
                             f"{self.num_samples} leaves no test row")


@dataclass(frozen=True)
class RoundConfig:
    clients_total_N: int = 5
    clients_sampled_n: int = 5
    local_epochs_K: int = 1
    learning_rate_eta: float = 0.05
    batch_size: int = 32
    rounds_T: int = 3

    def __post_init__(self):
        check_int("clients_total_N", self.clients_total_N, 1)
        check_int("clients_sampled_n", self.clients_sampled_n, 1, self.clients_total_N)
        check_int("local_epochs_K", self.local_epochs_K, 1)
        check_int("batch_size", self.batch_size, 1)
        # 2**52 is the bound ExperimentConfig's cost check needs
        check_int("rounds_T", self.rounds_T, 1, 2 ** 52)
        check_real("learning_rate_eta", self.learning_rate_eta, "(0, inf)")


@dataclass(frozen=True)
class RatioSchedule:
    """Encrypted-fraction schedule: static r0, or r0 * lambda^t per round."""

    r0: float = 0.1
    lam: float = 0.99
    mode: str = "static"

    def __post_init__(self):
        check_real("r0", self.r0, "[0, 1]")
        check_real("lambda", self.lam, "(0, 1]")
        check_choice("mode", self.mode, ("static", "dynamic"))


@dataclass(frozen=True)
class ProtectionMode:
    kind: str = "parallel"
    amplitude_scale: float = 0.9  # varying_dp only

    def __post_init__(self):
        check_choice("kind", self.kind, PROTECTION_KINDS)
        check_real("amplitude_scale", self.amplitude_scale, "(0, 1]")

    @property
    def pipeline(self) -> _Pipeline:
        return _PIPELINES[self.kind]


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
        check_choice("voting.strategy", self.strategy, tuple(s.value for s in PartitionStrategy))
        object.__setattr__(self, "strategy", PartitionStrategy(self.strategy))
        check_choice("he.backend", self.he_backend, tuple(BACKENDS))
        check_choice("report.include_wall_time", self.include_wall_time, (False, True))
        check_int("workers", self.workers, 1)
        check_int("seed", self.seed, 0)
        check_real("dp.epsilon", self.dp_epsilon, "(0, inf]")
        check_real("dp.delta", self.dp_delta, "(0, 1)")
        check_real("dp.theta", self.dp_theta, "(0, inf)")
        # Cross-key checks, decidable before any data is built.
        if self.protection.pipeline.noised:
            try:
                self._budget(1)
            except ValueError as exc:
                raise ValueError(f"dp.theta={self.dp_theta}, dp.epsilon={self.dp_epsilon} and "
                                 f"dp.delta={self.dp_delta} give a noise std that is not "
                                 f"finite") from exc
        n, cost, he = self.rounds.clients_sampled_n, self.he_cost, self.he_params
        if self.protection.pipeline.encrypted != "none":
            if he.max_additions < n - 1:
                raise ValueError(f"he.max_additions={he.max_additions} is below the "
                                 f"{n - 1} additions that summing round.clients_sampled_n={n} "
                                 f"ciphertexts takes")
            if self.he_backend == "ckks":
                try:
                    find_ntt_prime(he.modulus_bits, he.ring_degree)
                except ValueError:
                    raise ValueError(f"he.modulus_bits={he.modulus_bits} holds no NTT-friendly "
                                     f"prime for he.ring_degree={he.ring_degree}") from None
            # An in-order float sum of T round costs, each at most c, stays below
            # 2*T*c for T <= 2**52; a positive total is at least a 1-coordinate round.
            top = 2 * self.rounds.rounds_T * simulated_round_cost(cost, n, param_count(self.model))
            least = simulated_round_cost(cost, n, 1)
            if BACKENDS[self.he_backend].time_basis == "simulated" and not (
                    top < math.inf and (not least or efficiency_ratio(100.0, least) < math.inf)):
                raise ValueError("he.per_op_seconds and he.per_slot_seconds let a run write "
                                 "a simulated total or efficiency ratio that is not finite")
        d = self.data
        train_rows = d.num_samples - held_out_rows(d.num_samples, d.test_fraction)
        n_total = self.rounds.clients_total_N
        if d.kind == "synthetic" and d.num_samples < self.model.num_classes:
            raise ValueError(f"dataset.num_samples={d.num_samples} is below "
                             f"dataset.num_classes={self.model.num_classes}")
        if d.kind == "synthetic" and train_rows < n_total:
            raise ValueError(f"dataset.num_samples={d.num_samples} leaves {train_rows} "
                             f"training rows after dataset.test_fraction={d.test_fraction}, "
                             f"fewer than round.clients_total_N={n_total}")
        if d.partition == "dirichlet":
            check_dirichlet_sum("dataset.dirichlet_alpha", d.dirichlet_alpha,
                                "round.clients_total_N", n_total)

    def _budget(self, min_dataset_size: int) -> PrivacyBudget:
        """The run's privacy budget; one sample per client gives the largest noise std."""
        r = self.rounds
        return PrivacyBudget(epsilon=self.dp_epsilon, delta=self.dp_delta,
                             q=r.clients_sampled_n / r.clients_total_N, rounds_T=r.rounds_T,
                             theta=self.dp_theta, min_dataset_size=min_dataset_size)


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_hidden_dims(text: str) -> tuple:
    text = text.strip()
    if not text:
        return ()
    return tuple(int(part) for part in text.split(","))


def _parse_size(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be >= 1, got {value}")
    return value


def _parse_path(text: str) -> str:
    if text and not os.path.isfile(text):
        raise ValueError(f"no such file {text!r}")
    return text


# Value codecs: (parse config text, format for the report's config echo).
# A codec without a formatter keeps its key out of the echo.
_STR = (str, str)
_INT = (int, str)
_SIZE = (_parse_size, str)
_FLOAT = (float, repr)
_BOOL = (_parse_bool, lambda flag: str(flag).lower())
_DIMS = (_parse_hidden_dims, lambda dims: ",".join(str(h) for h in dims))
_PATH = (_parse_path, str)
_STRATEGY = (str, lambda s: s.value)
# Results are invariant to the worker count, so it stays out of the echo.
_EXECUTION = (int, None)

# The config vocabulary: flat key -> (ExperimentConfig attribute path, codec).
_KEYS = {
    "dataset.kind": ("data.kind", _STR),
    "dataset.num_samples": ("data.num_samples", _INT),
    "dataset.input_dim": ("model.input_dim", _SIZE),
    "dataset.num_classes": ("model.num_classes", _SIZE),
    "dataset.separation": ("data.separation", _FLOAT),
    "dataset.path": ("data.path", _PATH),
    "dataset.partition": ("data.partition", _STR),
    "dataset.dirichlet_alpha": ("data.dirichlet_alpha", _FLOAT),
    "dataset.test_fraction": ("data.test_fraction", _FLOAT),
    "model.kind": ("model.kind", _STR),
    "model.hidden_dims": ("model.hidden_dims", _DIMS),
    "round.clients_total_N": ("rounds.clients_total_N", _INT),
    "round.clients_sampled_n": ("rounds.clients_sampled_n", _INT),
    "round.local_epochs_K": ("rounds.local_epochs_K", _INT),
    "round.learning_rate_eta": ("rounds.learning_rate_eta", _FLOAT),
    "round.batch_size": ("rounds.batch_size", _INT),
    "round.rounds_T": ("rounds.rounds_T", _INT),
    "protection.kind": ("protection.kind", _STR),
    "protection.amplitude_scale": ("protection.amplitude_scale", _FLOAT),
    "schedule.mode": ("schedule.mode", _STR),
    "schedule.r0": ("schedule.r0", _FLOAT),
    "schedule.lambda": ("schedule.lam", _FLOAT),
    "voting.strategy": ("strategy", _STRATEGY),
    "dp.epsilon": ("dp_epsilon", _FLOAT),
    "dp.delta": ("dp_delta", _FLOAT),
    "dp.theta": ("dp_theta", _FLOAT),
    "he.backend": ("he_backend", _STR),
    "he.ring_degree": ("he_params.ring_degree", _INT),
    "he.scale_bits": ("he_params.scale_bits", _INT),
    "he.modulus_bits": ("he_params.modulus_bits", _INT),
    "he.max_additions": ("he_params.max_additions", _INT),
    "he.per_slot_seconds": ("he_cost.per_slot_seconds", _FLOAT),
    "he.per_op_seconds": ("he_cost.per_op_seconds", _FLOAT),
    "report.include_wall_time": ("include_wall_time", _BOOL),
    "seed": ("seed", _INT),
    "workers": ("workers", _EXECUTION),
}

KNOWN_KEYS = tuple(sorted(_KEYS))

# Nested ExperimentConfig attribute -> its flat section, named in errors.  The
# model's shape keys are spelled dataset.*; its own keys, later, name its section.
_SECTIONS = {path.split(".")[0]: key.split(".")[0]
             for key, (path, _codec) in _KEYS.items() if "." in path}


# A comment starts at a '#' that begins the line or follows whitespace, so
# a value such as a path may contain '#'.
_COMMENT = re.compile(r"(?:^|\s)#")


def parse_kv_text(text: str, source: str = "<config>") -> dict:
    """Parse flat key = value lines into a raw string map; a key may appear once."""
    flat, first_line = {}, {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {line_no}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}: line {line_no}: empty key")
        if key in first_line:
            raise ConfigError(f"{source}: line {line_no}: key {key!r} repeats "
                              f"line {first_line[key]}")
        first_line[key] = line_no
        flat[key] = value.strip()
    return flat


def apply_overrides(flat: dict, overrides) -> dict:
    """Overlay 'key=value' strings (CLI --set) on top of file values."""
    merged = dict(flat)
    for item in overrides or ():
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, value = item.split("=", 1)
        merged[key.strip()] = value.strip()
    return merged


def config_from_flat(flat: dict) -> ExperimentConfig:
    """Build a validated experiment config; defaults fill missing keys."""
    values: dict[str, dict] = {}
    for key, raw in flat.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown config key {key!r}")
        path, (parse, _fmt) = _KEYS[key]
        try:
            value = parse(raw)
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"config key {key!r}: {exc}") from None
        owner, _, name = path.rpartition(".")
        values.setdefault(owner, {})[name] = value

    default = ExperimentConfig()
    top = values.get("", {})
    for attr, section in _SECTIONS.items():
        try:
            top[attr] = replace(getattr(default, attr), **values.get(attr, {}))
        except (ValueError, TypeError, OverflowError) as exc:
            raise ConfigError(f"config section {section!r}: {exc}") from None
    try:
        return replace(default, **top)
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(str(exc)) from None


def config_to_flat(cfg: ExperimentConfig) -> dict:
    """Canonical flat key -> string echo of ``cfg``, the inverse of the parse."""
    return {key: fmt(reduce(getattr, path.split("."), cfg))
            for key, (path, (_parse, fmt)) in _KEYS.items() if fmt}


def read_flat_config(path: str, overrides=None) -> dict:
    """The UTF-8 config file's raw string map (a leading BOM is skipped),
    with ``overrides`` on top."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return apply_overrides(parse_kv_text(text, source=path), overrides)


def load_config(path: str, overrides=None) -> ExperimentConfig:
    return config_from_flat(read_flat_config(path, overrides))
