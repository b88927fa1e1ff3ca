"""Flat dotted-key configuration files and override handling.

Format: one ``key = value`` pair per line, ``#`` comments, blank lines
ignored.  The flat shape keeps sweep overrides diff-friendly: a sweep
mutates exactly one key.  Unknown keys and unparsable values are rejected
with the offending key named.  Every key is declared once, in ``_KEYS``,
which drives the parse, ``KNOWN_KEYS`` and the report's config echo.
"""

from __future__ import annotations

import os
from dataclasses import replace
from functools import reduce

from .errors import ConfigError
from .he import BACKENDS
from .runtime import ExperimentConfig
from .voting import PartitionStrategy

__all__ = ["parse_kv_text", "apply_overrides", "config_from_flat",
           "config_to_flat", "load_config", "KNOWN_KEYS"]


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


def _parse_path(text: str) -> str:
    if text and not os.path.isfile(text):
        raise ValueError(f"no such file {text!r}")
    return text


def _choice(*allowed: str):
    def parse(text: str) -> str:
        if text not in allowed:
            raise ValueError(f"must be one of {list(allowed)}, got {text!r}")
        return text
    return parse


# Value codecs: (parse config text, format for the report's config echo).
# A codec without a formatter keeps its key out of the echo.
_STR = (str, str)
_INT = (int, str)
_FLOAT = (float, repr)
_BOOL = (_parse_bool, lambda flag: str(flag).lower())
_DIMS = (_parse_hidden_dims, lambda dims: ",".join(str(h) for h in dims))
_PATH = (_parse_path, str)
_BACKEND = (_choice(*BACKENDS), str)
_STRATEGY = (_choice(*(s.value for s in PartitionStrategy)), lambda s: s.value)
# Results are invariant to the worker count, so it stays out of the echo.
_EXECUTION = (int, None)

# The config vocabulary: flat key -> (ExperimentConfig attribute path, codec).
_KEYS = {
    "dataset.kind": ("data.kind", _STR),
    "dataset.num_samples": ("data.num_samples", _INT),
    "dataset.input_dim": ("data.input_dim", _INT),
    "dataset.num_classes": ("data.num_classes", _INT),
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
    "he.backend": ("he_backend", _BACKEND),
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

# Nested ExperimentConfig attribute -> its flat section, named in errors.
# Table order puts the dataset before the model whose shape it sets.
_SECTIONS = {path.split(".")[0]: key.split(".")[0]
             for key, (path, _codec) in _KEYS.items() if "." in path}


def parse_kv_text(text: str, source: str = "<config>") -> dict:
    """Parse flat key = value lines into a raw string map."""
    flat = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}: line {line_no}: expected 'key = value', "
                              f"got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"{source}: line {line_no}: empty key")
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
        kwargs = values.get(attr, {})
        if attr == "model":  # the model's shape follows the dataset's
            kwargs.update(input_dim=top["data"].input_dim,
                          num_classes=top["data"].num_classes)
        try:
            top[attr] = replace(getattr(default, attr), **kwargs)
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


def load_config(path: str, overrides=None) -> ExperimentConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    flat = apply_overrides(parse_kv_text(text, source=path), overrides)
    return config_from_flat(flat)
