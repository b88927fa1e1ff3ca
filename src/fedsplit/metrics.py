"""Evaluation metrics, the convergence-bound diagnostic, and report I/O.

The report separates deterministic content (accuracy, simulated time) from
wall-clock timing: ``report.json`` is byte-stable for a fixed config+seed
(wall times enter it only on request), while ``rounds.csv`` always carries
the measured wall time per round.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from dataclasses import dataclass, field

from .datasets import Dataset
from .he import BACKENDS
from .models import ModelSpec, evaluate_accuracy

__all__ = [
    "RoundMetrics",
    "ExperimentReport",
    "BoundInputs",
    "accuracy",
    "efficiency_ratio",
    "theorem_bound",
    "emit_report",
    "parse_report_json",
    "CSV_HEADER",
]

CSV_HEADER = ["round", "r_t", "accuracy", "sim_time_s", "wall_time_s"]


@dataclass
class RoundMetrics:
    round: int
    r_t: float
    accuracy: float
    sim_time_s: float
    wall_time_s: float

    def __post_init__(self):
        self.round = int(self.round)
        for name in ("r_t", "accuracy", "sim_time_s", "wall_time_s"):
            setattr(self, name, float(getattr(self, name)))
        if self.round < 0:
            raise ValueError(f"round must be >= 0, got {self.round}")
        if not 0.0 <= self.r_t <= 1.0:
            raise ValueError(f"r_t must lie in [0, 1], got {self.r_t}")
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(f"accuracy must lie in [0, 1], got {self.accuracy}")
        if not (0 <= self.sim_time_s < math.inf and 0 <= self.wall_time_s < math.inf):
            raise ValueError("times must be finite and nonnegative")


@dataclass
class ExperimentReport:
    config: dict
    seed: int
    backend: str
    time_basis: str  # "simulated" (mock backend) or "wall" (real crypto)
    rounds: list = field(default_factory=list)
    final_accuracy: float = 0.0
    total_sim_time_s: float = 0.0
    total_wall_time_s: float = 0.0
    efficiency_ratio: float | None = None
    complete: bool = False
    notes: list = field(default_factory=list)


def accuracy(spec: ModelSpec, params, test_set: Dataset) -> float:
    """Argmax accuracy of the model on a held-out set; empty set rejected."""
    if len(test_set) == 0:
        raise ValueError("test set is empty")
    return evaluate_accuracy(spec, params, test_set.features, test_set.labels)


def efficiency_ratio(accuracy_pct: float, time_s: float) -> float:
    """Trade-off score (accuracy / time) x 100, accuracy in percent."""
    if not time_s > 0:
        raise ValueError(f"time must be positive, got {time_s}")
    return accuracy_pct / time_s * 100.0


@dataclass(frozen=True)
class BoundInputs:
    """Inputs to the convergence-bound diagnostic.

    C1 scales the clipping term and C2 the privacy-noise term; both fold
    together smoothness/gradient constants the analysis leaves abstract, so
    the output is a qualitative diagnostic, not a certified bound.
    """

    C1: float
    C2: float
    r: float
    epsilon: float
    delta: float
    N: int
    T: int

    def __post_init__(self):
        if self.C1 < 0 or self.C2 < 0:
            raise ValueError("C1 and C2 must be nonnegative")
        if not 0.0 <= self.r <= 1.0:
            raise ValueError(f"r must lie in [0, 1], got {self.r}")
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.N < 1 or self.T < 1:
            raise ValueError("N and T must be >= 1")


def theorem_bound(b: BoundInputs) -> float:
    """Gradient-norm bound: 1/T + C1(1-r) + C2(1-r) ln(1/delta) / (N^2 eps^2).

    The O(1/T) term is taken with unit constant.  Strictly decreasing in r
    (for C1 + C2 > 0), in epsilon, and in N.
    """
    noise_term = b.C2 * (1.0 - b.r) * math.log(1.0 / b.delta) / (b.N ** 2 * b.epsilon ** 2)
    return 1.0 / b.T + b.C1 * (1.0 - b.r) + noise_term


# -- serialization --------------------------------------------------------------


def _round_dict(rm: RoundMetrics, include_wall_time: bool) -> dict:
    out = {"round": rm.round, "r_t": rm.r_t, "accuracy": rm.accuracy,
           "sim_time_s": rm.sim_time_s}
    if include_wall_time:
        out["wall_time_s"] = rm.wall_time_s
    return out


def emit_report(report: ExperimentReport, fmt: str,
                include_wall_time: bool = False) -> bytes:
    """Serialize to JSON (full report) or CSV (per-round table).

    JSON field ordering is fixed, so equal reports serialize to equal
    bytes.  Wall-clock fields enter the JSON only when requested; the CSV
    always carries them.
    """
    if fmt == "json":
        doc = {
            "schema": "fedsplit-report-v1",
            "complete": report.complete,
            "seed": report.seed,
            "backend": report.backend,
            "time_basis": report.time_basis,
            "config": {k: report.config[k] for k in sorted(report.config)},
            "rounds": [_round_dict(rm, include_wall_time) for rm in report.rounds],
            "final_accuracy": report.final_accuracy,
            "total_sim_time_s": report.total_sim_time_s,
            "efficiency_ratio": report.efficiency_ratio,
            "notes": list(report.notes),
        }
        if include_wall_time:
            doc["total_wall_time_s"] = report.total_wall_time_s
        return (json.dumps(doc, indent=2) + "\n").encode()
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER)
        for rm in report.rounds:
            writer.writerow([rm.round, repr(rm.r_t), repr(rm.accuracy),
                             repr(rm.sim_time_s), repr(rm.wall_time_s)])
        return buf.getvalue().encode()
    raise ValueError(f"unknown report format {fmt!r}")


_REAL = (int, float)
# JSON key (the dataclass field of the same name) -> accepted types.  Only the
# wall times may be absent (they default to 0.0).
_REPORT_FIELDS = dict(complete=(bool,), seed=(int,), backend=(str,), time_basis=(str,),
                      config=(dict,), rounds=(list,), final_accuracy=_REAL,
                      total_sim_time_s=_REAL, total_wall_time_s=_REAL,
                      efficiency_ratio=_REAL + (type(None),), notes=(list,))
_ROUND_FIELDS = dict(round=(int,), r_t=_REAL, accuracy=_REAL, sim_time_s=_REAL,
                     wall_time_s=_REAL)


def _fields(doc, table: dict, where: str) -> dict:
    if not isinstance(doc, dict):
        raise ValueError(f"report field {where!r} is a {type(doc).__name__}, not an object")
    out = {}
    for key, types in table.items():
        name = f"{where}.{key}" if where else key
        if key not in doc and not key.endswith("wall_time_s"):
            raise ValueError(f"report field {name!r} is missing")
        value = doc.get(key, 0.0)
        # bool is an int subclass: accept it only where the table names it
        if not isinstance(value, types) or isinstance(value, bool) is not (bool in types):
            raise ValueError(f"report field {name!r} has wrong type {type(value).__name__}")
        out[key] = value
    return out


def _check_ranges(fields: dict) -> None:
    """Reject report values the program never writes, naming the field."""
    backend = BACKENDS.get(fields["backend"])
    basis = getattr(backend, "time_basis", None)
    ratio = fields["efficiency_ratio"]
    top = sys.float_info.max  # also rejects NaN, inf and ints beyond any float
    rules = [
        ("final_accuracy", 0.0 <= fields["final_accuracy"] <= 1.0, "in [0, 1]"),
        ("total_sim_time_s", 0.0 <= fields["total_sim_time_s"] <= top,
         "finite and >= 0"),
        ("total_wall_time_s", 0.0 <= fields["total_wall_time_s"] <= top,
         "finite and >= 0"),
        ("efficiency_ratio", ratio is None or 0.0 <= ratio <= top,
         "null or finite and >= 0"),
        ("backend", backend is not None, f"one of {sorted(BACKENDS)}"),
        ("time_basis", fields["time_basis"] == basis, f"{basis!r}, the backend's"),
    ]
    for name, ok, expected in rules:
        if not ok:
            raise ValueError(f"report field {name!r} is {fields[name]!r}, not {expected}")


def parse_report_json(blob: bytes) -> ExperimentReport:
    """Inverse of ``emit_report(..., "json")``; ValueError names any malformed field."""
    try:
        doc = json.loads(blob.decode())
    except RecursionError:
        raise ValueError("report JSON is nested too deeply") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != "fedsplit-report-v1":
        raise ValueError(f"report field 'schema' is {schema!r}, not 'fedsplit-report-v1'")
    fields = _fields(doc, _REPORT_FIELDS, "")
    _check_ranges(fields)
    rounds = []
    for i, item in enumerate(fields.pop("rounds")):
        values = _fields(item, _ROUND_FIELDS, f"rounds[{i}]")
        try:
            rounds.append(RoundMetrics(**values))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"report field 'rounds[{i}]': {exc}") from None
        if rounds[-1].round != i:
            raise ValueError(f"report field 'rounds[{i}].round' is {rounds[-1].round}, not {i}")
    return ExperimentReport(rounds=rounds, **fields)
