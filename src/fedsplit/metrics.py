"""Evaluation metrics and report I/O.

The report separates deterministic content (accuracy, simulated time) from
wall-clock timing: ``report.json`` is byte-stable for a fixed config+seed
(wall times enter it only on request), while ``rounds.csv`` always carries
the measured wall time per round.  A report's summaries are derived from its
backend and rounds, and the parser rejects a document whose summaries
disagree with them, or whose config echo disagrees with its stored seed,
backend, wall-time switch or complete flag; ``read_rounds_csv`` rejects a
row that is not its report's round.  One table per file declares its keys
for both ends.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields as dataclass_fields, replace
from typing import ClassVar

from .datasets import Dataset
from .errors import check_choice, check_int, check_real
from .he import BACKENDS
from .models import ModelSpec, evaluate_accuracy

__all__ = [
    "RoundMetrics",
    "ExperimentReport",
    "accuracy",
    "efficiency_ratio",
    "emit_report",
    "parse_report_json",
    "read_rounds_csv",
    "CSV_HEADER",
]


@dataclass
class RoundMetrics:
    round: int
    r_t: float
    accuracy: float
    sim_time_s: float
    wall_time_s: float

    def __post_init__(self):
        check_int("round", self.round, 0)
        self.round = int(self.round)
        for name, interval in (("r_t", "[0, 1]"), ("accuracy", "[0, 1]"),
                               ("sim_time_s", "[0, inf)"), ("wall_time_s", "[0, inf)")):
            check_real(name, getattr(self, name), interval)
            setattr(self, name, float(getattr(self, name)))


@dataclass
class ExperimentReport:
    """What a run produced; time_basis ("simulated" or "wall") and the summaries derive from it."""

    schema: ClassVar[str] = "fedsplit-report-v1"
    config: dict
    seed: int
    backend: str
    rounds: list = field(default_factory=list)
    complete: bool = False
    notes: list = field(default_factory=list)
    include_wall_time: bool = False  # wall times enter report.json

    def __post_init__(self):
        check_choice("backend", self.backend, tuple(BACKENDS))
        check_int("seed", self.seed, 0)

    @property
    def time_basis(self) -> str:
        return BACKENDS[self.backend].time_basis

    @property
    def final_accuracy(self) -> float:
        return self.rounds[-1].accuracy if self.rounds else 0.0

    @property
    def total_sim_time_s(self) -> float:
        return float(sum(r.sim_time_s for r in self.rounds))

    @property
    def total_wall_time_s(self) -> float:
        return float(sum(r.wall_time_s for r in self.rounds))

    @property
    def efficiency_ratio(self) -> float | None:
        # A wall-clock ratio enters the report only on request, like wall times.
        time_s = (self.total_sim_time_s if self.time_basis == "simulated"
                  else self.total_wall_time_s if self.include_wall_time else 0.0)
        return efficiency_ratio(self.final_accuracy * 100.0, time_s) if time_s > 0 else None


def accuracy(spec: ModelSpec, params, test_set: Dataset) -> float:
    """Argmax accuracy of the model on a held-out set; empty set rejected."""
    return evaluate_accuracy(spec, params, test_set.features, test_set.labels)


def efficiency_ratio(accuracy_pct: float, time_s: float) -> float:
    """Trade-off score (accuracy / time) x 100, accuracy in percent."""
    check_real("time", time_s, "(0, inf]")
    return accuracy_pct / float(time_s) * 100.0  # a Python float overflows to inf unwarned


# -- serialization --------------------------------------------------------------

_REAL = (int, float)
# report.json in key order: key (an ExperimentReport attribute of the same
# name) -> accepted types.  Keys ending in wall_time_s are written only when
# the report includes wall times; keys that are not stored fields must equal
# what the report derives.
_REPORT_KEYS = dict(schema=(str,), complete=(bool,), seed=(int,), backend=(str,),
                    time_basis=(str,), config=(dict,), rounds=(list,),
                    final_accuracy=_REAL, total_sim_time_s=_REAL,
                    efficiency_ratio=_REAL + (type(None),), notes=(list,),
                    total_wall_time_s=_REAL)
_ROUND_KEYS = dict(round=(int,), r_t=_REAL, accuracy=_REAL, sim_time_s=_REAL,
                   wall_time_s=_REAL)
_STORED = {f.name for f in dataclass_fields(ExperimentReport)}
CSV_HEADER = list(_ROUND_KEYS)


def _pick(obj, keys: dict, include_wall_time: bool) -> dict:
    return {k: getattr(obj, k) for k in keys
            if include_wall_time or not k.endswith("wall_time_s")}


def emit_report(report: ExperimentReport, fmt: str) -> bytes:
    """Serialize to JSON (full report) or CSV (per-round table).

    JSON field ordering is fixed, so equal reports serialize to equal
    bytes.  Wall-clock fields enter the JSON only when the report includes
    them; the CSV always carries them.
    """
    check_choice("report format", fmt, ("json", "csv"))
    if fmt == "json":
        doc = _pick(report, _REPORT_KEYS, report.include_wall_time)
        doc["config"] = dict(sorted(report.config.items()))
        doc["rounds"] = [_pick(rm, _ROUND_KEYS, report.include_wall_time) for rm in report.rounds]
        return (json.dumps(doc, indent=2) + "\n").encode()
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    writer.writerows([repr(getattr(rm, k)) for k in CSV_HEADER] for rm in report.rounds)
    return buf.getvalue().encode()


def read_rounds_csv(path, report: ExperimentReport):
    """Yield the rows of ``rounds.csv``: the report's rounds, wall times only if included."""
    rows = list(csv.reader(path.read_text().splitlines()))
    if rows[:1] != [CSV_HEADER] or len(rows) != len(report.rounds) + 1:
        raise ValueError(f"{path.name} is not the header {','.join(CSV_HEADER)} "
                         f"and a row for each of the report's {len(report.rounds)} rounds")
    for line, (row, want) in enumerate(zip(rows[1:], report.rounds), start=2):
        try:  # the reals are checked as numbers, so their text is parsed here
            round_, *reals = row
            got = RoundMetrics(int(round_), *map(float, reals))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"{path.name} line {line}: {exc}") from None
        if got != (want if report.include_wall_time
                   else replace(want, wall_time_s=got.wall_time_s)):
            raise ValueError(f"{path.name} line {line} is not round {want.round} of the report")
        yield got


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


def parse_report_json(blob: bytes) -> ExperimentReport:
    """Inverse of ``emit_report(..., "json")``; ValueError names any malformed field."""
    try:
        doc = json.loads(blob.decode())
    except RecursionError:
        raise ValueError("report JSON is nested too deeply") from None
    schema = doc.get("schema") if isinstance(doc, dict) else None
    if schema != ExperimentReport.schema:
        raise ValueError(f"report field 'schema' is {schema!r}, not {ExperimentReport.schema!r}")
    fields = _fields(doc, _REPORT_KEYS, "")
    for i, note in enumerate(fields["notes"]):
        if not isinstance(note, str):
            raise ValueError(f"report field 'notes[{i}]' has wrong type {type(note).__name__}")
    for key, value in fields["config"].items():
        if not isinstance(value, str):
            raise ValueError(f"report field 'config' echoes {key}={value!r}, not a string")
    given = {k: fields.pop(k) for k in _REPORT_KEYS if k not in _STORED}
    check_choice("report field 'backend'", fields["backend"], tuple(BACKENDS))
    rounds = []
    for i, item in enumerate(fields.pop("rounds")):
        values = _fields(item, _ROUND_KEYS, f"rounds[{i}]")
        try:
            rounds.append(RoundMetrics(**values))
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"report field 'rounds[{i}]': {exc}") from None
        if rounds[-1].round != i:
            raise ValueError(f"report field 'rounds[{i}].round' is {rounds[-1].round}, not {i}")
    wall = "total_wall_time_s" in doc
    report = ExperimentReport(rounds=rounds, include_wall_time=wall, **fields)
    for key in (k for k in given if k in doc):
        derived = getattr(report, key)
        if derived == math.inf:
            raise ValueError(f"report field {key!r} is not finite: its rounds give inf")
        if given[key] != derived:
            raise ValueError(f"report field {key!r} is {given[key]!r}, not {derived!r}, "
                             f"which its backend and rounds give")
    for key, stored in (("seed", str(report.seed)), ("he.backend", report.backend),
                        ("report.include_wall_time", str(wall).lower())):
        if report.config.get(key) != stored:
            raise ValueError(f"report field 'config' echoes {key}="
                             f"{report.config.get(key)!r}, not {stored!r} as the report stores")
    # A finished run writes all round.rounds_T rounds; an aborted one writes fewer.
    echoed = report.config.get("round.rounds_T")
    try:
        total = int(echoed)
    except (TypeError, ValueError):
        total = -1
    if len(rounds) > total or report.complete is not (len(rounds) == total):
        raise ValueError(f"report field 'complete' is {str(report.complete).lower()} with "
                         f"{len(rounds)} rounds, but the config echoes round.rounds_T={echoed!r}")
    return report
