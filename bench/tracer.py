"""Span tracer that measures fedsplit's layers from outside the program.

While active, every public module-level function of the traced modules is
replaced, in every ``fedsplit.*`` namespace that binds it, by a wrapper that
records a span: name, thread, start, end, parent span and whether it raised.
``runtime`` imports with ``from .voting import ...``, so patching only the
defining module would miss those calls.  Backend and ring methods are
wrapped on their classes.  Each thread keeps its own span stack; a span that
starts on a worker thread with an empty stack takes as parent the innermost
open span of the thread that activated the tracer, which is the round's
``runtime.map_clients`` span.  Spans stay in memory until the caller reads
them.

A span's self time is its duration minus the union of its children's
intervals.  Each span's self time is attributed to the nearest enclosing
*anchor* span (itself included); the anchors are the layer boundaries named
in ``LAYER_METRICS``.  So ``models.loss_and_grad`` counts toward
``models.local_train.s``, and the NTT inside ``he.encrypt`` counts toward
``he.ring.to_eval.s``, not toward ``he.encrypt.s``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import threading
from contextlib import contextmanager
from time import perf_counter

import numpy as np

TRACED_MODULES = ("runtime", "voting", "he", "he.ring", "he.wire", "he.params",
                  "dp", "vectors", "models", "metrics", "datasets", "config")
# Private round-loop functions that are the runtime layer's own boundaries.
PRIVATE_SPANS = {("runtime", "_run_round"): "runtime.round",
                 ("runtime", "_map_clients"): "runtime.map_clients"}
BACKEND_CLASSES = (("he.ckks", "CkksBackend"), ("he.mock", "MockBackend"))
BACKEND_METHODS = ("keygen", "encrypt", "hom_add", "decrypt")
# Elementwise modular arithmetic runs about 37 times per NTT call; a span
# around each would cost more than the arithmetic and tell nothing new.
RING_UNTRACED = frozenset({"mulmod", "addmod", "submod", "negmod",
                           "from_signed", "to_signed"})

# (metric, unit, anchor span names, end-to-end metric it moves, workloads it
#  mainly shows on).  ".s" metrics are self seconds per operation; counts are
# per operation and must repeat exactly.  BENCHMARK.json declares the same
# names and units, which --smoke checks.
LAYER_METRICS = (
    ("voting.encrypt_indices.s", "s", ("voting.encrypt_indices",),
     "round_s, experiment_s", "vote_mock (64% self); mixed_ckks (21%); not he_ckks"),
    ("voting.encrypt_indices.tokens", "count", (), "round_s, experiment_s",
     "vote_mock; mixed_ckks"),
    ("voting.distinct_tokens", "count", (), "round_s, experiment_s",
     "vote_mock; mixed_ckks"),
    ("voting.distinct_share", "ratio", (), "round_s, experiment_s",
     "vote_mock (0.30); mixed_ckks (0.65-0.87)"),
    ("voting.tally_votes.s", "s", ("voting.tally_votes",), "round_s",
     "vote_mock (7%)"),
    ("voting.decode_partition.s", "s", ("voting.decode_partition",), "round_s",
     "vote_mock (6%)"),
    ("voting.propose_partition.s", "s", ("voting.propose_partition",), "round_s",
     "vote_mock (5%)"),
    ("he.ring.to_eval.s", "s", ("he.ring.to_eval",), "round_s",
     "he_ckks (72% with from_eval); mixed_ckks (14%); not vote_mock"),
    ("he.ring.to_eval.calls", "count", (), "round_s", "he_ckks; mixed_ckks"),
    ("he.ring.from_eval.s", "s", ("he.ring.from_eval",), "round_s",
     "he_ckks; mixed_ckks; not vote_mock"),
    ("he.ring.from_eval.calls", "count", (), "round_s", "he_ckks; mixed_ckks"),
    ("he.encrypt.s", "s", ("he.encrypt",), "round_s", "he_ckks; mixed_ckks"),
    ("he.encrypt.chunks", "count", (), "round_s", "he_ckks; mixed_ckks"),
    ("he.hom_add.s", "s", ("he.hom_add",), "round_s", "he_ckks; mixed_ckks"),
    ("he.hom_add.calls", "count", (), "round_s", "he_ckks; mixed_ckks"),
    ("he.decrypt.s", "s", ("he.decrypt",), "round_s", "he_ckks; mixed_ckks"),
    ("he.slot_fill", "ratio", (), "round_s",
     "he_ckks (0.99); mixed_ckks (0.69-0.23)"),
    ("he.make_backend.s", "s", ("he.make_backend",), "setup_s",
     "mixed_ckks; he_ckks"),
    ("he.keygen.s", "s", ("he.keygen",), "setup_s", "mixed_ckks; he_ckks"),
    ("datasets.build.s", "s", ("datasets.*",), "setup_s", "mixed_ckks; he_ckks"),
    ("config.load_config.s", "s", ("config.*",), "setup_s", "mixed_ckks; he_ckks"),
    ("metrics.emit_report.s", "s", ("metrics.emit_report",), "setup_s",
     "mixed_ckks; he_ckks"),
    ("he.wire.s", "s", ("he.wire.*",), "round_s, peak_rss_mb", "all HE workloads"),
    ("he.wire.calls", "count", (), "round_s, peak_rss_mb", "all HE workloads"),
    ("he.wire.bytes", "B", (), "round_s, peak_rss_mb", "all HE workloads"),
    ("dp.protect_dp.s", "s", ("dp.protect_dp",), "round_s",
     "vote_mock (10%); mixed_ckks (8%)"),
    ("dp.protect_dp.coords", "count", (), "round_s", "vote_mock; mixed_ckks"),
    ("models.local_train.s", "s", ("models.local_train",), "round_s",
     "mixed_ckks (40%); he_ckks (7%)"),
    ("models.local_train.samples", "count", (), "round_s", "all"),
    ("metrics.accuracy.s", "s", ("metrics.accuracy",), "round_s", "all (2-4%)"),
    ("vectors.split.s", "s", ("vectors.split",), "round_s", "vote_mock; mixed_ckks"),
    ("vectors.merge.s", "s", ("vectors.merge",), "round_s", "vote_mock; mixed_ckks"),
    ("runtime.round.self_s", "s", ("runtime.round",), "round_s", "all"),
    ("runtime.setup.self_s", "s", ("runtime.run_experiment",), "setup_s", "all"),
    ("runtime.thread_busy_share", "ratio", (), "round_s", "mixed_ckks"),
)

COUNT_METRICS = tuple(m[0] for m in LAYER_METRICS if m[1] in ("count", "B"))


def _anchor_table() -> tuple[dict, dict]:
    exact, prefix = {}, {}
    for metric, _unit, anchors, _moves, _on in LAYER_METRICS:
        for anchor in anchors:
            if anchor.endswith(".*"):
                prefix[anchor[:-1]] = metric
            else:
                exact[anchor] = metric
    return exact, prefix


_EXACT_ANCHORS, _PREFIX_ANCHORS = _anchor_table()


def anchor_metric(name: str) -> str | None:
    if name in _EXACT_ANCHORS:
        return _EXACT_ANCHORS[name]
    for prefix, metric in _PREFIX_ANCHORS.items():
        if name.startswith(prefix):
            return metric
    return None


class Span:
    __slots__ = ("name", "thread", "parent", "start", "end", "error", "info")

    def __init__(self, name, thread, parent):
        self.name = name
        self.thread = thread
        self.parent = parent
        self.start = self.end = 0.0
        self.error = False
        self.info = None


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Per-span counters, read from a call's arguments and result after its span
# has ended.  tally_votes keeps its message list so the distinct-token count
# is computed after the operation, outside every timed interval.
_HOOKS = {
    "voting.encrypt_indices": lambda a, k, r: len(r.tokens),
    "voting.tally_votes": lambda a, k, r: list(_arg(a, k, 0, "msgs")),
    "he.encrypt": lambda a, k, r: (len(r), sum(ct.slots_used for ct in r),
                                   len(r) * a[0].params.slot_count),
    "he.wire.serialize": lambda a, k, r: len(r),
    "he.wire.serialize_secret": lambda a, k, r: len(r),
    "he.wire.deserialize": lambda a, k, r: len(_arg(a, k, 0, "blob")),
    "dp.protect_dp": lambda a, k, r: int(np.size(_arg(a, k, 0, "u_dp"))),
    "models.local_train": lambda a, k, r: (int(np.shape(_arg(a, k, 2, "X"))[0])
                                           * int(_arg(a, k, 4, "epochs"))),
    "runtime.map_clients": lambda a, k, r: min(int(_arg(a, k, 2, "workers")),
                                               len(_arg(a, k, 1, "items"))),
}


class Tracer:
    """Patches fedsplit while active and collects spans in ``self.spans``."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._main_stack: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = Span(name, threading.get_ident(), parent)
            self.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if hook is not None:
                span.info = hook(args, kwargs, result)
            return result

        return traced

    def _targets(self) -> list[tuple[object, str, object, str]]:
        """(owner, attribute, original, span name) for everything to patch."""
        # id -> span name; ids are safe keys because every function stays
        # bound in its defining module while we patch.
        names = {}
        for short in TRACED_MODULES:
            module = importlib.import_module(f"fedsplit.{short}")
            for attr, obj in vars(module).items():
                if (callable(obj) and not isinstance(obj, type) and not attr.startswith("_")
                        and getattr(obj, "__module__", None) == module.__name__):
                    names[id(obj)] = f"{short}.{attr}"
        for (short, attr), span_name in PRIVATE_SPANS.items():
            names[id(getattr(importlib.import_module(f"fedsplit.{short}"), attr))] = span_name

        targets = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "fedsplit" or mod_name.startswith("fedsplit.")):
                continue
            for attr, obj in list(vars(module).items()):
                if id(obj) in names:
                    targets.append((module, attr, obj, names[id(obj)]))

        for short, cls_name in BACKEND_CLASSES:
            cls = getattr(importlib.import_module(f"fedsplit.{short}"), cls_name)
            for method in BACKEND_METHODS:
                targets.append((cls, method, cls.__dict__[method], f"he.{method}"))
        ring_cls = importlib.import_module("fedsplit.he.ring").NegacyclicRing
        for attr, obj in vars(ring_cls).items():
            if callable(obj) and not attr.startswith("_") and attr not in RING_UNTRACED:
                targets.append((ring_cls, attr, obj, f"he.ring.{attr}"))
        return targets

    @contextmanager
    def active(self):
        """Trace every call into fedsplit made inside the ``with`` block."""
        targets = self._targets()
        self._main_stack = self._stack()
        for owner, attr, original, name in targets:
            setattr(owner, attr, self._wrap(original, name))
        try:
            yield self
        finally:
            for owner, attr, original, _name in targets:
                setattr(owner, attr, original)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def analyze(spans: list[Span], experiment_s: float) -> dict:
    """Per-operation layer metrics, a per-span table and the accounting check."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(id(span.parent), []).append(span)

    values = {metric[0]: 0.0 for metric in LAYER_METRICS}
    table: dict[str, dict] = {}
    errors: dict[str, int] = {}
    anchor_of: dict[int, str | None] = {}
    total_self = 0.0
    tokens_sent = distinct = slots_used = slot_capacity = 0
    busy = capacity = 0.0
    for span in spans:  # parents are recorded before their children
        kids = children.get(id(span), ())
        covered = _union_length([(max(c.start, span.start), min(c.end, span.end))
                                 for c in kids if c.end > span.start and c.start < span.end])
        self_s = max(0.0, span.end - span.start - covered)
        total_self += self_s
        own = anchor_metric(span.name)
        anchor = own if own else (anchor_of.get(id(span.parent)) if span.parent else None)
        anchor_of[id(span)] = anchor
        if anchor:
            values[anchor] += self_s
        row = table.setdefault(span.name, {"calls": 0, "self_s": 0.0, "errors": 0})
        row["calls"] += 1
        row["self_s"] += self_s
        if span.error:
            row["errors"] += 1
            layer = span.name.split(".")[0]
            errors[layer] = errors.get(layer, 0) + 1

        name, info = span.name, span.info
        if info is None:
            continue
        if name == "voting.encrypt_indices":
            tokens_sent += info
        elif name == "voting.tally_votes":
            distinct += len(frozenset().union(*(m.tokens for m in info)))
        elif name == "he.encrypt":
            values["he.encrypt.chunks"] += info[0]
            slots_used += info[1]
            slot_capacity += info[2]
        elif name.startswith("he.wire."):
            values["he.wire.bytes"] += info
        elif name == "dp.protect_dp":
            values["dp.protect_dp.coords"] += info
        elif name == "models.local_train":
            values["models.local_train.samples"] += info
        elif name == "runtime.map_clients":
            busy += sum(c.end - c.start for c in kids)
            capacity += (span.end - span.start) * info

    def calls(name):
        return table.get(name, {}).get("calls", 0)

    values["voting.encrypt_indices.tokens"] = tokens_sent
    values["voting.distinct_tokens"] = distinct
    values["voting.distinct_share"] = distinct / tokens_sent if tokens_sent else 0.0
    values["he.ring.to_eval.calls"] = calls("he.ring.to_eval")
    values["he.ring.from_eval.calls"] = calls("he.ring.from_eval")
    values["he.hom_add.calls"] = calls("he.hom_add")
    values["he.wire.calls"] = sum(row["calls"] for n, row in table.items()
                                  if n.startswith("he.wire."))
    values["he.slot_fill"] = slots_used / slot_capacity if slot_capacity else 0.0
    values["runtime.thread_busy_share"] = busy / capacity if capacity else 0.0
    for metric in COUNT_METRICS:
        values[metric] = int(values[metric])
    return {
        "values": values,
        "accounted_share": total_self / experiment_s,
        "span_errors": sum(errors.values()),
        "errors_by_layer": errors,
        "spans_by_name": table,
    }


def span_rows(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready rows, times in seconds from the first span."""
    if not spans:
        return []
    origin = spans[0].start
    index = {id(span): i for i, span in enumerate(spans)}
    threads: dict[int, int] = {}
    return [{"id": i, "name": s.name,
             "thread": threads.setdefault(s.thread, len(threads)),
             "parent": index.get(id(s.parent)) if s.parent is not None else None,
             "start": s.start - origin, "end": s.end - origin, "error": s.error}
            for i, s in enumerate(spans)]


def median_values(per_op: list[dict]) -> dict:
    """Median over operations of each timed layer metric; counts as they repeat."""
    return {metric[0]: per_op[0][metric[0]] if metric[0] in COUNT_METRICS
            else statistics.median(op[metric[0]] for op in per_op)
            for metric in LAYER_METRICS}
