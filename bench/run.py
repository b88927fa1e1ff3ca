"""fedsplit benchmark: closed-loop `fedsplit run` operations on fixed workloads.

Usage, from the root of a checkout:

    python3 bench/run.py --workload vote_mock --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke          # every workload at minimal size, <10 s
    python3 bench/run.py --record         # rewrite bench/reference.json

An operation is one ``fedsplit.cli.main(["run", ...])`` call, in this
process, on a generated config file and a fresh output directory.  The load
is a closed loop with one caller.  Each run starts with a golden operation on
the reference seed, whose outputs must equal bench/reference.json, then runs
operations on ``--seed`` until ``--seconds`` have passed.  Every repeat must
match the first; on mixed_ckks a final ``workers=1`` operation must match too.
An operation fails if it raises, exits non-zero or fails a check.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` traced and untraced operations alternate and it reports the
per-layer metrics (see tracer.py), the tracing overhead and the error rate.
A human-readable table, provenance and a result file under .bench_out/ come
with every run.  The exit code is 0 only when every operation passed.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracer import COUNT_METRICS, LAYER_METRICS, Tracer, analyze, median_values, span_rows
from workloads import REFERENCE_SEED, WORKLOADS, config_text

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
OUT_ROOT = ROOT / ".bench_out"

E2E_METRICS = (
    ("experiment_s", "s"),
    ("setup_s", "s"),
    ("round_s", "s"),
    ("peak_rss_mb", "MiB"),
)
TRACE_METRICS = (
    ("trace.experiment_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.accounted_share", "ratio"),
    ("trace.span_errors", "count"),
    ("error_rate", "ratio"),
)


class CheckFailed(Exception):
    """An operation's outputs are malformed or differ from what they must equal."""


@dataclass
class Op:
    kind: str  # golden, timed, traced, untraced or workers1
    experiment_s: float = 0.0
    setup_s: float = 0.0
    round_s: float = 0.0
    outputs: dict = field(default_factory=dict)
    layers: dict | None = None
    error: str = ""


def read_outputs(out_dir: Path, rounds_expected: int) -> dict:
    """Parse report.json and rounds.csv and check that they are well formed."""
    blob = (out_dir / "report.json").read_bytes()
    doc = json.loads(blob)
    with open(out_dir / "rounds.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    if doc.get("schema") != "fedsplit-report-v1" or doc.get("complete") is not True:
        raise CheckFailed("report.json is not a complete fedsplit-report-v1")
    if not len(doc["rounds"]) == len(rows) == rounds_expected:
        raise CheckFailed(f"expected {rounds_expected} rounds, report has "
                          f"{len(doc['rounds'])} and rounds.csv {len(rows)}")
    accuracies = [r["accuracy"] for r in doc["rounds"]]
    if accuracies != [float(row["accuracy"]) for row in rows]:
        raise CheckFailed("report.json and rounds.csv disagree on accuracy")
    if not all(0.0 <= a <= 1.0 for a in accuracies):
        raise CheckFailed(f"accuracy out of [0, 1]: {accuracies}")
    walls = [float(row["wall_time_s"]) for row in rows]
    if not all(w > 0 for w in walls):
        raise CheckFailed(f"non-positive round wall time: {walls}")
    # ckks reports carry a wall-clock efficiency_ratio, so only the rest of
    # the report is byte-stable there.
    stable = {k: v for k, v in doc.items() if k != "efficiency_ratio"}
    return {
        "report_sha256": hashlib.sha256(blob).hexdigest(),
        "stable_sha256": hashlib.sha256(
            json.dumps(stable, sort_keys=True).encode()).hexdigest(),
        "accuracies": accuracies,
        "round_walls": walls,
    }


def digest_key(backend: str) -> str:
    """Which report digest is byte-stable on ``backend``."""
    return "report_sha256" if backend == "mock" else "stable_sha256"


def fingerprint(outputs: dict, backend: str) -> tuple:
    """What two runs of one config must agree on, per backend.

    ``outputs`` is a ``read_outputs`` result or a reference.json entry.
    """
    return outputs[digest_key(backend)], tuple(outputs["accuracies"])


def counts_of(op: Op) -> dict:
    """The exact per-operation counts of a traced operation."""
    return {m: op.layers["values"][m] for m in COUNT_METRICS}


class Runner:
    def __init__(self, workload, seed: int, smoke: bool, run_dir: Path):
        from fedsplit import cli
        self.cli = cli
        self.workload = workload
        self.run_dir = run_dir
        self.rounds = workload.rounds(smoke)
        self.configs = {}
        for label, flat in (
                ("golden", workload.config(REFERENCE_SEED, smoke)),
                ("seed", workload.config(seed, smoke)),
                ("workers1", workload.config(seed, smoke, workers=1))):
            path = run_dir / f"{label}.conf"
            path.write_text(config_text(flat))
            self.configs[label] = path
        self.ops: list[Op] = []

    def run(self, kind: str, config: str, tracer=None) -> Op:
        """One operation: a fresh output directory, the CLI call, the checks."""
        op = Op(kind)
        self.ops.append(op)
        out_dir = self.run_dir / f"op{len(self.ops)}"
        argv = ["run", "--config", str(self.configs[config]), "--out", str(out_dir)]
        captured = io.StringIO()
        if tracer is not None:
            tracer.spans = []
        try:
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                with tracer.active() if tracer is not None else contextlib.nullcontext():
                    started = time.perf_counter()
                    try:
                        code = self.cli.main(argv)
                    finally:
                        op.experiment_s = time.perf_counter() - started
            if code != 0:
                raise CheckFailed(f"fedsplit run exited {code}: {captured.getvalue().strip()}")
            op.outputs = read_outputs(out_dir, self.rounds)
            walls = op.outputs["round_walls"]
            op.setup_s = op.experiment_s - sum(walls)
            op.round_s = sum(walls) / len(walls)
        except Exception as exc:  # the benchmark's boundary: record and go on
            op.error = f"{type(exc).__name__}: {exc}"
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if tracer is not None:  # failed operations too, so their span errors count
            op.layers = analyze(tracer.spans, op.experiment_s)
        return op

    def expect(self, op: Op, want: tuple | None, what: str) -> None:
        if op.error or want is None:
            return
        got = fingerprint(op.outputs, self.workload.backend)
        if got != want:
            op.error = f"CheckFailed: outputs differ from {what}: {got} != {want}"

    def expect_counts(self, op: Op, want: dict | None, what: str) -> None:
        if op.error or op.layers is None or want is None:
            return
        got = counts_of(op)
        if got != want:
            op.error = f"CheckFailed: exact counts differ from {what}: {got} != {want}"


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool,
                 reference: dict | None) -> tuple[dict, dict, Path]:
    """Golden op, closed loop for ``seconds``, workers=1 check; returns a result."""
    workload = WORKLOADS[name]
    run_dir = OUT_ROOT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    runner = Runner(workload, seed, smoke, run_dir)
    tracer = Tracer() if trace else None

    golden = runner.run("golden", "golden", tracer)
    if reference is not None:
        runner.expect(golden, fingerprint(reference, workload.backend),
                      "bench/reference.json")
        if trace:
            runner.expect_counts(golden, reference["counts"], "bench/reference.json")

    first, first_counts = None, None
    started = time.perf_counter()
    while True:
        timed = [op for op in runner.ops if op.kind != "golden"]
        if trace:
            kind = "traced" if len(timed) % 2 == 0 else "untraced"
        else:
            kind = "timed"
        op = runner.run(kind, "seed", tracer if kind == "traced" else None)
        runner.expect(op, first, "the first repeat")
        if first is None and not op.error:
            first = fingerprint(op.outputs, workload.backend)
        runner.expect_counts(op, first_counts, "the first traced repeat")
        if first_counts is None and op.layers is not None and not op.error:
            first_counts = counts_of(op)
        done = time.perf_counter() - started >= seconds
        if done and (not trace or len(timed) >= 1):
            break
    if workload.workers > 1:
        check = runner.run("workers1", "workers1")
        runner.expect(check, first, f"the workers={workload.workers} repeat")

    ops = runner.ops
    failed = [op for op in ops if op.error]
    for op in failed:
        print(f"operation failed ({op.kind}): {op.error}", file=sys.stderr)
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": {}}
    untraced = [op for op in ops if op.kind in ("timed", "untraced") and not op.error]
    all_traced = [op for op in ops if op.layers is not None]
    traced = [op for op in all_traced if op.kind == "traced" and not op.error]
    detail = {
        "ops": [{"kind": op.kind, "experiment_s": op.experiment_s, "setup_s": op.setup_s,
                 "round_s": op.round_s, "error": op.error,
                 "accuracies": op.outputs.get("accuracies")} for op in ops],
        "golden_outputs": golden.outputs,
    }
    if untraced:
        e2e = {
            "experiment_s": statistics.median(op.experiment_s for op in untraced),
            "setup_s": statistics.median(op.setup_s for op in untraced),
            "round_s": statistics.median(op.round_s for op in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail["end_to_end"] = e2e
        detail["end_to_end_spread"] = {
            m: spread([getattr(op, m) for op in untraced])
            for m in ("experiment_s", "setup_s", "round_s")}
        if not trace:
            result["metrics"] = {m: {"value": e2e[m], "unit": unit} for m, unit in E2E_METRICS}
    if trace:
        errors = detail["errors_by_layer"] = {}
        for op in all_traced:
            for layer, count in op.layers["errors_by_layer"].items():
                errors[layer] = errors.get(layer, 0) + count
    if trace and traced and untraced:
        values = median_values([op.layers["values"] for op in traced])
        traced_s = statistics.median(op.experiment_s for op in traced)
        values.update({
            "trace.experiment_s": traced_s,
            "trace.overhead_ratio": traced_s / detail["end_to_end"]["experiment_s"],
            "trace.accounted_share": statistics.median(
                op.layers["accounted_share"] for op in traced),
            "trace.span_errors": sum(op.layers["span_errors"] for op in all_traced),
            "error_rate": len(failed) / len(ops),
        })
        units = {m[0]: m[1] for m in LAYER_METRICS}
        units.update({m[0]: m[1] for m in TRACE_METRICS})
        result["metrics"] = {m: {"value": v, "unit": units[m]} for m, v in values.items()}
        detail["spans_by_name"] = traced[-1].layers["spans_by_name"]
        detail["layer_map"] = [{"metric": m[0], "moves": m[3], "mainly_on": m[4]}
                               for m in LAYER_METRICS]
        (run_dir / "spans.jsonl").write_text(
            "".join(json.dumps(row) + "\n" for row in span_rows(tracer.spans)))
        accounted = values["trace.accounted_share"]
        if not 0.9 <= accounted <= workload.workers + 0.05:
            result["correct"] = False
            print(f"span self times account for {accounted:.3f} of the traced "
                  f"experiment_s; expected within [0.9, {workload.workers}]",
                  file=sys.stderr)
    if not result["metrics"]:
        result["correct"] = False
    detail["counts"] = counts_of(golden) if golden.layers else None
    return result, detail, run_dir


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def provenance(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    import numpy
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    workload = WORKLOADS[name]
    nproc = len(os.sched_getaffinity(0))
    return {
        "workload": name, "why": workload.why, "seed": seed, "seconds": seconds,
        "trace": int(trace), "smoke": smoke, "reference_seed": REFERENCE_SEED,
        "nproc": nproc, "python": platform.python_version(),
        "numpy": numpy.__version__, "git_sha": git_sha(),
        "source_sha256": src.hexdigest(),
        "load": f"closed loop, concurrency 1, {workload.workers} worker thread(s) "
                f"(nproc {nproc})",
        "config": workload.config(seed, smoke),
    }


def print_table(result: dict) -> None:
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        text = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        print(f"  {metric:32s} {text:>16s} {entry['unit']}")


def spread(values: list[float]) -> dict:
    """Sample count, median, quartiles and range of one run's samples."""
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def load_reference(smoke: bool) -> dict:
    return json.loads(REFERENCE_PATH.read_text())["smoke" if smoke else "full"]


def one_run(args) -> int:
    reference = load_reference(args.smoke)[args.workload]
    prov = provenance(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    result, detail, run_dir = run_workload(args.workload, args.seed, args.seconds,
                                           args.trace, args.smoke, reference)
    (run_dir / "result.json").write_text(json.dumps(
        {"provenance": prov, "result": result, "detail": detail}, indent=1) + "\n")
    print(f"# {json.dumps(prov, sort_keys=True)}")
    print(f"{args.workload} seed={args.seed} trace={int(args.trace)}: "
          f"{result['attempted']} operations, {result['failed']} failed; "
          f"details in {run_dir.relative_to(ROOT)}/")
    print_table(result)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def smoke(args) -> int:
    """Every workload at minimal size, untraced and traced, against the references."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            args.workload, args.trace, args.seed, args.seconds = name, trace, 1, 0
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = one_run(args)
            lines = buf.getvalue().splitlines()
            print("\n".join(lines[1:-1]))
            result = json.loads(lines[-1])
            units = {m: e["unit"] for m, e in result["metrics"].items()}
            want = layer_units if trace else e2e_units
            well_formed = (set(result) == {"correct", "attempted", "failed", "metrics"}
                           and units == want and result["attempted"] >= 1
                           and all(isinstance(e["value"], (int, float))
                                   for e in result["metrics"].values()))
            if code != 0:
                print(f"SMOKE FAIL {name} trace={int(trace)}: exit code {code}", file=sys.stderr)
            if not well_formed:
                print(f"SMOKE FAIL {name} trace={int(trace)}: malformed result, metrics "
                      f"{units}, declared {want}", file=sys.stderr)
            ok = ok and code == 0 and well_formed
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def record() -> int:
    """Rewrite bench/reference.json from golden operations on this tree."""
    reference = {}
    for mode, smoke_size in (("full", False), ("smoke", True)):
        reference[mode] = {}
        for name in WORKLOADS:
            result, detail, _ = run_workload(name, REFERENCE_SEED, 0, True, smoke_size, None)
            if not result["correct"]:
                print(f"cannot record {mode}/{name}: a check failed", file=sys.stderr)
                return 1
            golden = detail["golden_outputs"]
            key = digest_key(WORKLOADS[name].backend)
            reference[mode][name] = {
                "seed": REFERENCE_SEED,
                key: golden[key],
                "accuracies": golden["accuracies"],
                "counts": detail["counts"],
            }
            print(f"recorded {mode}/{name}")
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload at minimal size and check the output")
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/reference.json from this tree")
    args = parser.parse_args(argv)
    if not (args.smoke or args.record or args.workload):
        parser.error("give --workload, --smoke or --record")
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    src = ROOT / "src"
    if not (src / "fedsplit" / "cli.py").is_file():
        print(f"bench: no fedsplit sources under {src}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    args.trace = bool(args.trace)
    if args.record:
        return record()
    if args.smoke:
        return smoke(args)
    return one_run(args)


if __name__ == "__main__":
    sys.exit(main())
