"""Command-line entry point.

Subcommands: ``run`` (one experiment), ``sweep`` (one config key over many
values), ``accountant`` (budget -> noise std), ``report`` (summarize a
report.json).  ``demos/03_partition_voting.py`` walks through the vote.

Exit codes are a stable scripting contract: 0 success, 1 config error
(a malformed command line is one), 2 runtime error, 3 partial sweep failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from pathlib import Path
from urllib.parse import quote

from .config import (KNOWN_KEYS, apply_overrides, config_from_flat, load_config,
                     read_flat_config)
from .dp import PrivacyBudget
from .errors import ConfigError, FedSplitError
from .metrics import emit_report, parse_report_json, read_rounds_csv
from .runtime import RunAborted, run_experiment

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3


def _write_atomic(path: Path, data: bytes) -> None:
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_bytes(data)
    os.replace(tmp, path)


def _collect_overrides(args) -> list:
    overrides = list(args.set or [])
    if getattr(args, "seed", None) is not None:
        overrides.append(f"seed={args.seed}")
    return overrides


def _write_outputs(report, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_atomic(out_dir / "report.json", emit_report(report, "json"))
    _write_atomic(out_dir / "rounds.csv", emit_report(report, "csv"))


def cmd_run(args) -> int:
    cfg = load_config(args.config, _collect_overrides(args))  # ConfigError: main exits 1
    out_dir = Path(args.out)
    try:
        report = run_experiment(cfg)
    except RunAborted as exc:
        _write_outputs(exc.report, out_dir)
        print(f"run aborted: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    _write_outputs(report, out_dir)
    print(f"final_accuracy={report.final_accuracy!r} "
          f"total_sim_time_s={report.total_sim_time_s!r} "
          f"efficiency_ratio={report.efficiency_ratio!r}")
    return EXIT_OK


def cmd_sweep(args) -> int:
    values = [v for v in (s.strip() for s in args.values.split(",")) if v]
    if not values:
        print("sweep error: no values given", file=sys.stderr)
        return EXIT_CONFIG
    base_flat = read_flat_config(args.config, _collect_overrides(args))  # ConfigError: exit 1
    if args.param not in KNOWN_KEYS:
        raise ConfigError(f"unknown sweep key {args.param!r}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, failures = [], 0
    for value in values:
        # percent-encoded, so a value holding '/' stays one directory under --out
        sub_dir = out_dir / f"{args.param.replace('.', '_')}={quote(value, safe='')}"
        try:
            cfg = config_from_flat(apply_overrides(base_flat, [f"{args.param}={value}"]))
            report = run_experiment(cfg)
        except (ConfigError, FedSplitError) as exc:
            failures += 1
            print(f"sweep value {value!r} failed: {exc}", file=sys.stderr)
            rows.append([value, "", "", ""])
            if isinstance(exc, RunAborted):
                _write_outputs(exc.report, sub_dir)
            continue
        _write_outputs(report, sub_dir)
        eff = "" if report.efficiency_ratio is None else repr(report.efficiency_ratio)
        rows.append([value, repr(report.final_accuracy),
                     repr(report.total_sim_time_s), eff])

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["value", "accuracy", "sim_time_s", "efficiency_ratio"])
    writer.writerows(rows)
    _write_atomic(out_dir / "summary.csv", buf.getvalue().encode())
    if failures == len(values):
        return EXIT_RUNTIME
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_accountant(args) -> int:
    try:
        budget = PrivacyBudget(epsilon=args.epsilon, delta=args.delta, q=args.q,
                               rounds_T=args.rounds, theta=args.theta,
                               min_dataset_size=args.min_dataset)
    except (ValueError, OverflowError) as exc:
        print(f"invalid budget: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"delta_f = {budget.delta_f:.10g}")
    print(f"sigma_z = {budget.sigma_z:.10g}")
    return EXIT_OK


def cmd_report(args) -> int:
    csv_path = Path(args.input).with_name("rounds.csv")
    try:
        report = parse_report_json(Path(args.input).read_bytes())
        wall = (sum(r.wall_time_s for r in read_rounds_csv(csv_path, report))
                if csv_path.exists() else None)
    except (OSError, ValueError, csv.Error) as exc:
        print(f"cannot read report: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"backend={report.backend} time_basis={report.time_basis} "
          f"complete={report.complete}")
    print(f"rounds={len(report.rounds)} final_accuracy={report.final_accuracy!r}")
    print(f"total_sim_time_s={report.total_sim_time_s!r}")
    if report.total_wall_time_s:
        print(f"total_wall_time_s={report.total_wall_time_s!r}")
    print(f"efficiency_ratio={report.efficiency_ratio!r}")
    if wall is not None:
        print(f"rounds.csv wall time total: {wall:.3f}s")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a malformed command line, where argparse exits 2 (the
    runtime-error code); subparsers are built from the same class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedsplit",
        description="Federated-learning protection simulator: parallel DP/HE "
                    "protection of partitioned updates with voted consensus.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key (repeatable)")
        p.add_argument("--seed", type=int, default=None, help="override the seed")

    p_run = sub.add_parser("run", help="run one experiment")
    add_common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run one experiment per value of a key")
    add_common(p_sweep)
    p_sweep.add_argument("--param", required=True, help="config key to sweep")
    p_sweep.add_argument("--values", required=True,
                         help="comma-separated values for the swept key")
    p_sweep.set_defaults(func=cmd_sweep)

    p_acc = sub.add_parser("accountant", help="privacy budget -> noise std")
    p_acc.add_argument("--epsilon", type=float, required=True)
    p_acc.add_argument("--delta", type=float, required=True)
    p_acc.add_argument("--q", type=float, required=True,
                       help="client sampling ratio n/N")
    p_acc.add_argument("--rounds", type=int, required=True, help="round count T")
    p_acc.add_argument("--theta", type=float, required=True,
                       help="clipping threshold")
    p_acc.add_argument("--min-dataset", type=int, required=True,
                       help="smallest client dataset size")
    p_acc.set_defaults(func=cmd_accountant)

    p_rep = sub.add_parser("report", help="summarize a report.json")
    p_rep.add_argument("--input", required=True, help="path to report.json")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FedSplitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
