"""Command-line entry point.

Subcommands: ``run`` (one experiment), ``sweep`` (one config key over many
values), ``accountant`` (budget -> noise std), ``vote-demo`` (a printed
walkthrough of one voting round), ``report`` (summarize a report.json).

Exit codes are a stable scripting contract: 0 success, 1 config error,
2 runtime error, 3 partial sweep failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from pathlib import Path

from .config import (KNOWN_KEYS, apply_overrides, config_from_flat, load_config,
                     parse_kv_text)
from .dp import PrivacyBudget, sensitivity, sigma_from_budget
from .errors import ConfigError, FedSplitError
from .metrics import emit_report, parse_report_json, read_rounds_csv
from .runtime import RunAborted, run_experiment
from .seeds import as_rng
from .voting import (PartitionStrategy, decode_partition, encrypt_indices,
                     new_vote_key, propose_partition, rank_tokens, tally_votes,
                     target_count)

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
    if getattr(args, "workers", None) is not None:
        overrides.append(f"workers={args.workers}")
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
    try:
        with open(args.config) as fh:
            base_flat = parse_kv_text(fh.read(), source=args.config)
        base_flat = apply_overrides(base_flat, _collect_overrides(args))
        if args.param not in KNOWN_KEYS:
            raise ConfigError(f"unknown sweep key {args.param!r}")
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows, failures = [], 0
    for value in values:
        sub_dir = out_dir / f"{args.param.replace('.', '_')}={value}"
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
        delta_f = sensitivity(budget.theta, budget.min_dataset_size)
        sigma_z = sigma_from_budget(budget)  # not finite whenever delta_f is not
        if not math.isfinite(sigma_z):
            raise ValueError(f"delta_f = {delta_f:.10g} gives sigma_z = {sigma_z:.10g}, "
                             f"not a finite noise std")
    except (ValueError, OverflowError) as exc:
        print(f"invalid budget: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"delta_f = {delta_f:.10g}")
    print(f"sigma_z = {sigma_z:.10g}")
    return EXIT_OK


def cmd_vote_demo(args) -> int:
    try:
        if args.clients < 1:
            raise ValueError(f"--clients must be >= 1, got {args.clients}")
        strategy = PartitionStrategy(args.strategy)
        vote_key = new_vote_key(args.seed, round_binding=0)
        k = target_count(args.ratio, args.dim)
    except ValueError as exc:
        print(f"invalid parameters: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"clients={args.clients} dim={args.dim} r={args.ratio} "
          f"strategy={strategy.value} -> k={k}")
    messages = []
    for client in range(args.clients):
        rng = as_rng((args.seed, client))
        update = rng.normal(0.0, 1.0, args.dim)
        mask = propose_partition(update, args.ratio, strategy, seed=(args.seed, client, 1))
        msg = encrypt_indices(mask, vote_key, client_id=client)
        messages.append(msg)
        print(f"client {client} proposes indices {mask.he_indices.tolist()} "
              f"-> tokens {[f'{t:016x}' for t in msg.tokens.tolist()]}")
    tokens, counts = rank_tokens(messages)
    print("server tally (token: count):")
    for rank, (token, count) in enumerate(zip(tokens.tolist(), counts.tolist())):
        marker = " *" if rank < k else ""
        print(f"  {token:016x}: {count}{marker}")
    mask = decode_partition(tally_votes(messages, k), vote_key, args.dim, k)
    print(f"winning partition: {mask.he_indices.tolist()}")
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--workers", type=int, default=None,
                       help="accepted, no effect: rounds run on one thread, "
                            "since threads slowed every benchmark workload")

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

    p_demo = sub.add_parser("vote-demo", help="trace one voting round")
    p_demo.add_argument("--clients", type=int, default=3)
    p_demo.add_argument("--dim", type=int, default=8)
    p_demo.add_argument("--ratio", type=float, default=0.25)
    p_demo.add_argument("--strategy", default="max",
                        choices=[s.value for s in PartitionStrategy])
    p_demo.add_argument("--seed", type=int, default=0)
    p_demo.set_defaults(func=cmd_vote_demo)

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
