"""privmarket command line: run trials, verify metrics, audit, print schedules."""

from __future__ import annotations

import argparse
import json
import os
import sys

from .adaptive import stage_schedule, verify_stage_inequalities
from .errors import ConfigError, PrivMarketError
from .harness import (
    MAX_SEEDS,
    METRIC_FIELDS,
    RunConfig,
    load_metrics,
    privacy_audit,
    run_trials,
    verify_budget,
    verify_noise_loss,
    verify_precision,
    verify_share_accuracy,
)
from .market import noise_scale_K


def _parse_seed_range(text: str) -> range:
    """'a..b' is the half-open seed range [a, b) of non-negative seeds."""
    try:
        a, b = text.split("..")
        start, stop = int(a), int(b)
    except ValueError:
        raise argparse.ArgumentTypeError("seed range must look like 0..200")
    if start < 0:
        raise argparse.ArgumentTypeError("seeds must be non-negative")
    if stop <= start:
        raise argparse.ArgumentTypeError("seed range must be non-empty")
    if stop - start > MAX_SEEDS:
        raise argparse.ArgumentTypeError(f"seed range must hold at most {MAX_SEEDS} seeds")
    return range(start, stop)


def cmd_run(args: argparse.Namespace) -> int:
    try:
        with open(args.config, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    config = RunConfig.from_json(text)
    metrics = run_trials(config, out_dir=args.out, seeds=args.seeds, parallel=args.parallel)
    print(f"wrote {len(metrics)} trials to {args.out}")
    return 0


# verify --check name -> the flat-market check, judged on (rows, resolved_config.json)
CHECKS = {
    "precision": lambda rows, r: verify_precision(rows, r["alpha"], r["gamma"]),
    "budget": lambda rows, r: verify_budget(rows, r["B1"], r["lambda"]),
    "shares": lambda rows, r: verify_share_accuracy(rows, r["d"], r["T"], r["epsilon"], r["gamma"]),
    "noise_loss": lambda rows, r: verify_noise_loss(
        rows, r["lambda"], noise_scale_K(r["T"], r["epsilon"], r["d"])),
}


# resolved_config.json fields a flat run's checks read
RESOLVED_FIELDS = ("alpha", "gamma", "B1", "lambda", "d", "T", "epsilon")


def _read_run_dir(path: str) -> tuple[list[dict], dict]:
    """Metrics rows and resolved config of a flat run's directory; anything else is a ConfigError."""
    try:
        rows = load_metrics(path)
        with open(os.path.join(path, "resolved_config.json"), encoding="utf-8") as fh:
            resolved = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read run directory: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ConfigError(f"malformed run directory: {exc}") from exc
    for i, row in enumerate(rows):
        if not isinstance(row, dict) or not all(
            isinstance(row.get(name), (int, float)) and not isinstance(row[name], bool)
            for name in METRIC_FIELDS
        ):
            raise ConfigError(f"metrics row {i} is not an object with a number per metric field")
    if not isinstance(resolved, dict) or "adaptive" not in resolved:
        raise ConfigError("resolved_config.json must be an object with an adaptive field")
    if resolved["adaptive"]:
        raise ConfigError("adaptive run: no flat-market bound applies to a staged market")
    if not set(RESOLVED_FIELDS) <= resolved.keys():
        raise ConfigError(f"resolved_config.json must hold {', '.join(RESOLVED_FIELDS)}")
    return rows, resolved


def cmd_verify(args: argparse.Namespace) -> int:
    rows, resolved = _read_run_dir(args.metrics)
    names = CHECKS if args.check == "all" else [args.check]
    reports = [CHECKS[name](rows, resolved) for name in names]
    for report in reports:
        print(json.dumps(report.to_dict(), sort_keys=True))
    return 0 if all(r.passed for r in reports) else 1


def cmd_audit(args: argparse.Namespace) -> int:
    report = privacy_audit(args.T, args.d, args.epsilon, n_pairs=args.pairs)
    out = report.to_dict()
    if len(out["participation_counts"]) > 64 and not args.full:
        out["participation_counts"] = "omitted (use --full)"
    print(json.dumps(out, sort_keys=True))
    return 0 if report.passed else 1


def cmd_schedule(args: argparse.Namespace) -> int:
    sched = stage_schedule(
        args.B1, args.d, args.alpha, args.gamma, args.epsilon,
        max_stages=args.k_max,
    )
    report = verify_stage_inequalities(sched)
    print(f"A' = {sched.A_prime:.6g}  A = {sched.A:.6g}  D = {sched.D:.6g}")
    for stage, check in zip(sched.stages, report.checks):
        print(
            f"stage {check.k}: T = {stage.T}  alpha = {stage.alpha:.6g}  "
            f"gamma = {stage.gamma:.6g}  lambda = {stage.lam:.6g}  "
            f"subsidy {'ok' if check.subsidy_covered else 'FAIL'} "
            f"({check.subsidy_lhs:.4g} <= {check.subsidy_rhs:.4g})  "
            f"bracket {check.profit_bracket:.4f} "
            f"{'ok' if check.profit_ok else 'FAIL'}"
        )
    print(
        f"stage-1 log check: {report.stage1_log_value:.4f} <= 0.25 "
        f"{'ok' if report.stage1_log_ok else 'FAIL'}; "
        f"lambda-ratio holds from k = {report.first_lam_ratio_k}"
    )
    print(f"all inequalities: {'ok' if report.all_ok else 'FAIL'}")
    return 0 if report.all_ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="privmarket",
        description="Bounded-budget differentially private prediction market simulator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run Monte Carlo trials from a JSON config")
    p_run.add_argument("--config", required=True, help="path to run config JSON")
    p_run.add_argument("--out", required=True, help="output directory for metrics")
    p_run.add_argument("--seeds", type=_parse_seed_range, default=None,
                       help="half-open seed range a..b (default: from config)")
    p_run.add_argument("--parallel", type=int, default=1,
                       help="worker processes (default 1)")
    p_run.set_defaults(func=cmd_run)

    p_ver = sub.add_parser("verify", help="check a metrics directory against theory")
    p_ver.add_argument("--metrics", required=True, help="run output directory")
    p_ver.add_argument("--check", required=True, choices=[*CHECKS, "all"])
    p_ver.set_defaults(func=cmd_verify)

    p_aud = sub.add_parser("audit", help="structural privacy audit")
    p_aud.add_argument("--T", type=int, required=True)
    p_aud.add_argument("--d", type=int, required=True)
    p_aud.add_argument("--epsilon", type=float, required=True)
    p_aud.add_argument("--pairs", type=int, default=10_000,
                       help="neighboring trade-sequence pairs to sample")
    p_aud.add_argument("--full", action="store_true",
                       help="always include the full participation table")
    p_aud.set_defaults(func=cmd_audit)

    p_sch = sub.add_parser("schedule", help="print a stage schedule and its checks")
    p_sch.add_argument("--B1", type=float, required=True)
    p_sch.add_argument("--d", type=int, required=True)
    p_sch.add_argument("--alpha", type=float, required=True)
    p_sch.add_argument("--gamma", type=float, required=True)
    p_sch.add_argument("--epsilon", type=float, required=True)
    p_sch.add_argument("--k-max", type=int, default=8)
    p_sch.set_defaults(func=cmd_schedule)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PrivMarketError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
