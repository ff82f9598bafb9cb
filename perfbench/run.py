"""privmarket benchmark: one workload in one fresh process, closed loop, one caller.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from ``src/``.

``--trace 0`` sets the package up several times (``setup_s``), then runs
batches of the workload (trials seed by seed, then write + load + verify)
until ``--seconds`` have passed.  It reports, as medians with their sample
counts: ``wall_s`` per batch (first trial start to last verdict),
``trials_per_s`` and ``us_per_arrival`` (simulate time over trials, and over
market arrivals; abstentions are not arrivals), ``trial_ms_p50`` and
``peak_rss_mb``.  For ``audit_T1024`` a trial is one ``privacy_audit`` call and
an arrival one audited (pair, slot) cell.  Timings are scaled to the
reference host speed that ``calibration`` measures while they run; the raw
figures and the speed go to the results record.  ``trial_ms_p90`` (when ten
samples lie beyond it), ``failed_ratio``, ``audit_pairs_per_s`` and the
paper-scale stage-1 projection are printed and recorded but are not in the
result line, because they are not defined, or are zero, on some workloads.

``--trace 1`` times batch 0 untraced for about half of ``--seconds``, then runs
batch 0 once more under the outside-in tracer (see ``tracer``) and reports the
per-layer metrics and the tracing overhead, from raw wall times.

Every row is checked against ``reference.json``; the last stdout line is the
JSON result.  A results record (machine, versions, commit, seed, sample
counts) is written under ``perfbench/out/results/`` and the spans of a traced
run under ``perfbench/out/<workload>/spans.npz``.
"""

from __future__ import annotations

import os

# one single-threaded caller: pin numpy's thread pools before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from calibration import HostClock  # noqa: E402
from workloads import PAPER_STAGE1_ARRIVALS, WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 21

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "trials_per_s": "1/s",
    "us_per_arrival": "us",
    "trial_ms_p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cost.cost.calls_per_arrival": "count",
    "cost.cost.self_us_per_call": "us",
    "cost.prices.calls_per_arrival": "count",
    "cost.prices.self_s": "s",
    "cost.trade_cost.self_s": "s",
    "cost.calls_from_traders_per_decision": "count",
    "cost.calls_from_market_per_arrival": "count",
    "noise.self_s": "s",
    "noise.sample_bundle.calls_per_arrival": "count",
    "noise.held_sum.self_us_per_call": "us",
    "market.step.self_us_per_call": "us",
    "market.close.self_s": "s",
    "market.open_market.calls": "count",
    "traders.decisions": "count",
    "traders.trades_per_decision": "ratio",
    "traders.maximize_profit.calls": "count",
    "traders.maximize_profit.self_s": "s",
    "traders.step_strategy.self_s": "s",
    "traders.drive_session.self_us_per_arrival": "us",
    "adaptive.run_adaptive.self_s": "s",
    "adaptive.transition.calls": "count",
    "adaptive.stages_completed": "count",
    "harness.run_trial.self_ms_per_trial": "ms",
    "harness.write_outputs.s": "s",
    "harness.write_outputs.bytes": "bytes",
    "harness.verify.s": "s",
    "harness.privacy_audit.s": "s",
    "harness.participation_table.s": "s",
    "harness.audit.bytes_computed": "bytes",
    "trace.overhead_ratio": "ratio",
    "trace.spans": "count",
}


def require_package() -> None:
    """Put the checkout's ``src/`` first on sys.path, or exit when it is missing."""
    if not (SRC / "privmarket" / "__init__.py").is_file():
        raise SystemExit(f"error: no privmarket package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def _purge_package() -> None:
    for name in [m for m in sys.modules if m == "privmarket" or m.startswith("privmarket.")]:
        del sys.modules[name]


def measure_setup(workload, clock) -> list[tuple[float, tuple[float, float]]]:
    """Import the package afresh and validate the workload's config, several times.

    numpy is loaded before the first repeat, so each time is the package's
    own import and validation cost.  Returns (seconds, window) per repeat.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        _purge_package()
        start = clock.now()
        package = importlib.import_module("privmarket")
        if workload.config is not None:
            package.RunConfig.from_dict(workload.config)
        end = clock.now()
        times.append((end - start, (start, end)))
    return times


def machine_info() -> dict:
    import numpy

    cpu = "unknown"
    try:  # machine description, not data: the one read outside the checkout
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown (not a git checkout)"


def _per(a: float, b: float) -> float:
    return a / b if b else 0.0


def audit_bytes_computed(params: dict) -> int:
    """Bytes of the float64 arrays one audit's sensitivity kernel materialises.

    Computed from array shapes, not measured: two trade batches of 4 (n, T, d)
    and 3 (n, T, 1) arrays each, then 8 (n, T, d) arrays for the neighbour
    difference, prefix sums and block gathers, and the (n, T) change table.
    """
    n, T, d = params["n_pairs"], params["T"], params["d"]
    return 8 * n * T * (16 * d + 7)


def scaled_trials(batch, speed) -> list[float]:
    return [t * speed(*w) for t, w in zip(batch.trial_s, batch.trial_windows)]


def scaled_wall(batch, speed) -> float:
    """Trials at their own windows' speed, the write/verify tail at the batch's."""
    tail = batch.wall_s - batch.simulate_s
    return sum(scaled_trials(batch, speed)) + tail * speed(*batch.window)


def end_to_end(batches, setup, speed) -> dict:
    """Timings at the reference host speed, as medians with their sample counts."""
    trial_ms = [t * 1e3 for b in batches for t in scaled_trials(b, speed)]
    simulate = [sum(scaled_trials(b, speed)) for b in batches]
    return {
        "setup_s": (statistics.median(t * speed(*w) for t, w in setup), len(setup)),
        "wall_s": (statistics.median(scaled_wall(b, speed) for b in batches), len(batches)),
        "trials_per_s": (statistics.median(
            _per(len(b.trial_s), s) for b, s in zip(batches, simulate)), len(batches)),
        "us_per_arrival": (statistics.median(
            _per(s * 1e6, b.arrivals) for b, s in zip(batches, simulate)), len(batches)),
        "trial_ms_p50": (statistics.median(trial_ms) if trial_ms else 0.0, len(trial_ms)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }


def extras(workload, batches, setup, speed, metrics: dict) -> dict:
    """Reported and recorded, not gated: not defined on every workload, or raw."""
    out = {
        "host_speed": (statistics.median(speed(*b.window) for b in batches), len(batches)),
        "wall_s_raw": (statistics.median(b.wall_s for b in batches), len(batches)),
        "setup_s_raw": (statistics.median(t for t, _ in setup), len(setup)),
    }
    trial_ms = [t * 1e3 for b in batches for t in scaled_trials(b, speed)]
    if len(trial_ms) >= 2:
        p90 = statistics.quantiles(trial_ms, n=10)[-1]
        if sum(1 for t in trial_ms if t > p90) >= 10:
            out["trial_ms_p90"] = (p90, len(trial_ms))
    if workload.audit is not None:
        out["audit_pairs_per_s"] = (statistics.median(
            _per(len(b.trial_s) * workload.audit["n_pairs"], sum(scaled_trials(b, speed)))
            for b in batches), len(batches))
    if workload.name == "flat_oblivious_T16384":
        value, n = metrics["us_per_arrival"]
        out["projection_paper_stage1_s"] = (value * PAPER_STAGE1_ARRIVALS / 1e6, n)
    return out


def per_layer(workload, traced, stats, overhead: float) -> dict:
    arrivals = stats.calls("market.step")
    decisions = stats.calls("traders.step_strategy")
    cost_calls = stats.calls("cost.cost")
    audits = stats.calls("harness.privacy_audit")
    values = {
        "cost.cost.calls_per_arrival": _per(cost_calls, arrivals),
        "cost.cost.self_us_per_call": _per(stats.self_s("cost.cost") * 1e6, cost_calls),
        "cost.prices.calls_per_arrival": _per(stats.calls("cost.prices"), arrivals),
        "cost.prices.self_s": stats.self_s("cost.prices"),
        "cost.trade_cost.self_s": stats.self_s("cost.trade_cost"),
        "cost.calls_from_traders_per_decision": _per(stats.calls_from("cost.cost", "traders"),
                                                     decisions),
        "cost.calls_from_market_per_arrival": _per(stats.calls_from("cost.cost", "market"),
                                                   arrivals),
        "noise.self_s": stats.layer_self_s("noise"),
        "noise.sample_bundle.calls_per_arrival": _per(stats.calls("noise.sample_bundle"),
                                                      arrivals),
        "noise.held_sum.self_us_per_call": _per(stats.self_s("noise.held_sum") * 1e6,
                                                stats.calls("noise.held_sum")),
        "market.step.self_us_per_call": _per(stats.self_s("market.step") * 1e6, arrivals),
        "market.close.self_s": stats.self_s("market.close"),
        "market.open_market.calls": stats.calls("market.open_market"),
        "traders.decisions": decisions,
        "traders.trades_per_decision": _per(arrivals, decisions),
        "traders.maximize_profit.calls": stats.calls("traders.maximize_profit"),
        "traders.maximize_profit.self_s": stats.self_s("traders.maximize_profit"),
        "traders.step_strategy.self_s": stats.self_s("traders.step_strategy"),
        "traders.drive_session.self_us_per_arrival": _per(
            stats.self_s("traders.drive_session") * 1e6, arrivals),
        "adaptive.run_adaptive.self_s": stats.self_s("adaptive.run_adaptive"),
        "adaptive.transition.calls": stats.calls("adaptive.transition"),
        "adaptive.stages_completed": (sum(r["stages_completed"] for r in traced.rows)
                                      if workload.config and "adaptive" in workload.config else 0),
        "harness.run_trial.self_ms_per_trial": _per(stats.self_s("harness.run_trial") * 1e3,
                                                    stats.calls("harness.run_trial")),
        "harness.write_outputs.s": stats.total_s("harness.write_outputs"),
        "harness.write_outputs.bytes": traced.written_bytes,
        "harness.verify.s": stats.total_s("harness.verify"),
        "harness.privacy_audit.s": stats.total_s("harness.privacy_audit"),
        "harness.participation_table.s": stats.total_s("harness.participation_table"),
        "harness.audit.bytes_computed": (audit_bytes_computed(workload.audit) * audits
                                         if workload.audit else 0),
        "trace.overhead_ratio": overhead,
        "trace.spans": len(stats.name),
    }
    return {name: (value, 1) for name, value in values.items()}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    require_package()
    with HostClock() as clock:
        setup = [] if args.trace else measure_setup(workload, clock)

        import privmarket
        import runner
        import tracer as tracing

        if Path(privmarket.__file__).resolve().parent != SRC / "privmarket":
            raise SystemExit(f"error: imported privmarket from {privmarket.__file__}, not {SRC}")
        reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
        ref = reference[workload.name]
        if ref.get("config") != workload.config or ref.get("audit") != workload.audit:
            raise SystemExit(f"error: reference.json is stale for {workload.name}")
        ref = dict(ref, fields=reference["fields"])
        config = privmarket.RunConfig.from_dict(workload.config) if workload.config else None
        out_dir = OUT / workload.name
        out_dir.mkdir(parents=True, exist_ok=True)

        def batch(index: int, tracer=None, now=clock.now):
            seeds = workload.batch_seeds(args.seed, index)
            if config is None:
                return runner.run_audit_batch(workload.audit, seeds, ref, tracer, now)
            return runner.run_sim_batch(config, seeds, ref, str(out_dir / "run"), tracer, now)

        batches, checks, failures = [], 0, []
        start = time.perf_counter()
        if args.trace:
            clock.stop()  # slices inside spans would inflate self times
            # the same seeds untraced and traced, so rows and wall times compare
            while not batches or time.perf_counter() - start < args.seconds / 2:
                batches.append(batch(0, now=time.perf_counter))
            tracer = tracing.Tracer()
            with tracer.installed(privmarket):
                traced = batch(0, tracer, now=time.perf_counter)
            tracer.save(str(out_dir / "spans.npz"))
            checks += 1
            if traced.rows != batches[0].rows:
                failures.append("traced rows differ from untraced rows")
            overhead = traced.wall_s / statistics.median(b.wall_s for b in batches)
            metrics = per_layer(workload, traced, tracer.stats(), overhead)
            units = PER_LAYER
            batches.append(traced)
        else:
            while not batches or time.perf_counter() - start < args.seconds:
                batches.append(batch(len(batches)))
            metrics = end_to_end(batches, setup, clock.speed)
            units = END_TO_END
    attempted = checks + sum(b.attempted for b in batches)
    failures += [f for b in batches for f in b.failures]
    failed = len(failures)
    extra = {"failed_ratio": (_per(failed, attempted), attempted)}
    if not args.trace:
        extra.update(extras(workload, batches, setup, clock.speed, metrics))

    for name, (value, n) in metrics.items():
        print(f"{name} = {value:.6g} {units[name]} (n={n})")
    for name, (value, n) in extra.items():
        label = "projection, not gated" if name.startswith("projection") else "not gated"
        print(f"{name} = {value:.6g} (n={n}; {label})")
    for failure in failures:
        print(f"FAILED: {failure}")

    record = {
        "workload": {"name": workload.name, "why": workload.why, "batch": workload.batch,
                     "pool": workload.pool, "config": workload.config, "audit": workload.audit},
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(),
        "commit": git_commit(),
        "batches": [{"seeds": b.seeds, "wall_s_raw": b.wall_s, "trials": len(b.trial_s),
                     "arrivals": b.arrivals} for b in batches],
        "metrics": {name: {"value": v, "unit": units[name], "n": n}
                    for name, (v, n) in metrics.items()},
        "extras": {name: {"value": v, "n": n} for name, (v, n) in extra.items()},
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, (v, _) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
