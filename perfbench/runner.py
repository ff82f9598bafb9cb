"""One batch of a workload, timed, then checked against the reference rows.

The timed region is what a user of ``privmarket run`` + ``verify`` (or
``privmarket audit``) waits for: every trial, seed by seed, then
``write_outputs``, ``load_metrics`` and the statistical ``verify_*`` checks
with the bounds read back from ``resolved_config.json``.  The correctness gate
runs after the clock stops and counts each failed operation (a trial, a
verify check or an audit call) once.

Timings are read from ``clock``: ``time.perf_counter`` or a running
``calibration.HostClock``, whose ``now`` leaves its calibration slices out.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import dataclass, field

from privmarket import harness, market

REL_TOL = 1e-9  # engine-parity tolerance for rows against the reference
AUDIT_FIELDS = ("sensitivity_max", "participation_max", "depth", "implied_epsilon", "noise_scale")


@dataclass
class BatchResult:
    seeds: list[int]
    rows: list[dict] = field(default_factory=list)
    trial_s: list[float] = field(default_factory=list)
    trial_windows: list[tuple[float, float]] = field(default_factory=list)
    arrivals: int = 0  # market arrivals; for the audit, audited (pair, slot) cells
    window: tuple[float, float] = (0.0, 0.0)  # first trial start to last verdict
    written_bytes: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return self.window[1] - self.window[0]

    @property
    def simulate_s(self) -> float:
        return sum(self.trial_s)

    def timed(self, clock, call):
        t0 = clock()
        out = call()
        t1 = clock()
        self.trial_s.append(t1 - t0)
        self.trial_windows.append((t0, t1))
        return out


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-12)


def _row_problems(row: dict, ref: list, fields: list[str]) -> list[str]:
    problems = []
    for name, want in zip(fields, ref):
        got = row[name]
        if isinstance(want, int) and not isinstance(want, bool):
            ok = got == want
        else:
            ok = _close(got, want)
        if not ok:
            problems.append(f"{name} {got!r} != reference {want!r}")
    identity = row["mm_loss"] + row["ntl"] - row["fees"]
    scale = max(1.0, abs(row["mm_loss"]), abs(row["ntl"]), abs(row["fees"]))
    if abs(row["designer_loss"] - identity) > REL_TOL * scale:
        problems.append("designer_loss != mm_loss + ntl - fees")
    return problems


def run_sim_batch(config, seeds: list[int], reference: dict, out_dir: str,
                  tracer=None, clock=time.perf_counter) -> BatchResult:
    """Trials for ``seeds``, then write + load + verify, then the gate."""
    result = BatchResult(seeds=list(seeds))
    metrics = []
    start = clock()
    for seed in seeds:
        result.attempted += 1
        if tracer is not None:
            tracer.trace_id = seed
        try:
            metrics.append(result.timed(clock, lambda: harness.run_trial(config, seed)))
        except Exception as exc:  # a trial that raises is a failed operation
            result.failures.append(f"trial {seed} raised {exc!r}")
    if tracer is not None:
        tracer.trace_id = -1
    harness.write_outputs(out_dir, config, metrics)
    loaded = harness.load_metrics(out_dir)
    reports = []
    if len(loaded) >= harness.MIN_TRIALS:
        with open(os.path.join(out_dir, "resolved_config.json"), encoding="utf-8") as fh:
            resolved = json.load(fh)
        reports = [
            harness.verify_precision(loaded, resolved["alpha"], resolved["gamma"]),
            harness.verify_budget(loaded, resolved["B1"], resolved["lambda"]),
            harness.verify_share_accuracy(
                loaded, resolved["d"], resolved["T"], resolved["epsilon"], resolved["gamma"]
            ),
            harness.verify_noise_loss(
                loaded, resolved["lambda"],
                market.noise_scale_K(resolved["T"], resolved["epsilon"], resolved["d"]),
            ),
        ]
    result.window = (start, clock())

    result.written_bytes = sum(
        os.path.getsize(os.path.join(out_dir, name))
        for name in ("metrics.jsonl", "resolved_config.json", "summary.csv")
    )
    result.rows = [m.to_dict() for m in metrics]
    result.arrivals = sum(r["arrivals"] for r in result.rows)
    fields = reference["fields"]
    for row in result.rows:
        problems = _row_problems(row, reference["rows"][row["seed"]], fields)
        if problems:
            result.failures.append(f"trial {row['seed']}: " + "; ".join(problems))
    result.attempted += 1 + len(reports)
    if loaded != result.rows:
        result.failures.append("metrics.jsonl does not read back as the trial rows")
    for report in reports:
        if not report.passed:
            result.failures.append(f"verify {report.check} failed: {report.to_dict()}")
    return result


def audit_row(report) -> list:
    return [getattr(report, name) for name in AUDIT_FIELDS]


def run_audit_batch(params: dict, seeds: list[int], reference: dict,
                    tracer=None, clock=time.perf_counter) -> BatchResult:
    """One privacy_audit per seed and its verdict, then the gate."""
    result = BatchResult(seeds=list(seeds))
    reports = []
    start = clock()
    for seed in seeds:
        result.attempted += 1
        if tracer is not None:
            tracer.trace_id = seed
        try:
            report = result.timed(
                clock, lambda: harness.privacy_audit(seed=seed, **params))
        except Exception as exc:  # an audit call that raises is a failed operation
            result.failures.append(f"audit {seed} raised {exc!r}")
            continue
        reports.append((seed, report, report.passed))
    if tracer is not None:
        tracer.trace_id = -1
    result.window = (start, clock())

    for seed, report, passed in reports:
        row = audit_row(report)
        result.rows.append(dict(zip(("seed",) + AUDIT_FIELDS, [seed] + row)))
        result.arrivals += params["n_pairs"] * params["T"]
        problems = [] if passed else ["audit verdict failed"]
        for name, got, want in zip(AUDIT_FIELDS, row, reference["rows"][seed]):
            if not _close(float(got), float(want)):
                problems.append(f"{name} {got!r} != reference {want!r}")
        if list(report.participation_counts) != reference["participation_counts"]:
            problems.append("participation counts differ from reference")
        if problems:
            result.failures.append(f"audit {seed}: " + "; ".join(problems))
    return result
