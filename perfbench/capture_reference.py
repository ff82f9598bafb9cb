"""Record the reference rows every benchmark run is checked against.

    python3 perfbench/capture_reference.py [--workload NAME ...]

Runs every seed of each workload's pool with the package in ``src/`` and
writes ``perfbench/reference.json``.  Only re-capture when a change is meant
to alter behaviour; a speed-up must reproduce the recorded rows.  For a
workload whose batches are large enough for the statistical ``verify_*``
checks, every batch window of the pool must pass them, so no ``--seed`` can
pick a batch that fails.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import run  # pins numpy's thread pools before numpy loads
from workloads import WORKLOADS

REFERENCE = run.HERE / "reference.json"


def _verify_all_windows(workload, config, rows: list[dict]) -> None:
    from privmarket import harness, market

    params = config.market_params()
    K = market.noise_scale_K(config.T, config.epsilon, config.d)
    for start in range(workload.pool):
        window = [rows[(start + i) % workload.pool] for i in range(workload.batch)]
        reports = (
            harness.verify_precision(window, config.alpha, config.gamma),
            harness.verify_budget(window, params.B1, params.lam),
            harness.verify_share_accuracy(
                window, config.d, config.T, config.epsilon, config.gamma
            ),
            harness.verify_noise_loss(window, params.lam, K),
        )
        for report in reports:
            if not report.passed:
                raise SystemExit(f"{workload.name}: window at {start} fails {report.check}")


def capture(workload) -> dict:
    from privmarket import harness

    if workload.audit is not None:
        from runner import audit_row

        rows, counts = [], None
        for seed in range(workload.pool):
            report = harness.privacy_audit(seed=seed, **workload.audit)
            if not report.passed:
                raise SystemExit(f"{workload.name}: audit seed {seed} fails")
            rows.append(audit_row(report))
            counts = list(report.participation_counts)
        return {"audit": workload.audit, "participation_counts": counts, "rows": rows}

    config = harness.RunConfig.from_dict(workload.config)
    rows = [harness.run_trial(config, seed).to_dict() for seed in range(workload.pool)]
    if workload.batch >= harness.MIN_TRIALS:
        _verify_all_windows(workload, config, rows)
    return {
        "config": workload.config,
        "rows": [[row[name] for name in harness.METRIC_FIELDS] for row in rows],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    run.require_package()
    from privmarket import harness

    reference = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    reference["fields"] = list(harness.METRIC_FIELDS)
    for name in args.workload or list(WORKLOADS):
        print(f"capturing {name}", file=sys.stderr, flush=True)
        reference[name] = capture(WORKLOADS[name])
    # one row per line: readable diffs when a behaviour change re-captures
    text = json.dumps(reference, indent=1)
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]",
                  lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    REFERENCE.write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
