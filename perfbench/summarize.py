"""Summarise results records into one committed ``BENCH_<label>.json``.

    python3 perfbench/summarize.py --label baseline

Reads every ``perfbench/out/results/*.json`` written by ``run.py`` and, per
workload and metric, records the median, the quartiles and the spread
(interquartile distance over the median) across runs, with the seeds, the
machine and the commit the runs came from.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "out" / "results"


def summarize(records: list[dict]) -> dict:
    workloads: dict = {}
    for rec in sorted(records, key=lambda r: (r["workload"]["name"], r["trace"], r["seed"])):
        entry = workloads.setdefault(rec["workload"]["name"], {
            "why": rec["workload"]["why"], "runs": {"0": [], "1": []}, "metrics": {}})
        entry["runs"][str(rec["trace"])].append(
            {"seed": rec["seed"], "attempted": rec["attempted"], "failed": rec["failed"]})
        for group in ("metrics", "extras"):
            for name, m in rec[group].items():
                entry["metrics"].setdefault(name, {"unit": m.get("unit"), "values": []})
                entry["metrics"][name]["values"].append(m["value"])
    for entry in workloads.values():
        for m in entry["metrics"].values():
            values = m.pop("values")
            median = statistics.median(values)
            m.update(runs=len(values), median=median)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                m.update(q1=q1, q3=q3, spread=(q3 - q1) / median if median else 0.0)
    first = records[0]
    return {"machine": first["machine"], "commit": first["commit"],
            "seconds": first["seconds"], "workloads": workloads}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", required=True)
    args = parser.parse_args(argv)
    records = [json.loads(p.read_text(encoding="utf-8")) for p in sorted(RESULTS.glob("*.json"))]
    if not records:
        raise SystemExit(f"error: no results records under {RESULTS}")
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(summarize(records), indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
