"""Self-tests of the benchmark: gate, tracer hygiene, span accounting, contract.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
import time

import pytest

import run

run.require_package()

import privmarket  # noqa: E402
import runner  # noqa: E402
import tracer as tracing  # noqa: E402
from calibration import HostClock  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

REFERENCE = json.loads((run.HERE / "reference.json").read_text(encoding="utf-8"))


def _ref(name: str) -> dict:
    return dict(REFERENCE[name], fields=REFERENCE["fields"])


def _smoke(name: str, n_seeds: int, out_dir, tracer=None, ref=None):
    """One batch of ``name`` cut to ``n_seeds`` pool seeds."""
    workload = WORKLOADS[name]
    seeds = workload.batch_seeds(7, 0)[:n_seeds]
    ref = ref or _ref(name)
    if workload.audit is not None:
        return runner.run_audit_batch(workload.audit, seeds, ref, tracer)
    config = privmarket.RunConfig.from_dict(workload.config)
    return runner.run_sim_batch(config, seeds, ref, str(out_dir), tracer)


@pytest.mark.parametrize(
    "name, n_seeds",
    [("flat_mixed_T64", privmarket.harness.MIN_TRIALS), ("flat_oblivious_T16384", 1),
     ("staged_d8_belief", 1), ("audit_T1024", 1)],
)
def test_smoke_workload_passes_gate(name, n_seeds, tmp_path):
    result = _smoke(name, n_seeds, tmp_path)
    assert result.failures == []
    assert len(result.trial_s) == n_seeds
    # trials, plus the round trip and four verify checks when there are enough rows
    extra = 0 if WORKLOADS[name].audit else 1 + (4 if n_seeds >= 100 else 0)
    assert result.attempted == n_seeds + extra


def test_gate_catches_a_changed_row(tmp_path):
    ref = copy.deepcopy(_ref("staged_d8_belief"))
    seed = WORKLOADS["staged_d8_belief"].batch_seeds(7, 0)[0]
    ref["rows"][seed][ref["fields"].index("mm_loss")] *= 1 + 1e-6
    result = _smoke("staged_d8_belief", 1, tmp_path, ref=ref)
    assert len(result.failures) == 1 and "mm_loss" in result.failures[0]


def test_traced_batch_restores_wrappers_and_accounts_time(tmp_path):
    untraced = _smoke("staged_d8_belief", 1, tmp_path / "plain")
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _ in tracing.patch_targets(privmarket)]
    tracer = tracing.Tracer()
    with tracer.installed(privmarket):
        assert all(vars(owner)[attr] is not fn for owner, attr, fn in originals)
        traced = _smoke("staged_d8_belief", 1, tmp_path / "traced", tracer)
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)

    assert traced.failures == [] and traced.rows == untraced.rows
    stats = tracer.stats()
    assert (stats.self_ns >= 0).all()
    assert stats.self_ns.sum() <= traced.wall_s * 1e9
    assert stats.calls("market.step") == traced.arrivals == 768
    assert stats.calls("adaptive.transition") == 2
    # every decision is a traders span; every trade one market step
    assert stats.calls("traders.step_strategy") > stats.calls("market.step")
    assert stats.calls_from("cost.cost", "traders") + stats.calls_from("cost.cost", "market") \
        == stats.calls("cost.cost")


def test_wrappers_removed_when_the_batch_raises():
    originals = [(owner, attr, vars(owner)[attr])
                 for owner, attr, _ in tracing.patch_targets(privmarket)]
    with pytest.raises(ZeroDivisionError):
        with tracing.Tracer().installed(privmarket):
            1 / 0
    assert all(vars(owner)[attr] is fn for owner, attr, fn in originals)


def test_host_clock_leaves_slices_out_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with HostClock() as clock:
        start, wall = clock.now(), time.perf_counter()
        while time.perf_counter() - wall < 0.35:
            pass
        work = clock.now() - start
        elapsed = time.perf_counter() - wall
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 4  # entry, about three ticks, exit
    assert 0 < work < elapsed
    assert clock.speed(start, start + work) > 0


def test_benchmark_json_names_match_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", [0, 1])
def test_cli_prints_every_metric(trace):
    done = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "staged_d8_belief",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = run.PER_LAYER if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)


def test_cli_fails_without_the_package(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit_T1024", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
