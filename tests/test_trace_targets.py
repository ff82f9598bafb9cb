"""The benchmark tracer's patch targets still name what the package defines."""

import importlib.util
from pathlib import Path

import privmarket

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_patch_target_is_a_key_of_its_owner():
    # perfbench/tracer.py swaps vars(owner)[attr] for a wrapper on every
    # --trace 1 run, so a rename or a move there breaks the traced benchmark
    tracer = _tracer()
    targets = tracer.patch_targets(privmarket)
    assert len(targets) == len(tracer.PATCHES) > 0
    for (owner, attr, span), patch in zip(targets, tracer.PATCHES):
        assert attr in vars(owner), patch
        assert span == patch[3]
