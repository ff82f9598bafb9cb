"""Outside-in tracer for privmarket: spans recorded from wrappers, not from the package.

Each wrapper is installed where its name is looked up at call time (a class
attribute, or the module global a caller resolves), records one span per call
(index, name, start, end, parent, trace id) into an in-memory array and is
removed again when the ``installed`` block ends.  Self time is a span's
duration minus the time its child spans cover; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager

import numpy as np

SPAN_FIELDS = ("index", "name", "start_ns", "end_ns", "parent", "trace_id")

# (module, class or None for a module global, attribute, span name).  The
# package binds names at import, so a function imported by name into another
# module is patched in that module too: harness imports open_market,
# drive_session, run_adaptive and participation_table by name, adaptive
# imports open_market and transition, and run_adaptive resolves
# traders.drive_session at call time.
PATCHES = (
    ("cost", "ScaledCost", "cost", "cost.cost"),
    ("cost", "ScaledCost", "prices", "cost.prices"),
    ("cost", "ScaledCost", "trade_cost", "cost.trade_cost"),
    ("noise", None, "sample_bundle", "noise.sample_bundle"),
    ("noise", "NoiseLedger", "begin_step", "noise.begin_step"),
    ("noise", "NoiseLedger", "new_bundle", "noise.new_bundle"),
    ("noise", "NoiseLedger", "mark_sold", "noise.mark_sold"),
    ("noise", "NoiseLedger", "verify_held", "noise.verify_held"),
    ("noise", "NoiseLedger", "held_sum", "noise.held_sum"),
    ("market", "MarketSession", "step", "market.step"),
    ("market", "MarketSession", "close", "market.close"),
    ("harness", None, "open_market", "market.open_market"),
    ("adaptive", None, "open_market", "market.open_market"),
    ("traders", None, "step_strategy", "traders.step_strategy"),
    ("traders", None, "maximize_profit", "traders.maximize_profit"),
    ("traders", None, "drive_session", "traders.drive_session"),
    ("harness", None, "drive_session", "traders.drive_session"),
    ("harness", None, "run_adaptive", "adaptive.run_adaptive"),
    ("adaptive", None, "transition", "adaptive.transition"),
    ("harness", None, "participation_table", "harness.participation_table"),
    ("harness", None, "run_trial", "harness.run_trial"),
    ("harness", None, "write_outputs", "harness.write_outputs"),
    ("harness", None, "verify_precision", "harness.verify"),
    ("harness", None, "verify_budget", "harness.verify"),
    ("harness", None, "verify_share_accuracy", "harness.verify"),
    ("harness", None, "verify_noise_loss", "harness.verify"),
    ("harness", None, "privacy_audit", "harness.privacy_audit"),
)


def patch_targets(package) -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every patch, resolved in ``package``."""
    targets = []
    for module_name, class_name, attr, span in PATCHES:
        owner = getattr(package, module_name)
        if class_name is not None:
            owner = getattr(owner, class_name)
        targets.append((owner, attr, span))
    return targets


class Tracer:
    """Span recorder for one traced batch; single-threaded."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans = array("q")
        self.trace_id = -1
        self._stack: list[int] = []
        self._next = 0

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._next
            self._next = index + 1
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.extend((index, name_id, start, end, parent, self.trace_id))

        return traced

    @contextmanager
    def installed(self, package):
        """Install every wrapper for the block; the originals are always restored."""
        saved = []
        try:
            for owner, attr, span in patch_targets(package):
                original = vars(owner)[attr]
                setattr(owner, attr, self.wrap(span, original))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def table(self) -> np.ndarray:
        """Spans as an (n, 6) int64 array ordered by span index."""
        rows = np.frombuffer(self.spans, dtype=np.int64).reshape(-1, len(SPAN_FIELDS))
        rows = rows[np.argsort(rows[:, 0], kind="stable")]
        if self._stack or not np.array_equal(rows[:, 0], np.arange(len(rows))):
            raise RuntimeError("trace has open or missing spans")
        return rows

    def stats(self) -> "TraceStats":
        return TraceStats(self.names, self.table())

    def save(self, path: str) -> None:
        np.savez(path, spans=self.table(), names=np.array(self.names),
                 fields=np.array(SPAN_FIELDS))


class TraceStats:
    """Per-name calls, inclusive and self time, and caller-layer attribution."""

    def __init__(self, names: list[str], rows: np.ndarray):
        self.names = names
        name = rows[:, 1]
        parent = rows[:, 4]
        duration = (rows[:, 3] - rows[:, 2]).astype(float)
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=duration[nested], minlength=len(rows))
        self.self_ns = duration - child
        self.duration_ns = duration
        self.name = name

        layers = sorted({n.split(".")[0] for n in names})
        layer_of_name = np.array([layers.index(n.split(".")[0]) for n in names], dtype=np.int64)
        layer = layer_of_name[name]
        # walk each span up to its nearest ancestor in another layer
        caller = parent.copy()
        while True:
            live = caller >= 0
            same = np.zeros(len(rows), dtype=bool)
            same[live] = layer[caller[live]] == layer[live]
            if not same.any():
                break
            caller[same] = parent[caller[same]]
        self._layers = layers
        self.caller_layer = np.full(len(rows), -1, dtype=np.int64)
        live = caller >= 0
        self.caller_layer[live] = layer[caller[live]]

    def _mask(self, span: str) -> np.ndarray:
        if span not in self.names:
            return np.zeros(len(self.name), dtype=bool)
        return self.name == self.names.index(span)

    def calls(self, span: str) -> int:
        return int(self._mask(span).sum())

    def total_s(self, span: str) -> float:
        return float(self.duration_ns[self._mask(span)].sum()) / 1e9

    def self_s(self, span: str) -> float:
        return float(self.self_ns[self._mask(span)].sum()) / 1e9

    def layer_self_s(self, layer: str) -> float:
        return sum(self.self_s(n) for n in self.names if n.split(".")[0] == layer)

    def calls_from(self, span: str, layer: str) -> int:
        """Calls of ``span`` whose nearest caller outside its own layer is ``layer``."""
        if layer not in self._layers:
            return 0
        return int((self._mask(span) & (self.caller_layer == self._layers.index(layer))).sum())
