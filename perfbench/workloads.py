"""Workload definitions for the privmarket benchmark (pure data, no imports of the package).

Every workload draws its trial seeds from a fixed pool whose per-seed rows are
recorded in ``reference.json``; the workload seed only picks where in the pool
each batch starts.  That keeps inputs a function of ``--seed`` while every row
a run produces can be checked against the reference.

A batch is the unit a user waits for: the trials, then ``write_outputs``,
``load_metrics`` and the ``verify_*`` checks (or, for the audit workload, one
``privacy_audit`` call and its verdict).
"""

from __future__ import annotations

from dataclasses import dataclass

MIXED_ROSTER = [
    {"kind": "herd"},
    {"kind": "random"},
    {"kind": "arbitrage_hunter", "params": {"belief": [0.85, 0.15]}},
]

PAPER_STAGE1_ARRIVALS = 3_805_959  # stage 1 at default sizing, d=2


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    batch: int  # trials (or audit calls) per batch
    pool: int  # reference seeds 0..pool-1
    stride: int  # pool offset per unit of workload seed
    config: dict | None = None  # RunConfig JSON; None for the audit workload
    audit: dict | None = None  # privacy_audit keyword arguments

    def batch_seeds(self, workload_seed: int, index: int) -> list[int]:
        """Pool seeds of batch ``index`` in a run with ``workload_seed``."""
        start = workload_seed * self.stride + index * self.batch
        return [(start + i) % self.pool for i in range(self.batch)]


def _uniform_but(d: int, j: int, mass: float) -> list[float]:
    rest = (1.0 - mass) / (d - 1)
    return [mass if i == j else rest for i in range(d)]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="flat_mixed_T64",
            why="many short acceptance-config trials: per-trial harness set-up, "
            "cost calls per step and write/verify dominate; the hunter reads prices",
            batch=200,
            pool=1000,
            stride=37,
            config={
                "market": {"d": 2, "epsilon": 1.0, "alpha": 0.3, "gamma": 0.1, "T": 64},
                "traders": MIXED_ROSTER,
            },
        ),
        Workload(
            name="flat_oblivious_T16384",
            why="long herd+random sessions: per-arrival costs that grow with T "
            "(history copies, trace/bundle history, deeper noise stack) and memory",
            batch=1,
            pool=8,
            stride=3,
            config={
                "market": {"d": 2, "epsilon": 1.0, "alpha": 0.3, "gamma": 0.1, "T": 16384},
                "traders": [{"kind": "herd"}, {"kind": "random"}],
            },
        ),
        Workload(
            name="staged_d8_belief",
            why="three filled d=8 stages: the only adaptive user, heavy best-response "
            "search (2d trades per decision) and 25% abstentions",
            batch=4,
            pool=64,
            stride=11,
            config={
                "market": {"d": 8, "epsilon": 1.0, "alpha": 0.3, "gamma": 0.1, "T": 256},
                "traders": [
                    {"kind": "belief", "params": {"belief": _uniform_but(8, 0, 0.72)}},
                    # near-uniform: no trade ever clears the fee, so it always abstains
                    {"kind": "belief", "params": {"belief": [0.13] + [0.125] * 6 + [0.12]}},
                    {"kind": "arbitrage_hunter", "params": {"belief": _uniform_but(8, 1, 0.72)}},
                    {"kind": "random"},
                ],
                # 3 stages x 256 arrivals at 3 trades per 4 slots need 1024 slots
                "stream_length": 1056,
                "adaptive": {"stage_override": 256, "max_stages": 3},
            },
        ),
        Workload(
            name="audit_T1024",
            why="structural privacy audit: the only user of the (n, T, d) "
            "sensitivity kernel and participation_table; no market calls",
            batch=1,
            pool=16,
            stride=5,
            audit={"T": 1024, "d": 2, "epsilon": 1.0, "n_pairs": 10_000},
        ),
    )
}
