"""Stage-doubling market: bounded budget without knowing the horizon.

Run fee markets in stages with T^(k) = 4^{k-1} * T^(1) arrivals, price
sensitivity lambda_star(T^(k), alpha/2^k, gamma/2^k, epsilon, d), and a
fixed fee alpha.  Each completed stage hands its final published (noisy)
prices to the next stage, which opens at the share vector inverting those
prices after clamping; nothing else about the old stage leaks.  The stage
sizing T^(1) = ceil(9 A (ln AD)^2) with A = 16 A' / alpha,
A' = B1 * 8 sqrt(2) d / (alpha epsilon), D = 4 d / gamma guarantees each
stage's fee revenue covers its subsidy, so the designer's total loss stays
below a constant independent of the true horizon.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from . import traders
from .cost import ScaledCost
from .errors import InvalidParameterError, check_design, check_positive
from .market import Ledger, MarketParams, MarketSession, open_market

MAX_STAGES = 64
"""Most stages a schedule may plan.  Stage 64 is 4^63 times stage 1, beyond
any horizon a run reaches, and every run and report builds the whole plan."""


def minimal_T(A: float, D: float) -> float:
    """Smallest horizon 9 A (ln AD)^2 guaranteeing T >= A (ln TD)^2 beyond it.

    Requires A >= 1, D >= 1 and AD >= 5.
    """
    if A < 1.0 or D < 1.0:
        raise InvalidParameterError("A and D must be >= 1")
    if A * D < 5.0:
        raise InvalidParameterError("need A * D >= 5")
    return 9.0 * A * math.log(A * D) ** 2


def stage_constants(
    B1: float, d: int, alpha: float, gamma: float, epsilon: float
) -> tuple[float, float, float]:
    """The stage-sizing constants (A', A, D) of a design, after its range check:

    A' = B1 * 8 sqrt(2) d / (alpha epsilon), A = 16 A' / alpha, D = 4 d / gamma.
    A product alpha * epsilon that underflows to 0, or a constant beyond float
    range, is an InvalidParameterError.
    """
    check_design(d, alpha, gamma, epsilon, B1)
    A_prime = B1 * 8.0 * math.sqrt(2.0) * d / check_positive("alpha * epsilon", alpha * epsilon)
    A = 16.0 * check_positive("A'", A_prime) / alpha
    return A_prime, check_positive("A", A), check_positive("D", 4.0 * d / gamma)


class StageSchedule(NamedTuple):
    """Full staged-market design for (B1, d, alpha, gamma, epsilon)."""

    B1: float
    d: int
    alpha: float
    gamma: float
    epsilon: float
    A_prime: float  # the stage_constants of the design
    A: float
    D: float
    stages: tuple[MarketParams, ...]  # stage k (1-based) is stages[k - 1]


def stage_schedule(
    B1: float,
    d: int,
    alpha: float,
    gamma: float,
    epsilon: float,
    max_stages: int = 8,
    t1_override: int | None = None,
) -> StageSchedule:
    """Build the stage plan: stage k is the fee market
    MarketParams(d, epsilon, alpha/2^k, gamma/2^k, T^(k), fee=alpha), whose
    lam defaults to lambda_star of its own (T, alpha, gamma).

    Without an override, T^(1) = ceil(9 A (ln AD)^2) and T^(k) quadruples;
    a plan whose last stage size is past float range raises.  t1_override
    swaps in a flat desk-scale stage size (every stage runs that many
    arrivals) for simulation.
    """
    A_prime, A, D = stage_constants(B1, d, alpha, gamma, epsilon)
    if not 1 <= max_stages <= MAX_STAGES:
        raise InvalidParameterError(f"max_stages must lie in [1, {MAX_STAGES}]")

    if t1_override is None:
        T1 = minimal_T(A, D)
        if not T1 * 4.0 ** (max_stages - 1) < math.inf:
            raise InvalidParameterError(
                f"a plan of {max_stages} stages from T^(1) = {T1:.3g} is past float range"
            )
        T1 = math.ceil(T1)
    else:
        if t1_override < 2:
            raise InvalidParameterError("t1_override must be >= 2")
        T1 = t1_override

    stages = tuple(
        MarketParams(
            d=d, epsilon=epsilon, alpha=alpha / 2**k, gamma=gamma / 2**k,
            T=T1 if t1_override is not None else T1 * 4 ** (k - 1), fee=alpha,
        )
        for k in range(1, max_stages + 1)
    )
    return StageSchedule(
        B1=B1, d=d, alpha=alpha, gamma=gamma, epsilon=epsilon,
        A_prime=A_prime, A=A, D=D, stages=stages,
    )


def budget_bound(B1: float, d: int, alpha: float, gamma: float, epsilon: float) -> float:
    """Closed-form designer budget for the staged market:

    B1 * (72 sqrt(2) d / (alpha epsilon))
       * (ln(4608 B1 sqrt(2) d^2 / (gamma alpha^2 epsilon)))^2,

    which is 9 A' (ln 9 A D)^2 in the stage constants.
    """
    A_prime, A, D = stage_constants(B1, d, alpha, gamma, epsilon)
    return 9.0 * A_prime * math.log(9.0 * A * D) ** 2


class StageCheck(NamedTuple):
    """Per-stage inequality margins behind the budget guarantee."""

    k: int
    subsidy_covered: bool  # B1 / lam^(k) <= (alpha/16) T^(k)
    subsidy_lhs: float
    subsidy_rhs: float
    profit_bracket: float  # 1 - log2 T / (4 * 2^k sqrt(d) ln(2 d T 2^k / gamma)) - 1/16
    profit_ok: bool  # bracket >= 1/2
    lam_ratio_ok: bool  # 1/lam^(k) <= 4/lam^(k-1) (k >= 2)


class StageInequalityReport(NamedTuple):
    checks: tuple[StageCheck, ...]
    stage1_log_ok: bool  # log2 T^(1) / (8 ln(4 T^(1))) <= 1/4
    stage1_log_value: float
    first_lam_ratio_k: int | None  # smallest k >= 2 with the ratio inequality
    all_ok: bool


def verify_stage_inequalities(schedule: StageSchedule) -> StageInequalityReport:
    """Check the stage inequalities the budget proof leans on, per stage.

    Reported, not asserted: a degenerate desk-scale override is expected to
    fail the subsidy-coverage check and the report says so.
    """
    stages = schedule.stages
    if not stages:
        raise InvalidParameterError("schedule has no stages")
    checks = []
    first_ratio_k = None
    for k, stage in enumerate(stages, start=1):
        lhs = schedule.B1 / stage.lam
        rhs = (schedule.alpha / 16.0) * stage.T
        log_t = math.log2(stage.T)
        denom = (
            4.0 * 2**k * math.sqrt(schedule.d)
            * math.log(2.0 * schedule.d * stage.T * 2**k / schedule.gamma)
        )
        bracket = 1.0 - log_t / denom - 1.0 / 16.0
        ratio_ok = k == 1 or 1.0 / stage.lam <= 4.0 / stages[k - 2].lam * (1.0 + 1e-12)
        if k >= 2 and ratio_ok and first_ratio_k is None:
            first_ratio_k = k
        checks.append(StageCheck(
            k=k, subsidy_covered=lhs <= rhs, subsidy_lhs=lhs, subsidy_rhs=rhs,
            profit_bracket=bracket, profit_ok=bracket >= 0.5, lam_ratio_ok=ratio_ok,
        ))
    t1 = stages[0].T
    stage1_log_value = math.log2(t1) / (8.0 * math.log(4.0 * t1))
    stage1_log_ok = stage1_log_value <= 0.25
    all_ok = stage1_log_ok and all(
        c.subsidy_covered and c.profit_ok and c.lam_ratio_ok for c in checks
    )
    return StageInequalityReport(
        checks=tuple(checks),
        stage1_log_ok=stage1_log_ok,
        stage1_log_value=stage1_log_value,
        first_lam_ratio_k=first_ratio_k,
        all_ok=all_ok,
    )


def transition(
    prev_prices: np.ndarray,
    next_lam: float,
    d: int,
    eta: float,
) -> np.ndarray:
    """Opening share vector of the next stage: invert the handed-off prices.

    Clamps coordinates below eta before inverting so degenerate prices stay
    representable; the canonical inverse fixes the last coordinate to 0.
    """
    cost = ScaledCost(d=d, lam=next_lam)
    return cost.invert_prices(prev_prices, eta)


class AdaptiveResult(NamedTuple):
    stages: tuple[MarketSession, ...]  # the closed session of each market that ran
    ledger: Ledger  # exact component-wise sum of stage ledgers


def run_adaptive(
    markets: Sequence[MarketParams],
    stream: traders.Stream,
    outcome: int,
    seed: int | np.random.Generator = 0,
) -> AdaptiveResult:
    """Drive a sequence of markets over one arrival stream.

    Each slot's strategy is consulted for one potential arrival
    (abstentions consume no market step).  A market completes at its T
    arrivals and hands its final noisy prices to the next one, which opens
    at their inverse clamped at next.alpha / (4 d) and is fed from the slot
    where the last one stopped; when the stream ends mid-market, or exactly
    as a market fills, that market is final.  A flat run is a one-market
    sequence, a staged run the stages of a StageSchedule.  All markets
    settle on the same realized outcome; the global ledger is the
    component-wise sum of the per-market ledgers.
    """
    if isinstance(seed, np.random.Generator):
        noise_rng = seed
    else:
        noise_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    settled: list[MarketSession] = []
    init_shares: np.ndarray | None = None
    slot = 0
    for params, nxt in zip(markets, (*markets[1:], None)):
        session = open_market(params, rng=noise_rng, initial_shares=init_shares)
        slot = traders.drive_session(session, stream, slot)  # looked up per call
        session.close(outcome)
        settled.append(session)
        if nxt is None or not session.is_full or slot == stream.length:
            break  # the last market, one left short, or nobody left to attend another
        init_shares = transition(session.p_hat, nxt.lam, nxt.d, nxt.alpha / (4.0 * nxt.d))

    return AdaptiveResult(
        stages=tuple(settled),
        ledger=Ledger.combine([s.ledger for s in settled]),
    )
