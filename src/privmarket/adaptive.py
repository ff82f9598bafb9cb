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

import itertools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .cost import ScaledCost
from .errors import InvalidParameterError
from .market import Ledger, MarketParams, lambda_star, open_market

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


@dataclass(frozen=True)
class Stage:
    """Resolved parameters of one stage."""

    k: int  # 1-based stage index
    T: int
    alpha: float
    gamma: float
    lam: float


@dataclass(frozen=True)
class StageSchedule:
    """Full staged-market design for (B1, d, alpha, gamma, epsilon)."""

    B1: float
    d: int
    alpha: float
    gamma: float
    epsilon: float
    fee: float
    stages: tuple[Stage, ...]

    @property
    def A_prime(self) -> float:
        return self.B1 * 8.0 * math.sqrt(2.0) * self.d / (self.alpha * self.epsilon)

    @property
    def A(self) -> float:
        return 16.0 * self.A_prime / self.alpha

    @property
    def D(self) -> float:
        return 4.0 * self.d / self.gamma


def stage_schedule(
    B1: float,
    d: int,
    alpha: float,
    gamma: float,
    epsilon: float,
    max_stages: int = 8,
    t1_override: int | None = None,
) -> StageSchedule:
    """Build the stage plan.

    Without an override, T^(1) = ceil(9 A (ln AD)^2) and T^(k) quadruples;
    per-stage accuracy targets halve (alpha/2^k, gamma/2^k) while the fee
    stays fixed at alpha.  t1_override swaps in a flat desk-scale stage size
    (every stage runs that many arrivals) for simulation; the sensitivity
    formula still follows each stage's own (T, alpha, gamma).
    """
    if d < 1:
        raise InvalidParameterError("d must be >= 1")
    if B1 <= 0.0 or epsilon <= 0.0:
        raise InvalidParameterError("B1 and epsilon must be positive")
    if not (0.0 < alpha < 1.0) or not (0.0 < gamma < 1.0):
        raise InvalidParameterError("alpha and gamma must lie in (0, 1)")
    if not 1 <= max_stages <= MAX_STAGES:
        raise InvalidParameterError(f"max_stages must lie in [1, {MAX_STAGES}]")

    if t1_override is None:
        A_prime = B1 * 8.0 * math.sqrt(2.0) * d / (alpha * epsilon)
        A = 16.0 * A_prime / alpha
        D = 4.0 * d / gamma
        T1 = math.ceil(minimal_T(A, D))
    else:
        if t1_override < 2:
            raise InvalidParameterError("t1_override must be >= 2")
        T1 = t1_override

    stages = []
    for k in range(1, max_stages + 1):
        T_k = T1 if t1_override is not None else T1 * 4 ** (k - 1)
        a_k = alpha / 2**k
        g_k = gamma / 2**k
        stages.append(
            Stage(k=k, T=T_k, alpha=a_k, gamma=g_k,
                  lam=lambda_star(T_k, a_k, g_k, epsilon, d))
        )
    return StageSchedule(
        B1=B1, d=d, alpha=alpha, gamma=gamma, epsilon=epsilon,
        fee=alpha, stages=tuple(stages),
    )


def budget_bound(B1: float, d: int, alpha: float, gamma: float, epsilon: float) -> float:
    """Closed-form designer budget for the staged market:

    B1 * (72 sqrt(2) d / (alpha epsilon))
       * (ln(4608 B1 sqrt(2) d^2 / (gamma alpha^2 epsilon)))^2
    """
    if d < 1:
        raise InvalidParameterError("d must be >= 1")
    if B1 <= 0.0 or epsilon <= 0.0:
        raise InvalidParameterError("B1 and epsilon must be positive")
    if not (0.0 < alpha < 1.0) or not (0.0 < gamma < 1.0):
        raise InvalidParameterError("alpha and gamma must lie in (0, 1)")
    log_term = math.log(
        4608.0 * B1 * math.sqrt(2.0) * d**2 / (gamma * alpha**2 * epsilon)
    )
    return B1 * (72.0 * math.sqrt(2.0) * d / (alpha * epsilon)) * log_term**2


@dataclass(frozen=True)
class StageCheck:
    """Per-stage inequality margins behind the budget guarantee."""

    k: int
    subsidy_covered: bool  # B1 / lam^(k) <= (alpha/16) T^(k)
    subsidy_lhs: float
    subsidy_rhs: float
    profit_bracket: float  # 1 - log2 T / (4 * 2^k sqrt(d) ln(2 d T 2^k / gamma)) - 1/16
    profit_ok: bool  # bracket >= 1/2
    lam_ratio_ok: bool  # 1/lam^(k) <= 4/lam^(k-1) (k >= 2)


@dataclass(frozen=True)
class StageInequalityReport:
    checks: tuple[StageCheck, ...]
    stage1_log_ok: bool  # log2 T^(1) / (8 ln(4 T^(1))) <= 1/4
    stage1_log_value: float
    first_lam_ratio_k: int | None  # smallest k >= 2 with the ratio inequality
    all_ok: bool


def verify_stage_inequalities(
    schedule: StageSchedule, k_max: int | None = None
) -> StageInequalityReport:
    """Check the stage inequalities the budget proof leans on, per stage.

    Reported, not asserted: a degenerate desk-scale override is expected to
    fail the subsidy-coverage check and the report says so.
    """
    stages = schedule.stages if k_max is None else schedule.stages[:k_max]
    if not stages:
        raise InvalidParameterError("schedule has no stages")
    checks = []
    first_ratio_k = None
    for stage in stages:
        lhs = schedule.B1 / stage.lam
        rhs = (schedule.alpha / 16.0) * stage.T
        log_t = math.log2(stage.T)
        denom = (
            4.0 * 2**stage.k * math.sqrt(schedule.d)
            * math.log(2.0 * schedule.d * stage.T * 2**stage.k / schedule.gamma)
        )
        bracket = 1.0 - log_t / denom - 1.0 / 16.0
        if stage.k >= 2:
            prev = stages[stage.k - 2]
            ratio_ok = 1.0 / stage.lam <= 4.0 / prev.lam * (1.0 + 1e-12)
            if ratio_ok and first_ratio_k is None:
                first_ratio_k = stage.k
        else:
            ratio_ok = True
        checks.append(
            StageCheck(
                k=stage.k,
                subsidy_covered=lhs <= rhs,
                subsidy_lhs=lhs,
                subsidy_rhs=rhs,
                profit_bracket=bracket,
                profit_ok=bracket >= 0.5,
                lam_ratio_ok=ratio_ok,
            )
        )
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


@dataclass(frozen=True)
class StageResult:
    """Outcome of one executed stage."""

    k: int
    arrivals: int
    completed: bool
    ledger: Ledger
    opening_prices: np.ndarray
    final_prices: np.ndarray  # published (noisy) prices at stage end
    max_price_gap: float
    max_share_gap: float
    mean_bundle_l2: float


@dataclass(frozen=True)
class AdaptiveResult:
    stages: tuple[StageResult, ...]
    ledger: Ledger  # exact component-wise sum of stage ledgers


_END = object()


def run_adaptive(
    schedule: StageSchedule,
    stream: Iterable,
    outcome: int,
    seed: int | np.random.Generator = 0,
    eta: float | None = None,
) -> AdaptiveResult:
    """Drive the staged market over an arrival stream of strategies.

    Each stream element is a strategy consulted for one potential arrival
    (abstentions consume no market step).  A stage completes at T^(k)
    arrivals and hands its final noisy prices to the next stage; when the
    stream ends mid-stage that stage is final.  All stages settle on the
    same realized outcome; the global ledger is the component-wise sum of
    the per-stage ledgers.
    """
    from .traders import drive_session

    if isinstance(seed, np.random.Generator):
        noise_rng = seed
    else:
        noise_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])

    stream = iter(stream)
    settled: list[StageResult] = []
    init_shares: np.ndarray | None = None

    for stage in schedule.stages:
        if settled:
            head = next(stream, _END)
            if head is _END:
                break  # nobody left to attend another stage
            stream = itertools.chain([head], stream)
        params = MarketParams(
            d=schedule.d, epsilon=schedule.epsilon, alpha=stage.alpha,
            gamma=stage.gamma, T=stage.T, fee=schedule.fee, lam=stage.lam,
        )
        session = open_market(params, rng=noise_rng, initial_shares=init_shares)
        opening_prices = session.p_hat.copy()
        exhausted = drive_session(session, stream)
        final_prices = session.p_hat.copy()
        settled.append(
            StageResult(
                k=stage.k, arrivals=session.arrivals, completed=session.is_full,
                ledger=session.close(outcome), opening_prices=opening_prices,
                final_prices=final_prices,
                max_price_gap=session.max_price_gap,
                max_share_gap=session.max_share_gap,
                mean_bundle_l2=session.mean_bundle_l2,
            )
        )
        if exhausted or stage.k >= len(schedule.stages):
            break
        next_stage = schedule.stages[stage.k]  # stage.k is 1-based
        margin = eta if eta is not None else next_stage.alpha / (4.0 * schedule.d)
        init_shares = transition(final_prices, next_stage.lam, schedule.d, margin)

    return AdaptiveResult(
        stages=tuple(settled),
        ledger=Ledger.combine([r.ledger for r in settled]),
    )
