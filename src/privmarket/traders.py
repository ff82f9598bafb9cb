"""Trader strategies and the myopic best-response search.

Strategies see only published data: the step index, the latest published
share state and prices, the fee, and the (public) cost function.  Nothing
about the true state or the noise ever reaches them; the context's field
set is the enforcement point.  Strategies that want memory keep it on
themselves: each is a stateful object bound to one run.

The arbitrage adversary here is the empirical one the budget experiments
need: a fixed-belief best-responder that re-trades whenever noise reopens
a price gap.  It is not a proof-grade worst case over all adaptive
strategies.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .cost import ScaledCost
from .errors import InvalidParameterError, StrategyBugError, TradeRejectedError

STRATEGY_KINDS = ("belief", "arbitrage_hunter", "herd", "random", "abstainer")


@dataclass(frozen=True)
class StrategyContext:
    """Published information available to a strategy at its arrival.

    t is the 1-based index this arrival would get; q_hat and p_hat are the
    share state and prices published after step t-1 (read-only arrays).
    """

    t: int
    q_hat: np.ndarray
    p_hat: np.ndarray
    fee: float
    cost: ScaledCost


def _best_scale(ctx: StrategyContext, belief: np.ndarray, j: int, sign: float) -> float:
    """Optimal fractional size in [0, 1] for the trade sign * s * e_j.

    For the log-sum-exp cost the profit is maximized where the coordinate's
    price meets the belief, which solves in closed form from the published
    prices; the profit guarantee never relies on this shortcut because the
    caller re-evaluates the profit of whatever size comes back.
    """
    b = float(belief[j])
    ph = float(ctx.p_hat[j])
    if b <= 0.0 or b >= 1.0 or ph <= 0.0 or ph >= 1.0:
        return 1.0
    s = math.log(b * (1.0 - ph) / ((1.0 - b) * ph)) / (ctx.cost.lam * sign)
    return min(max(s, 0.0), 1.0)


def maximize_profit(
    ctx: StrategyContext, belief: np.ndarray
) -> tuple[np.ndarray, float]:
    """Best trade among signed unit coordinates plus a fractional refinement.

    Prices the full trades +/- e_j for every coordinate in one block, picks
    the most profitable (ties: lowest coordinate index, buy over sell), then
    line searches the size along that direction.  Each profit is
    <dq, belief> - (C(q_hat + dq) - C(q_hat)): the belief's expected payout
    minus the trade's cost at the published state.
    Returns (bundle, profit).
    """
    belief = np.asarray(belief, dtype=float)
    d = ctx.cost.d
    if belief.shape != (d,):
        raise InvalidParameterError(f"belief must have shape ({d},)")
    # row 0 is no trade, so the block also prices C(q_hat); row 1 + 2j buys
    # e_j and row 2 + 2j sells it
    trades = np.zeros((2 * d + 1, d))
    j = np.arange(d)
    trades[1 + 2 * j, j] = 1.0
    trades[2 + 2 * j, j] = -1.0
    costs = ctx.cost.cost(ctx.q_hat + trades)
    c_hat = float(costs[0])
    profits = (trades[1:] @ belief - (costs[1:] - c_hat)).tolist()
    best, best_profit = 0, -math.inf
    for i, profit in enumerate(profits):
        if profit > best_profit + 1e-15:
            best, best_profit = i, profit
    best_j, sell = divmod(best, 2)
    best_sign = -1.0 if sell else 1.0
    s = _best_scale(ctx, belief, best_j, best_sign)
    if 0.0 < s < 1.0:
        frac = np.zeros(d)
        frac[best_j] = best_sign * s
        frac_profit = float(frac @ belief) - (ctx.cost.cost(ctx.q_hat + frac) - c_hat)
        if frac_profit > best_profit:
            return frac, frac_profit
    return trades[1 + best].copy(), best_profit


def best_response(ctx: StrategyContext, belief: np.ndarray) -> Optional[np.ndarray]:
    """The profit-maximizing trade if it beats the fee, else None (abstain)."""
    dq, profit = maximize_profit(ctx, belief)
    if profit > ctx.fee:
        return dq
    return None


class Strategy:
    """Single-owner stateful decision rule bound to one run."""

    kind = "abstract"

    def decide(self, ctx: StrategyContext) -> Optional[np.ndarray]:
        raise NotImplementedError


class BeliefTrader(Strategy):
    """Best-responds to a fixed private belief, net of the fee."""

    kind = "belief"

    def __init__(self, belief: np.ndarray):
        self.belief = np.asarray(belief, dtype=float)

    def decide(self, ctx: StrategyContext) -> Optional[np.ndarray]:
        return best_response(ctx, self.belief)


class ArbitrageHunter(Strategy):
    """Trades whenever published prices stray from its belief by > threshold.

    The threshold defaults to the fee at decision time, so a fee-free market
    gets hit on any deviation; it pays the fee and trades regardless of
    whether the expected profit clears it.
    """

    kind = "arbitrage_hunter"

    def __init__(self, belief: np.ndarray, threshold: float | None = None):
        self.belief = np.asarray(belief, dtype=float)
        self.threshold = threshold

    def decide(self, ctx: StrategyContext) -> Optional[np.ndarray]:
        threshold = self.threshold if self.threshold is not None else ctx.fee
        gap = float(np.max(np.abs(ctx.p_hat - self.belief)))
        if gap <= threshold:
            return None
        dq, _ = maximize_profit(ctx, self.belief)
        return dq


class Herd(Strategy):
    """Always buys one unit of a fixed coordinate."""

    kind = "herd"

    def __init__(self, coordinate: int = 0):
        self.coordinate = coordinate

    def decide(self, ctx: StrategyContext) -> Optional[np.ndarray]:
        dq = np.zeros(ctx.cost.d)
        dq[self.coordinate] = 1.0
        return dq


class RandomTrader(Strategy):
    """Uniform random signed unit coordinate trades."""

    kind = "random"

    def __init__(self, rng: np.random.Generator):
        self.rng = rng

    def decide(self, ctx: StrategyContext) -> Optional[np.ndarray]:
        dq = np.zeros(ctx.cost.d)
        # the same draw as rng.choice([-1.0, 1.0]) at a fifth of the call cost
        dq[int(self.rng.integers(ctx.cost.d))] = (-1.0, 1.0)[int(self.rng.integers(2))]
        return dq


class Abstainer(Strategy):
    """Never trades."""

    kind = "abstainer"

    def decide(self, ctx: StrategyContext) -> Optional[np.ndarray]:
        return None


def _probability_vector(belief, d: int) -> np.ndarray:
    try:
        belief = np.asarray(belief, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidParameterError("belief must be a list of numbers") from exc
    if belief.shape != (d,):
        raise InvalidParameterError(f"belief must be a list of {d} numbers")
    if (
        not np.all(np.isfinite(belief))
        or np.any(belief < 0.0)
        or abs(float(np.sum(belief)) - 1.0) > 1e-9
    ):
        raise InvalidParameterError("belief must be a probability vector")
    return belief


def make_strategy(kind: str, params: dict | None, d: int, rng: np.random.Generator) -> Strategy:
    """Instantiate a strategy by kind name for a market of d outcomes.

    belief/arbitrage_hunter accept {"belief": [...]} (null or absent:
    uniform) and the hunter additionally {"threshold": x}; herd accepts
    {"coordinate": j} with 0 <= j < d.
    """
    params = dict(params or {})
    if kind in ("belief", "arbitrage_hunter"):
        belief = params.pop("belief", None)
        belief = np.full(d, 1.0 / d) if belief is None else _probability_vector(belief, d)
        if kind == "belief":
            strat: Strategy = BeliefTrader(belief)
        else:
            threshold = params.pop("threshold", None)
            # compared, not converted: an integer beyond float range is finite too
            if threshold is not None and (
                isinstance(threshold, bool)
                or not isinstance(threshold, numbers.Real)
                or not -math.inf < threshold < math.inf
            ):
                raise InvalidParameterError("threshold must be a finite number")
            strat = ArbitrageHunter(belief, threshold)
    elif kind == "herd":
        coordinate = params.pop("coordinate", 0)
        is_int = isinstance(coordinate, numbers.Integral) and not isinstance(coordinate, bool)
        if not is_int or not 0 <= coordinate < d:
            raise InvalidParameterError(f"herd coordinate must be an integer in [0, {d})")
        strat = Herd(int(coordinate))
    elif kind == "random":
        strat = RandomTrader(rng)
    elif kind == "abstainer":
        strat = Abstainer()
    else:
        raise InvalidParameterError(f"unknown strategy kind {kind!r}")
    if params:
        raise InvalidParameterError(f"unknown {kind} params: {sorted(params)}")
    return strat


def step_strategy(strategy: Strategy, ctx: StrategyContext) -> Optional[np.ndarray]:
    """Ask a strategy for its decision: a bundle, or None to abstain.

    This is the strategy-decision boundary the benchmark tracer times.  The
    bundle is validated once, by the MarketSession.step it goes to.
    """
    return strategy.decide(ctx)


def drive_session(session, stream: Iterator) -> bool:
    """Feed potential arrivals from stream until the session fills.

    A bundle the session rejects is the strategy's fault and raises
    StrategyBugError.  Returns True when the stream ran dry first.
    """
    while not session.is_full:
        try:
            strat = next(stream)
        except StopIteration:
            return True
        ctx = StrategyContext(
            t=session.arrivals + 1,
            q_hat=session.q_hat,
            p_hat=session.p_hat,
            fee=session.params.fee,
            cost=session.cost,
        )
        dq = step_strategy(strat, ctx)
        if dq is not None:
            try:
                session.step(dq)
            except TradeRejectedError as exc:
                raise StrategyBugError(f"{strat.kind} returned a bad bundle: {exc}") from exc
    return False
