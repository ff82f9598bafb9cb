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

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .cost import ScaledCost, check_probabilities
from .errors import ConfigError, InvalidParameterError, StrategyBugError, TradeRejectedError
from .errors import _as_num, _int_in
from .market import check_bundle
from .noise import BLOCK_FLOATS

STRATEGY_KINDS = ("belief", "arbitrage_hunter", "herd", "random", "abstainer")

BLOCK_CAP = 1024
"""Most arrivals drive_session books in one MarketSession.step call."""

RANDOM_CHUNK = 250
"""(sign, coordinate) pairs a RandomTrader draws from its generator at once."""


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

    @functools.cached_property
    def unit_trade_costs(self) -> np.ndarray:
        """C(q_hat + each row of _unit_trades(d)), row 0 being C(q_hat); read-only.

        Priced once per context: drive_session hands every state reader the
        same context until something is booked."""
        costs = self.cost.cost(self.q_hat + _unit_trades(self.cost.d))
        costs.flags.writeable = False
        return costs


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
    trades = _unit_trades(d)
    costs = ctx.unit_trade_costs
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


@functools.lru_cache(maxsize=1)
def _unit_trades(d: int) -> np.ndarray:
    """Read-only (2d + 1, d) block: no trade, then +e_j (row 1 + 2j) and -e_j (row 2 + 2j)."""
    trades = np.zeros((2 * d + 1, d))
    flat = trades.reshape(-1)  # row 1 + 2j, column j is flat entry d + j (2d + 1)
    flat[d :: 2 * d + 1] = 1.0
    flat[2 * d :: 2 * d + 1] = -1.0
    trades.flags.writeable = False
    return trades


def best_response(ctx: StrategyContext, belief: np.ndarray) -> Optional[np.ndarray]:
    """The profit-maximizing trade if it beats the fee, else None (abstain)."""
    dq, profit = maximize_profit(ctx, belief)
    if profit > ctx.fee:
        return dq
    return None


class Strategy:
    """Single-owner stateful decision rule bound to one run.

    reads_state is False for a strategy whose decisions ignore ctx.t,
    ctx.q_hat and ctx.p_hat.  drive_session asks it once per run of
    consecutive blind slots for all of its slots there (decide_run), with
    the context before the run: ctx.t is the run's first arrival index.
    One that reads them keeps the default, True, and is asked through
    decide once every earlier arrival is booked.
    """

    kind = "abstract"
    reads_state = True

    def __init_subclass__(cls) -> None:
        if cls.decide is Strategy.decide and cls.decide_run is Strategy.decide_run:
            raise TypeError(f"{cls.__name__} must define decide or decide_run")

    def decide(self, ctx: StrategyContext) -> Optional[np.ndarray]:
        """A bundle, or None to abstain (by default decide_run's one slot).  Each
        default is written in terms of the other, so a subclass writes one."""
        return self.decide_run(ctx, 1)[0]

    def decide_run(self, ctx: StrategyContext, n: int):
        """Decisions for n slots of a blind run: an (n, d) array when all trade,
        else a list of n bundles or None (by default decide per slot)."""
        return [self.decide(ctx) for _ in range(n)]


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
    reads_state = False

    def __init__(self, coordinate: int = 0):
        self.coordinate = coordinate

    def decide_run(self, ctx: StrategyContext, n: int) -> np.ndarray:
        dq = np.zeros((n, ctx.cost.d))
        dq[:, self.coordinate] = 1.0
        return dq


class RandomTrader(Strategy):
    """Uniform random signed unit coordinate trades.

    (sign, coordinate) pairs are drawn RANDOM_CHUNK at a time: the same
    stream as per-decision draws of the sign (as rng.choice([-1.0, 1.0])
    makes it), then the coordinate.  The last chunk may draw past the end
    of a trial, which is harmless: each instance's generator belongs to one
    trial.  An instance serves markets of one d.
    """

    kind = "random"
    reads_state = False

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._pairs = np.zeros((2, 0), dtype=np.intp)  # drawn, not yet used: signs over coordinates

    def decide_run(self, ctx: StrategyContext, n: int) -> np.ndarray:
        d = ctx.cost.d
        while self._pairs.shape[1] < n:
            fresh = self.rng.integers(np.tile([2, d], RANDOM_CHUNK)).reshape(-1, 2).T
            fresh[0] = 2 * fresh[0] - 1  # sign 0 sells, 1 buys
            self._pairs = np.concatenate((self._pairs, fresh), axis=1)
        (signs, coords), self._pairs = self._pairs[:, :n], self._pairs[:, n:]
        dq = np.zeros((n, d))
        dq[np.arange(n), coords] = signs
        return dq


class Abstainer(Strategy):
    """Never trades."""

    kind = "abstainer"
    reads_state = False

    def decide_run(self, ctx: StrategyContext, n: int) -> list:
        return [None] * n


def make_strategy(kind: str, params: dict | None, d: int, rng: np.random.Generator) -> Strategy:
    """Instantiate a strategy by kind name for a market of d outcomes.

    belief/arbitrage_hunter accept {"belief": [...]}, a list of d numbers
    that sum to 1 (null or absent: uniform), and the hunter additionally
    {"threshold": x}; herd accepts {"coordinate": j} with 0 <= j < d.  The
    params go through the config schema's parsers (a number is a finite int
    or float, never a string or a bool), so a malformed one is a
    ConfigError; a belief off the simplex, an unknown kind and an unknown
    param are InvalidParameterErrors.
    """
    params = dict(params or {})
    if kind in ("belief", "arbitrage_hunter"):
        belief = params.pop("belief", None)
        if belief is None:
            belief = np.full(d, 1.0 / d)
        elif not isinstance(belief, list) or len(belief) != d:
            raise ConfigError(f"belief must be a list of {d} numbers")
        else:
            belief = np.array([_as_num(x, f"belief[{j}]") for j, x in enumerate(belief)])
            check_probabilities(belief, "belief")
        if kind == "belief":
            strat: Strategy = BeliefTrader(belief)
        else:
            threshold = params.pop("threshold", None)
            if threshold is not None:
                threshold = _as_num(threshold, "threshold")
            strat = ArbitrageHunter(belief, threshold)
    elif kind == "herd":
        strat = Herd(_int_in(0, d - 1)(params.pop("coordinate", 0), "coordinate"))
    elif kind == "random":
        strat = RandomTrader(rng)
    elif kind == "abstainer":
        strat = Abstainer()
    else:
        raise InvalidParameterError(f"unknown strategy kind {kind!r}")
    if params:
        raise InvalidParameterError(f"unknown {kind} params: {sorted(params)}")
    return strat


def step_strategy(strategy: Strategy, ctx: StrategyContext, n: int | None = None):
    """Ask a strategy for its decision, a bundle or None to abstain, or with n
    for its n slots of a blind run (decide_run).

    This is the strategy-decision boundary the benchmark tracer times.  The
    bundles are checked by market.check_bundle alone.
    """
    return strategy.decide(ctx) if n is None else strategy.decide_run(ctx, n)


def drive_session(session, stream: Iterator) -> None:
    """Feed potential arrivals from stream until the session fills.

    Slots are taken at most as many at a time as the session and the
    pending block have room for, so the stream is never taken past the
    arrival that fills the session.  In each run of consecutive slots of
    strategies that do not read the published state (reads_state False:
    herd, random, abstainer), each is asked once for all of its slots
    (step_strategy with n), in the order of their first slots, and the
    bundles join the pending block in slot order (through one strided
    slice per strategy when the run cycles through its strategies in one
    order).  The block is booked with one MarketSession.step when it holds
    BLOCK_CAP arrivals or BLOCK_FLOATS bundle entries, before a strategy
    that reads the state is asked, and at the end; such a strategy's
    answer is booked alone, as a list of one bundle.  A bundle
    check_bundle rejects, or a blind answer without one entry per slot,
    raises StrategyBugError naming its strategy's kind.  A stream that
    runs dry first leaves the session short of T (not is_full).
    """
    d, T = session.params.d, session.params.T
    cap = max(1, min(BLOCK_CAP, BLOCK_FLOATS // d))
    pending = np.empty((cap, d))
    owners: list[Strategy] = []
    ctx = None
    while session.arrivals + len(owners) < T:
        want = min(T - session.arrivals, cap) - len(owners)
        slots = list(itertools.islice(stream, want))
        for reads, run in itertools.groupby(slots, operator.attrgetter("reads_state")):
            if not reads:
                ctx = _context(session, len(owners), ctx)
                _ask_run(list(run), ctx, pending, owners)
                continue
            for reader in run:
                if owners:
                    _book(session, pending[: len(owners)], owners)
                ctx = _context(session, 0, ctx)
                dq = step_strategy(reader, ctx)
                if dq is not None:
                    _book(session, [dq], [reader])
        if len(owners) == cap:
            _book(session, pending, owners)
        if len(slots) < want:
            break
    if owners:
        _book(session, pending[: len(owners)], owners)


def _context(session, ahead: int, last: StrategyContext | None) -> StrategyContext:
    """The context of the arrival after the session's and ahead pending ones;
    last when it is that context (nothing was booked since)."""
    if last is not None and last.q_hat is session.q_hat and last.t == session.arrivals + ahead + 1:
        return last
    return StrategyContext(
        t=session.arrivals + ahead + 1,
        q_hat=session.q_hat,
        p_hat=session.p_hat,
        fee=session.params.fee,
        cost=session.cost,
    )


def _ask_run(run: list, ctx: StrategyContext, pending: np.ndarray, owners: list) -> None:
    """Ask each blind strategy of run for its slots; append the bundles to pending.

    A run is periodic when slot i belongs to run[i % p], p being the number
    of distinct strategies in it (one strategy, or a round-robin roster);
    strategy j's slots are then range(j, n, p), written through one strided
    slice.  Other runs, and runs of one or two slots, where that gains
    nothing, list each strategy's slots one slot at a time.  A list answer
    is checked by one check_bundle call; one mask drops its abstentions.
    """
    d, start, n = pending.shape[1], len(owners), len(run)
    rows = pending[start : start + n]
    p = len({*map(id, run)}) if n > 2 else n
    slots: dict[int, range | list[int]] = {}
    if p < n and all(map(operator.is_, run[p:], run)):
        for j in range(p):
            slots[j] = range(j, n, p)
    else:
        for i, strat in enumerate(run):
            slots.setdefault(id(strat), []).append(i)
    kept = None  # which slots traded, once a list answer is written
    for index in slots.values():
        strat, m = run[index[0]], len(index)
        decisions = step_strategy(strat, ctx, m)
        try:
            if isinstance(decisions, np.ndarray) and decisions.shape == (m, d):
                if m == 1:
                    rows[index[0]] = decisions
                elif isinstance(index, range):
                    rows[index.start :: index.step] = decisions
                else:
                    rows[index] = decisions
            elif len(decisions) == m:
                traded = np.fromiter(map(operator.is_not, decisions, itertools.repeat(None)), bool, m)
                at = np.arange(n)[index.start :: index.step] if isinstance(index, range) else np.array(index)
                bundles = list(itertools.compress(decisions, traded))
                if bundles:
                    rows[at[traded]] = check_bundle(bundles, d)
                kept = np.ones(n, dtype=bool) if kept is None else kept
                kept[at] = traded
            else:
                raise ValueError(f"{m} decisions expected")
        except (TypeError, ValueError) as exc:
            raise StrategyBugError(f"{strat.kind} returned a bad bundle: {exc}") from exc
    if kept is not None:
        rows[: np.count_nonzero(kept)] = rows[kept]
        run = list(itertools.compress(run, kept))
    owners.extend(run)


def _book(session, block, owners: list) -> None:
    """Step block, whose bundles owners returned in order, and clear owners."""
    try:
        session.step(block)
    except TradeRejectedError as exc:
        kind = owners[exc.row].kind
        raise StrategyBugError(f"{kind} returned a bad bundle: {exc}") from exc
    owners.clear()
