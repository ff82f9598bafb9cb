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
from typing import NamedTuple, Optional

import numpy as np

from .cost import check_probabilities, unit_trades
from .errors import ConfigError, InvalidParameterError, StrategyBugError, TradeRejectedError
from .errors import _as_num, _int_in
from .market import StrategyContext, check_bundle
from .noise import BLOCK_FLOATS

BLOCK_CAP = 1024
"""Most arrivals drive_session books in one MarketSession.step call."""

ARRIVAL_ORDERS = ("round_robin", "sequential")
"""The orders of a Stream, and of a config's arrival_order."""

RANDOM_CHUNK = 250
"""The unit of a RandomTrader's draws: it draws whole chunks of this many
(sign, coordinate) pairs, so its generator ends where drawing them one chunk
at a time would leave it (rng.integers draws each bound in turn)."""


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

    Reads the costs of the full trades +/- e_j from ctx.unit_costs, or
    prices them in one pass when the quote carries none (StrategyContext).
    It picks the most profitable (ties: lowest coordinate index, buy over
    sell), then line searches the size along that direction.  Each profit
    is <dq, belief> - (C(q_hat + dq) - C(q_hat)): the belief's expected
    payout minus the trade's cost at the published state.  +/- e_j pays
    exactly +/- b_j (a finite belief), so the profit is the Python float
    +/-b_j - (c_i - c_hat), the array formula's bits (its matmul only adds
    zeros) but for the sign of a zero payout, which compares equal.
    Returns (bundle, profit).
    """
    belief = np.asarray(belief, dtype=float)
    d = ctx.cost.d
    if belief.shape != (d,):
        raise InvalidParameterError(f"belief must have shape ({d},)")
    costs = (ctx.unit_costs if ctx.unit_costs is not None
             else ctx.cost.cost(ctx.q_hat + unit_trades(d))).tolist()
    c_hat = costs[0]
    best, best_profit = 0, -math.inf
    for j, (b, c_buy, c_sell) in enumerate(zip(belief.tolist(), costs[1::2], costs[2::2])):
        profit = b - (c_buy - c_hat)  # +e_j pays b_j
        if profit > best_profit + 1e-15:
            best, best_profit = 2 * j, profit
        profit = -b - (c_sell - c_hat)  # -e_j pays -b_j
        if profit > best_profit + 1e-15:
            best, best_profit = 2 * j + 1, profit
    best_j, sell = divmod(best, 2)
    best_sign = -1.0 if sell else 1.0
    s = _best_scale(ctx, belief, best_j, best_sign)
    if 0.0 < s < 1.0:
        frac = np.zeros(d)
        frac[best_j] = best_sign * s
        frac_profit = float(frac @ belief) - (ctx.cost.cost(ctx.q_hat + frac) - c_hat)
        if frac_profit > best_profit:
            return frac, frac_profit
    return unit_trades(d)[1 + best].copy(), best_profit


def best_response(ctx: StrategyContext, belief: np.ndarray) -> Optional[np.ndarray]:
    """The profit-maximizing trade if it beats the fee, else None (abstain)."""
    dq, profit = maximize_profit(ctx, belief)
    if profit > ctx.fee:
        return dq
    return None


class Strategy:
    """Single-owner stateful decision rule bound to one run.

    reads_state is False for a strategy whose decisions ignore ctx.t,
    ctx.q_hat and ctx.p_hat.  drive_session asks it once per chunk of slots
    for all of its slots there (decide_run), with the quote the session
    published last at the chunk's start (StrategyContext), so possibly
    before earlier state readers in the chunk decide, and its bad bundle can
    raise before they are asked.  One that reads them keeps the default,
    True, and is asked through decide with the quote MarketSession.preview
    publishes of every earlier pending bundle.
    """

    kind = "abstract"
    reads_state = True

    def __new__(cls, *args, **kwargs):
        if cls is Strategy:  # its decide and decide_run are written in terms of each other
            raise TypeError("Strategy is abstract: subclass it and define decide or decide_run")
        return super().__new__(cls)

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


def _is_num(x, types=(int, float)) -> bool:
    """Whether x is one of types, a bool being no number here (a check, not
    the schema's parsers: a trial builds its strategies and parses nothing)."""
    return isinstance(x, types) and not isinstance(x, bool)


def _finite_belief(belief) -> np.ndarray:
    """belief as a float array; a nan or inf entry is an InvalidParameterError,
    since maximize_profit's profits are exact only for a finite belief."""
    belief = np.asarray(belief, dtype=float)
    if not np.isfinite(belief).all():
        raise InvalidParameterError("belief entries must be finite")
    return belief


class BeliefTrader(Strategy):
    """Best-responds to a fixed private belief, net of the fee."""

    kind = "belief"

    def __init__(self, belief: np.ndarray):
        self.belief = _finite_belief(belief)

    def decide(self, ctx: StrategyContext) -> Optional[np.ndarray]:
        return best_response(ctx, self.belief)


class ArbitrageHunter(Strategy):
    """Trades whenever published prices stray from its belief by > threshold.

    The threshold defaults to the fee at decision time, so a fee-free market
    gets hit on any deviation; it pays the fee and trades regardless of
    whether the expected profit clears it.  A threshold is None or a finite
    int or float (not a bool), else an InvalidParameterError.
    """

    kind = "arbitrage_hunter"

    def __init__(self, belief: np.ndarray, threshold: float | None = None):
        # a read-only copy and its entries as floats: the gap and the trade
        # read the belief it was built with
        self.belief = _finite_belief(belief).copy()
        self.belief.flags.writeable = False
        self._entries = self.belief.tolist()
        if threshold is not None and not (_is_num(threshold) and abs(threshold) < math.inf):
            raise InvalidParameterError(
                f"threshold must be None or a finite number, not {threshold!r}")
        self.threshold = threshold

    def decide(self, ctx: StrategyContext) -> Optional[np.ndarray]:
        threshold = self.threshold if self.threshold is not None else ctx.fee
        # max |p_j - b_j| over Python floats: each difference and abs is
        # correctly rounded and published prices are finite, so these are
        # the bits of np.abs(ctx.p_hat - self.belief).max()
        gap = max(map(abs, map(operator.sub, ctx.p_hat.tolist(), self._entries)))
        if gap <= threshold:
            return None
        dq, _ = maximize_profit(ctx, self.belief)
        return dq


class Herd(Strategy):
    """Always buys one unit of a fixed coordinate, an int >= 0 (not a bool)
    and below the market's d, checked when it decides."""

    kind = "herd"
    reads_state = False

    def __init__(self, coordinate: int = 0):
        if not (_is_num(coordinate, int) and coordinate >= 0):
            raise InvalidParameterError(f"coordinate must be an int >= 0, not {coordinate!r}")
        self.coordinate = coordinate

    def decide_run(self, ctx: StrategyContext, n: int) -> np.ndarray:
        if self.coordinate >= ctx.cost.d:
            raise InvalidParameterError(
                f"coordinate {self.coordinate} is not below the market's d = {ctx.cost.d}")
        dq = np.zeros((n, ctx.cost.d))
        dq[:, self.coordinate] = 1.0
        return dq


class RandomTrader(Strategy):
    """Uniform random signed unit coordinate trades.

    (sign, coordinate) pairs are drawn in whole RANDOM_CHUNKs, a run's
    shortfall in one rng.integers call over the bounds [2, d, 2, d, ...]:
    the same stream as per-decision draws of the sign (as
    rng.choice([-1.0, 1.0]) makes it), then the coordinate.  The last chunk
    may draw past the end of a trial, which is harmless: each instance's
    generator belongs to one trial.  An instance serves markets of one d.
    """

    kind = "random"
    reads_state = False

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self._pairs = np.zeros((2, 0), dtype=np.intp)  # drawn, not yet used: signs over coordinates

    def decide_run(self, ctx: StrategyContext, n: int) -> np.ndarray:
        d = ctx.cost.d
        short = n - self._pairs.shape[1]
        if short > 0:
            bounds = _random_bounds(d, -(-short // RANDOM_CHUNK))  # whole chunks
            fresh = self.rng.integers(bounds).reshape(-1, 2).T
            fresh[0] = 2 * fresh[0] - 1  # sign 0 sells, 1 buys
            self._pairs = np.concatenate((self._pairs, fresh), axis=1)
        pairs, self._pairs = self._pairs, self._pairs[:, n:]
        dq = np.zeros((n, d))
        signs, coords = pairs[:, :n]
        dq[np.arange(n), coords] = signs
        return dq


@functools.lru_cache(maxsize=8)
def _random_bounds(d: int, chunks: int) -> np.ndarray:
    """Read-only bounds [2, d, 2, d, ...] of chunks whole RANDOM_CHUNKs."""
    bounds = np.tile([2, d], chunks * RANDOM_CHUNK)
    bounds.flags.writeable = False
    return bounds


class Abstainer(Strategy):
    """Never trades."""

    kind = "abstainer"
    reads_state = False

    def decide_run(self, ctx: StrategyContext, n: int) -> list:
        return [None] * n


STRATEGIES = {cls.kind: cls for cls in (BeliefTrader, ArbitrageHunter, Herd, RandomTrader,
                                        Abstainer)}
STRATEGY_KINDS = tuple(STRATEGIES)


def strategy_args(kind: str, params: dict | None, d: int) -> tuple:
    """The values a strategy of kind takes for a market of d outcomes, parsed
    from its roster params; make_strategy builds from them.

    belief/arbitrage_hunter accept {"belief": [...]}, a list of d numbers
    that sum to 1 (null or absent: uniform), and the hunter additionally
    {"threshold": x}; herd accepts {"coordinate": j} with 0 <= j < d.  The
    params go through the config schema's parsers (a number is a finite int
    or float, never a string or a bool), so a malformed one is a
    ConfigError; a belief off the simplex, an unknown kind and an unknown
    param are InvalidParameterErrors.  A belief is returned read-only: every
    instance of a roster entry shares it.
    """
    if kind not in STRATEGIES:
        raise InvalidParameterError(f"unknown strategy kind {kind!r}")
    params = dict(params or {})
    args: tuple = ()
    if kind in ("belief", "arbitrage_hunter"):
        belief = params.pop("belief", None)
        if belief is None:
            belief = np.full(d, 1.0 / d)
        elif not isinstance(belief, list) or len(belief) != d:
            raise ConfigError(f"belief must be a list of {d} numbers")
        else:
            belief = np.array([_as_num(x, f"belief[{j}]") for j, x in enumerate(belief)])
            check_probabilities(belief, "belief")
        belief.flags.writeable = False
        args = (belief,)
        if kind == "arbitrage_hunter":
            threshold = params.pop("threshold", None)
            args += (None if threshold is None else _as_num(threshold, "threshold"),)
    elif kind == "herd":
        args = (_int_in(0, d - 1)(params.pop("coordinate", 0), "coordinate"),)
    if params:
        raise InvalidParameterError(f"unknown {kind} params: {sorted(params)}")
    return args


def make_strategy(kind: str, args: tuple, rng) -> Strategy:
    """A fresh strategy of kind from strategy_args' values; a random trader
    draws from np.random.default_rng(rng), the others ignore rng."""
    if kind == "random":
        return RandomTrader(np.random.default_rng(rng))
    return STRATEGIES[kind](*args)


def step_strategy(strategy: Strategy, ctx: StrategyContext, n: int | None = None):
    """Ask a strategy for its decision, a bundle or None to abstain, or with n
    for n slots (decide_run).

    This is the strategy-decision boundary the benchmark tracer times.  The
    bundles are checked by market.check_bundle alone.
    """
    return strategy.decide(ctx) if n is None else strategy.decide_run(ctx, n)


class Stream(NamedTuple("Stream", [("instances", tuple), ("length", int), ("order", str)])):
    """The arrival stream of a trial, the same for every seed: slot i < length
    belongs to instances[(i // per) % n].  round_robin cycles through the n
    instances (per = 1); sequential gives each one turn of
    per = max(1, ceil(length / n)) slots, in order.  An immutable NamedTuple
    that the constructor (and so _replace) checks: an empty roster, an
    instance listed twice (its slots would not be one range), a length that
    is not an int >= 0 (a bool is none) and an unknown order are
    InvalidParameterErrors.
    """

    __slots__ = ()

    def __new__(cls, instances, length: int, order: str = "round_robin") -> Stream:
        instances = tuple(instances)
        n = len(instances)
        if not n:
            raise InvalidParameterError("a stream needs at least one instance")
        if len({*map(id, instances)}) < n:
            raise InvalidParameterError("a stream lists an instance twice")
        if not (_is_num(length, int) and length >= 0) or order not in ARRIVAL_ORDERS:
            raise InvalidParameterError(
                f"a stream needs an int length >= 0 and an order in {ARRIVAL_ORDERS}")
        return super().__new__(cls, instances, length, order)

    @classmethod
    def _make(cls, fields) -> Stream:
        return cls(*fields)  # _replace builds through here, so it is checked too

    @property
    def per(self) -> int:
        """The slots of one turn."""
        return max(1, -(-self.length // len(self.instances))) if self.order == "sequential" else 1

    def owner(self, slot: int) -> Strategy | None:
        """The instance slot belongs to; None past the stream's end."""
        if slot >= self.length:
            return None
        return self.instances[(slot // self.per) % len(self.instances)]

    def runs(self, start: int, stop: int):
        """(instance, range of its slots) for the slots in [start, stop), in the
        order of their first slots: step n in round robin, one turn in sequence."""
        n, per = len(self.instances), self.per
        if per == 1:
            for slot in range(start, min(stop, start + n)):
                yield self.instances[slot % n], range(slot, stop, n)
        else:
            for turn in range(start // per, (stop - 1) // per + 1):
                yield self.instances[turn], range(max(start, turn * per),
                                                  min(stop, turn * per + per))


def drive_session(session, stream: Stream, slot: int = 0) -> int:
    """Book the potential arrivals of stream from slot on until the session
    fills or the stream ends; return the next slot (no slot past the arrival
    that fills the session is taken).

    The slots are taken in chunks [slot, stop) that fit the session and the
    pending block even if every slot trades, so a chunk fills neither before
    its end.  At a chunk's start each blind strategy (reads_state False) is
    asked once, through step_strategy with n, for all n of its slots there
    (Stream.runs), with the session's quote (MarketSession.quote, a
    StrategyContext); its answers are written as a tape in place in the
    pending rows, with state readers' slots left as holes (_ask_blind).  The
    chunk's readers are then asked in slot order: the traded tape rows of
    the gap before a reader move down to the pending count, and the reader
    is asked through decide after MarketSession.preview publishes the state
    after every pending bundle; its bundle joins the block too.  The block
    is booked with one MarketSession.step when it holds BLOCK_CAP arrivals
    or BLOCK_FLOATS bundle entries, when it fills the session, and at the
    end, each only at a chunk's end; as a block books the bits of its
    bundles booked one at a time, and the step checks every preview against
    its own chain, neither a reader's look nor its trade needs a step of its
    own.  A reader makes at most one kernel pass, its preview's.  A bundle
    check_bundle rejects, or a blind answer without one entry per slot,
    raises StrategyBugError naming its strategy's kind; a slot that is not
    an int >= 0 (a bool is none) is an InvalidParameterError.
    """
    if not (_is_num(slot, int) and slot >= 0):
        raise InvalidParameterError(f"slot must be an int >= 0, not {slot!r}")
    d, T = session.params.d, session.params.T
    cap = max(1, min(BLOCK_CAP, BLOCK_FLOATS // d))
    pending, k = np.empty((cap, d)), 0  # rows [0, k) wait to be booked
    slots = np.empty(cap, dtype=np.intp)  # the stream slot of each pending row
    while slot < stream.length and session.arrivals + k < T:
        stop = min(stream.length, slot + min(T - session.arrivals, cap) - k)
        kept, looks = _ask_blind(stream, slot, stop, session.quote, pending[k : k + stop - slot])
        slots[k : k + stop - slot] = np.arange(slot, stop)
        first, tape = slot, k  # slot s's tape row is tape + s - first
        for look, strat in (*looks, (stop, None)):
            # the gap [slot, look) of blind slots: the rows that traded move down to row k
            gap = slice(tape + slot - first, tape + look - first)
            if kept is not None:
                rows = np.flatnonzero(kept[slot - first : look - first]) + gap.start
                n = len(rows)
                pending[k : k + n], slots[k : k + n] = pending[rows], slots[rows]
            else:
                n = look - slot
                if gap.start != k:  # a row has shifted
                    pending[k : k + n], slots[k : k + n] = pending[gap], slots[gap]
            k += n
            if strat is None:
                break
            slot = look + 1
            _blamed(stream, slots, session.preview, pending, k)
            dq = step_strategy(strat, session.quote)
            if dq is not None:
                one = isinstance(dq, np.ndarray) and dq.shape == (d,) and dq.dtype == np.float64
                try:  # one float64 (d,) as it is (previews and steps check it), else a list of one bundle
                    pending[k] = dq if one else check_bundle([dq], d)[0]
                except TradeRejectedError as exc:
                    raise StrategyBugError(f"{strat.kind} returned a bad bundle: {exc}") from exc
                slots[k] = look
                k += 1
        slot = stop
        if k == cap:
            _blamed(stream, slots, session.step, pending)
            k = 0
    if k:
        _blamed(stream, slots, session.step, pending[:k])
    return slot


def _ask_blind(stream: Stream, start: int, stop: int, ctx: StrategyContext, tape: np.ndarray):
    """Ask each blind strategy of the slots [start, stop) once for its slots
    there, writing slot s's bundle to tape row s - start; return the traded
    mask of the tape, None unless a list answer abstains, and the state
    readers' (slot, instance) pairs in slot order.
    A float64 (m, d) answer is written as it is (the preview or step that
    reaches its rows checks them); any other ndarray answer, or the bundles
    of a list answer, go through one check_bundle call."""
    d, kept, looks = tape.shape[1], None, []
    for strat, index in stream.runs(start, stop):
        if strat.reads_state:
            looks += zip(index, itertools.repeat(strat))
            continue
        m, at = len(index), slice(index.start - start, index.stop - start, index.step)
        decisions = step_strategy(strat, ctx, m)
        try:
            if isinstance(decisions, np.ndarray) and decisions.shape == (m, d):
                tape[at] = decisions if decisions.dtype == np.float64 else check_bundle(decisions, d)
            elif len(decisions) == m:
                traded = np.fromiter(map(operator.is_not, decisions, itertools.repeat(None)), bool, m)
                bundles = list(itertools.compress(decisions, traded))
                if bundles:
                    tape[at][traded] = check_bundle(bundles, d)
                if len(bundles) < m:
                    kept = np.ones(len(tape), dtype=bool) if kept is None else kept
                    kept[at] = traded
            else:
                raise ValueError(f"{m} decisions expected")
        except (TypeError, ValueError) as exc:
            raise StrategyBugError(f"{strat.kind} returned a bad bundle: {exc}") from exc
    looks.sort()  # slots are distinct, so no two instances are compared
    return kept, looks


def _blamed(stream: Stream, slots, call, *args) -> None:
    """call(*args), a preview or step of pending rows, row i being the bundle of
    stream slot slots[i]; a rejected row is a StrategyBugError naming its
    strategy's kind."""
    try:
        call(*args)
    except TradeRejectedError as exc:
        kind = stream.owner(int(slots[exc.row])).kind
        raise StrategyBugError(f"{kind} returned a bad bundle: {exc}") from exc
