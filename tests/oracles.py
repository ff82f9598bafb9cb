"""Independent oracles the tests check the package against.

Slow reference routes (a grid-search price solve, finite-difference price
sensitivity, brute-force participation counts and the per-t loop that
tabulated them, the audit's replay of every partial sum, bundle path sums)
that no simulation path uses, and the per-state engine the batched cost
kernel replaced: a scalar log-sum-exp and softmax, the sequential
best-response search and a step that costs one state per call, with its
own per-bundle bookkeeping, and a whole trial run one slot at a time on
it.  The batched kernel uses the same arithmetic, so the tests compare
against these with ==.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from privmarket import (
    InvalidParameterError,
    InvalidStateError,
    Ledger,
    MarketParams,
    ScaledCost,
    StrategyContext,
    noise_scale,
    sample_bundle,
)
from privmarket import harness
from privmarket.harness import RunConfig, TrialMetrics
from privmarket.traders import _best_scale, make_strategy


def _logsumexp(x: np.ndarray) -> float:
    # max-shift keeps exp() in range for share vectors up to ~1e6
    m = float(np.max(x))
    if not np.isfinite(m):
        raise InvalidParameterError("share vector contains non-finite entries")
    return m + float(np.log(np.sum(np.exp(x - m))))


def _softmax(x: np.ndarray) -> np.ndarray:
    m = np.max(x)
    e = np.exp(x - m)
    return e / np.sum(e)


def reference_cost(cost: ScaledCost, q: np.ndarray) -> float:
    """C(q) of one state by the scalar log-sum-exp."""
    return _logsumexp(cost.lam * np.asarray(q, dtype=float)) / cost.lam


def reference_prices(cost: ScaledCost, q: np.ndarray) -> np.ndarray:
    """Prices of one state by the scalar softmax."""
    return _softmax(cost.lam * np.asarray(q, dtype=float))


def reference_maximize_profit(
    ctx: StrategyContext, belief: np.ndarray
) -> tuple[np.ndarray, float]:
    """maximize_profit with one scalar cost pair per candidate trade."""

    def profit_of(dq):
        return float(dq @ belief) - (
            reference_cost(ctx.cost, ctx.q_hat + dq) - reference_cost(ctx.cost, ctx.q_hat)
        )

    d = ctx.cost.d
    best_j, best_sign, best_profit = 0, 1.0, -math.inf
    for j in range(d):
        for sign in (1.0, -1.0):
            dq = np.zeros(d)
            dq[j] = sign
            profit = profit_of(dq)
            if profit > best_profit + 1e-15:
                best_j, best_sign, best_profit = j, sign, profit
    dq = np.zeros(d)
    dq[best_j] = best_sign
    s = _best_scale(ctx, belief, best_j, best_sign)
    if 0.0 < s < 1.0:
        frac = np.zeros(d)
        frac[best_j] = best_sign * s
        frac_profit = profit_of(frac)
        if frac_profit > best_profit:
            return frac, frac_profit
    return dq, best_profit


@dataclass
class ReferenceBundle:
    """One noise purchase and its cash flows, as ReferenceSession books them."""

    time: int
    value: np.ndarray
    buy_cost: float
    sold_at: int | None = None
    revenue: float | None = None


class ReferenceSession:
    """The per-state step engine: one scalar cost call per state.

    It keeps the same cash totals and gaps as MarketSession and draws each
    buy after booking the sells, so agreement also shows that drawing the
    bundle first leaves the noise stream unchanged.  Its noise bookkeeping is
    its own: step t sells the bundles bought at t - 1, t - 2, t - 4, ... for
    each trailing zero bit of t, looked up by time, and every bundle ever
    bought stays in ``bundles`` with its buy cost, sale time and revenue.
    It runs no checks; it is a reference for the numbers.
    """

    def __init__(self, params: MarketParams, rng: np.random.Generator,
                 initial_shares: np.ndarray | None = None):
        self.params = params
        self.cost = ScaledCost(d=params.d, lam=params.lam)
        self.rng = rng
        self.scale = noise_scale(params.T, params.epsilon)
        q0 = np.zeros(params.d) if initial_shares is None else np.array(initial_shares, dtype=float)
        self.q_init = q0.copy()
        self.q_true = q0.copy()
        self.q_hat = q0.copy()
        self.p_hat = reference_prices(self.cost, self.q_hat)
        self.c_hat = reference_cost(self.cost, self.q_hat)
        self.bundles: dict[int, ReferenceBundle] = {}  # every bundle bought, by time
        self.held: dict[int, ReferenceBundle] = {}  # still owned, oldest first
        self.arrivals = 0
        self.trade_payments = self.fee_total = 0.0
        self.noise_buy_total = self.noise_sell_total = 0.0
        self.max_price_gap = self.max_share_gap = self.bundle_l2_total = 0.0

    def _sell(self, time, state, c_state):
        bundle = self.held.pop(time)
        state = state - bundle.value
        c_next = reference_cost(self.cost, state)
        bundle.sold_at = self.arrivals
        bundle.revenue = c_state - c_next
        self.noise_sell_total += bundle.revenue
        return state, c_next

    def step(self, dq: np.ndarray) -> None:
        t = self.arrivals = self.arrivals + 1
        self.fee_total += self.params.fee
        state = self.q_hat + dq
        c_state = reference_cost(self.cost, state)
        self.trade_payments += c_state - self.c_hat
        self.q_true = self.q_true + dq
        gap = 1
        while not t & gap:  # one sale per trailing zero bit of t
            state, c_state = self._sell(t - gap, state, c_state)
            gap <<= 1
        d = self.params.d
        value = np.zeros(d) if self.params.noise_off else sample_bundle(d, self.scale, self.rng)
        state = state + value
        c_next = reference_cost(self.cost, state)
        bundle = ReferenceBundle(time=t, value=value, buy_cost=c_next - c_state)
        self.bundles[t] = self.held[t] = bundle
        self.noise_buy_total += bundle.buy_cost
        self.bundle_l2_total += float(np.linalg.norm(value))
        self.q_hat = state
        self.p_hat = reference_prices(self.cost, state)
        self.c_hat = c_next
        price_gap = float(np.sum(np.abs(reference_prices(self.cost, self.q_true) - self.p_hat)))
        self.max_price_gap = max(self.max_price_gap, price_gap)
        self.max_share_gap = max(self.max_share_gap, float(np.sum(np.abs(self.q_true - state))))

    def close(self, outcome: int) -> Ledger:
        state, c_state = self.q_hat, self.c_hat
        for time in sorted(self.held, reverse=True):
            state, c_state = self._sell(time, state, c_state)
        self.q_hat, self.c_hat = state, c_state
        payouts = float(self.q_true[outcome] - self.q_init[outcome])
        mm_loss = payouts - (
            reference_cost(self.cost, self.q_true) - reference_cost(self.cost, self.q_init)
        )
        ntl = self.noise_buy_total - self.noise_sell_total
        return Ledger(
            mm_loss=mm_loss,
            ntl=ntl,
            fees=self.fee_total,
            designer_loss=mm_loss + ntl - self.fee_total,
            payouts=payouts,
            trade_payments=self.trade_payments,
            arrivals=self.arrivals,
        )


SESSION_FIELDS = ("q_hat", "p_hat", "c_hat", "q_true", "trade_payments", "fee_total",
                  "noise_buy_total", "noise_sell_total", "bundle_l2_total",
                  "max_price_gap", "max_share_gap", "arrivals")
"""The MarketSession state a ReferenceSession keeps too."""


def assert_same_session(session, reference: ReferenceSession) -> None:
    """session's SESSION_FIELDS and held (time, value) pairs, oldest first, == reference's."""
    for name in SESSION_FIELDS:
        assert np.array_equal(getattr(session, name), getattr(reference, name)), name
    assert [time for time, _ in session.noise.held] == list(reference.held)
    for (_, ours), theirs in zip(session.noise.held, reference.held.values()):
        assert np.array_equal(ours, theirs.value)


def reference_trial(config: RunConfig, seed: int) -> TrialMetrics:
    """run_trial written out again: each slot decided alone and booked on a
    ReferenceSession per market.

    Seeds: SeedSequence(seed) spawns one child per roster instance plus
    one; child 0 draws the noise of every market in turn and child 1 + i
    drives instance i.  The stream has stream_length slots, or the markets'
    total T: round_robin cycles the instances, sequential gives each
    ceil(length / instances) turns in roster order.  Each slot's strategy
    decides on the state published before it.  A full market hands its last
    prices to the next, which opens at their inverse clamped at
    alpha / (4 d); the market the stream leaves short is the last, and no
    market opens once the stream is empty.
    """
    markets = config.markets()
    roster = [entry for entry in config.traders for _ in range(entry.count)]
    children = np.random.SeedSequence(seed).spawn(1 + len(roster))
    noise_rng = np.random.default_rng(children[0])
    instances = [make_strategy(entry.kind, entry.args, np.random.default_rng(child))
                 for entry, child in zip(roster, children[1:])]
    length = config.stream_length or sum(params.T for params in markets)
    if config.arrival_order == "sequential":
        turns = math.ceil(length / len(instances))
        stream = [strat for strat in instances for _ in range(turns)][:length]
    else:
        stream = [instances[i % len(instances)] for i in range(length)]

    sessions: list[ReferenceSession] = []
    shares, slot = None, 0
    for params, nxt in zip(markets, markets[1:] + (None,)):
        session = ReferenceSession(params, noise_rng, initial_shares=shares)
        sessions.append(session)
        while session.arrivals < params.T and slot < length:
            ctx = StrategyContext(t=session.arrivals + 1, q_hat=session.q_hat,
                                  p_hat=session.p_hat, fee=params.fee, cost=session.cost)
            dq = stream[slot].decide(ctx)
            slot += 1
            if dq is not None:
                session.step(np.asarray(dq, dtype=float))
        if session.arrivals < params.T or slot == length or nxt is None:
            break
        eta = nxt.alpha / (4.0 * nxt.d)
        clamped = np.maximum(session.p_hat, eta)
        logp = np.log(clamped / np.sum(clamped))
        shares = (logp - logp[-1]) / nxt.lam

    ledgers = [session.close(config.outcome) for session in sessions]
    total = {name: sum(getattr(ledger, name) for ledger in ledgers)
             for name in ("arrivals", "designer_loss", "mm_loss", "ntl", "fees")}
    norms = [s.bundle_l2_total / s.arrivals for s in sessions if s.arrivals]
    return TrialMetrics(
        seed=seed,
        stages_completed=sum(s.arrivals == s.params.T for s in sessions),
        max_price_gap=max(s.max_price_gap for s in sessions),
        max_share_gap=max(s.max_share_gap for s in sessions),
        mean_bundle_l2=float(np.mean(norms)) if norms else 0.0,
        **total,
    )


@dataclass(frozen=True)
class SensitivityEstimate:
    """Empirical price-sensitivity measurements under both norms.

    The accuracy analysis leans on the l1 -> l1 constant while the
    noise-loss analysis implicitly uses l2 -> l2; both are recorded so the
    mismatch stays visible instead of being silently resolved.
    """

    l1: float
    l2: float


def numeric_sensitivity(
    cost: ScaledCost, samples: int = 1000, seed: int = 0
) -> SensitivityEstimate:
    """Estimate the price Lipschitz constant by finite differences.

    l1: max over sampled states q and unit-l1 perturbations u of
    ||prices(q+u) - prices(q)||_1.  l2 is the analogue on the l2 sphere.
    Both must come out <= lam for a correct implementation.
    """
    if samples < 1:
        raise InvalidParameterError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    d = cost.d
    worst_l1 = 0.0
    worst_l2 = 0.0
    for i in range(samples):
        q = rng.normal(0.0, 2.0 / cost.lam, size=d)
        if i % 2 == 0:
            # pure coordinate moves are the extreme points of the l1 ball
            u1 = np.zeros(d)
            u1[rng.integers(d)] = rng.choice([-1.0, 1.0])
        else:
            u1 = rng.normal(size=d)
            u1 /= np.sum(np.abs(u1))
        gap1 = float(np.sum(np.abs(cost.prices(q + u1) - cost.prices(q))))
        worst_l1 = max(worst_l1, gap1)
        u2 = rng.normal(size=d)
        u2 /= float(np.linalg.norm(u2))
        gap2 = float(np.linalg.norm(cost.prices(q + u2) - cost.prices(q)))
        worst_l2 = max(worst_l2, gap2)
    return SensitivityEstimate(l1=worst_l1, l2=worst_l2)


def ftrl_price(cost: ScaledCost, q: np.ndarray, resolution: int = 33) -> np.ndarray:
    """Price vector computed by a follow-the-regularized-leader solve.

    Maximizes <w, q> - (1/lam) * sum_j w_j ln w_j over the probability
    simplex by shrinking grid search (no gradient information), providing a
    route to the prices that is independent of the softmax formula.  Grid
    search over the free coordinates is exponential in d, so this is a
    verification device for small d, not a pricing path.
    """
    if resolution < 3:
        raise InvalidParameterError("resolution must be >= 3")
    q = np.asarray(q, dtype=float)
    if q.shape != (cost.d,):
        raise InvalidParameterError(f"share vector must have shape ({cost.d},)")
    d = cost.d
    if d == 1:
        return np.array([1.0])
    inv_lam = 1.0 / cost.lam

    def objective(w: np.ndarray) -> np.ndarray:
        # rows of w on the simplex; 0*ln 0 treated as 0
        wl = np.where(w > 0.0, w * np.log(np.maximum(w, 1e-300)), 0.0)
        return w @ q - inv_lam * np.sum(wl, axis=1)

    # search over the first d-1 coordinates, last = 1 - sum
    center = np.full(d - 1, 1.0 / d)
    radius = 1.0
    best = None
    for _ in range(60):
        axes = [
            np.linspace(c - radius, c + radius, resolution) for c in center
        ]
        mesh = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d - 1)
        last = 1.0 - np.sum(mesh, axis=1)
        ok = np.all(mesh >= 0.0, axis=1) & (last >= 0.0)
        if not np.any(ok):
            radius *= 1.5
            continue
        pts = np.concatenate([mesh[ok], last[ok, None]], axis=1)
        vals = objective(pts)
        i = int(np.argmax(vals))
        best = pts[i]
        center = best[:-1]
        radius *= 0.4
        if radius < 1e-12:
            break
    return np.asarray(best)


def participation_count(t_prime: int, T: int) -> int:
    """Number of bundles whose trade-partial-sum covers arrival t_prime.

    Exactly #{t in [t_prime, T] : s(t) < t_prime <= t}, s(t) = t & (t - 1)
    being t with its lowest set bit cleared.  The worst case,
    floor(log2 T) + 1 = T.bit_length(), is attained at t_prime = 1 at every
    T (every power of two up to T covers it); it exceeds ceil(log2 T)
    exactly when T is a power of two.
    """
    if not (1 <= t_prime <= T):
        raise InvalidParameterError("need 1 <= t_prime <= T")
    count = 0
    for t in range(t_prime, T + 1):
        if t & (t - 1) < t_prime:
            count += 1
    return count


def reference_participation_table(T: int) -> np.ndarray:
    """participation_count for every t_prime in 1..T (index 0 = t'=1), from a
    difference array filled one t at a time: t covers (s(t), t]."""
    diff = np.zeros(T + 2, dtype=np.int64)
    for t in range(1, T + 1):
        diff[(t & (t - 1)) + 1] += 1
        diff[t + 1] -= 1
    return np.cumsum(diff)[1 : T + 1]


def reference_sensitivity(T: int, d: int, n_pairs: int, seed: int) -> float:
    """privacy_audit's sensitivity_max from every partial sum of both runs.

    Draws what privacy_audit draws, chunk by chunk (harness.AUDIT_ENTRIES
    read per call), normalises every row, replaces each pair's slot row and
    compares all T partial sums over (s(t), t] of the two sequences.
    """
    rng = np.random.default_rng(seed)

    def trade_batch(n: int) -> np.ndarray:
        raw = rng.normal(size=(n, T, d))
        norms = np.sum(np.abs(raw), axis=2, keepdims=True)
        scale = rng.random((n, T, 1))
        return raw / np.maximum(norms, 1e-12) * scale

    ts = np.arange(1, T + 1)
    ss = ts & (ts - 1)
    worst = 0.0
    chunk = min(n_pairs, harness.AUDIT_ENTRIES // (T * d))
    done = 0
    while done < n_pairs:
        n = min(chunk, n_pairs - done)
        seqs = trade_batch(n)
        alts = trade_batch(n)
        idx = rng.integers(T, size=n)
        neighbors = seqs.copy()
        neighbors[np.arange(n), idx, :] = alts[np.arange(n), idx, :]
        # block sum over (s(t), t] = prefix[t] - prefix[s(t)]; diff the two runs
        diff = np.cumsum(neighbors - seqs, axis=1)
        prefix = np.concatenate([np.zeros((n, 1, d)), diff], axis=1)
        changes = np.sum(np.abs(prefix[:, ts, :] - prefix[:, ss, :]), axis=2)
        worst = max(worst, float(np.max(changes)))
        done += n
    return worst


def fresh_draw_sensitivity(T: int, d: int, n_pairs: int, seed: int) -> float:
    """privacy_audit's sensitivity_max with fresh arrays drawn for every chunk.

    The audit fills two reused buffers per chunk; this draws each chunk's
    two (n, T, d) normal and two (n, T, 1) uniform batches anew, in the
    same call order, and normalises only each pair's slot row.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    chunk = min(n_pairs, harness.AUDIT_ENTRIES // (T * d))
    done = 0
    while done < n_pairs:
        n = min(chunk, n_pairs - done)
        draws = [(rng.normal(size=(n, T, d)), rng.random((n, T, 1))) for _ in range(2)]
        at = np.arange(n), rng.integers(T, size=n)
        seq, alt = (raw[at] / np.maximum(np.sum(np.abs(raw[at]), axis=1, keepdims=True), 1e-12)
                    * scale[at] for raw, scale in draws)
        worst = max(worst, float(np.max(np.sum(np.abs(alt - seq), axis=1))))
        done += n
    return worst


def low_bit(t: int) -> int:
    """Value of the lowest set bit of t (t >= 1): low_bit(12) == 4."""
    if t < 1:
        raise InvalidParameterError("t must be >= 1")
    return t & -t


def bundle_gap_total(T_prime: int, include_final: bool = True) -> int:
    """Exact sum of low_bit(t) for t = 1..T_prime (optionally excluding t = T').

    For T' a power of two the t < T' portion equals (T'/2) * log2 T', the
    per-bundle tally behind the noise-loss bound; the final bundle adds T'
    more but is sold straight back at close with no arrivals in between.
    """
    if T_prime < 1:
        raise InvalidParameterError("T_prime must be >= 1")
    stop = T_prime if include_final else T_prime - 1
    return sum(low_bit(t) for t in range(1, stop + 1))


def noise_path_sum(t: int, bundles: dict[int, np.ndarray]) -> np.ndarray:
    """Sum of bundle values along the path {t, s(t), s(s(t)), ...}.

    Equivalent to the held-bundle sum of a ledger driven to step t; raises
    if a required bundle is missing.
    """
    if t < 0:
        raise InvalidParameterError("t must be >= 0")
    total = None
    u = t
    while u > 0:
        if u not in bundles:
            raise InvalidStateError(f"missing bundle for time {u}")
        v = np.asarray(bundles[u], dtype=float)
        total = v.copy() if total is None else total + v
        u &= u - 1
    if total is None:
        raise InvalidParameterError("t = 0 has no bundles on its path")
    return total
