"""Independent oracles the tests check the package against.

Slow reference routes (a grid-search price solve, finite-difference price
sensitivity, brute-force participation counts, bundle path sums) that no
simulation path uses, and the per-state engine the batched cost kernel
replaced: a scalar log-sum-exp and softmax, the sequential best-response
search and a step that costs one state per call, with its own per-bundle
bookkeeping.  The batched kernel uses the same arithmetic, so the tests
compare against these with ==.
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
    s_flip,
    sample_bundle,
)
from privmarket.traders import _best_scale


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

    def __init__(self, params: MarketParams, rng: np.random.Generator):
        self.params = params
        self.cost = ScaledCost(d=params.d, lam=params.lam)
        self.rng = rng
        self.scale = noise_scale(params.T, params.epsilon)
        self.q_init = np.zeros(params.d)
        self.q_true = np.zeros(params.d)
        self.q_hat = np.zeros(params.d)
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

    Exactly #{t in [t_prime, T] : s(t) < t_prime <= t}.  The worst case is
    floor(log2 T) + 1, attained at t_prime = 1 when T is a power of two;
    this exceeds ceil(log2 T) there, which is why the privacy audit reports
    exact counts rather than asserting the smaller cap.
    """
    if not (1 <= t_prime <= T):
        raise InvalidParameterError("need 1 <= t_prime <= T")
    count = 0
    for t in range(t_prime, T + 1):
        if s_flip(t) < t_prime:
            count += 1
    return count


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
        u = s_flip(u)
    if total is None:
        raise InvalidParameterError("t = 0 has no bundles on its path")
    return total
