"""Transaction-fee market with a noise trader hiding the share state.

One session runs at most T arrivals.  Each arrival pays a flat fee plus the
cost-function price of its bundle against the published (noisy) state; the
noise trader then turns over bundles per the binary-counter schedule.  At
close the noise trader sells everything back and each arrival is paid its
bundle's value under the realized outcome.  The ledger decomposes the
designer's loss as

    designer_loss = mm_loss + ntl - fees

where mm_loss is the loss of a standard (noiseless-path) market maker on
the true trade sequence, ntl is the noise trader's net loss, and fees is
the fee revenue.  This equals the physical loss (payouts minus trade
payments minus fees) up to float rounding because trade and noise payments
jointly telescope to C(true final state) - C(initial state).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cost import OutcomeModel, ScaledCost
from .errors import (
    InvalidParameterError,
    InvalidStateError,
    MarketClosedError,
    TradeRejectedError,
)
from .noise import NoiseLedger, noise_scale, tree_depth

TRADE_SIZE_TOL = 1e-9
CASH_TOL = 1e-9


def lambda_star(T: int, alpha: float, gamma: float, epsilon: float, d: int) -> float:
    """Largest price sensitivity meeting the (alpha, gamma)-accuracy target.

    alpha * epsilon / (4 * sqrt(2) * d * ceil(log2 T) * ln(2 T d / gamma)).
    """
    if T < 2:
        raise InvalidParameterError("T must be >= 2")
    if d < 1:
        raise InvalidParameterError("d must be >= 1")
    if not (0.0 < alpha < 1.0) or not (0.0 < gamma < 1.0):
        raise InvalidParameterError("alpha and gamma must lie in (0, 1)")
    if epsilon <= 0.0:
        raise InvalidParameterError("epsilon must be positive")
    depth = tree_depth(T)
    return (alpha * epsilon) / (
        4.0 * math.sqrt(2.0) * d * depth * math.log(2.0 * T * d / gamma)
    )


def noise_scale_K(T: int, epsilon: float, d: int) -> float:
    """Bound 2 * sqrt(2d) * ceil(log2 T) / epsilon on the mean bundle l2 norm."""
    if T < 1 or d < 1:
        raise InvalidParameterError("T and d must be >= 1")
    if epsilon <= 0.0:
        raise InvalidParameterError("epsilon must be positive")
    return 2.0 * math.sqrt(2.0 * d) * tree_depth(T) / epsilon


@dataclass(frozen=True)
class LossBounds:
    """Pre-run loss bounds and the fee-sufficiency report."""

    ntl_bound: float  # (T' log2 T' / 2) * lam * K
    wc_bound: float  # B1/lam + T' (K log2 T' lam - c)
    fee_threshold: float  # largest lam the fee provably covers: c / (K log2 T')
    fee_sufficient: bool


def loss_bounds(
    lam: float, T_prime: int, K: float, fee: float, B1: float
) -> LossBounds:
    """Noise-trader and designer worst-case loss bounds for a finished run.

    The fee is sufficient to retire the noise-loss term when
    lam <= fee / (K * log2 T'), the "it suffices to pick" condition.
    """
    if T_prime < 1:
        raise InvalidParameterError("T_prime must be >= 1")
    if lam <= 0.0 or K < 0.0 or fee < 0.0 or B1 < 0.0:
        raise InvalidParameterError("lam must be positive; K, fee, B1 nonnegative")
    log_t = math.log2(T_prime) if T_prime > 1 else 0.0
    ntl_bound = (T_prime * log_t / 2.0) * lam * K
    wc_bound = B1 / lam + T_prime * (K * log_t * lam - fee)
    threshold = math.inf if K * log_t == 0.0 else fee / (K * log_t)
    return LossBounds(
        ntl_bound=ntl_bound,
        wc_bound=wc_bound,
        fee_threshold=threshold,
        fee_sufficient=lam <= threshold,
    )


@dataclass
class MarketParams:
    """Resolved parameters of one fee-market session.

    fee defaults to alpha and lam to lambda_star(T, alpha, gamma, epsilon, d).
    Raising lam above lambda_star voids the accuracy guarantee and is only
    allowed with allow_unsafe_lambda (used by tightness experiments).
    """

    d: int
    epsilon: float
    alpha: float
    gamma: float
    T: int
    fee: float | None = None
    lam: float | None = None
    noise_off: bool = False
    allow_unsafe_lambda: bool = False

    def __post_init__(self) -> None:
        self.lam_star = lambda_star(self.T, self.alpha, self.gamma, self.epsilon, self.d)
        if self.fee is None:
            self.fee = self.alpha
        if self.fee < 0.0:
            raise InvalidParameterError("fee must be nonnegative")
        if self.lam is None:
            self.lam = self.lam_star
        if not (0.0 < self.lam <= 1.0):
            raise InvalidParameterError("lam must lie in (0, 1]")
        if self.lam > self.lam_star and not self.allow_unsafe_lambda:
            raise InvalidParameterError(
                f"lam {self.lam:.3e} exceeds lambda_star {self.lam_star:.3e}; "
                "pass allow_unsafe_lambda=True to run anyway"
            )

    @property
    def B1(self) -> float:
        return math.log(self.d)


@dataclass(frozen=True)
class Ledger:
    """Cash decomposition of a closed session."""

    mm_loss: float
    ntl: float
    fees: float
    designer_loss: float
    payouts: float
    trade_payments: float
    arrivals: int

    @classmethod
    def combine(cls, parts: list["Ledger"]) -> "Ledger":
        return cls(
            mm_loss=sum(p.mm_loss for p in parts),
            ntl=sum(p.ntl for p in parts),
            fees=sum(p.fees for p in parts),
            designer_loss=sum(p.designer_loss for p in parts),
            payouts=sum(p.payouts for p in parts),
            trade_payments=sum(p.trade_payments for p in parts),
            arrivals=sum(p.arrivals for p in parts),
        )


def check_bundle(dq, d: int) -> np.ndarray:
    """dq as a float array of shape (d,), finite and of l1 norm at most 1."""
    dq = np.asarray(dq, dtype=float)
    if dq.shape != (d,):
        raise TradeRejectedError(f"bundle must have shape ({d},), got {dq.shape}")
    size = float(np.sum(np.abs(dq)))
    if not size <= 1.0 + TRADE_SIZE_TOL:  # also catches nan and inf
        raise TradeRejectedError(f"bundle l1 norm {size:.6f} exceeds 1")
    return dq


def _published(x: np.ndarray) -> np.ndarray:
    """Freeze an array handed out as published state."""
    x.flags.writeable = False
    return x


class MarketSession:
    """Mutable state of one running market; single-owner, not thread-safe.

    The session keeps only what the ledger and the accuracy metrics need:
    the true and published states, C(q_hat) cached between steps, the held
    noise stack, cash totals, and running gaps.  q_hat and p_hat are the
    latest published state and prices and are read-only.
    """

    def __init__(
        self,
        params: MarketParams,
        rng: np.random.Generator,
        initial_shares: np.ndarray | None = None,
        outcome_model: OutcomeModel | None = None,
    ):
        self.params = params
        self.cost = ScaledCost(d=params.d, lam=params.lam)
        self.rng = rng
        q0 = (
            np.zeros(params.d)
            if initial_shares is None
            else np.asarray(initial_shares, dtype=float).copy()
        )
        if q0.shape != (params.d,):
            raise InvalidParameterError(f"initial shares must have shape ({params.d},)")
        self.outcome_model = outcome_model or OutcomeModel.complete(params.d)
        if self.outcome_model.d != params.d:
            raise InvalidParameterError("outcome model dimension mismatch")
        self.q_init = q0.copy()
        self.q_true = q0.copy()
        self.q_hat = _published(q0.copy())
        self.p_hat = _published(self.cost.prices(q0))
        self.c_hat = self.cost.cost(q0)
        self.noise = NoiseLedger(
            d=params.d,
            scale=noise_scale(params.T, params.epsilon),
            noise_off=params.noise_off,
        )
        self.arrivals = 0
        self.closed = False
        self.trade_payments = 0.0
        self.fee_total = 0.0
        self.noise_buy_total = 0.0
        self.noise_sell_total = 0.0
        self.max_price_gap = 0.0  # max_t ||p^t - p_hat^t||_1
        self.max_share_gap = 0.0  # max_t ||q^t - q_hat^t||_1
        self.bundle_l2_total = 0.0

    @property
    def is_full(self) -> bool:
        return self.arrivals >= self.params.T

    @property
    def mean_bundle_l2(self) -> float:
        """Mean l2 norm of the noise bundles bought so far (one per arrival)."""
        return self.bundle_l2_total / self.arrivals if self.arrivals else 0.0

    def _sell_top(self, state: np.ndarray, c_state: float, sold_at: int):
        """Sell the most recent held bundle at state; return (state, C(state), revenue)."""
        bundle = self.noise.held[-1]
        state = state - bundle.value
        c_next = self.cost.cost(state)
        revenue = c_state - c_next
        self.noise.mark_sold(bundle.time, sold_at=sold_at, revenue=revenue)
        self.noise_sell_total += revenue
        return state, c_next, revenue

    def step(self, dq: np.ndarray) -> None:
        """Process one arrival: fee, trade, then scheduled noise turnover."""
        if self.closed:
            raise MarketClosedError("session is closed")
        if self.is_full:
            raise MarketClosedError(f"session already has {self.params.T} arrivals")
        dq = check_bundle(dq, self.params.d)

        self.fee_total += self.params.fee
        state = self.q_hat + dq
        c_state = self.cost.cost(state)
        self.trade_payments += c_state - self.c_hat
        self.q_true = self.q_true + dq

        # one cost evaluation per intermediate state, never telescoped: the
        # noise cash is a small difference of large costs
        event = self.noise.begin_step()
        for _ in event.sells:
            state, c_state, _ = self._sell_top(state, c_state, event.buy)
        bundle = self.noise.new_bundle(self.rng)
        state = state + bundle.value
        c_next = self.cost.cost(state)
        bundle.buy_cost = c_next - c_state
        self.noise_buy_total += bundle.buy_cost
        self.bundle_l2_total += float(np.linalg.norm(bundle.value))

        self.q_hat = _published(state)
        self.p_hat = _published(self.cost.prices(state))
        self.c_hat = c_next
        self.arrivals += 1
        self.noise.verify_held()
        drift = state - self.q_true - self.noise.held_sum()
        if float(np.max(np.abs(drift))) > 1e-6:
            raise InvalidStateError("published state lost sync with held noise")

        price_gap = float(np.sum(np.abs(self.cost.prices(self.q_true) - self.p_hat)))
        self.max_price_gap = max(self.max_price_gap, price_gap)
        self.max_share_gap = max(self.max_share_gap, float(np.sum(np.abs(self.q_true - state))))

    def sell_back_noise(self) -> None:
        """Unwind all held bundles, most recent first, checking the batch total."""
        held_total = self.noise.held_sum()
        batch = self.c_hat - self.cost.cost(self.q_hat - held_total)
        sold = 0.0
        state, c_state = self.q_hat, self.c_hat
        while self.noise.held:
            state, c_state, revenue = self._sell_top(state, c_state, self.noise.t)
            sold += revenue
        self.q_hat, self.c_hat = _published(state), c_state
        if abs(sold - batch) > CASH_TOL * max(1.0, abs(batch)):
            raise InvalidStateError(
                f"sequential sell-back {sold!r} disagrees with batch total {batch!r}"
            )

    def close(self, outcome: int) -> Ledger:
        """Sell back remaining noise, pay every arrival, and return the ledger."""
        if self.closed:
            raise InvalidStateError("session is already closed")
        self.sell_back_noise()
        payoff = self.outcome_model.payoff(outcome)
        payouts = float((self.q_true - self.q_init) @ payoff)
        mm_loss = payouts - (self.cost.cost(self.q_true) - self.cost.cost(self.q_init))
        ntl = self.noise_buy_total - self.noise_sell_total
        fees = self.fee_total
        self.closed = True
        self.ledger = Ledger(
            mm_loss=mm_loss,
            ntl=ntl,
            fees=fees,
            designer_loss=mm_loss + ntl - fees,
            payouts=payouts,
            trade_payments=self.trade_payments,
            arrivals=self.arrivals,
        )
        return self.ledger


def open_market(
    params: MarketParams,
    rng: np.random.Generator | int | None = None,
    initial_shares: np.ndarray | None = None,
    outcome_model: OutcomeModel | None = None,
) -> MarketSession:
    """Create a session; nonzero initial_shares support stage handoff."""
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    return MarketSession(
        params, rng, initial_shares=initial_shares, outcome_model=outcome_model
    )
