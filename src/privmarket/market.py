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

from .cost import ScaledCost
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
    size = float(np.abs(dq).sum())
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

    def _sell_chain(self, chain: np.ndarray, n_sells: int) -> None:
        """Fill chain[1 : n_sells + 1]: chain[0] minus the top held bundles, one at a time."""
        held = self.noise.held
        for i in range(n_sells):
            np.subtract(chain[i], held[-1 - i].value, out=chain[i + 1])

    def _book_sells(self, c_start: float, costs: list[float], sold_at: int) -> float:
        """Book the sale of the top len(costs) held bundles, most recent first.

        Sale k moves the state from cost costs[k - 1] (c_start for the first)
        to costs[k]; its revenue is the drop.  Returns the total revenue.
        """
        sold = 0.0
        for c_next in costs:
            revenue = c_start - c_next
            self.noise.mark_sold(self.noise.held[-1].time, sold_at=sold_at, revenue=revenue)
            self.noise_sell_total += revenue
            sold += revenue
            c_start = c_next
        return sold

    def step(self, dq: np.ndarray) -> None:
        """Process one arrival: fee, trade, then scheduled noise turnover.

        The states the arrival passes through (after the trade, after each
        scheduled sell, after the fresh buy) are built in order and costed
        in one block call: one cost per intermediate state, never
        telescoped, because the noise cash is a small difference of large
        costs.
        """
        if self.closed:
            raise MarketClosedError("session is closed")
        if self.is_full:
            raise MarketClosedError(f"session already has {self.params.T} arrivals")
        dq = check_bundle(dq, self.params.d)

        event = self.noise.begin_step()
        z = self.noise.draw(self.rng)
        n_sells = len(event.sells)
        # rows: after the trade, after each sell, after the buy, the true state
        chain = np.empty((n_sells + 3, self.params.d))
        np.add(self.q_hat, dq, out=chain[0])
        self._sell_chain(chain, n_sells)
        state, q_true = chain[n_sells + 1], chain[n_sells + 2]
        np.add(chain[n_sells], z, out=state)
        np.add(self.q_true, dq, out=q_true)
        costs = self.cost.cost(chain[:-1]).tolist()
        p_hat, p_true = self.cost.prices(chain[-2:])

        self.fee_total += self.params.fee
        self.trade_payments += costs[0] - self.c_hat
        self.q_true = q_true
        self._book_sells(costs[0], costs[1:-1], event.buy)
        bundle = self.noise.new_bundle(z)
        bundle.buy_cost = costs[-1] - costs[-2]
        self.noise_buy_total += bundle.buy_cost
        self.bundle_l2_total += math.sqrt(z.dot(z))  # np.linalg.norm's own formula

        self.q_hat = _published(state)
        self.p_hat = _published(p_hat)
        self.c_hat = costs[-1]
        self.arrivals += 1
        self.noise.verify_held()
        drift = state - q_true - self.noise.held_sum()
        if float(np.abs(drift).max()) > 1e-6:
            raise InvalidStateError("published state lost sync with held noise")

        price_gap = float(np.abs(p_true - p_hat).sum())
        self.max_price_gap = max(self.max_price_gap, price_gap)
        self.max_share_gap = max(self.max_share_gap, float(np.abs(q_true - state).sum()))

    def sell_back_noise(self) -> None:
        """Unwind all held bundles, most recent first, checking the batch total."""
        n_sells = len(self.noise.held)
        # rows: q_hat, after each sell, then q_hat minus the held sum in one move
        chain = np.empty((n_sells + 2, self.params.d))
        chain[0] = self.q_hat
        self._sell_chain(chain, n_sells)
        np.subtract(self.q_hat, self.noise.held_sum(), out=chain[-1])
        *sell_costs, batch_cost = self.cost.cost(chain[1:]).tolist()
        batch = self.c_hat - batch_cost
        sold = self._book_sells(self.c_hat, sell_costs, self.noise.t)
        self.q_hat = _published(chain[n_sells])
        if sell_costs:
            self.c_hat = sell_costs[-1]
        if abs(sold - batch) > CASH_TOL * max(1.0, abs(batch)):
            raise InvalidStateError(
                f"sequential sell-back {sold!r} disagrees with batch total {batch!r}"
            )

    def close(self, outcome: int) -> Ledger:
        """Sell back remaining noise, pay every arrival, and return the ledger.

        Security j pays 1 exactly when outcome j occurs.  p_hat is left as
        the last published prices, which a following stage opens at.
        """
        if self.closed:
            raise InvalidStateError("session is already closed")
        if not 0 <= outcome < self.params.d:
            raise InvalidParameterError(f"unknown outcome {outcome!r}")
        self.sell_back_noise()
        payouts = float(self.q_true[outcome] - self.q_init[outcome])
        c_true, c_init = self.cost.cost(np.stack((self.q_true, self.q_init))).tolist()
        mm_loss = payouts - (c_true - c_init)
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
) -> MarketSession:
    """Create a session; nonzero initial_shares support stage handoff."""
    if rng is None or isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    return MarketSession(params, rng, initial_shares=initial_shares)
