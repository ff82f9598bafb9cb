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

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .cost import ScaledCost
from .errors import (
    InvalidParameterError,
    InvalidStateError,
    MarketClosedError,
    TradeRejectedError,
    check_design,
    check_positive,
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
    check_design(d, alpha, gamma, epsilon)
    depth = tree_depth(T)
    return (alpha * epsilon) / (
        4.0 * math.sqrt(2.0) * d * depth * math.log(2.0 * T * d / gamma)
    )


def noise_scale_K(T: int, epsilon: float, d: int) -> float:
    """Bound 2 * sqrt(2d) * ceil(log2 T) / epsilon on the mean bundle l2 norm."""
    if T < 1 or d < 1:
        raise InvalidParameterError("T and d must be >= 1")
    return 2.0 * math.sqrt(2.0 * d) * tree_depth(T) / check_positive("epsilon", epsilon)


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
    """Noise-trader and designer worst-case loss bounds for a run of T' arrivals.

    The fee is sufficient to retire the noise-loss term when
    lam <= fee / (K * log2 T'), the "it suffices to pick" condition.
    """
    if T_prime < 0:
        raise InvalidParameterError("T_prime must be >= 0")
    check_positive("lam", lam)
    for name, value in (("K", K), ("fee", fee), ("B1", B1)):
        check_positive(name, value, zero_ok=True)
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
        check_positive("fee", self.fee, zero_ok=True)
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
        """Field-by-field sum of the parts."""
        names = [f.name for f in dataclasses.fields(cls)]
        return cls(**{name: sum(getattr(p, name) for p in parts) for name in names})


def check_bundle(dq, d: int) -> np.ndarray:
    """dq as a float block (k, d): one bundle (d,), or k >= 1 bundles as rows.

    Every bundle must be finite with l1 norm at most 1.  A rejection's row
    is the index of the first bad bundle.
    """
    try:
        block = np.asarray(dq, dtype=float)
    except (TypeError, ValueError):  # bundles of different shapes, or not numbers
        block = None
    if block is not None and block.shape == (d,):
        block = block[None]
    if block is None or block.ndim != 2 or block.shape[1] != d or len(block) == 0:
        row = _first_misshapen(dq, d)
        raise TradeRejectedError(f"bundle {row} must have shape ({d},)", row)
    sizes = np.abs(block).dot(np.ones(d)).tolist()
    for row, size in enumerate(sizes):
        if not size <= 1.0 + TRADE_SIZE_TOL:  # also catches nan and inf
            raise TradeRejectedError(f"bundle {row} l1 norm {size:.6f} exceeds 1", row)
    return block


def _first_misshapen(dq, d: int) -> int:
    """Index of the first bundle of a list dq whose shape is not (d,); 0 otherwise."""
    for i, row in enumerate(dq if isinstance(dq, (list, tuple)) else ()):
        try:
            if np.shape(row) != (d,):
                return i
        except ValueError:  # a ragged row
            return i
    return 0


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

    def step(self, dq) -> None:
        """Book one arrival's bundle (d,), or k arrivals' bundles as a block (k, d), in order.

        Each arrival pays the fee and its trade's cost at the published
        state; then step t sells the tz(t) most recent held bundles and buys
        a fresh one.  The states the block passes through (after each trade,
        each sell and each buy), the true states and the held noise are
        built as sequential running sums (np.add.accumulate, as cumsum), and
        one kernel pass costs and prices them: one cost per state, never
        telescoped, because the noise cash is a small difference of large
        costs.  The cash totals take the block's amounts one float addition
        at a time, in arrival order, so a block books bit for bit what its
        bundles book one at a time.  The checks: held == the counter bits
        after the block, and published - true == the held noise after every
        arrival (l1 drift at most 1e-6).  A bad bundle, or a block that
        would pass T, raises before anything is booked.
        """
        if self.closed:
            raise MarketClosedError("session is closed")
        block = check_bundle(dq, self.params.d)
        k = len(block)
        if self.arrivals + k > self.params.T:
            raise MarketClosedError(
                f"session has {self.arrivals} of {self.params.T} arrivals; {k} more do not fit"
            )

        z = self.noise.draw(self.rng, k)
        ledger = self.noise
        held = [value for _, value in ledger.held]
        m = len(held)
        # source rows: q_hat, q_true, the trades, the bundles bought, the
        # held bundles, then minus each bundle sold, in order of sale
        neg = 2 + 2 * k + m
        pieces = [self.q_hat, self.q_true, block.ravel(), z.ravel(), *held]
        n_fixed = len(pieces)
        # buf rows: q_hat and the published chain (after each trade, sell and
        # buy); q_true and the true states; the held bundles, then the sells
        # and buys, whose running sum is the held noise.  buys[i]: the chain
        # row of arrival i's buy; norms[i]: the l2 norm of its bundle
        rows, buys, norms = [0], [], []
        for i in range(k):
            rows.append(2 + i)
            for _ in range(ledger.begin_step()):
                rows.append(neg + len(pieces) - n_fixed)
                pieces.append(ledger.mark_sold())
            bought = z[i].copy()  # a held bundle must not keep the whole block alive
            ledger.new_bundle(bought)
            norms.append(math.sqrt(bought.dot(bought)))  # np.linalg.norm's own formula
            rows.append(2 + k + i)
            buys.append(len(rows) - 1)
        source = np.concatenate(pieces).reshape(-1, self.params.d)
        np.negative(source[neg:], out=source[neg:])
        n, n_true = len(rows), len(rows) + 1 + k  # ends of the chain and true sections
        noise = [j for j in rows if j >= 2 + k]  # the sells and buys
        rows.append(1)
        rows += range(2, 2 + k)
        rows += range(neg - m, neg)  # the held bundles
        rows += noise
        buf = source.take(rows, axis=0)
        np.add.accumulate(buf[:n], axis=0, out=buf[:n])
        np.add.accumulate(buf[n:n_true], axis=0, out=buf[n:n_true])
        np.add.accumulate(buf[n_true:], axis=0, out=buf[n_true:])
        costs, prices = self.cost.cost_and_prices(buf[:n_true])

        # per arrival: the published state and the held noise after it; the
        # noise rows skip q_hat and the trades, so buy b of arrival i is
        # noise row m + b - (i + 2)
        noise_buys = [n_true + m + b - i - 2 for i, b in enumerate(buys)]
        picked = buf.take(buys + noise_buys, axis=0)
        states, held_sums, q_true = picked[:k], picked[k:], buf[n + 1 : n_true]
        p_hat = prices.take(buys, axis=0)
        # per arrival, l1 norms row by row as a lone state's: the price gap,
        # the share gap, and the drift of published - true from the held noise
        diffs = np.empty((3, k, self.params.d))
        np.subtract(prices[n + 1 :], p_hat, out=diffs[0])
        np.subtract(states, q_true, out=diffs[1])
        np.subtract(diffs[1], held_sums, out=diffs[2])
        price_gaps, share_gaps, drifts = np.add.reduce(np.abs(diffs, out=diffs), axis=-1).tolist()
        if max(drifts) > 1e-6:
            raise InvalidStateError("published state lost sync with held noise")
        costs = costs.tolist()
        fee = self.params.fee
        c_prev, prev = self.c_hat, 0
        for i, buy in enumerate(buys):  # each amount in booking order, one addition each
            self.fee_total += fee
            self.trade_payments += costs[prev + 1] - c_prev
            for r in range(prev + 2, buy):
                self.noise_sell_total += costs[r - 1] - costs[r]
            self.noise_buy_total += costs[buy] - costs[buy - 1]
            self.bundle_l2_total += norms[i]
            c_prev, prev = costs[buy], buy

        ledger.verify_held()
        self.q_true = q_true[-1].copy()  # not a view that keeps buf alive
        self.q_hat = _published(states[-1])
        self.p_hat = _published(p_hat[-1])
        self.c_hat = c_prev
        self.arrivals += k
        self.max_price_gap = max(self.max_price_gap, *price_gaps)
        self.max_share_gap = max(self.max_share_gap, *share_gaps)

    def sell_back_noise(self) -> None:
        """Unwind all held bundles, most recent first, checking the batch total."""
        held = self.noise.held
        n_sells = len(held)
        # rows: q_hat, after each sell, then q_hat minus the held sum in one move
        chain = np.empty((n_sells + 2, self.params.d))
        chain[0] = self.q_hat
        for i in range(n_sells):
            np.subtract(chain[i], held[-1 - i][1], out=chain[i + 1])
        np.subtract(self.q_hat, self.noise.held_sum(), out=chain[-1])
        *sell_costs, batch_cost = self.cost.cost(chain[1:]).tolist()
        batch = self.c_hat - batch_cost
        sold, c_start = 0.0, self.c_hat
        for c_next in sell_costs:  # each sale's revenue is the drop in cost
            revenue = c_start - c_next
            self.noise.mark_sold()
            self.noise_sell_total += revenue
            sold += revenue
            c_start = c_next
        self.q_hat = _published(chain[n_sells])
        self.c_hat = c_start
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
