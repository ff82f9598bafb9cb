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
import functools
import math
import sys
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
from .noise import LAPLACE_MAX, NoiseLedger, noise_scale, tree_depth

TRADE_SIZE_TOL = 1e-9
CASH_TOL = 1e-9
PLAN_CACHE = 64
"""Block plans kept; a herd+random run at T = 16384 uses about ten."""


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
        if self.lam < sys.float_info.min:
            raise InvalidParameterError(f"lam {self.lam:.3e} is below the smallest normal float")
        worst = LAPLACE_MAX * noise_scale(self.T, self.epsilon)  # a bundle entry's largest size
        if not math.isfinite(worst * worst * self.d):
            raise InvalidParameterError("noise bundles' squared l2 norms would pass float range")
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


def l2_norms(z: np.ndarray) -> np.ndarray:
    """math.sqrt(row.dot(row)) of each row of z (k, d), bit for bit.

    A stacked (1, d) @ (d, 1) matmul is a dot per row; np.linalg.norm and
    sums of squares round differently at d >= 2.
    """
    k, d = z.shape
    return np.sqrt(np.matmul(z.reshape(k, 1, d), z.reshape(k, d, 1)).ravel())


@functools.lru_cache(maxsize=PLAN_CACHE)
def _block_plan(k: int, low: int, top: int) -> tuple:
    """Row plan of a block of k arrivals after t0.

    It depends only on the trailing-zero counts tz(t0 + i), which follow
    from low = t0 mod 2^m (m = k.bit_length()) and top, the tz of the one
    block time that 2^m divides (-1 if none).  Source rows: q_hat, q_true
    plus the held noise, q_true, the k trades, the k bundles bought, a zero
    row, then (from neg) minus the bundles bought and minus levels
    0 .. sold - 1.  Arrival i trades, sells levels 0 .. tz - 1 (level l
    holds the bundle of block row i - 2^l when 2^l <= i, else one bought
    before the block) and buys.  Returned, with neg and sold:
    rows (3, n): the chain from q_hat, its shadow from q_true plus the held
    noise, and the true states (the trades, zeros elsewhere); costed: the
    chain, then the true state after each arrival; buys: the chain's buy
    rows; picks (k, 3): state, shadow and true state after each arrival;
    cash (2, 5, w): each total's amounts as minuend and subtrahend indices
    into the costs, the bundle norms and the head (the five totals, c_hat,
    the fee, 0.0); levels: the source rows of levels 0 .. max tz after the
    block; flips: the held-mask bits the block turns over.
    """
    buy, zero = 3 + k, 3 + 2 * k
    neg = zero + 1
    chain, true, trades, sells, buys = [0], [2], [], [], []
    held: dict[int, int | None] = {}  # level -> block row holding it
    sold = 0  # bits of the levels sold from before the block
    for i in range(k):
        u = low + i + 1
        tz = top if u == 1 << k.bit_length() else (u & -u).bit_length() - 1
        trades.append(len(chain))
        chain.append(3 + i)
        true.append(3 + i)
        for level in range(tz):
            if 1 << level <= i:
                chain.append(neg + i - (1 << level))
            else:
                chain.append(neg + k + level)
                sold |= 1 << level
            held[level] = None
            sells.append(len(chain) - 1)
        held[tz] = i
        buys.append(len(chain))
        chain.append(buy + i)
        true += [zero] * (len(chain) - len(true))
    n = len(chain)
    levels = [zero if held[level] is None else buy + held[level] for level in range(len(held))]
    kept = sum(1 << level for level, row in held.items() if row is not None)
    h = n + 2 * k
    c_hat, fee, nil = h + 5, h + 6, h + 7
    amounts = [
        (trades, [c_hat] + buys[:-1]),  # each trade starts from the last buy
        ([r - 1 for r in sells], sells),
        (buys, [b - 1 for b in buys]),
        ([fee] * k, [nil] * k),
        (range(n + k, h), [nil] * k),
    ]
    cash = np.full((2, 5, 1 + max(k, len(sells))), nil, dtype=np.intp)
    for j, (plus, minus) in enumerate(amounts):
        cash[0, j, 0] = h + j
        cash[0, j, 1 : 1 + len(plus)] = plus
        cash[1, j, 1 : 1 + len(minus)] = minus
    buys = np.array(buys, dtype=np.intp)
    plan = (neg, sold.bit_length(), np.array([chain, [1] + chain[1:], true], dtype=np.intp),
            np.concatenate((np.arange(n), 2 * n + buys)), buys,
            buys[:, None] + np.array([0, n, 2 * n]), cash, np.array(levels, dtype=np.intp),
            sold ^ kept)
    for part in plan[2:-1]:  # shared by every block with these tz values
        part.flags.writeable = False
    return plan


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
            T=params.T,
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
        a fresh one.  The cached _block_plan says where every state of the
        block comes from, so once it is cached no Python work is done per
        arrival: one gather and one sequential running sum build the states
        after each trade, sell and buy, their shadow from q_true plus the
        held noise, and the true states, and one kernel pass costs and
        prices them (one cost per state, never telescoped: the noise cash is
        a small difference of large costs).  Each cash total adds its amounts one at a time in
        arrival order (np.add.accumulate), so a block books bit for bit what
        its bundles book one at a time.  Checks: held == the counter bits
        after the block, and published == shadow, i.e. published - true ==
        held noise, after every arrival (l1 drift at most 1e-6).  A bad
        bundle, or a block that would pass T, raises before anything is
        booked.
        """
        if self.closed:
            raise MarketClosedError("session is closed")
        d = self.params.d
        block = check_bundle(dq, d)
        k, t0 = len(block), self.arrivals
        if t0 + k > self.params.T:
            raise MarketClosedError(
                f"session has {t0} of {self.params.T} arrivals; {k} more do not fit"
            )

        ledger = self.noise
        m = k.bit_length()
        top = (t0 + k) >> m << m  # the one time in the block that 2^m divides, if any
        neg, sold, rows, costed, buys, picks, cash, levels, flips = _block_plan(
            k, t0 & ((1 << m) - 1), (top & -top).bit_length() - 1 if top > t0 else -1)
        z = ledger.draw(self.rng, k)
        source = np.concatenate((
            self.q_hat, self.q_true + ledger.held_sum(), self.q_true, block.ravel(), z.ravel(),
            np.zeros(d), z.ravel(), ledger.levels[:sold].ravel(),
        )).reshape(-1, d)
        tail = source[neg:]
        np.negative(tail, out=tail)
        buf = source.take(rows, axis=0)
        np.add.accumulate(buf, axis=1, out=buf)
        flat = buf.reshape(-1, d)
        costs, prices = self.cost.cost_and_prices(flat.take(costed, axis=0))

        # per arrival, l1 norms row by row as a lone state's: the drift of
        # the published state from its shadow, the share gap, the price gap
        picked = flat.take(picks, axis=0)
        p_hat = prices.take(buys, axis=0)
        diffs = np.empty((k, 3, d))
        np.subtract(picked[:, :1], picked[:, 1:], out=diffs[:, :2])
        np.subtract(prices[-k:], p_hat, out=diffs[:, 2])
        drifts, share_gaps, price_gaps = np.add.reduce(np.abs(diffs, out=diffs), axis=-1).T.tolist()
        if not max(drifts) <= 1e-6:
            raise InvalidStateError("published state lost sync with held noise")

        # each total's amounts, after the total itself, as differences of
        # costs, bundle l2 norms and the head's entries
        head = (self.trade_payments, self.noise_sell_total, self.noise_buy_total,
                self.fee_total, self.bundle_l2_total, self.c_hat, self.params.fee, 0.0)
        terms = np.concatenate((costs, l2_norms(z), head)).take(cash)
        (self.trade_payments, self.noise_sell_total, self.noise_buy_total,
         self.fee_total, self.bundle_l2_total) = np.add.accumulate(
            np.subtract(terms[0], terms[1]), axis=1)[:, -1].tolist()

        ledger.advance(k, source.take(levels, axis=0), flips)
        ledger.verify_held()
        self.q_true = picked[-1, 2].copy()  # not a view that keeps picked alive
        self.q_hat = _published(picked[-1, 0])
        self.p_hat = _published(p_hat[-1])
        self.c_hat = float(costs[buys[-1]])
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
