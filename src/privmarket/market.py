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

from .cost import ScaledCost, is_tall, row_sums, unit_trades
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
HELD_TOL = 1e-6  # largest l1 drift of published - true from the held noise sum
PLAN_CACHE = 64
"""Block plans kept; a herd+random run at d = 2 uses 5 at T = 16384 and 13
over the 3,805,959 arrivals of paper-scale stage 1."""


def lambda_star(T: int, alpha: float, gamma: float, epsilon: float, d: int) -> float:
    """Largest price sensitivity meeting the (alpha, gamma)-accuracy target.

    alpha * epsilon / (4 * sqrt(2) * d * ceil(log2 T) * ln(2 T d / gamma)).
    """
    if T < 2:
        raise InvalidParameterError("T must be >= 2")
    check_design(d, alpha, gamma, epsilon)
    return (alpha * epsilon) / share_gap_scale(T, d, gamma)


def share_gap_scale(T: int, d: int, gamma: float) -> float:
    """4 sqrt(2) d ceil(log2 T) ln(2 T d / gamma): epsilon times the share-gap bound."""
    return 4.0 * math.sqrt(2.0) * d * tree_depth(T) * math.log(2.0 * T * d / gamma)


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
    """dq as a float block (k, d): k >= 1 bundles as rows, a list or tuple of them,
    or one bundle as an ndarray (d,).  The one check of a bundle: entries ints
    or floats (numpy kinds i, u, f), finite, l1 norm at most 1.  A rejection's
    row is the index of the first bad bundle.  A float64 ndarray (d,), every
    state reader's trade, or (1, d), the one blind slot booked before a
    reader, is checked directly, with the block path's l1 size, and returned
    as a (1, d) view.
    """
    if isinstance(dq, np.ndarray):
        if dq.shape == (d,):
            dq = dq[None]  # a list of d scalars stays misshapen
        if dq.shape == (1, d) and dq.dtype == np.float64:
            size = np.abs(dq).dot(_ones(d)).item()
            if not size <= 1.0 + TRADE_SIZE_TOL:  # also catches nan and inf
                raise TradeRejectedError(f"bundle 0 l1 norm {size:.6f} exceeds 1", 0)
            return dq
    try:
        block = np.asarray(dq)
    except (TypeError, ValueError):  # bundles of different shapes
        block = None
    if block is None or block.ndim != 2 or block.shape[1] != d or len(block) == 0:
        row = _first_misshapen(dq, d)
        raise TradeRejectedError(f"bundle {row} must have shape ({d},)", row)
    if block.dtype != np.float64 or not isinstance(dq, np.ndarray):
        # each bundle of a list as numpy reads it alone: beside floats, bools would pass as floats
        for row, bundle in enumerate(dq if isinstance(dq, (list, tuple)) else (block,)):
            dtype = np.asarray(bundle).dtype
            if dtype.kind not in "iuf":  # signed, unsigned, float
                raise TradeRejectedError(
                    f"bundle {row} entries must be ints or floats, not {dtype}", row)
        block = block.astype(float, copy=False)
    sizes = np.abs(block).dot(_ones(d))
    fits = sizes <= 1.0 + TRADE_SIZE_TOL  # also catches nan and inf
    row = int(fits.argmin())
    if not fits[row]:
        raise TradeRejectedError(f"bundle {row} l1 norm {sizes[row]:.6f} exceeds 1", row)
    return block


@functools.lru_cache(maxsize=8)
def _ones(d: int) -> np.ndarray:
    """Read-only ones (d,): check_bundle's l1 sizes are |block|.dot(_ones(d))."""
    ones = np.ones(d)
    ones.flags.writeable = False
    return ones


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
    """Freeze an array handed out as published state (setflags: half the
    time of setting x.flags.writeable)."""
    x.setflags(write=False)
    return x


@functools.lru_cache(maxsize=PLAN_CACHE)
def _block_plan(k: int, low: int, top: int) -> tuple:
    """Row plan of a block of k arrivals after t0.

    It depends only on the trailing-zero counts tz(t0 + i), which follow
    from low = t0 mod 2^m (m = k.bit_length()) and top, the tz of the one
    block time that 2^m divides (-1 if none).  Source rows: q_hat, q_true,
    the k trades, the k bundles bought, a zero row, then (from neg) minus
    the bundles bought and minus levels 0 .. sold - 1.  Arrival i trades,
    sells levels 0 .. tz - 1 (level l holds the bundle of block row i - 2^l
    when 2^l <= i, else one bought before the block) and buys.  Returned,
    with neg and sold: chain (n,): the source rows whose running sum from
    q_hat is the state after each trade, sell and buy; buys: the chain's
    buy rows; cash (2, 5, w): each total's amounts as minuend and
    subtrahend indices into the costs (the n chain states, q_true and the
    k true states), the bundle norms and the head (the five totals, c_hat,
    the fee, 0.0); levels: the source rows of levels 0 .. max tz after the
    block; flips: the held-mask bits the block turns over.
    """
    buy, zero = 2 + k, 2 + 2 * k
    neg = zero + 1
    chain, trades, sells, buys = [0], [], [], []
    held: dict[int, int | None] = {}  # level -> block row holding it
    sold = 0  # bits of the levels sold from before the block
    for i in range(k):
        u = low + i + 1
        tz = top if u == 1 << k.bit_length() else (u & -u).bit_length() - 1
        trades.append(len(chain))
        chain.append(2 + i)
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
    n = len(chain)
    levels = [zero if held[level] is None else buy + held[level] for level in range(len(held))]
    kept = sum(1 << level for level, row in held.items() if row is not None)
    h = n + 2 * k + 1
    c_hat, fee, nil = h + 5, h + 6, h + 7
    amounts = [
        (trades, [c_hat] + buys[:-1]),  # each trade starts from the last buy
        ([r - 1 for r in sells], sells),
        (buys, [b - 1 for b in buys]),
        ([fee] * k, [nil] * k),
        (range(n + k + 1, h), [nil] * k),
    ]
    cash = np.full((2, 5, 1 + max(k, len(sells))), nil, dtype=np.intp)
    for j, (plus, minus) in enumerate(amounts):
        cash[0, j, 0] = h + j
        cash[0, j, 1 : 1 + len(plus)] = plus
        cash[1, j, 1 : 1 + len(minus)] = minus
    plan = (neg, sold.bit_length(), np.array(chain, dtype=np.intp), np.array(buys, dtype=np.intp),
            cash, np.array(levels, dtype=np.intp), sold ^ kept)
    for part in plan[2:-1]:  # shared by every block with these tz values
        part.flags.writeable = False
    return plan


class MarketSession:
    """Mutable state of one running market; single-owner, not thread-safe.

    The session keeps only what the ledger and the accuracy metrics need:
    the true and published states, C(q_hat) cached between steps, the held
    noise stack, cash totals, and running gaps.  q_hat and p_hat are the
    latest published state and prices and are read-only.  Nonzero
    initial_shares support stage handoff.

    rng is anything np.random.default_rng takes; a Generator is used as it
    is.  The session draws its noise bundles from it ahead of its arrivals,
    in chunks of at most BLOCK_FLOATS entries and never past T.  A session
    filled to T has drawn exactly T * d uniforms, so sessions that share rng
    in turn (the stages of run_adaptive) draw what per-arrival draws would
    give them; one that is not filled may have drawn past its last arrival.
    """

    def __init__(
        self,
        params: MarketParams,
        rng: np.random.Generator | int | None = None,
        initial_shares: np.ndarray | None = None,
    ):
        self.params = params
        self.cost = ScaledCost(d=params.d, lam=params.lam)
        self.rng = np.random.default_rng(rng)
        q0 = (
            np.zeros(params.d)
            if initial_shares is None
            else np.asarray(initial_shares, dtype=float).copy()
        )
        if q0.shape != (params.d,) or not np.all(np.isfinite(q0)):
            raise InvalidParameterError(f"initial shares must be {params.d} finite numbers")
        self.q_init = q0.copy()
        self.q_true = q0.copy()
        self.q_hat = _published(q0.copy())
        self.c_hat, p0 = self.cost.cost_and_prices(q0)
        self.p_hat = _published(p0)
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

    def step(self, dq, probe: bool = False) -> np.ndarray | None:
        """Book the k bundles of check_bundle(dq, d), one arrival each, in order.

        Each arrival pays the fee and its trade's cost at the published
        state; then step t sells the tz(t) most recent held bundles and buys
        a fresh one, taken with its l2 norm from the bundles the noise ledger
        drew ahead (NoiseLedger.take).  The cached _block_plan says where every
        state of the block comes from, so once it is cached no Python work is
        done per arrival: one gather and one sequential running sum build the
        states after each trade, sell and buy, one of q_true and the trades
        the true states, and one kernel pass costs and prices them (one cost
        per state, never telescoped: the noise cash is a small difference of
        large costs).  The prices after each buy are gathered along the axis
        the block's prices are contiguous in, and p_hat is a contiguous copy
        of the last.  Each cash total adds its amounts one at a time in
        arrival order (np.add.accumulate), so a block books bit for bit what
        its bundles book one at a time.  One bundle (k == 1, a state reader's
        trade or the blind slot before one) skips the plan: the plan's states
        but q_true, tz(t) + 4, are filled directly and run through one
        running sum and one kernel pass, and each total
        adds its amounts as Python floats: the same IEEE operations in the
        same order, but for the 0.0 the plan's padding adds, which changes
        no total (totals start at +0.0, and a sum is -0.0 only when both
        terms are), so both paths book the same bits.  A tall block of l1
        share and price gaps and held-noise drift (cost.is_tall) is summed by
        cost.row_sums, by columns where d < 8, and its largest share and
        price gaps come from one np.maximum.reduce; a short one is reduced
        row-wise and its maxima taken by Python's max over floats.  Checks,
        on the state the block leaves, after the counter is advanced and
        before anything else is booked: held == the counter bits, and
        published - true == the held noise sum (l1 drift at most HELD_TOL).
        A bad bundle or a block that would pass T raises before anything is
        booked, and so does any failure before the counter is advanced (take
        is a read: the next step takes the same bundles).

        With probe, the states q_hat + each row of cost.unit_trades(d) (q_hat
        after the block) go below the booked ones in the same kernel pass, and
        their costs are returned, read-only (else None).  A row's cost does not
        depend on its block, tall or not (the partition tests), so a probe
        changes no booked bit and its costs are a lone pass's.
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
        extra = 2 * d + 1 if probe else 0  # probe rows, after the r booked

        ledger = self.noise
        z, z_norms = ledger.take(self.rng, k)
        if k == 1:  # the plan's rows of one arrival, filled in place
            tz = ((t0 + 1) & -(t0 + 1)).bit_length() - 1
            n, r = tz + 3, tz + 4  # chain states; states booked
            states = np.empty((r + extra, d))
            states[0], states[1], states[n - 1] = self.q_hat, block, z
            np.negative(ledger.levels[:tz], out=states[2 : n - 1])
            np.add.accumulate(states[:n], axis=0, out=states[:n])
            np.add(self.q_true, block[0], out=states[n])
            if probe:
                np.add(states[n - 1], unit_trades(d), out=states[r:])
            costs, prices = self.cost._block_cost_and_prices(states)
            after, p_hat = states[n - 1 : n], prices[n - 1 : n]
            c = costs.tolist()
            sell = self.noise_sell_total
            for i in range(1, n - 2):  # each sale's revenue, most recent bundle first
                sell += c[i] - c[i + 1]
            totals = (self.trade_payments + (c[1] - self.c_hat), sell,
                      self.noise_buy_total + (c[n - 1] - c[n - 2]),
                      self.fee_total + self.params.fee, self.bundle_l2_total + z_norms.item())
            low = np.zeros((tz + 1, d))
            low[tz] = z[0]
            ledger.advance(1, low, (2 << tz) - 1)
        else:
            m = k.bit_length()
            top = (t0 + k) >> m << m  # the one time in the block that 2^m divides, if any
            neg, sold, chain, buys, cash, levels, flips = _block_plan(
                k, t0 & ((1 << m) - 1), (top & -top).bit_length() - 1 if top > t0 else -1)
            source = np.concatenate((
                self.q_hat, self.q_true, block.ravel(), z.ravel(),
                np.zeros(d), z.ravel(), ledger.levels[:sold].ravel(),
            )).reshape(-1, d)
            tail = source[neg:]
            np.negative(tail, out=tail)
            # the chain from q_hat, then q_true and the true state after each arrival
            n = len(chain)
            r = n + k + 1
            states = np.empty((r + extra, d))
            source.take(chain, axis=0, out=states[:n])
            np.add.accumulate(states[:n], axis=0, out=states[:n])
            np.add.accumulate(source[1 : 2 + k], axis=0, out=states[n:r])
            if probe:
                np.add(states[n - 1], unit_trades(d), out=states[r:])
            costs, prices = self.cost._block_cost_and_prices(states)
            after = states.take(buys, axis=0)
            # a tall block's prices at d < cost.PAIRWISE_FROM are column-major
            # (cost._shifted_exp)
            p_hat = (prices.take(buys, axis=0) if prices.flags.c_contiguous
                     else prices.T.take(buys, axis=1).T)

            # each total's amounts, after the total itself, as differences of
            # costs, bundle l2 norms and the head's entries
            head = (self.trade_payments, self.noise_sell_total, self.noise_buy_total,
                    self.fee_total, self.bundle_l2_total, self.c_hat, self.params.fee, 0.0)
            terms = np.concatenate((costs[:r], z_norms, head)).take(cash)
            totals = np.add.accumulate(np.subtract(terms[0], terms[1]), axis=1)[:, -1].tolist()
            ledger.advance(k, source.take(levels, axis=0), flips)
        ledger.verify_held()
        # l1 norms, each as a lone state's: each arrival's share and price
        # gaps, then the drift of published - true after the block from the held noise
        gaps = np.empty((2 * k + 1, d))
        np.subtract(after, states[r - k : r], out=gaps[:k])
        np.subtract(prices[r - k : r], p_hat, out=gaps[k:-1])
        np.subtract(gaps[k - 1], ledger.held_sum(), out=gaps[-1])
        np.abs(gaps, out=gaps)
        if is_tall(gaps):
            norms = row_sums(gaps)
            share_gap, price_gap = np.maximum.reduce(norms[:-1].reshape(2, k), axis=1).tolist()
            drift = norms[-1]
        else:
            norms = np.add.reduce(gaps, axis=-1).tolist()
            share_gap, price_gap, drift = max(norms[:k]), max(norms[k:-1]), norms[-1]
        if not drift <= HELD_TOL:
            raise InvalidStateError("published state lost sync with held noise")
        (self.trade_payments, self.noise_sell_total, self.noise_buy_total,
         self.fee_total, self.bundle_l2_total) = totals
        self.q_true = states[r - 1].copy()  # not a view that keeps states alive
        self.q_hat = _published(after[-1])
        self.p_hat = _published(p_hat[-1].copy())  # contiguous, and keeps no block alive
        self.c_hat = float(costs[n - 1])  # the chain ends with the last buy
        self.arrivals += k
        self.max_share_gap = max(self.max_share_gap, share_gap)
        self.max_price_gap = max(self.max_price_gap, price_gap)
        return _published(costs[r:]) if probe else None

    def close(self, outcome: int) -> Ledger:
        """Sell back remaining noise, pay every arrival, and return the ledger.

        The held levels are sold lowest (most recent) first, in one running
        sum and one kernel pass; the batch check and then step's held-noise
        check run before anything is booked.  Security j pays 1 exactly on
        outcome j.  p_hat is left as the last published prices (a next stage opens at them).
        """
        if self.closed:
            raise InvalidStateError("session is already closed")
        if not 0 <= outcome < self.params.d:
            raise InvalidParameterError(f"unknown outcome {outcome!r}")
        ledger = self.noise
        held = [level for level in range(len(ledger.levels)) if ledger.mask >> level & 1]
        n = len(held)
        # rows: q_hat, after each sale, the batch state, q_true, q_init
        rows = np.concatenate(([self.q_hat], -ledger.levels[held],
                               [self.q_hat - ledger.held_sum(), self.q_true, self.q_init]))
        np.add.accumulate(rows[: n + 1], axis=0, out=rows[: n + 1])
        costs = np.concatenate(([self.c_hat], self.cost.cost(rows[1:])))
        # revenues after the running total and after 0.0, for the batch check
        revenues = np.empty((2, n + 1))
        revenues[:, 0] = self.noise_sell_total, 0.0
        np.subtract(costs[:n], costs[1 : n + 1], out=revenues[:, 1:])
        sell_total, sold = np.add.accumulate(revenues, axis=1)[:, -1].tolist()
        c_sold, c_batch, c_true, c_init = costs[n:].tolist()
        batch = self.c_hat - c_batch
        if abs(sold - batch) > CASH_TOL * max(1.0, abs(batch)):
            raise InvalidStateError(
                f"sequential sell-back {sold!r} disagrees with batch total {batch!r}"
            )
        if not np.add.reduce(np.abs(rows[n + 1] - rows[n + 2])) <= HELD_TOL:  # batch vs q_true
            raise InvalidStateError("published state lost sync with held noise")

        ledger.advance(0, np.zeros_like(ledger.levels), ledger.mask)
        self.noise_sell_total = sell_total
        self.q_hat = _published(rows[n])
        self.c_hat = c_sold
        payouts = float(self.q_true[outcome] - self.q_init[outcome])
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


open_market = MarketSession  # the name the README and the harness open a session by
