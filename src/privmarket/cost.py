"""Cost-function market maker with a tunable price sensitivity.

The base cost is the classic log-sum-exp over outcome shares,
C1(q) = ln sum_j exp(q_j), whose instantaneous prices are the softmax of q
and whose worst-case subsidy is ln d.  A perspective transform
C(q) = (1/lam) * C1(lam * q) shrinks the price sensitivity to lam and
inflates the worst-case subsidy to (ln d) / lam.  Every market in this
package is an instance of this scaled family.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

from .errors import InvalidParameterError

PRICE_SUM_TOL = 1e-9
TALL_ROWS = 16
"""Rows per column from which a block (n, d), d >= 2, is worked down its
columns: its row maxima always, and where d < PAIRWISE_FROM its exp and
row sums too (see row_sums)."""
PAIRWISE_FROM = 8
"""Row length from which numpy sums a row pairwise, in an order row_sums
does not copy; a shorter row it adds first to last."""


def check_probabilities(p: np.ndarray, name: str) -> np.ndarray:
    """p if its entries are nonnegative and sum to 1 within PRICE_SUM_TOL; NaN fails."""
    if not (np.all(p >= 0.0) and abs(float(np.sum(p)) - 1.0) <= PRICE_SUM_TOL):
        raise InvalidParameterError(f"{name} must be nonnegative and sum to 1")
    return p


def is_tall(x: np.ndarray) -> bool:
    """Whether x is a block (n, d), d >= 2, of at least TALL_ROWS * d rows."""
    return x.ndim == 2 and x.shape[1] > 1 and len(x) >= TALL_ROWS * x.shape[1]


def row_sums(a: np.ndarray) -> np.ndarray:
    """np.add.reduce(a, axis=-1) of a block (n, d), equal by ==.

    numpy adds a row of fewer than PAIRWISE_FROM entries first to last, and
    a float sum's bits depend only on the order of its additions, so a tall
    block with d < PAIRWISE_FROM adds its d columns first to last: the same
    sums, far cheaper than reducing n short rows.  Any other block reduces
    row-wise.  (Only a row of -0.0 differs in bits: -0.0 here, 0.0 there.)
    """
    d = a.shape[1]
    if not (is_tall(a) and d < PAIRWISE_FROM):
        return np.add.reduce(a, axis=-1)
    total = a[:, 0] + a[:, 1]
    for j in range(2, d):
        np.add(total, a[:, j], out=total)
    return total


@functools.lru_cache(maxsize=1)
def unit_trades(d: int) -> np.ndarray:
    """Read-only (2d + 1, d) block: no trade, then +e_j (row 1 + 2j) and -e_j (row 2 + 2j).

    A quote's unit_costs are C(q_hat + each row) (market.StrategyContext)."""
    trades = np.zeros((2 * d + 1, d))
    flat = trades.reshape(-1)  # row 1 + 2j, column j is flat entry d + j (2d + 1)
    flat[d :: 2 * d + 1] = 1.0
    flat[2 * d :: 2 * d + 1] = -1.0
    trades.flags.writeable = False
    return trades


def _shifted_exp(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row max m, exp(x - m) and its row sum, for one row (d,) or a block (n, d).

    The max shift keeps exp() in range for share vectors up to ~1e6.  Every
    row goes through the same ufuncs as a lone state, so a row's result does
    not depend on the block it is evaluated in.  A tall block (TALL_ROWS * d
    rows or more, d >= 2) takes its maxima down the columns of a transposed
    copy, which is faster there and exact in any order.  Where also
    d < PAIRWISE_FROM it shifts and exps that copy in place (elementwise, so
    the same bits) and sums each state with row_sums, whose column sums
    equal the row-wise ones; e is then the copy's transpose, column-major.
    """
    columns = is_tall(x)
    if columns:
        xt = x.T.copy()
        m = np.maximum.reduce(xt, axis=0)[:, None]
    else:
        m = np.maximum.reduce(x, axis=-1, keepdims=True)
    if not np.logical_and.reduce(np.isfinite(m), axis=None):
        raise InvalidParameterError("share vector contains non-finite entries")
    if columns and x.shape[1] < PAIRWISE_FROM:
        e = np.exp(np.subtract(xt, m.T, out=xt), out=xt).T
        return m, e, row_sums(e)[:, None]
    e = np.exp(x - m)
    return m, e, np.add.reduce(e, axis=-1, keepdims=True)


class ScaledCost(NamedTuple("ScaledCost", [("d", int), ("lam", float)])):
    """Log-sum-exp cost over d securities with price sensitivity lam, an
    immutable NamedTuple that the constructor (and so _replace) checks."""

    __slots__ = ()

    def __new__(cls, d: int, lam: float) -> ScaledCost:
        if d < 1:
            raise InvalidParameterError("d must be >= 1")
        if not (0.0 < lam <= 1.0):
            raise InvalidParameterError("lam must lie in (0, 1]")
        return super().__new__(cls, d, lam)

    @classmethod
    def _make(cls, fields) -> ScaledCost:
        return cls(*fields)  # _replace builds through here, so it is checked too

    def _check_q(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.ndim not in (1, 2) or q.shape[-1] != self.d or q.size == 0:
            raise InvalidParameterError(
                f"share vector must have shape ({self.d},) or (n, {self.d}) with n >= 1"
            )
        return q

    def _terms(self, q: np.ndarray):
        """Checked q's costs, exp(lam * q - m) and its row sums, from one exp pass."""
        q = self._check_q(q)
        m, e, total = _shifted_exp(self.lam * q)
        c = (m + np.log(total))[..., 0] / self.lam
        return (float(c) if q.ndim == 1 else c), e, total

    def _block_cost_and_prices(self, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """cost_and_prices of a float block (n, d) its caller built, so its shape
        goes unchecked; a non-finite state still raises (_shifted_exp)."""
        m, e, total = _shifted_exp(self.lam * q)
        return (m + np.log(total))[:, 0] / self.lam, e / total

    def cost(self, q: np.ndarray) -> float | np.ndarray:
        """C(q) = (1/lam) * ln sum_j exp(lam * q_j).

        q is one state (d,), giving a float, or a block of states (n, d),
        giving their n costs.  A state with a non-finite maximum raises, here
        and in prices.
        """
        return self._terms(q)[0]

    def prices(self, q: np.ndarray) -> np.ndarray:
        """Instantaneous prices softmax(lam * q), per row of a block; positive, sum to 1."""
        return self.cost_and_prices(q)[1]

    def cost_and_prices(self, q: np.ndarray) -> tuple[float | np.ndarray, np.ndarray]:
        """cost(q) and prices(q) from one pass, bit for bit the values of the two calls."""
        c, e, total = self._terms(q)
        return c, e / total

    def trade_cost(self, q: np.ndarray, dq: np.ndarray) -> float:
        """Payment for moving the share state from q to q + dq."""
        q = self._check_q(q)
        dq = self._check_q(dq)
        return self.cost(q + dq) - self.cost(q)

    def worst_case_loss(self) -> float:
        """Subsidy bound (ln d) / lam for a market opened at uniform prices."""
        return float(np.log(self.d)) / self.lam

    def invert_prices(self, p: np.ndarray, eta: float) -> np.ndarray:
        """Share vector whose prices equal p after clamping, last coordinate 0.

        Coordinates of p below eta are raised to eta and the vector is
        renormalized before inverting; eta must satisfy 0 < eta < 1/d.
        """
        if not (0.0 < eta < 1.0 / self.d):
            raise InvalidParameterError("eta must lie strictly between 0 and 1/d")
        p = np.asarray(p, dtype=float)
        if p.shape != (self.d,):
            raise InvalidParameterError(f"price vector must have shape ({self.d},)")
        clamped = np.maximum(check_probabilities(p, "prices"), eta)
        clamped = clamped / np.sum(clamped)
        logp = np.log(clamped)
        return (logp - logp[-1]) / self.lam
