"""Cost-function market maker with a tunable price sensitivity.

The base cost is the classic log-sum-exp over outcome shares,
C1(q) = ln sum_j exp(q_j), whose instantaneous prices are the softmax of q
and whose worst-case subsidy is ln d.  A perspective transform
C(q) = (1/lam) * C1(lam * q) shrinks the price sensitivity to lam and
inflates the worst-case subsidy to (ln d) / lam.  Every market in this
package is an instance of this scaled family.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameterError

PRICE_SUM_TOL = 1e-9


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


@dataclass(frozen=True)
class ScaledCost:
    """Log-sum-exp cost over d securities with price sensitivity lam."""

    d: int
    lam: float

    def __post_init__(self) -> None:
        if self.d < 1:
            raise InvalidParameterError("d must be >= 1")
        if not (0.0 < self.lam <= 1.0):
            raise InvalidParameterError("lam must lie in (0, 1]")

    @property
    def base_loss(self) -> float:
        """Worst-case loss of the unscaled cost: ln d."""
        return float(np.log(self.d))

    def _check_q(self, q: np.ndarray) -> np.ndarray:
        q = np.asarray(q, dtype=float)
        if q.shape != (self.d,):
            raise InvalidParameterError(f"share vector must have shape ({self.d},)")
        return q

    def cost(self, q: np.ndarray) -> float:
        """C(q) = (1/lam) * ln sum_j exp(lam * q_j)."""
        q = self._check_q(q)
        return _logsumexp(self.lam * q) / self.lam

    def prices(self, q: np.ndarray) -> np.ndarray:
        """Instantaneous prices: softmax(lam * q); positive, sum to 1."""
        q = self._check_q(q)
        return _softmax(self.lam * q)

    def trade_cost(self, q: np.ndarray, dq: np.ndarray) -> float:
        """Payment for moving the share state from q to q + dq."""
        q = self._check_q(q)
        dq = self._check_q(dq)
        return self.cost(q + dq) - self.cost(q)

    def worst_case_loss(self) -> float:
        """Subsidy bound (ln d) / lam for a market opened at uniform prices."""
        return self.base_loss / self.lam

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
        if np.any(p < 0.0) or abs(float(np.sum(p)) - 1.0) > PRICE_SUM_TOL:
            raise InvalidParameterError("prices must be nonnegative and sum to 1")
        clamped = np.maximum(p, eta)
        clamped = clamped / np.sum(clamped)
        logp = np.log(clamped)
        return (logp - logp[-1]) / self.lam
