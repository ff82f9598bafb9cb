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
class OutcomeModel:
    """Finite outcome space and the payoff each outcome assigns to each security.

    ``payoffs[z, j]`` is what one share of security j pays when outcome z
    occurs; all payoffs lie in [0, 1].  ``complete(d)`` builds the standard
    complete market where security j pays 1 exactly on outcome j.
    """

    outcomes: tuple[int, ...]
    payoffs: np.ndarray  # shape (n_outcomes, d)

    def __post_init__(self) -> None:
        pay = np.asarray(self.payoffs, dtype=float)
        if pay.ndim != 2 or pay.shape[0] != len(self.outcomes):
            raise InvalidParameterError("payoff matrix shape does not match outcomes")
        if np.any(pay < 0.0) or np.any(pay > 1.0):
            raise InvalidParameterError("payoffs must lie in [0, 1]")
        object.__setattr__(self, "payoffs", pay)

    @property
    def d(self) -> int:
        return self.payoffs.shape[1]

    @classmethod
    def complete(cls, d: int) -> "OutcomeModel":
        if d < 1:
            raise InvalidParameterError("need at least one security")
        return cls(outcomes=tuple(range(d)), payoffs=np.eye(d))

    def payoff(self, outcome: int) -> np.ndarray:
        if outcome not in self.outcomes:
            raise InvalidParameterError(f"unknown outcome {outcome!r}")
        return self.payoffs[self.outcomes.index(outcome)]


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
