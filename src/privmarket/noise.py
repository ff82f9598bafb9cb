"""Noise-trade schedule for continual observation of the share state.

The published state after arrival t hides the running trade total behind
fresh noise bundles arranged like a binary counter: writing s(t) for t with
its lowest set bit cleared, the published state is

    q_hat^t = q^t + z^t + z^{s(t)} + z^{s(s(t))} + ...

so at most ceil(log2 T) bundles are ever stacked, and each partial sum of
trades sum_{s(t) < s <= t} dq^s is covered by exactly one bundle.  The
noise trader realizes this by selling, at step t, the bundles bought at
times t-1, t-2, t-4, ..., t-2^{j-1} (where t = 2^j * odd) most recent
first, then buying a fresh bundle z^t.  The bundles still held after step
t are exactly the one-bit prefixes of t, i.e. the path {t, s(t), ...}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, InvalidStateError


def low_bit(t: int) -> int:
    """Value of the lowest set bit of t (t >= 1): low_bit(12) == 4."""
    if t < 1:
        raise InvalidParameterError("t must be >= 1")
    return t & -t


def s_flip(t: int) -> int:
    """t with its lowest set bit cleared; s_flip(0) == 0."""
    if t < 0:
        raise InvalidParameterError("t must be >= 0")
    return t & (t - 1)


def tree_depth(T: int) -> int:
    """ceil(log2 T), floored at 1 so a single-step horizon still gets noise."""
    if T < 1:
        raise InvalidParameterError("T must be >= 1")
    return max((T - 1).bit_length(), 1)


def noise_scale(T: int, epsilon: float) -> float:
    """Per-coordinate Laplace scale 2 * ceil(log2 T) / epsilon."""
    if epsilon <= 0.0:
        raise InvalidParameterError("epsilon must be positive")
    return 2.0 * tree_depth(T) / epsilon


@dataclass(frozen=True)
class ScheduleEvent:
    """Noise trades at step t: sell the listed bundle times, then buy z^t.

    sells is ordered most-recent-first, the reverse of purchase order.
    """

    buy: int
    sells: tuple[int, ...]


def events_at(t: int) -> ScheduleEvent:
    """Bundle turnover at step t.

    With t = 2^j * m for odd m, the schedule sells the bundles bought at
    t-1, t-2, t-4, ..., t-2^{j-1} (the trailing-one bits cleared when the
    counter increments from t-1 to t) and then buys z^t.
    """
    if t < 1:
        raise InvalidParameterError("t must be >= 1")
    sells = []
    step = 1
    while step <= (low_bit(t) >> 1):
        sells.append(t - step)
        step <<= 1
    return ScheduleEvent(buy=t, sells=tuple(sells))


def participation_table(T: int) -> np.ndarray:
    """Bundles covering arrival t_prime, for every t_prime in 1..T (index 0 = t'=1).

    That is #{t in [t_prime, T] : s(t) < t_prime <= t}.  The worst case is
    floor(log2 T) + 1, attained at t_prime = 1 when T is a power of two;
    this exceeds ceil(log2 T) there, which is why the privacy audit reports
    exact counts rather than asserting the smaller cap.  Each t covers the half-open interval (s(t), t] of t_prime values, so the
    table is a sum of interval indicators, built with a difference array.
    """
    if T < 1:
        raise InvalidParameterError("T must be >= 1")
    diff = np.zeros(T + 2, dtype=np.int64)
    for t in range(1, T + 1):
        diff[s_flip(t) + 1] += 1
        diff[t + 1] -= 1
    return np.cumsum(diff)[1 : T + 1]


def sample_bundle(d: int, scale: float, rng: np.random.Generator) -> np.ndarray:
    """d i.i.d. Laplace(scale) draws via the inverse CDF on one uniform block.

    Explicit inverse-CDF sampling pins the draw count per bundle to d, which
    is what makes runs bit-reproducible across numpy versions.
    """
    if d < 1:
        raise InvalidParameterError("d must be >= 1")
    if scale <= 0.0:
        raise InvalidParameterError("scale must be positive")
    u = rng.random(d) - 0.5
    # clip keeps the log finite on the measure-zero edge u == -0.5
    return -scale * np.sign(u) * np.log(np.clip(1.0 - 2.0 * np.abs(u), 1e-300, 1.0))


@dataclass
class NoiseBundle:
    """One noise purchase and its lifecycle cash flows."""

    time: int
    value: np.ndarray
    buy_cost: float = 0.0
    sold_at: int | None = None
    sell_revenue: float | None = None

    @property
    def realized_loss(self) -> float:
        if self.sell_revenue is None:
            raise InvalidStateError(f"bundle {self.time} has not been sold")
        return self.buy_cost - self.sell_revenue


@dataclass
class NoiseLedger:
    """Bundle bookkeeping for one market session.

    held is the stack of bundles still owned, oldest at the bottom.  The
    schedule always sells the most recent bundle first, so a sale pops the
    top, and after every step the stack holds exactly the one-bits of the
    step counter: at most floor(log2 t) + 1 bundles.  noise_off swaps the
    sampled values for zeros (schedule and bookkeeping unchanged) so tests
    can isolate the trading mechanics.
    """

    d: int
    scale: float
    noise_off: bool = False
    t: int = 0
    held: list[NoiseBundle] = field(default_factory=list)

    def path_times(self) -> list[int]:
        """The stack {t, s(t), s(s(t)), ...} down to (not including) 0."""
        times = []
        u = self.t
        while u > 0:
            times.append(u)
            u = s_flip(u)
        return times

    def held_sum(self) -> np.ndarray:
        total = np.zeros(self.d)
        for bundle in self.held:
            total += bundle.value
        return total

    def begin_step(self) -> ScheduleEvent:
        """Advance the counter and report which bundles turn over."""
        self.t += 1
        return events_at(self.t)

    def mark_sold(self, time: int, sold_at: int, revenue: float) -> None:
        """Pop the top bundle, which must be the one bought at ``time``."""
        if not self.held or self.held[-1].time != time:
            raise InvalidStateError(f"bundle {time} is not on top of the held stack")
        bundle = self.held.pop()
        bundle.sold_at = sold_at
        bundle.sell_revenue = revenue

    def new_bundle(self, rng: np.random.Generator) -> NoiseBundle:
        if self.held and self.held[-1].time == self.t:
            raise InvalidStateError(f"bundle {self.t} already exists")
        value = (
            np.zeros(self.d)
            if self.noise_off
            else sample_bundle(self.d, self.scale, rng)
        )
        bundle = NoiseBundle(time=self.t, value=value)
        self.held.append(bundle)
        return bundle

    def verify_held(self) -> None:
        """held must equal the one-bit prefixes of t after every step."""
        times = [bundle.time for bundle in reversed(self.held)]
        if times != self.path_times():
            raise InvalidStateError(f"held {times} != counter bits {self.path_times()}")
