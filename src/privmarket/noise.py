"""Noise-trade schedule for continual observation of the share state.

The published state after arrival t hides the running trade total behind
fresh noise bundles arranged like a binary counter: writing s(t) for t with
its lowest set bit cleared, the published state is

    q_hat^t = q^t + z^t + z^{s(t)} + z^{s(s(t))} + ...

so at most ceil(log2 T) bundles are ever stacked, and each partial sum of
trades sum_{s(t) < s <= t} dq^s is covered by exactly one bundle.  The
noise trader realizes this by selling, at step t, its tz(t) most recent
bundles, where tz(t) is the number of trailing zero bits of t (they were
bought at t-1, t-2, t-4, ..., t-2^{tz(t)-1}), then buying a fresh bundle
z^t.  The bundles still held after step t are exactly the one-bit prefixes
of t, i.e. the path {t, s(t), ...}, so the ledger is a stack of
(buy time, value) pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParameterError, InvalidStateError


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
    # 1 - 2|u| lies in [0, 1]; the floor keeps the log finite on the
    # measure-zero edge u == -0.5
    return -scale * np.sign(u) * np.log(np.maximum(1.0 - 2.0 * np.abs(u), 1e-300))


@dataclass
class NoiseLedger:
    """The noise trader's binary counter for one market session.

    held is the stack of (buy time, value) pairs still owned, oldest at the
    bottom.  Step t sells the tz(t) most recent bundles, so a sale pops the
    top, and after every step the stack holds exactly the one-bits of the
    step counter: at most floor(log2 t) + 1 bundles.  noise_off swaps the
    sampled values for zeros (schedule and bookkeeping unchanged) so tests
    can isolate the trading mechanics.
    """

    d: int
    scale: float
    noise_off: bool = False
    t: int = 0
    held: list[tuple[int, np.ndarray]] = field(default_factory=list)

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
        for _, value in self.held:
            total += value
        return total

    def begin_step(self) -> int:
        """Advance the counter to t and return tz(t), the number of bundles step t sells."""
        self.t += 1
        return (self.t & -self.t).bit_length() - 1

    def mark_sold(self) -> None:
        """Pop the top bundle, the most recent one held."""
        if not self.held:
            raise InvalidStateError("no held bundle to sell")
        self.held.pop()

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """Value of the next bundle: d Laplace draws, or zeros under noise_off.

        rng feeds only bundles, so drawing before the step's sells are booked
        leaves the draw order unchanged.
        """
        return np.zeros(self.d) if self.noise_off else sample_bundle(self.d, self.scale, rng)

    def new_bundle(self, value: np.ndarray) -> None:
        """Push the bundle of step t, whose value came from draw."""
        if self.held and self.held[-1][0] == self.t:
            raise InvalidStateError(f"bundle {self.t} already exists")
        self.held.append((self.t, value))

    def verify_held(self) -> None:
        """held must equal the one-bit prefixes of t after every step."""
        times = [time for time, _ in reversed(self.held)]
        if times != self.path_times():
            raise InvalidStateError(f"held {times} != counter bits {self.path_times()}")
