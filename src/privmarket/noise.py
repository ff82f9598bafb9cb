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
of t, i.e. the path {t, s(t), ...}: one bundle per one-bit, so NoiseLedger
keeps them in an array indexed by the bit, tz of the buy time.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InvalidParameterError, InvalidStateError, check_positive


UNIFORM_FLOOR = 1e-300
LAPLACE_MAX = -math.log(UNIFORM_FLOOR)
"""Largest size of a sample_bundle entry at scale 1 (about 690.8)."""


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
    """Per-coordinate Laplace scale 2 * ceil(log2 T) / epsilon; a scale past float range raises."""
    return check_positive("noise scale", 2.0 * tree_depth(T) / check_positive("epsilon", epsilon))


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


def sample_bundle(
    d: int, scale: float, rng: np.random.Generator, k: int | None = None
) -> np.ndarray:
    """d i.i.d. Laplace(scale) draws via the inverse CDF on one uniform block.

    With k, k bundles as the rows of a (k, d) block: the same numbers, in
    the same order, as k calls without it.  Explicit inverse-CDF sampling
    pins the draw count per bundle to d, which is what makes runs
    bit-reproducible across numpy versions.
    """
    if d < 1:
        raise InvalidParameterError("d must be >= 1")
    check_positive("scale", scale)
    u = rng.random(d if k is None else (k, d)) - 0.5
    # 1 - 2|u| lies in [0, 1]; the floor keeps the log finite on the
    # measure-zero edge u == -0.5
    return -scale * np.sign(u) * np.log(np.maximum(1.0 - 2.0 * np.abs(u), UNIFORM_FLOOR))


class NoiseLedger:
    """The noise trader's binary counter for one market session.

    The bundle bought at time u sits at level tz(u) of the (L, d) array
    levels, L = tree_depth(T) + 1.  Step t sells levels 0 .. tz(t) - 1, the
    most recent bundle first, and buys at level tz(t), so after every step
    the held levels are exactly the one-bits of t: mask keeps them and is
    checked against t, and a level not held is zero.  noise_off swaps the
    sampled values for zeros (schedule and bookkeeping unchanged) so tests
    can isolate the trading mechanics.
    """

    def __init__(self, d: int, scale: float, T: int, noise_off: bool = False):
        self.d, self.scale, self.noise_off = d, scale, noise_off
        self.t = self.mask = 0
        self.levels = np.zeros((tree_depth(T) + 1, d))
        self._ones = np.ones(len(self.levels))

    @property
    def held(self) -> list[tuple[int, np.ndarray]]:
        """(buy time, value) of each held bundle, oldest first; values are views of levels.

        The bundle at level l was bought at the latest u <= t with tz(u) == l.
        """
        t = self.t
        return [(t - ((t - (1 << l)) & ((2 << l) - 1)), self.levels[l])
                for l in reversed(range(len(self.levels))) if self.mask >> l & 1]

    def path_times(self) -> list[int]:
        """The stack {t, s(t), s(s(t)), ...} down to (not including) 0."""
        times = []
        u = self.t
        while u > 0:
            times.append(u)
            u &= u - 1
        return times

    def held_sum(self) -> np.ndarray:
        """Sum of the held bundles: of all levels, since a level not held is zero."""
        return self._ones.dot(self.levels)

    def begin_step(self) -> int:
        """Advance the counter to t and return tz(t), the number of bundles step t sells."""
        self.t += 1
        return (self.t & -self.t).bit_length() - 1

    def mark_sold(self) -> np.ndarray:
        """Sell the lowest held level, the most recent bundle, and return its value."""
        if not self.mask:
            raise InvalidStateError("no held bundle to sell")
        level = (self.mask & -self.mask).bit_length() - 1
        self.mask &= self.mask - 1
        value = self.levels[level].copy()
        self.levels[level] = 0.0
        return value

    def draw(self, rng: np.random.Generator, k: int | None = None) -> np.ndarray:
        """Value of the next bundle, or with k the next k as a (k, d) block.

        The values are Laplace draws, or zeros under noise_off.  rng feeds
        only bundles, so drawing before the step's sells are booked leaves
        the draw order unchanged.
        """
        if self.noise_off:
            return np.zeros(self.d if k is None else (k, self.d))
        return sample_bundle(self.d, self.scale, rng, k)

    def new_bundle(self, value: np.ndarray) -> None:
        """Buy the bundle of step t, whose value came from draw, at level tz(t)."""
        level = (self.t & -self.t).bit_length() - 1
        if self.mask >> level & 1:
            raise InvalidStateError(f"bundle {self.t} already exists")
        self.levels[level] = value
        self.mask |= 1 << level

    def advance(self, k: int, low: np.ndarray, flips: int) -> None:
        """Book k steps at once: levels below len(low) become low, and mask flips the
        bits of the levels sold from before the steps and of those bought and still held."""
        self.levels[: len(low)] = low
        self.mask ^= flips
        self.t += k

    def verify_held(self) -> None:
        """The held levels must be the one-bits of t after every step."""
        if self.mask != self.t:
            times = [time for time, _ in reversed(self.held)]
            raise InvalidStateError(f"held {times} != counter bits {self.path_times()}")
