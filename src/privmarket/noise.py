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


BLOCK_FLOATS = 2**14
"""Most bundle entries (arrivals times d) that drive_session books in one
block, and that a session draws ahead of its arrivals.  A block's arrays
take a few hundred bytes per entry, so with traders.BLOCK_CAP this bounds
them to a few MB at any d: d <= 16 gets 1024 arrivals, d = 64 gets 256 and
d = 1024 gets 16."""

UNIFORM_FLOOR = 1e-300
LAPLACE_MAX = -math.log(UNIFORM_FLOOR)
"""Largest size of a sample_bundle entry at scale 1 (about 690.8)."""


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

    That is #{t in [t_prime, T] : s(t) < t_prime <= t}.  The worst case,
    floor(log2 T) + 1 = T.bit_length(), is attained at t_prime = 1 at every
    T, since every power of two up to T covers it; it exceeds ceil(log2 T)
    exactly when T is a power of two, which is why the privacy audit reports
    exact counts rather than asserting the smaller cap.  Each t covers the
    half-open interval (s(t), t] of t_prime values, so the table is a sum of
    interval indicators, built with a difference array.
    """
    if T < 1:
        raise InvalidParameterError("T must be >= 1")
    ts = np.arange(1, T + 1, dtype=np.int64)
    diff = np.bincount(ts & (ts - 1), minlength=T + 1) - np.bincount(ts, minlength=T + 1)
    return np.cumsum(diff[:T], dtype=np.int64)


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


def l2_norms(z: np.ndarray) -> np.ndarray:
    """math.sqrt(row.dot(row)) of each row of z (k, d), bit for bit.

    A stacked (1, d) @ (d, 1) matmul is a dot per row; np.linalg.norm and
    sums of squares round differently at d >= 2.
    """
    k, d = z.shape
    return np.sqrt(np.matmul(z.reshape(k, 1, d), z.reshape(k, d, 1)).ravel())


class NoiseLedger:
    """The noise trader's binary counter for one market session.

    The bundle bought at time u sits at level tz(u) of the (L, d) array
    levels, L = tree_depth(T) + 1.  Step t sells levels 0 .. tz(t) - 1, the
    most recent bundle first, and buys at level tz(t), so after every step
    the held levels are exactly the one-bits of t: mask keeps them and is
    checked against t, and a level not held is zero.  noise_off swaps the
    sampled values for zeros (schedule and bookkeeping unchanged) so tests
    can isolate the trading mechanics.  A session takes its bundles through
    take, books the counter only through advance (a block of steps, or the
    sell-back at close) and reads levels, mask and held_sum; begin_step,
    mark_sold, new_bundle and held are the per-arrival reference for tests.

    take draws ahead: a buffer of at most max(k, BLOCK_FLOATS // d) bundles
    and their l2 norms, refilled by one sample_bundle call and one l2_norms
    call, never past the horizon T.  So a ledger taken to T has drawn exactly
    T * d uniforms, and one taken less far may have drawn bundles it never
    uses.
    """

    def __init__(self, d: int, scale: float, T: int, noise_off: bool = False):
        self.d, self.scale, self.T, self.noise_off = d, scale, T, noise_off
        self.t = self.mask = 0
        self.levels = np.zeros((tree_depth(T) + 1, d))
        self._ones = np.ones(len(self.levels))
        self._z, self._norms = np.zeros((0, d)), np.zeros(0)  # drawn, not yet taken

    @property
    def held(self) -> list[tuple[int, np.ndarray]]:
        """(buy time, value) of each held bundle, oldest first; values are views of levels.

        The bundle at level l was bought at the latest u <= t with tz(u) == l.
        """
        t = self.t
        return [(t - ((t - (1 << l)) & ((2 << l) - 1)), self.levels[l])
                for l in reversed(range(len(self.levels))) if self.mask >> l & 1]

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

    def take(self, rng: np.random.Generator, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The next k bundles as a (k, d) block z, and l2_norms(z): z is what
        k more sample_bundle calls on rng would give, or zeros under
        noise_off, which leave rng untouched.  Taking past T raises.  The
        bundles of steps 1..t are taken already, so advance(k, ...) must follow."""
        buffered = len(self._z)
        if buffered < k:
            n = min(max(k, BLOCK_FLOATS // self.d), self.T - self.t) - buffered
            if buffered + n < k:
                raise InvalidStateError(f"{k} more bundles pass the horizon {self.T}")
            fresh = np.zeros((n, self.d)) if self.noise_off else sample_bundle(
                self.d, self.scale, rng, n)
            self._z = np.concatenate((self._z, fresh))
            self._norms = np.concatenate((self._norms, l2_norms(fresh)))
        z, self._z = self._z[:k], self._z[k:]
        norms, self._norms = self._norms[:k], self._norms[k:]
        return z, norms

    def new_bundle(self, value: np.ndarray) -> None:
        """Buy value as the bundle of step t, at level tz(t)."""
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
        """The held levels must be the one-bits of t: after each step, or block of steps."""
        if self.mask != self.t:
            raise InvalidStateError(f"held levels {self.mask:b} != counter bits {self.t:b}")
