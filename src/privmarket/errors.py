"""Exception types, the config parsers and the parameter range checks shared across the package."""

import math


class PrivMarketError(Exception):
    """Base class for all package errors."""


class InvalidParameterError(PrivMarketError, ValueError):
    """A parameter violates its documented range or relationship."""


class InvalidStateError(PrivMarketError, RuntimeError):
    """An object was driven into (or asked about) an impossible state."""


class TradeRejectedError(PrivMarketError, ValueError):
    """A submitted trade bundle violates the per-trade size limit.

    row is the index of the first bad bundle of the block that was stepped.
    """

    def __init__(self, message: str, row: int = 0):
        super().__init__(message)
        self.row = row


class MarketClosedError(PrivMarketError, RuntimeError):
    """The session is closed (or full) and cannot accept the request."""


class InsufficientDataError(PrivMarketError, ValueError):
    """A statistical verifier was given too few trials to say anything."""


class StrategyBugError(PrivMarketError, RuntimeError):
    """A strategy returned a malformed decision."""


class ConfigError(PrivMarketError, ValueError):
    """A run configuration failed validation."""


def _int_in(low=-math.inf, high=math.inf):
    """Parser of an integer in [low, high]."""

    def parse(value, name: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer")
        if not low <= value <= high:
            bound = f">= {low}" if value < low else f"<= {high}"
            raise ConfigError(f"{name} must be {bound}")
        return value

    return parse


def _as_num(value, name: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{name} must be a number")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond float range
        value = math.inf
    if not math.isfinite(value):
        raise ConfigError(f"{name} must be finite")
    return value


def check_positive(name: str, value: float, zero_ok: bool = False) -> float:
    """value if it is finite and > 0 (>= 0 with zero_ok); NaN fails both comparisons."""
    if not (0.0 <= value < math.inf if zero_ok else 0.0 < value < math.inf):
        sign = "nonnegative" if zero_ok else "positive"
        raise InvalidParameterError(f"{name} must be finite and {sign}")
    return value


def check_design(d: int, alpha: float, gamma: float, epsilon: float, B1: float | None = None):
    """The ranges the mechanism's formulas assume: d >= 1, alpha and gamma in
    (0, 1), epsilon finite and positive, and for a stage plan B1 too."""
    if d < 1:
        raise InvalidParameterError("d must be >= 1")
    if not (0.0 < alpha < 1.0 and 0.0 < gamma < 1.0):
        raise InvalidParameterError("alpha and gamma must lie in (0, 1)")
    check_positive("epsilon", epsilon)
    if B1 is not None:
        check_positive("B1", B1)
