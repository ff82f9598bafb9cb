"""Exception types shared across the package."""


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
