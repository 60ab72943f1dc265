"""Exceptions shared across the package."""


class LocalPointsError(Exception):
    """Base class for all package-specific errors."""


class NotAPrefixError(LocalPointsError):
    """Raised when embedding an element into a tower that does not extend its own."""


class PlaceMismatchError(LocalPointsError):
    """Raised when combining local objects that live at different places."""


class ZeroFunctionError(LocalPointsError):
    """Raised when an operation needs a nonzero function (order, squareness, ...)."""


class PrecisionExhaustedError(LocalPointsError):
    """Raised when a truncated-series result would carry no known coefficient."""


class OddPowerError(LocalPointsError):
    """Raised when a formal-square-root variable occurs with an odd exponent."""


class ClaimSyntaxError(LocalPointsError):
    """Parse error in the claim language, with source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


class UnknownClaimError(LocalPointsError):
    """Raised when a claim name is not in the registry."""


class DuplicateClaimError(ClaimSyntaxError):
    """Raised when a claim file re-declares an existing claim name, at the name."""
