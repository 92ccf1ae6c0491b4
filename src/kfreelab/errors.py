"""Exception hierarchy shared by every kfreelab module.

The CLI maps these onto process exit codes (domain errors -> 2, size
guards -> 3, I/O and cache-format problems -> 4), so library code should
raise the most specific class that applies and always name the offending
parameter in the message.
"""

from __future__ import annotations

__all__ = [
    "KfreeError",
    "DomainError",
    "InfeasibleError",
    "UndefinedFractionError",
    "SizeError",
    "CacheError",
]


class KfreeError(Exception):
    """Base class for every error raised by this package."""


class DomainError(KfreeError, ValueError):
    """A parameter is outside the mathematical domain of the operation."""


class InfeasibleError(DomainError):
    """The requested configuration admits no valid object (e.g. m > ex)."""


class UndefinedFractionError(DomainError):
    """A ratio was requested whose denominator counts zero objects."""


class SizeError(KfreeError):
    """An explicit size guard was exceeded (work would be astronomically large)."""


class CacheError(KfreeError, OSError):
    """A persisted artifact is unreadable: bad version, checksum, or truncation."""
