"""Semantic exception types shared across the package."""


class BornLabError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInterval(BornLabError, ValueError):
    """Interval endpoints or width are not finite, or the ends not strictly ordered."""


class NonConvergence(BornLabError):
    """Adaptive quadrature exhausted its refinement-depth budget."""


class InvalidGeometry(BornLabError, ValueError):
    """Slit geometry violates its physical constraints."""


class ZeroMass(BornLabError):
    """A density integrates to (numerically) zero over the requested interval."""


class ZeroVariance(BornLabError):
    """The second central moment of a density is numerically zero."""


class OutOfSupport(BornLabError, ValueError):
    """CDF evaluation point lies outside the requested interval."""


class EmptyHistogram(BornLabError):
    """Operation requires at least one binned event."""


class OutOfInterval(BornLabError, ValueError):
    """One or more event positions fall outside the target interval.

    ``indices`` lists the offending zero-based row/event indices.
    """

    def __init__(self, message: str, indices=()):
        super().__init__(message)
        self.indices = tuple(indices)


class DegenerateState(BornLabError, ValueError):
    """All sampling weights are zero."""


class UnstableStep(BornLabError):
    """A single evolution step lost more norm than the stability budget."""


class InsufficientHistory(BornLabError):
    """Residual operators need two consecutive field snapshots."""


class SlopeUndefined(BornLabError):
    """A rate fit was requested on fewer than two grid points."""


class ParseError(BornLabError, ValueError):
    """A data file violates its schema.  ``line`` is the 1-based line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(message)
        self.line = line


class EmptyFile(BornLabError):
    """A data file contains a header but no rows."""


class ConfigError(BornLabError, ValueError):
    """Configuration file is malformed.  ``key`` names the offending entry."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key
