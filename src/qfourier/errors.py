"""Exception types shared across the package."""


class QFourierError(Exception):
    """Base class for all package-specific errors."""


class PoleAtOne(QFourierError, ValueError):
    """q-exponential evaluated at or beyond its pole at z = 1."""


class PrecisionExhausted(QFourierError, ArithmeticError):
    """Requested accuracy cannot be certified at any affordable precision."""


class GridMismatch(QFourierError, ValueError):
    """Two grid functions (or a file and a grid) disagree on the lattice."""


class OffGrid(QFourierError, ValueError):
    """A point was requested that is not on the lattice."""


class OffWindow(QFourierError, ValueError):
    """A kernel operation was requested outside the trusted window."""


class NotProbability(QFourierError, ValueError):
    """A density failed the probability-measure precondition."""


class ParseError(QFourierError, ValueError):
    """A data file could not be parsed."""


class GridTooSmall(QFourierError, ValueError):
    """A grid (q, v) cannot use: no trusted window, or no usable kernel window."""


class GridTooLarge(QFourierError, ValueError):
    """A grid with more points than the N x N arrays of its operators fit in memory for."""
