"""Residual bookkeeping shared by every identity check.

``TINY`` guards relative residuals against a zero denominator; ``worst``
folds residuals into their maximum without losing a NaN (the builtin
``max(0.0, nan)`` is 0.0, so a NaN met after the first residual would
vanish and the gate would pass); ``ulps`` measures a binary64 gap;
``to_fixed`` turns an mpf into the integer of a fixed-point sum or product.
"""

from __future__ import annotations

import math

__all__ = ["TINY", "worst", "ulps", "to_fixed"]

TINY = 1e-300


def worst(*residuals: float) -> float:
    """Largest of the residuals (0.0 for none); NaN if any of them is NaN."""
    out = 0.0
    for r in residuals:
        if math.isnan(r):
            return math.nan
        out = max(out, r)
    return out


def ulps(a: float, b: float) -> float:
    """|a - b| in units in the last place of the larger magnitude."""
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def to_fixed(x, bits: int) -> int:
    """The finite mpf ``x`` times 2**bits as an int, truncated toward zero."""
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError(f"fixed-point input {x} is not finite")
    shift = exp + bits
    man = man << shift if shift >= 0 else man >> -shift
    return -man if sign else man
