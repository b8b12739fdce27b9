"""Residual bookkeeping: NaN must survive the fold into a worst residual."""

import math

from qfourier.numerics import ulps, worst


def test_worst_is_the_largest():
    assert worst(1e-9, 3e-12, 2e-8) == 2e-8


def test_worst_of_nothing_is_zero():
    assert worst() == 0.0


def test_worst_keeps_nan_in_any_position():
    # The builtin drops it: max(0.0, nan) == 0.0.
    assert max(0.0, math.nan) == 0.0
    for residuals in ((math.nan, 1.0), (1.0, math.nan), (0.0, 2.0, math.nan, 1.0)):
        assert math.isnan(worst(*residuals))


def test_ulps():
    assert ulps(1.0, 1.0) == 0.0
    assert ulps(1.0, 1.0 + 2 * math.ulp(1.0)) == 2.0
