"""Reference j_v(q^e; q^2) from mpmath's basic hypergeometric series.

Nothing here imports qfourier: as in ``perfbench/reference.py``,
j_v(x; q^2) = 1phi1(0; q^{2v+2}; q^2, q^2 x^2) by ``mpmath.qhyper``, so a
fault in the library's own sums cannot also hide in its reference.

``qhyper`` measures the cancellation of its terms, but its inputs are rounded
at the caller's digits first, and at x = q^-m the sum loses about
(2 m^2 + (2v+1) m) log10(1/q) digits of them, some 41 more near q = 0.99
(the (q^2; q^2)_n denominators).  So every value is taken at two precisions,
30 digits apart, that must agree: a precision too low for the point fails
the test instead of passing a wrong reference.
"""

import math

import mpmath as mp


def jv_ref(q: float, v: float, e: int, digits: int = 60, extra: int = 0) -> mp.mpf:
    """j_v(q^e; q^2) good to 10^-digits relative.

    The lower precision is ``digits`` + 10 + ``extra`` plus the loss above;
    give ``extra`` where that loss estimate falls short (q -> 1).
    """
    m = max(0, -e)
    lost = (2 * m * m + max(2 * v + 1, 0) * m) * math.log10(1 / q)
    low = digits + 10 + extra + math.ceil(lost)
    values = []
    for dps in (low, low + 30):
        with mp.workdps(dps):
            qm = mp.mpf(q)
            q2 = qm * qm
            values.append(mp.qhyper([0], [qm ** (2 * mp.mpf(v) + 2)], q2, q2 ** (e + 1)))
    lo, hi = values
    with mp.workdps(low + 30):
        assert abs(lo - hi) <= mp.mpf(10) ** -digits * abs(hi), (q, v, e, low)
    return hi
