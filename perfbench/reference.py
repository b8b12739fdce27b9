"""Reference values computed apart from qfourier, and the ledger of checks.

Nothing here imports qfourier.  The q-Bessel values come from mpmath's basic
hypergeometric series, the q-products from ``mpmath.qp``, and the kernel
entries are summed from those values at 50 digits, so a fault in the
library's own series, products or cube cannot also hide in its reference.
"""

from __future__ import annotations

import math

import mpmath as mp

DIGITS = 50


def _dps(q: float, n: int) -> int:
    """Digits that cover the cancellation of the j_v series at x = q^n.

    At x = q^{-m} the largest term is about q^{-m^2} while the sum is about
    q^{m^2}, so roughly 2 m^2 log10(1/q) digits cancel.
    """
    m = max(0, -n)
    return DIGITS + 10 + int(math.ceil(2.0 * m * m * math.log10(1.0 / q)))


def jv(q: float, v: float, n: int) -> mp.mpf:
    """j_v(q^n; q^2) = 1phi1(0; q^{2v+2}; q^2, q^2 x^2) at x = q^n."""
    with mp.workdps(_dps(q, n)):
        qm = mp.mpf(q)
        q2 = qm * qm
        x2 = qm ** (2 * n)
        return mp.qhyper([0], [qm ** (2 * mp.mpf(v) + 2)], q2, q2 * x2)


def jv_range(q: float, v: float, lo: int, hi: int) -> dict[int, mp.mpf]:
    """Reference j_v(q^n; q^2) for every exponent n in [lo, hi]."""
    return {n: jv(q, v, n) for n in range(lo, hi + 1)}


def c_qv(q: float, v: float) -> mp.mpf:
    """c_{q,v} = (q^{2v+2}; q^2)_inf / ((1-q) (q^2; q^2)_inf)."""
    with mp.workdps(DIGITS + 10):
        qm = mp.mpf(q)
        q2 = qm * qm
        return mp.qp(qm ** (2 * mp.mpf(v) + 2), q2) / ((1 - qm) * mp.qp(q2, q2))


def qexp(q: float, z) -> mp.mpf:
    """e(z; q^2) = 1 / (z; q^2)_inf for z < 1."""
    with mp.workdps(DIGITS + 10):
        qm = mp.mpf(q)
        return 1 / mp.qp(mp.mpf(z), qm * qm)


def heat_symbol(q: float, t: float, n: int) -> mp.mpf:
    """The heat multiplier e(-t x^2; q^2) at x = q^n."""
    with mp.workdps(DIGITS + 10):
        return qexp(q, -mp.mpf(t) * mp.mpf(q) ** (2 * n))


def gauss_profile(q: float, v: float, t: float, exps) -> dict[int, mp.mpf]:
    """Closed-form Gauss kernel A(t) e(-q^{-2v} x^2 / t; q^2) at x = q^n, with

    A(t) = (-q^{2v+2} t; q^2)_inf (-q^{-2v}/t; q^2)_inf
           / ((-t; q^2)_inf (-q^2/t; q^2)_inf),

    for every exponent n in ``exps``.
    """
    with mp.workdps(DIGITS + 10):
        qm, vm, tm = mp.mpf(q), mp.mpf(v), mp.mpf(t)
        q2 = qm * qm
        amp = (mp.qp(-(qm ** (2 * vm + 2)) * tm, q2) * mp.qp(-(qm ** (-2 * vm)) / tm, q2)
               / (mp.qp(-tm, q2) * mp.qp(-q2 / tm, q2)))
        return {n: amp * qexp(q, -(qm ** (-2 * vm)) * qm ** (2 * n) / tm) for n in exps}


def kernel_entry(q: float, v: float, grid_exps, jref: dict[int, mp.mpf],
                 c: mp.mpf, a: int, b: int, d: int) -> tuple[float, float]:
    """D_v(q^a, q^b, q^d) = c^2 (1-q) sum_s q^{s(2v+2)} j(a+s) j(b+s) j(d+s).

    Summed at 50 digits over the grid exponents s.  Returns the entry and the
    sum of the terms' absolute values, the scale an error is measured on.
    """
    with mp.workdps(DIGITS):
        qm = mp.mpf(q)
        power = 2 * mp.mpf(v) + 2
        pref = c * c * (1 - qm)
        terms = [pref * qm ** (int(s) * power) * jref[a + int(s)] * jref[b + int(s)]
                 * jref[d + int(s)] for s in grid_exps]
        return float(mp.fsum(terms)), float(mp.fsum(abs(t) for t in terms))


def rel_err(value: float, ref) -> float:
    """|value - ref| / |ref| in binary64, with ref an mpf or a float.

    A reference below the smallest normal double is measured against that
    smallest normal, so entries that underflow compare by their rounding.
    """
    ref = float(ref)
    return abs(value - ref) / max(abs(ref), 2.2250738585072014e-308)


class Checks:
    """Ledger of gated checks on the program's outputs.

    A check passes when its error is at most its tolerance; NaN fails.  The
    headroom of a passing check is log10(tolerance / error), taken over the
    checks whose error is not exactly zero.
    """

    def __init__(self) -> None:
        self.count = 0
        self.failures: list[str] = []
        self.min_headroom = math.inf
        self.worst = ""
        self.headrooms: list[tuple[float, str]] = []

    def gate(self, name: str, err: float, tol: float) -> bool:
        self.count += 1
        err = float(err)
        if not err <= tol:
            self.failures.append(f"{name}: error {err!r} exceeds tolerance {tol!r}")
            return False
        if err > 0.0:
            headroom = math.log10(tol / err)
            self.headrooms.append((headroom, name))
            if headroom < self.min_headroom:
                self.min_headroom, self.worst = headroom, name
        return True

    def require(self, name: str, ok: bool, detail: str = "") -> bool:
        """An exact property: it holds or it does not."""
        self.count += 1
        if not ok:
            self.failures.append(f"{name}: {detail or 'does not hold'}")
        return bool(ok)

    @property
    def correct(self) -> bool:
        return not self.failures
