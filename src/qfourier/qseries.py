"""Scalar q-series primitives.

q-Pochhammer symbols, the q-exponential e(z,q) = 1/(z;q)_inf, the
normalization constant

    c_{q,v} = (q^{2v+2}; q^2)_inf / ((1-q) (q^2; q^2)_inf),

and the Gauss-kernel amplitude

    A(t) = (-q^{2v+2} t; q^2)_inf (-q^{-2v}/t; q^2)_inf
           / ((-t; q^2)_inf (-q^2/t; q^2)_inf).

Each quantity has one route, at ``PrecisionCtx.work_digits`` decimal digits
(the ``*_mp`` functions); tables consumed by other modules are generated on
it and rounded once.  Every (a; q)_inf, alone or in a lattice run
(:func:`qexp_lattice_mp`), runs in Python integers at one fixed-point scale
2^W (:func:`qpoch_inf_mp` bounds its error).  Every series, j_v's in
:mod:`qfourier.bessel` and those the check report sets against the products
(Euler's and Jacobi's, sharing none of their code), is summed by one
evaluator, :func:`ratio_sum_mp`, in integers too, past its measured cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp
from mpmath.libmp import dps_to_prec, from_man_exp

from .errors import PoleAtOne, PrecisionExhausted
from .numerics import to_fixed

__all__ = [
    "QParams",
    "PrecisionCtx",
    "DEFAULT_CTX",
    "qpoch_inf_mp",
    "q2_exact",
    "c_qv_mp",
    "qexp_mp",
    "qexp_lattice_mp",
    "gauss_amplitude_mp",
    "ratio_sum_mp",
]

# A sum that needs more than this many decimal digits is refused, not certified.
MAX_DIGITS = 50_000


@dataclass(frozen=True)
class QParams:
    """Lattice base ``q`` in (0, 1) and order parameter ``v`` > -1."""

    q: float
    v: float

    def __post_init__(self) -> None:
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie strictly inside (0, 1), got q={self.q}")
        if not self.v > -1.0:
            raise ValueError(f"v must be greater than -1, got v={self.v}")


@dataclass(frozen=True)
class PrecisionCtx:
    """Precision policy: decimal working digits, which also set every product's cut."""

    work_digits: int = 50

    def __post_init__(self) -> None:
        if self.work_digits < 16:
            raise ValueError(f"work_digits must be >= 16, got {self.work_digits}")


DEFAULT_CTX = PrecisionCtx()


def q2_exact(q: float) -> mp.mpf:
    """The exact square of the binary64 ``q``: the one q^2 of every mp path.

    The lattice points q^{2n} and the base of every q^2-product must be the
    same number, or the functional equation (z;q^2)_inf = (1-z)(q^2 z;q^2)_inf
    that links neighbouring lattice points no longer holds.  ``float(q*q)``
    differs from it whenever q^2 is not exact in binary64 (q = 0.8, not 0.5).
    """
    return mp.fmul(q, q, exact=True)


def _fixed_loop(a_, q_, ctx: PrecisionCtx, k_min: int = 0) -> tuple[int, int, int, int]:
    """W, and tol, a and q at scale 2^W, for a factor loop from a (k_min factors or more)."""
    # Stop at |a q^k| < tol = 10^-(work_digits+5) = 2^-tol_bits, which mp.prec resolves
    # with 5 digits to spare: callers run at work_digits + 10.
    tol_bits = (ctx.work_digits + 5) * math.log2(10)
    inv, mag = math.ceil(1 / (1 - float(q_))), mp.mag(a_)  # inv >= 1/(1-q)
    k = max(k_min, math.ceil((mag + tol_bits) / -math.log2(float(q_))) + 1)  # >= K
    w = mp.mp.prec + (((inv << max(mag, 0)) + k) * inv).bit_length()
    tol_fix = (1 << w) // 10 ** (ctx.work_digits + 5)
    return w, tol_fix, to_fixed(a_, w), to_fixed(q_, w)


def qpoch_inf_mp(a, q, ctx: PrecisionCtx = DEFAULT_CTX) -> mp.mpf:
    """High-precision (a; q)_inf at ``ctx.work_digits`` decimal digits.

    The base ``q`` is a float or an mpf; an mpf (such as :func:`q2_exact`) is
    used as given, never rounded.

    The loop runs in integers at scale 2^W (x_k = a q^k steps as x Q >> W; the
    product mantissa is cut to W bits per factor).  Over K factors the relative
    error is about 2^-W (|a|/(1-q)^2 + K/(1-q)) / min_k |1 - a q^k|; W is
    ``mp.prec`` plus the bits of that numerator.  The loop stops at the first
    |a q^k| < 10^-(work_digits+5): the working digits alone set the truncation.
    """
    qf = float(q)
    if not (0.0 < qf < 1.0):
        raise ValueError(f"q must lie strictly inside (0, 1), got q={q}")
    with mp.workdps(ctx.work_digits + 10):
        a_ = mp.mpf(a)
        if a_ == 0:
            return mp.mpf(1)
        w, tol_fix, x, q_fix = _fixed_loop(a_, q if isinstance(q, mp.mpf) else mp.mpf(q), ctx)
        one, neg_tol = 1 << w, -tol_fix
        m, e = one, 0  # the product is m 2^(e-w)
        while x >= tol_fix or x <= neg_tol:
            m *= one - x
            if not m:
                return mp.mpf(0)
            s = m.bit_length() - w
            m >>= s
            e += s - w
            x = x * q_fix >> w
        return mp.ldexp(m, e - w)


def c_qv_mp(p: QParams, ctx: PrecisionCtx = DEFAULT_CTX) -> mp.mpf:
    """High-precision c_{q,v} = (q^{2v+2};q^2)_inf / ((1-q)(q^2;q^2)_inf)."""
    with mp.workdps(ctx.work_digits + 10):
        q = mp.mpf(p.q)
        q2 = q2_exact(p.q)
        num = qpoch_inf_mp(q ** (2 * mp.mpf(p.v) + 2), q2, ctx)
        den = qpoch_inf_mp(q2, q2, ctx)
        return num / den / (1 - q)


def qexp_mp(z, q, ctx: PrecisionCtx = DEFAULT_CTX) -> mp.mpf:
    """High-precision q-exponential 1/(z; q)_inf for z < 1."""
    if z >= 1.0:
        raise PoleAtOne(f"e(z, q) has a pole at z = 1; got z={z}")
    with mp.workdps(ctx.work_digits + 10):
        return 1 / qpoch_inf_mp(z, q, ctx)


def qexp_lattice_mp(a, q2, n_lo: int, n_hi: int, ctx: PrecisionCtx = DEFAULT_CTX) -> list:
    """(z_n; q2)_inf = m 2^e as int pairs (m, e) for z_n = -a q2^n, n = n_lo..n_hi.

    One factor loop at the scale 2^W and tol of :func:`qpoch_inf_mp`: x = |z|
    starts at n_lo (20 guard bits) and steps as x Q >> W, Q the fixed-point
    ``q2`` (pass :func:`q2_exact`: steps and product base are one number), on
    past n_hi while x >= tol; the products accumulate back from there by
    (z; q2)_inf = (1 - z)(q2 z; q2)_inf.  Every factor 1 + x exceeds 1, so the
    error is :func:`qpoch_inf_mp`'s bound with min |1 - a q^k| = 1.
    """
    if not a > 0:
        raise ValueError(f"the run z_n = -a q2^n needs a > 0, got a={a}")
    with mp.workdps(ctx.work_digits + 10):
        with mp.workprec(mp.mp.prec + 20):
            x_lo = mp.mpf(a) * q2 ** n_lo
        w, tol_fix, x, q_fix = _fixed_loop(x_lo, q2, ctx, n_hi - n_lo + 1)
    xs = []
    while len(xs) <= n_hi - n_lo or x >= tol_fix:
        xs.append(x)
        x = x * q_fix >> w
    one, m, e, out = 1 << w, 1 << w, -w, []  # the product is m 2^e
    for x in reversed(xs):
        m *= one + x
        s = m.bit_length() - w
        m >>= s
        e += s - w
        out.append((m, e))
    return out[::-1][:n_hi - n_lo + 1]


def gauss_amplitude_mp(t, p: QParams, ctx: PrecisionCtx = DEFAULT_CTX) -> mp.mpf:
    """High-precision A(t), a ratio of four infinite Pochhammer products."""
    if not t > 0.0:
        raise ValueError(f"t must be positive, got t={t}")
    with mp.workdps(ctx.work_digits + 10):
        q = mp.mpf(p.q)
        v = mp.mpf(p.v)
        t_ = mp.mpf(t)
        q2 = q2_exact(p.q)
        num = qpoch_inf_mp(-(q ** (2 * v + 2)) * t_, q2, ctx) * qpoch_inf_mp(
            -(q ** (-2 * v)) / t_, q2, ctx
        )
        # Every factor of the denominator exceeds 1: it never vanishes.
        return num / (qpoch_inf_mp(-t_, q2, ctx) * qpoch_inf_mp(-q2 / t_, q2, ctx))


def ratio_sum_mp(inputs, digits: int, where: str, guard: int = 32):
    """sum_{n>=0} t_n, t_0 = 1, t_{n+1} = t_n x r^n / ((1 - a d^{n+1})(1 - d^{n+1})),
    good to about ``digits`` decimal digits past the cancellation of its terms.

    (x, r, d, a) = (z, 1, q, 0) is Euler's series for 1/(z;q)_inf, (-z, q, q, 0)
    his series for (z;q)_inf, (y, Q, 0, 0) half a theta series (Gasper & Rahman
    secs. 1.3, 1.6), (-x^2 q^2, q^2, q^2, q^{2v}) the series of j_v(x, q^2) and
    (-c q^{2m}, q^2, q^2, q^{2m}) its lattice sum (sec. 1.4).  The |ratio| must
    fall with n and end below 1, so a term within one unit of 0 ends the sum.
    Terms run in integers at one scale 2^W, W the bits of ``digits`` plus
    ``guard``, one truncation a step: N terms err by about
    2N (sum|t_n| / |sum| + 1) units.  A factor that is exactly one is not
    divided by: for a = 0 the step is t x r^n // (1 - d^{n+1}), for
    d^{n+1} = 0 (d = 0, or underflowed) t x r^n >> W, the same floors.  Until
    ``guard`` covers that measure the sum runs again with it, ``inputs()``
    called under each pass's ``mp.workprec(W)``, so that they carry W bits
    (q^{2e} for e < 0 is not exact); past :data:`MAX_DIGITS`,
    PrecisionExhausted names ``where``.

    Scales s_1..s_k in (0, 1] after (x, r, d, a) make it the list of the sums
    at x, x s_1, .., x s_k from one chain: term n at x s is t_n P_n >> W, with
    P_n = s^n within 2n units, so it errs by s^n times t_n's error plus
    2n |t_n| + 1 units, and the sum is measured with sum|t_n| and 4N for 2N.
    """
    prec = dps_to_prec(digits)
    while prec + guard <= dps_to_prec(MAX_DIGITS):
        w = prec + guard
        with mp.workprec(w):
            g, r, d, a, *scales = (to_fixed(mp.mpf(y), w) for y in inputs())
        one = 1 << w
        t = total = mass = one
        pows, totals = [one] * len(scales), [one] * len(scales)
        u, n = d, 0                                 # g = x r^n, u = d^{n+1}
        while t > 1 or t < -1:
            if not u:
                t = t * g >> w
            elif a:
                t = (t * g << w) // ((one - (a * u >> w)) * (one - u))
            else:
                t = t * g // (one - u)
            u = u * d >> w
            g = g * r >> w
            n += 1
            total += t
            mass += abs(t)
            for i, s in enumerate(scales):
                pows[i] = pows[i] * s >> w
                totals[i] += t * pows[i] >> w
        need = max(mass.bit_length() - abs(x).bit_length() + (f * n).bit_length() + 8
                   for x, f in [(total, 2), *((x, 4) for x in totals)])
        if need <= guard:       # exact sums; the caller's precision rounds them
            sums = [mp.make_mpf(from_man_exp(x, -w)) for x in (total, *totals)]
            return sums if scales else sums[0]
        guard = need
    raise PrecisionExhausted(f"{where} needs over {MAX_DIGITS} digits")
