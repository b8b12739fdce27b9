"""Scalar q-series primitives.

q-Pochhammer symbols, the q-exponential e(z,q) = 1/(z;q)_inf, the
normalization constant

    c_{q,v} = (q^{2v+2}; q^2)_inf / ((1-q) (q^2; q^2)_inf),

and the Gauss-kernel amplitude

    A(t) = (-q^{2v+2} t; q^2)_inf (-q^{-2v}/t; q^2)_inf
           / ((-t; q^2)_inf (-q^2/t; q^2)_inf).

Each quantity has one route, at ``PrecisionCtx.work_digits`` decimal digits
(the ``*_mp`` functions); tables consumed by other modules are generated on
it and rounded once.  Every (a; q)_inf runs in Python integers at one
fixed-point scale 2^W and forms one mpf at the end (:func:`qpoch_inf_mp`
bounds its error).  The check report compares these products with series
that share none of their code (Euler's two identities and Jacobi's triple
product, in :mod:`qfourier.report`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import mpmath as mp

from .errors import PoleAtOne
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
]


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
    """Precision policy: decimal working digits and relative tail tolerance."""

    work_digits: int = 50
    tail_tol: float = 1e-30

    def __post_init__(self) -> None:
        if self.work_digits < 16:
            raise ValueError(f"work_digits must be >= 16, got {self.work_digits}")
        if not (0.0 < self.tail_tol < 1.0):
            raise ValueError(f"tail_tol must lie in (0, 1), got {self.tail_tol}")


DEFAULT_CTX = PrecisionCtx()


def q2_exact(q: float) -> mp.mpf:
    """The exact square of the binary64 ``q``: the one q^2 of every mp path.

    The lattice points q^{2n} and the base of every q^2-product must be the
    same number, or the functional equation (z;q^2)_inf = (1-z)(q^2 z;q^2)_inf
    that links neighbouring lattice points no longer holds.  ``float(q*q)``
    differs from it whenever q^2 is not exact in binary64 (q = 0.8, not 0.5).
    """
    return mp.fmul(q, q, exact=True)


def qpoch_inf_mp(a, q, ctx: PrecisionCtx = DEFAULT_CTX) -> mp.mpf:
    """High-precision (a; q)_inf at ``ctx.work_digits`` decimal digits.

    The base ``q`` is a float or an mpf; an mpf (such as :func:`q2_exact`) is
    used as given, never rounded.

    The loop runs in integers at scale 2^W (x_k = a q^k steps as x Q >> W; the
    product mantissa is cut to W bits per factor).  Over K factors the relative
    error is about 2^-W (|a|/(1-q)^2 + K/(1-q)) / min_k |1 - a q^k|; W is
    ``mp.prec`` (or the bits of tol, if finer) plus the bits of that numerator.
    """
    qf = float(q)
    if not (0.0 < qf < 1.0):
        raise ValueError(f"q must lie strictly inside (0, 1), got q={q}")
    with mp.workdps(ctx.work_digits + 10):
        a_ = mp.mpf(a)
        if a_ == 0:
            return mp.mpf(1)
        q_ = q if isinstance(q, mp.mpf) else mp.mpf(q)
        # Stop at |a q^k| < tol = min(tail_tol, 10^-(work_digits+5)) = 2^-tol_bits.
        tol_bits = max(-math.log2(ctx.tail_tol), (ctx.work_digits + 5) * math.log2(10))
        inv, mag = math.ceil(1 / (1 - qf)), mp.mag(a_)  # inv >= 1/(1-q)
        k = math.ceil((mag + tol_bits) / -math.log2(qf)) + 1  # >= K
        # A scale coarser than tol would truncate it to 0: the loop never stops.
        w = max(mp.mp.prec, math.ceil(tol_bits)) + (((inv << max(mag, 0)) + k) * inv).bit_length()
        one = 1 << w
        tol_fix = min(to_fixed(mp.mpf(ctx.tail_tol), w), one // 10 ** (ctx.work_digits + 5))
        x, q_fix, neg_tol = to_fixed(a_, w), to_fixed(q_, w), -tol_fix
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


def qexp_lattice_mp(zs, q2, ctx: PrecisionCtx = DEFAULT_CTX) -> list:
    """e(z_k; q2) along a geometric run z_{k+1} = q2 z_k of negative points.

    One truncated product is taken at the last point, where |z| is smallest;
    the functional equation (z; q2)_inf = (1 - z) (q2 z; q2)_inf then steps
    back along the run, one multiplication per point.  Every factor 1 - z_k
    is above 1, so nothing cancels and the values agree with one product per
    point to working precision -- provided the run steps by exactly the
    product base ``q2`` (pass :func:`q2_exact`, and build the points from it).
    """
    if any(z >= 0 for z in zs):
        raise ValueError("the lattice run must be negative")
    with mp.workdps(ctx.work_digits + 10):
        prod = qpoch_inf_mp(zs[-1], q2, ctx)
        out = [1 / prod]
        for z in reversed(zs[:-1]):
            prod *= 1 - z
            out.append(1 / prod)
        out.reverse()
        return out


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
