"""Normalized q-Bessel function j_v(x, q^2) and its lattice tables.

The series

    j_v(x, q^2) = sum_{n>=0} (-1)^n q^{n(n+1)} x^{2n}
                  / ((q^{2v+2}; q^2)_n (q^2; q^2)_n)

converges for every real x thanks to the q^{n(n+1)} super-decay, but for
x = q^{-m} (m > 0) the largest term is ~ q^{-m^2} while the sum is
~ q^{m^2 + (2v+1)m}, so roughly (2 m^2 + (2v+1) m) log10(1/q) decimal digits
cancel, more as q -> 1.  Every sum here is :func:`qseries.ratio_sum_mp`'s,
which measures that cancellation and sums again until its guard covers it.
A scalar value is one series, the estimate only its first guard, rounded to
binary64 exactly once.

A table sums no series per entry.  On x = q^n the eigen relation is the
three-term recurrence

    j(q^{n+1}) = ((1 + q^{2v} - q^{2n}) j(q^n) - j(q^{n-1})) / q^{2v},

and upward from the deep tail j_v dominates the second solution (Miller's
algorithm; Gautschi, SIAM Review 9, 1967).  One sweep runs from (0, 1) a few
exponents below n_min and is scaled once to j_v at n_max.  It must equal j_v
at n_min to 1e-40 relative, or it restarts twice as deep.  The recurrence
does not cancel as the series does, so the sweep runs in Python ints at one
scale 2^w, w the bits of the working digits (at least 26) plus the q^{-2v}
growth of the second solution up to n_max plus 20 guard digits; a step errs
as one mpf step at w bits would (:func:`_sweep`).

Neither anchor cancels as the series at q^{-m} does.  At n_max (x <= 1 on
every grid with n_hi >= 0) the series is summed.  At n_min < 0 the lattice
sum of :func:`_anchor`, from the z <-> c symmetry of 1phi1 (Gasper & Rahman
sec. 1.4; Koornwinder & Swarttouw, Trans. AMS 333, 1992), starts at j_v's
own size and its terms fall from there.  The top anchor scales every entry,
so it runs at the sweep's digits plus 10; the bottom one only decides the
1e-40 certificate and enters no entry, so it runs at the certificate's 40
digits plus 10.  Each also sums the digits its own terms are measured to
cancel (which grow only as q -> 1).  Each entry is its int times one mpf
scale, rounded once at its own a-priori precision, and all entries' binary64
values come from one conversion of those mantissas (:func:`_to_floats`).
The series stays the independent route:
``bessel-table-reproducibility`` compares it with the table at anchor
exponents (at n_min a route other than the certifying one), which sees a
wrong scale or a leftover of the second solution that the linear,
homogeneous eigen relation cannot.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import mpmath as mp
import numpy as np
from mpmath.libmp import dps_to_prec, fzero, round_nearest, to_float

from .errors import PrecisionExhausted
from .lattice import LatticeGrid
from .numerics import to_fixed, ulps, worst
from .qseries import (DEFAULT_CTX, PrecisionCtx, QParams, c_qv_mp, q2_exact, qpoch_inf_mp,
                      ratio_sum_mp)

__all__ = [
    "BesselTable",
    "jv",
    "jv_table",
    "decay_bound_constant",
    "decay_bound_log10",
    "DecayCheck",
    "decay_bound_check",
    "eigen_residual",
    "anchor_ulps",
    "jv_exact_dyadic",
]

# A table sweep starts this many exponents below n_min, with this many guard
# digits over the working digits and the top growth; an uncertified start is
# doubled at most _MAX_SWEEPS - 1 times.
_START_DEPTH, _SWEEP_GUARD_DIGITS, _MAX_SWEEPS = 10, 20, 5

# Relative gap to j_v at n_min that certifies a sweep.  The sweep carries at
# least 46 digits past the top growth and its top anchor at least 46 past
# every cancellation, so a certified table is good to about this in every mp
# value.  The bottom anchor only decides this test and enters no entry, so it
# runs at the certificate's digits plus 10.
_CERTIFY_REL = 1e-40
_CERTIFY_DIGITS = math.ceil(-math.log10(_CERTIFY_REL)) + 10

_JV_DIGITS = 26  # a scalar jv's digits past its measured cancellation: binary64's 16 + 10

# jv_exact_dyadic's first term count puts its first left-out term this many
# bits below j_v's decay envelope: 11 past binary64's 53.
_DYADIC_GUARD_BITS = 64


def _digits_lost(m: float, p: QParams) -> float:
    """A-priori estimate of decimal digits cancelled by the series at |x| = q^-m.

    At |x| = q^-m the largest term is ~ q^{-m^2} and the sum ~ q^{m^2+(2v+1)m};
    the (2v+1)m part is counted only where it adds to the loss (v > -1/2).
    It takes m, not x: q^-m overflows binary64 on deep grids.  Blind to the
    (q^2; q^2)_n denominators, it falls short as q -> 1, so it only sets a
    sum's first guard (:func:`_series`) and the digits entries are rounded at.
    """
    if m <= 0.0:
        return 0.0
    return (2.0 * m * m + max(2.0 * p.v + 1.0, 0.0) * m) * math.log10(1.0 / p.q)


def _series(x2, m: float, p: QParams, digits: int, where: str, shifts: int = 0):
    """The series of j_v at x^2 = ``x2()``, |x| = q^-m: (x, r, d, a) =
    (-x^2 q^2, q^2, q^2, q^{2v}), from 32 guard bits plus :func:`_digits_lost`'s.
    With ``shifts`` = k > 0, the list of the series at x^2, x^2 q^2, .., x^2 q^{2k},
    from one chain of terms (:func:`ratio_sum_mp`'s scales q^{2i})."""
    def inputs():
        q2 = q2_exact(p.q)
        return (-x2() * q2, q2, q2, mp.mpf(p.q) ** (2 * mp.mpf(p.v)),
                *(q2 ** i for i in range(1, shifts + 1)))

    return ratio_sum_mp(inputs, digits, where, 32 + math.ceil(_digits_lost(m, p) * math.log2(10)))


def _anchor(e: int, p: QParams, dps: int) -> mp.mpf:
    """j_v(q^e) good to about ``dps`` digits past the cancellation of its own terms.

    From 0 up the series.  Below 0, with m = -e and c = q^{2v+2}, the lattice
    sum of the module docstring: at z = q^{2-2m} the factor (z; q^2)_inf of the
    1phi1 symmetry vanishes against the poles of its terms n >= m, leaving
    j_v(q^-m) = (-1)^m q^{m(m-1)} c^m (q^{2m+2}; q^2)_inf / (c; q^2)_inf times
    the sum at (x, r, d, a) = (-c q^{2m}, q^2, q^2, q^{2m}), whose first term
    has j_v's own size.  Its two products are taken at ``dps`` digits.
    """
    where = f"j_v at q^{e} (q={p.q:g}, v={p.v:g})"
    if e >= 0:
        return _series(lambda: q2_exact(p.q) ** e, 0.0, p, dps, where)
    m = -e

    def inputs():
        q2 = q2_exact(p.q)
        return -(mp.mpf(p.q) ** (2 * mp.mpf(p.v) + 2)) * q2 ** m, q2, q2, q2 ** m

    total = ratio_sum_mp(inputs, dps, "the lattice sum of " + where)
    at = PrecisionCtx(dps)
    with mp.workdps(dps):
        q2 = q2_exact(p.q)
        c = mp.mpf(p.q) ** (2 * mp.mpf(p.v) + 2)
        return ((-1) ** m * total * q2 ** (m * (m - 1) // 2) * c ** m
                * qpoch_inf_mp(q2 ** (m + 1), q2, at) / qpoch_inf_mp(c, q2, at))


def jv(x: float, p: QParams) -> float:
    """Normalized q-Bessel function j_v(x, q^2) for real x, its series measured."""
    if x == 0.0:
        return 1.0
    return float(_series(lambda: mp.mpf(x) ** 2, math.log(abs(x)) / -math.log(p.q), p,
                         _JV_DIGITS, f"j_v at x={x:g} (q={p.q:g}, v={p.v:g})"))


@dataclass
class BesselTable:
    """j_v(q^n, q^2) tabulated for n in [n_min, n_max].

    Values are generated on the high-precision path and rounded once; the
    mpf originals are kept for consumers that must difference them without
    catastrophic rounding.  The table also carries the two constants every
    operator on it reads, c_{q,v} and the decay-bound constant C, each
    evaluated once, on first use, at the table's precision.
    """

    params: QParams
    n_min: int
    n_max: int
    values: np.ndarray = field(repr=False)
    mp_values: list = field(repr=False)
    ctx: PrecisionCtx = DEFAULT_CTX

    def index(self, n: int) -> int:
        if not (self.n_min <= n <= self.n_max):
            raise IndexError(f"exponent {n} outside table [{self.n_min}, {self.n_max}]")
        return n - self.n_min

    def value(self, n: int) -> float:
        return float(self.values[self.index(n)])

    def mp_value(self, n: int):
        return self.mp_values[self.index(n)]

    def row(self, lo: int, hi: int, hp: bool = False):
        """j_v(q^e) for e = lo..hi: binary64 (a view), or with ``hp`` the mp values.

        Row x of the Hankel block j_v(q^{x+n}) is ``row(x + n_lo, x + n_hi)``.
        A range off the table raises IndexError instead of wrapping around.
        """
        if not (self.n_min <= lo and hi <= self.n_max):
            raise IndexError(f"exponents [{lo}, {hi}] outside table [{self.n_min}, {self.n_max}]")
        a, b = lo - self.n_min, hi - self.n_min + 1
        return self.mp_values[a:b] if hp else self.values[a:b]

    @cached_property
    def c_mp(self) -> mp.mpf:
        """c_{q,v} at working precision."""
        return c_qv_mp(self.params, self.ctx)

    @cached_property
    def c(self) -> float:
        return float(self.c_mp)

    @cached_property
    def decay_const(self) -> float:
        """C of :func:`decay_bound_constant`."""
        return decay_bound_constant(self.params, self.ctx)


def _sweep(p: QParams, n_start: int, n_max: int, dps: int) -> list[int]:
    """The recurrence solution y with y_{n_start-1} = 0, y_{n_start} = 1, as ints y 2^w.

    w is the precision of ``dps`` digits.  A step truncates twice and its
    coefficients 1 + q^{2v}, q^{-2v} and q^{2n} carry 2^-w each, so it adds
    about 2^-w (1 + q^{-2v}) (1 + |1 + q^{2v} - q^{2n}| |y_n| + |y_{n-1}|) to
    y_{n+1}: one mpf step at w bits, as |y| grows from 1 up the deep tail.
    """
    w = dps_to_prec(dps)
    with mp.workprec(w):
        q2 = q2_exact(p.q)
        q2v = mp.mpf(p.q) ** (2 * mp.mpf(p.v))
        a, r, q2_fix = to_fixed(1 + q2v, w), to_fixed(1 / q2v, w), to_fixed(q2, w)
        u = to_fixed(q2 ** n_start, w)  # q^{2n} at the current n
    prev, cur = 0, 1 << w
    out = [cur]
    for _ in range(n_start, n_max):
        prev, cur = cur, (((a - u) * cur >> w) - prev) * r >> w
        u = u * q2_fix >> w
        out.append(cur)
    return out


def jv_table(grid: LatticeGrid, ctx: PrecisionCtx = DEFAULT_CTX) -> BesselTable:
    """Tabulate j_v over [2 n_lo, 2 n_hi] (the range transform kernels need).

    One upward recurrence sweep, scaled to the series at n_max (at the
    sweep's digits plus 10) and certified against the lattice sum at n_min
    (the series if n_min >= 0; at the certificate's digits plus 10), each
    anchor past its own measured cancellation (module docstring).
    """
    p = grid.params
    n_min, n_max = 2 * grid.n_lo, 2 * grid.n_hi
    # For v > 0 rounding errors grow like the second solution near the top,
    # by q^{-2v} a step.
    growth = math.ceil(2.0 * max(p.v, 0.0) * max(n_max, 0) * math.log10(1.0 / p.q))
    dps = max(ctx.work_digits, 26) + growth + _SWEEP_GUARD_DIGITS
    # The top anchor sets every entry's scale: ten digits over the sweep.
    top, bottom = _anchor(n_max, p, dps + 10), _anchor(n_min, p, _CERTIFY_DIGITS)
    depth = _START_DEPTH
    for _ in range(_MAX_SWEEPS):
        raw = _sweep(p, n_min - depth, n_max, dps)[depth:]
        with mp.workdps(dps):
            scale = top / raw[-1]  # the 2^w of the ints cancels
            # A leftover of the second solution grows by up to q^{-2v} a step
            # to n_max and the scale spreads it over the table, so the start
            # is certified at mp level, not only to binary64.
            if abs(raw[0] * scale - bottom) <= _CERTIFY_REL * abs(bottom):
                break
        depth = max(2 * depth, 1)
    else:
        raise PrecisionExhausted(
            f"j_v table on [{n_min}, {n_max}] at q={p.q:g}, v={p.v:g}: no recurrence "
            f"started up to {depth // 2} below n_min agrees with the series there "
            f"to {_CERTIFY_REL:g}")
    # One exact product, rounded once at the entry's own a-priori precision;
    # from e = 0 up no digits cancel, so one precision serves all of them.
    precs = [dps_to_prec(max(ctx.work_digits, 26 + math.ceil(_digits_lost(-e, p))))
             for e in range(n_min, min(0, n_max + 1))]
    precs += [dps_to_prec(max(ctx.work_digits, 26))] * (len(raw) - len(precs))
    s = scale._mpf_
    raws = [_round_entry(f, s, b) for f, b in zip(raw, precs)]
    return BesselTable(p, n_min, n_max, _to_floats(raws), list(map(mp.make_mpf, raws)), ctx)


def _round_entry(f: int, scale: tuple, prec: int) -> tuple:
    """The raw mpf of the int ``f`` times the raw mpf ``scale``, rounded once to
    ``prec`` bits, to nearest with ties to even: ``mpf_mul(from_int(f), scale,
    prec, round_nearest)`` without building the mpf of f, and libmp's
    normalize written out for this one rounding mode."""
    sign, man, exp, _ = scale
    man *= abs(f)
    n = man.bit_length() - prec
    if n > 0:
        t = man >> (n - 1)      # the kept bits and the half bit
        # Up past half, or at exactly half when the last kept bit is odd.
        man = (t >> 1) + 1 if t & 1 and (t & 2 or t << (n - 1) != man) else t >> 1
        exp += n
    if not man:
        return fzero
    tz = (man & -man).bit_length() - 1      # trailing zeros, stripped
    man >>= tz
    return sign ^ (f < 0), man, exp + tz, man.bit_length()


def _to_floats(raws: list) -> np.ndarray:
    """``to_float(t, rnd=round_nearest)`` of every raw mpf t, in one pass.

    float() of an int rounds it to 53 bits, to nearest with ties to even, as
    to_float's normalize1 does, and np.ldexp applies the same C ldexp as
    math.ldexp to that exact value, so both give the same bits.  float() can
    overflow from 1024 bits up: those mantissas take to_float.
    """
    signs, mans, exps, bcs = zip(*raws)
    long = [i for i, bc in enumerate(bcs) if bc >= 1024]
    if long:
        mans = list(mans)
        for i in long:
            mans[i] = 0
    with np.errstate(over="ignore"):    # to_float's OverflowError path gives +-inf too
        out = np.ldexp(np.array(mans, float) * (1 - 2 * np.array(signs)), np.array(exps))
    out[long] = [to_float(raws[i], rnd=round_nearest) for i in long]
    return out


def anchor_ulps(table: BesselTable) -> float:
    """Worst binary64 gap between the table and the series at the anchors:
    n_min..n_min+3 (one chain of terms, from n_min), the quarter points and
    n_max - 1 (n_max is the scale), each series measured as in :func:`jv`."""
    lo, hi, p = table.n_min, table.n_max, table.params

    def series(e, shifts=0):
        return _series(lambda: q2_exact(p.q) ** e, -e, p, _JV_DIGITS, f"j_v at q^{e}", shifts)

    rest = {lo + k * (hi - lo) // 4 for k in (1, 2, 3)} | {hi - 1}
    sums = [*zip(range(lo, lo + 4), series(lo, 3)),
            *((e, series(e)) for e in sorted(rest) if lo + 4 <= e < hi)]
    return worst(*(ulps(table.value(e), float(s)) for e, s in sums))


def decay_bound_constant(p: QParams, ctx: PrecisionCtx = DEFAULT_CTX) -> float:
    """Constant C in |j_v(q^n, q^2)| <= C min(1, q^{n^2-(2v+1)n})."""
    with mp.workdps(ctx.work_digits):
        q2 = q2_exact(p.q)
        q2v2 = mp.mpf(p.q) ** (2 * mp.mpf(p.v) + 2)
        c = (
            qpoch_inf_mp(-q2, q2, ctx)
            * qpoch_inf_mp(-q2v2, q2, ctx)
            / qpoch_inf_mp(q2v2, q2, ctx)
        )
        return float(c)


def decay_bound_log10(e: np.ndarray | float, p: QParams, const: float) -> np.ndarray:
    """log10 of the decay bound at exponent(s) e (vectorized, overflow-safe)."""
    e = np.asarray(e, dtype=float)
    lgq = math.log10(p.q)
    expo = np.where(e < 0, (e * e - (2.0 * p.v + 1.0) * e) * lgq, 0.0)
    return math.log10(const) + expo


@dataclass(frozen=True)
class DecayCheck:
    """Result of the decay-bound sweep over a table."""

    max_ratio: float
    argmax_exponent: int
    constant: float
    tolerance: float = 1e-12

    @property
    def passed(self) -> bool:
        return self.max_ratio <= 1.0 + self.tolerance


def decay_bound_check(table: BesselTable) -> DecayCheck:
    """Check |j_v(q^n)| against the two-branch decay bound at every table point."""
    p = table.params
    const = table.decay_const
    exps = np.arange(table.n_min, table.n_max + 1, dtype=float)
    log_bound = decay_bound_log10(exps, p, const)
    with np.errstate(divide="ignore"):
        log_val = np.log10(np.abs(table.values))
    log_ratio = log_val - log_bound
    k = int(np.argmax(log_ratio))
    return DecayCheck(
        max_ratio=float(10.0 ** log_ratio[k]),
        argmax_exponent=table.n_min + k,
        constant=const,
    )


def eigen_residual(grid: LatticeGrid, lambda_exps: Sequence[int], table: BesselTable) -> float:
    """Worst residual of Delta_{q,v} j_v(lambda .) = -lambda^2 j_v(lambda .), lambda = q^l.

    Taken over l in ``lambda_exps``, on interior exponents n only (the
    operator needs both neighbours), and on the high-precision table values:
    near x -> 0 the three-term difference cancels ~ q^{2n} of itself, which
    binary64 inputs cannot survive, while 50-digit inputs certify the residual
    comfortably.  At table entry k = l + n the residual is
    |d(k) q^{-2n} + q^{2l} j(k)| / (1 + q^{2l} |j(k)|), d(k) the second
    difference j(k-1) - (1+q^{2v}) j(k) + q^{2v} j(k+1), or
    |d(k) + q^{2k} j(k)| / (q^{2k} (q^{-2l} + |j(k)|)): the smallest l that
    reaches k is the worst there.  So each distinct k costs three table reads
    and one residual; q^{2l} is formed once per l and q^{-2n} once per row.
    That factor lifts the table's rounding (10^-work_digits) with it, so rows with
    2n log10(1/q) > work_digits - 12 are skipped: past them that rounding
    alone reaches within three decades of a 1e-9 gate.
    """
    p = grid.params
    n_cap = math.floor((table.ctx.work_digits - 12) / (2.0 * math.log10(1.0 / p.q)))
    rows = range(grid.n_lo + 1, min(grid.n_hi, n_cap + 1))
    # k -> the smallest l with k - l a row: a smaller l overwrites a larger.
    worst_l = {le + n: le for le in sorted(lambda_exps, reverse=True) for n in rows}
    with mp.workdps(max(table.ctx.work_digits, 50)):
        q = mp.mpf(p.q)
        q2v = q ** (2 * mp.mpf(p.v))
        lifts = {n: q ** (-2 * n) for n in rows}
        lam2 = {le: q ** (2 * le) for le in lambda_exps}
        res = []
        for k, le in worst_l.items():
            j0 = table.mp_value(k)
            diff = table.mp_value(k - 1) - (1 + q2v) * j0 + q2v * table.mp_value(k + 1)
            lam2_f = lam2[le] * j0
            res.append(float(abs(diff * lifts[k - le] + lam2_f) / (1 + abs(lam2_f))))
        return worst(*res)


def jv_exact_dyadic(m: int, v: float) -> float:
    """j_v(q^m, q^2) at q = 1/2, the infinite series correctly rounded to binary64.

    Every series term is rational when q = 1/2 and 2v+2 is an integer: with
    s = 2v + 2k the ratio t_k / t_{k-1} is r_k = -2^{s-2m} / ((2^s - 1)(4^k - 1)).
    It is negative and |r_k| falls with k, below 1 (at most 2/3) for
    k >= max(1, 1-m).  So for K >= max(0, -1-m) the terms past t_K alternate
    and fall, and the sum lies within B = |t_{K+1}| of the partial sum S_K.
    S_K and B are summed forward in integers over one common denominator, with
    no rounding at all.  K starts where t_{K+1} is about ``_DYADIC_GUARD_BITS``
    below j_v's decay envelope 2^{-(m^2 - (2v+1)m)} (1 for m >= 0): S_K has
    1 to 23 terms for m in [-8, 80] and v <= 3/2.  The value is returned only
    when both ends of [S_K - B, S_K + B], each one correctly rounded int/int
    division, round to the same double; else K doubles and the sum goes on.
    Serves as the independent oracle for the production (high-precision
    recurrence) path.
    """
    p2 = 2.0 * v + 2.0
    if p2 != int(p2) or p2 < 1:
        raise ValueError(f"exact dyadic oracle needs integer 2v+2 >= 1, got v={v}")
    envelope = m * m - (int(p2) - 1) * m if m < 0 else 0     # -log2 of it
    big_k = max(0, -1 - m)                                    # the tail bound holds
    # -log2 |t_{K+1}| is (K+1)(K+2) + 2(K+1)m, up to the Pochhammer factors.
    while (big_k + 1) * (big_k + 2) + 2 * (big_k + 1) * m < envelope + _DYADIC_GUARD_BITS:
        big_k += 1
    num = den = term = 1                          # S_k = num / den, t_k = term / den
    k = 0
    while True:
        for k in range(k + 1, big_k + 2):         # on to t_{K+1} and S_{K+1}
            s = int(p2) - 2 + 2 * k               # 1 - q^{2v+2k} = (2^s - 1)/2^s
            e = s - 2 * m                         # power of two over the ratio
            b = (2**s - 1) * (4**k - 1) << max(-e, 0)
            term = -(term << max(e, 0))
            num, den = num * b + term, den * b
        lo, hi = (num - term - abs(term)) / den, (num - term + abs(term)) / den
        # One double: equal, and of one sign (0.0 == -0.0 holds for two doubles).
        if lo == hi and math.copysign(1.0, lo) == math.copysign(1.0, hi):
            return lo
        big_k = 2 * big_k + 1
