"""Normalized q-Bessel function j_v(x, q^2) and its lattice tables.

The series

    j_v(x, q^2) = sum_{n>=0} (-1)^n q^{n(n+1)} x^{2n}
                  / ((q^{2v+2}; q^2)_n (q^2; q^2)_n)

converges for every real x thanks to the q^{n(n+1)} super-decay, but for
x = q^{-m} (m > 0) the largest term is ~ q^{-m^2} while the sum is
~ q^{m^2 + (2v+1)m}, so roughly (2 m^2 + (2v+1) m) log10(1/q) decimal digits
cancel.
Evaluation therefore switches to a software high-precision path whenever the
estimated cancellation exceeds 1e6, with the working precision chosen a
priori from that estimate and rounded to binary64 exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from .errors import PrecisionExhausted
from .lattice import LatticeGrid
from .qseries import DEFAULT_CTX, PrecisionCtx, QParams, q2_exact, qpoch_inf_mp

__all__ = [
    "BesselTable",
    "jv",
    "jv_table",
    "decay_bound_constant",
    "decay_bound_log10",
    "DecayCheck",
    "decay_bound_check",
    "eigen_residual",
    "jv_exact_dyadic",
]

# Escalating past this many decimal digits is treated as a failure to certify.
_MAX_DIGITS = 50_000

# The high-precision path must engage before estimated cancellation reaches
# 1e6; switching already at 1e2 keeps the native path at full accuracy.
_CANCELLATION_LIMIT_DIGITS = 2.0


def _digits_lost(x: float, p: QParams) -> float:
    """A-priori estimate of decimal digits cancelled by the series at |x|.

    At |x| = q^-m the largest term is ~ q^{-m^2} and the sum ~ q^{m^2+(2v+1)m};
    the (2v+1)m part is counted only where it adds to the loss (v > -1/2).
    """
    ax = abs(x)
    if ax <= 1.0:
        return 0.0
    m = math.log(ax) / -math.log(p.q)
    return (2.0 * m * m + max(2.0 * p.v + 1.0, 0.0) * m) * math.log10(1.0 / p.q)


def _required_dps(x: float, p: QParams, ctx: PrecisionCtx) -> int:
    lost = _digits_lost(x, p)
    dps = max(ctx.work_digits, 16 + int(math.ceil(lost)) + 10)
    if dps > _MAX_DIGITS:
        raise PrecisionExhausted(
            f"j_v at |x|={abs(x):g} needs ~{dps} digits (> {_MAX_DIGITS}); "
            "shrink the grid or raise the ceiling"
        )
    return dps


def _jv_series_float(x: float, p: QParams, ctx: PrecisionCtx) -> tuple[float, float]:
    """Native-float series sum; returns (sum, max |term|)."""
    q2 = p.q * p.q
    x2 = x * x
    q2v = p.q ** (2.0 * p.v)
    total = 1.0
    term = 1.0
    max_term = 1.0
    u = 1.0  # q^{2(n+1)} once updated
    for _ in range(10_000):
        u *= q2
        # ratio t_{n+1}/t_n = -q^{2(n+1)} x^2 / ((1-q^{2v+2+2n})(1-q^{2n+2}))
        term *= -(u * x2) / ((1.0 - q2v * u) * (1.0 - u))
        total += term
        max_term = max(max_term, abs(term))
        if abs(term) < ctx.tail_tol * max_term and u * x2 < 1.0:
            break
    return total, max_term


def _jv_series_mp(x, p: QParams, ctx: PrecisionCtx, dps: int) -> mp.mpf:
    """High-precision series sum at ``dps`` decimal digits."""
    with mp.workdps(dps):
        q = mp.mpf(p.q)
        q2 = q2_exact(p.q)
        x2 = mp.mpf(x) ** 2
        q2v = q ** (2 * mp.mpf(p.v))
        tol = min(mp.mpf(ctx.tail_tol), mp.mpf(10) ** -(dps - 5))
        total = mp.mpf(1)
        term = mp.mpf(1)
        max_term = mp.mpf(1)
        u = mp.mpf(1)
        for _ in range(100_000):
            u *= q2
            term *= -(u * x2) / ((1 - q2v * u) * (1 - u))
            total += term
            if abs(term) > max_term:
                max_term = abs(term)
            if abs(term) < tol * max_term and u * x2 < 1:
                break
        return +total


def jv(x: float, p: QParams, ctx: PrecisionCtx = DEFAULT_CTX) -> float:
    """Normalized q-Bessel function j_v(x, q^2) for real x."""
    if x == 0.0:
        return 1.0
    lost = _digits_lost(x, p)
    if lost <= _CANCELLATION_LIMIT_DIGITS:
        total, max_term = _jv_series_float(x, p, ctx)
        # A-posteriori guard: rerun in high precision on unexpected cancellation.
        if total == 0.0 or max_term / abs(total) > 1e6:
            return float(_jv_series_mp(x, p, ctx, _required_dps(x, p, ctx)))
        return total
    return float(_jv_series_mp(x, p, ctx, _required_dps(x, p, ctx)))


@dataclass
class BesselTable:
    """j_v(q^n, q^2) tabulated for n in [n_min, n_max].

    Values are generated on the high-precision path and rounded once; the
    mpf originals are kept for consumers that must difference them without
    catastrophic rounding.
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

    def hankel(self, exps: np.ndarray) -> np.ndarray:
        """Matrix j_v(q^{n+m}) for n down ``exps`` and m across it."""
        return self.values[(exps[:, None] + exps[None, :]) - self.n_min]


def jv_table(grid: LatticeGrid, ctx: PrecisionCtx = DEFAULT_CTX) -> BesselTable:
    """Tabulate j_v over [2 n_lo, 2 n_hi] (the range transform kernels need)."""
    p = grid.params
    n_min, n_max = 2 * grid.n_lo, 2 * grid.n_hi
    mp_vals = []
    for e in range(n_min, n_max + 1):
        dps = _required_dps(p.q ** min(e, 0), p, ctx)
        with mp.workdps(dps):
            mp_vals.append(_jv_series_mp(mp.mpf(p.q) ** e, p, ctx, dps))
    vals = np.array([float(v) for v in mp_vals])
    return BesselTable(p, n_min, n_max, vals, mp_vals, ctx)


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


def decay_bound_check(table: BesselTable, ctx: PrecisionCtx = DEFAULT_CTX) -> DecayCheck:
    """Check |j_v(q^n)| against the two-branch decay bound at every table point."""
    p = table.params
    const = decay_bound_constant(p, ctx)
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


def eigen_residual(grid: LatticeGrid, lambda_exp: int, table: BesselTable) -> float:
    """Residual of Delta_{q,v} j_v(lambda .) = -lambda^2 j_v(lambda .).

    Evaluated on interior exponents only (the operator needs both neighbours)
    and on the high-precision table values: near x -> 0 the three-term
    difference cancels ~ q^{2n} of itself, which binary64 inputs cannot
    survive, while 50-digit inputs certify the residual comfortably.
    """
    p = grid.params
    worst = 0.0
    with mp.workdps(max(table.ctx.work_digits, 50)):
        q = mp.mpf(p.q)
        q2v = q ** (2 * mp.mpf(p.v))
        lam2 = q ** (2 * lambda_exp)
        for n in range(grid.n_lo + 1, grid.n_hi):
            f_prev = table.mp_value(lambda_exp + n - 1)  # j at lambda q^{n-1}
            f_mid = table.mp_value(lambda_exp + n)
            f_next = table.mp_value(lambda_exp + n + 1)
            delta = (f_prev - (1 + q2v) * f_mid + q2v * f_next) * q ** (-2 * n)
            resid = abs(delta + lam2 * f_mid) / (1 + abs(lam2 * f_mid))
            if resid > worst:
                worst = resid
        return float(worst)


def jv_exact_dyadic(m: int, v: float, terms: int = 60) -> float:
    """j_v(q^m, q^2) at q = 1/2 by exact rational summation, rounded once.

    Every series term is rational when q = 1/2 and 2v+2 is an integer, so the
    partial sum is computed in ``fractions.Fraction`` with no rounding at all
    and converted to binary64 at the very end.  Serves as the independent
    oracle for the production (floating high-precision) path.
    """
    from fractions import Fraction

    p2 = 2.0 * v + 2.0
    if p2 != int(p2):
        raise ValueError(f"exact dyadic oracle needs integer 2v+2, got v={v}")
    q2 = Fraction(1, 4)
    x2 = Fraction(1, 4) ** m          # x^2 = q^{2m}, exact for negative m too
    q2v = Fraction(1, 2) ** (int(p2) - 2)
    total = Fraction(1)
    term = Fraction(1)
    u = Fraction(1)
    for _ in range(terms):
        u *= q2
        term *= -(u * x2) / ((1 - q2v * u) * (1 - u))
        total += term
    return float(total)
