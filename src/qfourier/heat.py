"""q-Gauss kernel and the q-heat semigroup P_t f = G(., t) *_q f.

The kernel has the closed form

    G(x, t) = A(t) e(-q^{-2v} x^2 / t, q^2),

which is also the transform of y -> e(-t y^2, q^2); both routes are computed
here and compared.  Heat flow diagonalizes under the transform with symbol
e(-t x^2, q^2), satisfies the q-heat equation

    Delta_{q,v} u(x, t) = (1 - q^2) D_{q^2,t} u(x, t),

with the Jackson time difference D_{q^2,t} u = (u(., t) - u(., q^2 t)) /
((1-q^2) t), and is a Markov operator because c G(., t) y^{2v+1} d_q y is a
probability measure.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import mpmath as mp
import numpy as np

from .lattice import GridFn, LatticeGrid, norm_p
from .numerics import TINY, ulps, worst
from .qseries import (
    DEFAULT_CTX,
    PrecisionCtx,
    gauss_amplitude_mp,
    q2_exact,
    qexp_lattice_mp,
    qexp_mp,
)
from .transform import TransformOp, forward, q_bessel_operator, trusted_window
from .translation import Kernel3, MarkovReport, convolve, markov_check_convolution

__all__ = [
    "GaussKernel",
    "gauss_kernel",
    "gauss_memo",
    "gauss_recurrence_defect",
    "gauss_mass_defect",
    "gauss_crosscheck",
    "gauss_crosscheck_hp",
    "heat_apply",
    "heat_residual",
    "heat_spectral_defect",
    "heat_markov_check",
    "qexp_ode_residual",
    "composition_defect",
]


@dataclass
class GaussKernel:
    """q-Gauss kernel at time t, sampled on a grid; strictly positive.

    ``mp_values`` keeps the working-precision values that ``fn`` rounds once,
    for checks that must not lose them to binary64.  The kernel's transform
    side, the e-profile y -> e(-t y^2; q^2), is built on first use.
    """

    t: float
    grid: LatticeGrid
    amplitude: float
    fn: GridFn = field(repr=False)
    mp_values: list = field(repr=False)
    ctx: PrecisionCtx = field(default=DEFAULT_CTX, repr=False)

    @cached_property
    def eprofile_mp(self) -> list:
        """e(-t q^{2n}; q^2) over the grid's exponents, at working precision."""
        return _eprofile_mp(self.t, self.grid, self.ctx)

    @cached_property
    def eprofile(self) -> GridFn:
        """``eprofile_mp`` rounded once to binary64."""
        return GridFn(self.grid, np.array([float(e) for e in self.eprofile_mp]))


# A lookup t -> G(., t) on one grid.
GaussLookup = Callable[[float], GaussKernel]


def _lattice_points(a, grid: LatticeGrid) -> list:
    """-a q^{2n} over the grid's exponents, stepping by exactly q2_exact(q)."""
    q2 = q2_exact(grid.params.q)
    return [-(a * q2 ** int(n)) for n in grid.exponents]


def _gauss_prefactor(t: float, grid: LatticeGrid):
    """q^{-2v}/t, so that G(q^n, t) = A(t) e(-q^{-2v} q^{2n}/t; q^2)."""
    return mp.mpf(grid.params.q) ** (-2 * mp.mpf(grid.params.v)) / mp.mpf(t)


def gauss_kernel(t: float, grid: LatticeGrid,
                 ctx: PrecisionCtx = DEFAULT_CTX) -> GaussKernel:
    """Closed-form kernel values A(t) e(-q^{-2v} q^{2n}/t, q^2), rounded once.

    The q-exponentials come from one product at n_hi and the lattice
    recurrence of :func:`qseries.qexp_lattice_mp` below it.
    """
    if not t > 0.0:
        raise ValueError(f"t must be positive, got {t}")
    with mp.workdps(ctx.work_digits + 10):
        amp = gauss_amplitude_mp(t, grid.params, ctx)
        zs = _lattice_points(_gauss_prefactor(t, grid), grid)
        mp_vals = [amp * e for e in qexp_lattice_mp(zs, q2_exact(grid.params.q), ctx)]
    vals = np.array([float(x) for x in mp_vals])
    return GaussKernel(t, grid, float(amp), GridFn(grid, vals), mp_vals, ctx)


def _eprofile_mp(t: float, grid: LatticeGrid, ctx: PrecisionCtx) -> list:
    """y -> e(-t y^2; q^2) on the grid: one product and the lattice recurrence."""
    with mp.workdps(ctx.work_digits + 10):
        return qexp_lattice_mp(_lattice_points(mp.mpf(t), grid), q2_exact(grid.params.q), ctx)


def gauss_memo(grid: LatticeGrid, ctx: PrecisionCtx = DEFAULT_CTX) -> GaussLookup:
    """A lookup that builds G(., t) on ``grid`` once for each t it is asked for.

    Its scope is its caller's: one check cell, or one CLI command.
    """
    built: dict[float, GaussKernel] = {}

    def lookup(t: float) -> GaussKernel:
        if t not in built:
            built[t] = gauss_kernel(t, grid, ctx)
        return built[t]

    return lookup


def gauss_recurrence_defect(g: GaussKernel, exps,
                            ctx: PrecisionCtx = DEFAULT_CTX) -> float:
    """Largest binary64-ulp gap between G(q^n, t) and one direct product each.

    The direct route evaluates A(t) e(z_n; q^2) at each exponent in ``exps``
    with its own truncated product, so a kernel whose recurrence steps by a
    q^2 other than its product base shows here.
    """
    grid = g.grid
    with mp.workdps(ctx.work_digits + 10):
        amp = gauss_amplitude_mp(g.t, grid.params, ctx)
        q2 = q2_exact(grid.params.q)
        pref = _gauss_prefactor(g.t, grid)
        return worst(*(
            ulps(g.fn[n], float(amp * qexp_mp(-(pref * q2 ** int(n)), q2, ctx)))
            for n in exps
        ))


def gauss_mass_defect(g: GaussKernel, c: float) -> float:
    """|c ||G||_1 - 1|: the kernel carries unit probability mass."""
    return abs(c * norm_p(g.fn, 1.0) - 1.0)


# Shares of the kernel's sup below which the cross-checks skip a row.
_FLOAT_GUARD = 1e-6
_HP_GUARD = 1e-12


def gauss_crosscheck(t: float, op: TransformOp, ctx: PrecisionCtx,
                     window: tuple[int, int], g: GaussKernel | None = None) -> float:
    """Float-path check: forward of the e-profile vs the closed form.

    Relative error is measured on trusted rows where the closed form carries
    at least ``_FLOAT_GUARD`` of the kernel's sup (below that the true value is
    produced by near-total cancellation of the quadrature and binary64 cannot
    represent the comparison; the high-precision twin covers those rows).
    """
    if g is None:
        g = gauss_kernel(t, op.grid, ctx)
    ff = forward(g.eprofile, op)
    sup = float(np.max(np.abs(g.fn.values)))
    rows = [(ff[n], g.fn[n]) for n in range(window[0], window[1] + 1)]
    return worst(*(abs(a - b) / abs(b) for a, b in rows if abs(b) >= _FLOAT_GUARD * sup))


def gauss_crosscheck_hp(t: float, op: TransformOp, ctx: PrecisionCtx,
                        window: tuple[int, int], g: GaussKernel | None = None) -> float:
    """High-precision check of the transform route against the closed form.

    Both sides are evaluated in software precision on the trusted window, so
    the comparison survives 20+ orders of magnitude of quadrature
    cancellation; only rows where the closed form drops below ``_HP_GUARD`` of
    the kernel's sup are skipped (there the *lattice truncation* floor of the
    quadrature, not arithmetic, is what remains).  The closed form is the
    working-precision values of ``g``, the e-profile ``g.eprofile_mp``, and
    c_{q,v} and the Jackson weights the transform's ``op.c_mp`` and
    ``op.jackson_mp`` (built once per operator, at the table's digits plus ten).
    """
    grid = op.grid
    if g is None:
        g = gauss_kernel(t, grid, ctx)
    with mp.workdps(ctx.work_digits + 10):
        # Jackson weight times e-profile, once per grid point.
        we = [w * e for w, e in zip(op.jackson_mp, g.eprofile_mp)]
        closed = {x: g.mp_values[grid.index(x)]
                  for x in range(window[0], window[1] + 1)}
        sup = max(abs(val) for val in closed.values())
        gaps = []
        for x, cval in closed.items():
            if abs(cval) < _HP_GUARD * sup:
                continue
            row = mp.fdot(we, op.table.row(x + grid.n_lo, x + grid.n_hi, hp=True)) * op.c_mp
            gaps.append(float(abs(row - cval) / abs(cval)))
        return worst(*gaps)


def heat_apply(f: GridFn, t: float, k: Kernel3, ctx: PrecisionCtx = DEFAULT_CTX,
               g: GaussKernel | None = None) -> GridFn:
    """Heat flow P_t f = G(., t) *_q f for window-supported f."""
    if g is None:
        g = gauss_kernel(t, k.grid, ctx)
    return convolve(g.fn, f, k)


def heat_residual(f: GridFn, t: float, k: Kernel3,
                  ctx: PrecisionCtx = DEFAULT_CTX,
                  window: tuple[int, int] | None = None,
                  gauss: GaussLookup | None = None) -> float:
    """Pointwise q-heat-equation residual of u = P_t f on trusted interior rows.

    The time difference uses u at t and q^2 t; rows are restricted to the
    trusted window, where the q^{-2n} amplification of the space operator
    stays far below the tolerance budget.  ``gauss`` supplies the kernels at
    both times (built here when omitted).
    """
    grid = k.grid
    if window is None:
        window = trusted_window(grid, k.table, ctx)
    if gauss is None:
        gauss = gauss_memo(grid, ctx)
    q = grid.params.q
    s = q * q * t
    u_t = heat_apply(f, t, k, ctx, g=gauss(t))
    u_s = heat_apply(f, s, k, ctx, g=gauss(s))
    du = q_bessel_operator(u_t)
    rhs = (u_t.values - u_s.values) / t  # (1-q^2) D_{q^2,t} u
    rows = range(max(window[0], grid.n_lo + 1), min(window[1], grid.n_hi - 1) + 1)
    return worst(*(abs(du[n] - rhs[grid.index(n)]) / (1.0 + abs(du[n])) for n in rows))


def heat_spectral_defect(f: GridFn, t: float, k: Kernel3, ctx: PrecisionCtx,
                         window: tuple[int, int], g: GaussKernel | None = None) -> float:
    """|| F(P_t f) - e(-t x^2) . Ff ||_2 / || e(-t x^2) . Ff ||_2 on trusted rows."""
    grid = k.grid
    if g is None:
        g = gauss_kernel(t, grid, ctx)
    lhs = forward(heat_apply(f, t, k, ctx, g=g), k.op)
    rhs = g.eprofile.values * forward(f, k.op).values
    sel = [grid.index(n) for n in range(window[0], window[1] + 1)]
    w = grid.weights()[sel]
    num = math.sqrt(float(w @ (lhs.values[sel] - rhs[sel]) ** 2))
    den = math.sqrt(float(w @ rhs[sel] ** 2))
    return num / max(den, TINY)


def heat_markov_check(t: float, k: Kernel3, probes: list[GridFn],
                      ctx: PrecisionCtx = DEFAULT_CTX,
                      g: GaussKernel | None = None) -> MarkovReport:
    """Markov-axiom defects of P_t (the Gauss kernel is a probability density)."""
    if g is None:
        g = gauss_kernel(t, k.grid, ctx)
    return markov_check_convolution(g.fn, k, probes)


# The sample points z < 0 of the q-exponential's functional equation.
_ODE_SAMPLES = tuple(-(10.0 ** e) for e in np.linspace(-6.0, 4.0, 20))


def qexp_ode_residual(q: float, ctx: PrecisionCtx = DEFAULT_CTX) -> float:
    """Residual of e(z, q^2) - e(q^2 z, q^2) = z e(z, q^2) at ``_ODE_SAMPLES``.

    This identity is what makes psi(t) = e(-t x^2, q^2) solve the scalar
    q-difference equation -x^2 psi = (1-q^2) D_{q^2,t} psi, pinning the
    Jackson convention for the time difference.  Evaluated in software
    precision on the exact q^2: near z = 0 the left side differences away
    ~|z| of itself, and a binary64 q^2 z reads its own rounding (1e-15).
    """
    with mp.workdps(ctx.work_digits):
        q2 = q2_exact(q)
        gaps = []
        for z in _ODE_SAMPLES:
            ez = qexp_mp(z, q2, ctx)
            lhs = ez - qexp_mp(q2 * z, q2, ctx)
            rhs = mp.mpf(z) * ez
            gaps.append(float(abs(lhs - rhs) / abs(rhs)))
        return worst(*gaps)


def composition_defect(f: GridFn, t: float, s: float, k: Kernel3,
                       ctx: PrecisionCtx = DEFAULT_CTX,
                       gauss: GaussLookup | None = None) -> float:
    """|| P_t P_s f - P_{t+s} f ||_2 / || P_{t+s} f ||_2 on window rows.

    Reported without a gate: the composition law in t is not implied by the
    q-exponential symbol (e(a)e(b) != e(a+b)), so this measures how far the
    family is from a classical semigroup.
    """
    grid = k.grid
    if gauss is None:
        gauss = gauss_memo(grid, ctx)
    u_s = heat_apply(f, s, k, ctx, g=gauss(s))
    # u_s has full-grid support, so neither factor of P_t u_s = M (MG Mu_s)
    # is window-supported and only its window rows are trusted.
    m = k.op.matrix
    sel = [grid.index(int(e)) for e in k.window_exponents]
    lhs = (m @ ((m @ gauss(t).fn.values) * (m @ u_s.values)))[sel]
    u_ts = heat_apply(f, t + s, k, ctx, g=gauss(t + s))
    ww = grid.weights()[sel]
    num = math.sqrt(float(ww @ (lhs - u_ts.values[sel]) ** 2))
    den = math.sqrt(float(ww @ u_ts.values[sel] ** 2))
    return num / max(den, TINY)
