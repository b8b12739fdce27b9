"""q-Gauss kernel and the q-heat semigroup P_t f = G(., t) *_q f.

The kernel has the closed form

    G(x, t) = A(t) e(-q^{-2v} x^2 / t, q^2),

which is also the transform of y -> e(-t y^2, q^2); both routes are computed
here and compared.  Heat flow diagonalizes under the transform with symbol
e(-t x^2, q^2), satisfies the q-heat equation

    Delta_{q,v} u(x, t) = (1 - q^2) D_{q^2,t} u(x, t),

with the Jackson time difference D_{q^2,t} u = (u(., t) - u(., q^2 t)) /
((1-q^2) t), and is a Markov operator where D_v >= 0, since c G(., t)
y^{2v+1} d_q y is a probability measure.  A flow is P_t f = M (MG Mf), M the
transform matrix; each kernel forms MG once per operator and keeps it
(:meth:`GaussKernel.transformed`), its values read-only so it cannot go stale.

Kernels come in families over the lattice times t0 q^{2k}, q^2 the exact
square of the binary64 q (:func:`qseries.q2_exact`).  The functional
equation (z; q^2)_inf = (1 - z)(q^2 z; q^2)_inf makes the amplitude
quasi-periodic, A(q^2 t) = q^{-2(v+1)} A(t) exactly, and turns a step of t
into a shift of the lattice: G(q^n, t0 q^{2k}) is q^{-2k(v+1)} A(t0) over the
t0 kernel product at n - k, and e(-t0 q^{2k} q^{2n}; q^2) is the t0 e-profile
at n + k.  So one amplitude and one integer run of products
(:func:`qseries.qexp_lattice_mp`, scale 2^W, W the working bits plus guard
bits) serve every member's kernel, one more run every member's e-profile;
:func:`gauss_kernel` is the one-member family.  The high-precision transform
route is one exact integer dot per row (digit GEMMs,
:func:`numerics.hankel_dots`), its truncation 2^-prec below the smallest
gated closed-form value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import mpmath as mp
import numpy as np
from mpmath.libmp import dps_to_prec, fone

from . import qseries
from .lattice import GridFn, LatticeGrid, norm_p
from .numerics import TINY, hankel_dots, to_fixed, ulps, worst
from .qseries import (
    DEFAULT_CTX,
    PrecisionCtx,
    gauss_amplitude_mp,
    q2_exact,
    qexp_lattice_mp,
    qexp_mp,
)
from .transform import TransformOp, forward, q_bessel_rows
from .translation import Kernel3, check_factors, markov_check_convolution

__all__ = [
    "GaussFamily",
    "GaussKernel",
    "gauss_family",
    "gauss_kernel",
    "gauss_recurrence_defect",
    "gauss_mass_defect",
    "gauss_crosscheck",
    "gauss_crosscheck_hp",
    "heat_apply",
    "heat_residual",
    "heat_spectral_defect",
    "heat_markov_check",
    "composition_defect",
]


@dataclass
class GaussFamily:
    """The Gauss kernels at the lattice times t0 q^{2k}, k in ``ks``.

    ``amp_mp`` is A(t0), from its four products; ``run`` holds the int pairs
    of (-q^{-2v} q^{2m}/t0; q^2)_inf for m = n_lo - k_max .. n_hi - k_min, and
    ``eprofile_run``, built on first use, those of (-t0 q^{2m}; q^2)_inf for
    m = n_lo + k_min .. n_hi + k_max.  Members refer to their family, not the
    other way round: each call of :meth:`member` builds one, for its caller
    to keep.
    """

    t0: float
    grid: LatticeGrid
    ks: range
    amp_mp: mp.mpf = field(repr=False)
    run: list = field(repr=False)
    ctx: PrecisionCtx = field(default=DEFAULT_CTX, repr=False)

    @cached_property
    def eprofile_run(self) -> list:
        """The run of (-t0 q^{2m}; q^2)_inf, m = n_lo + k_min .. n_hi + k_max."""
        return qexp_lattice_mp(self.t0, q2_exact(self.grid.params.q),
                               self.grid.n_lo + self.ks[0], self.grid.n_hi + self.ks[-1],
                               self.ctx)

    def member(self, k: int) -> GaussKernel:
        """G(., t0 q^{2k}): amplitude q^{-2k(v+1)} A(t0) over the run from n_lo - k."""
        if k not in self.ks:
            raise ValueError(f"the t0={self.t0} Gauss family spans k in "
                             f"[{self.ks[0]}, {self.ks[-1]}], not k={k}")
        amp = self.amp_mp
        if k:
            with mp.workdps(self.ctx.work_digits + 10):
                q2 = q2_exact(self.grid.params.q)
                amp = amp * q2 ** (-k * (mp.mpf(self.grid.params.v) + 1))
        start = self.ks[-1] - k
        run = self.run[start:start + self.grid.size]
        fn = GridFn(self.grid, _binary64(amp._mpf_, run))
        fn.values.flags.writeable = False    # ``GaussKernel.transformed`` keeps M G
        return GaussKernel(self, k, fn, amp, run)


def gauss_family(t0: float, grid: LatticeGrid, ks: range,
                 ctx: PrecisionCtx = DEFAULT_CTX) -> GaussFamily:
    """The kernels at t0 q^{2k}, k in the unit-step range ``ks``: one A(t0) and
    one integer run of products (:func:`qseries.qexp_lattice_mp`) for all."""
    if not t0 > 0.0:
        raise ValueError(f"t must be positive, got {t0}")
    if not ks or ks.step != 1:
        raise ValueError(f"a Gauss family needs a nonempty unit-step range of k, got {ks}")
    with mp.workdps(ctx.work_digits + 10):
        amp = gauss_amplitude_mp(t0, grid.params, ctx)
        run = qexp_lattice_mp(_gauss_prefactor(t0, grid), q2_exact(grid.params.q),
                              grid.n_lo - ks[-1], grid.n_hi - ks[0], ctx)
    return GaussFamily(t0, grid, ks, amp, run, ctx)


def gauss_kernel(t: float, grid: LatticeGrid,
                 ctx: PrecisionCtx = DEFAULT_CTX) -> GaussKernel:
    """Closed-form kernel values A(t) e(-q^{-2v} q^{2n}/t, q^2), rounded once:
    member 0 of the one-member family of t."""
    return gauss_family(t, grid, range(1), ctx).member(0)


@dataclass
class GaussKernel:
    """q-Gauss kernel at time t = t0 q^{2k}, member k of ``family``; strictly positive.

    A(q^2 t) = q^{-2(v+1)} A(t) exactly, so ``amp_mp`` = A(t) is q^{-2k(v+1)}
    A(t0).  ``run``, the int pairs of (-q^{-2v} q^{2n}/t; q^2)_inf, is the
    family's kernel run from n_lo - k, and ``eprofile_run`` (on first use)
    its e-profile run from n_lo + k; ``fn`` is A(t) over ``run``, rounded
    once.  The checks below read their t, grid and working digits from the
    kernel.
    """

    family: GaussFamily = field(repr=False)
    k: int
    fn: GridFn = field(repr=False)
    amp_mp: mp.mpf = field(repr=False)
    run: list = field(repr=False)
    _hat: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def grid(self) -> LatticeGrid:
        return self.family.grid

    @property
    def ctx(self) -> PrecisionCtx:
        return self.family.ctx

    @cached_property
    def t_mp(self) -> mp.mpf:
        """t0 q^{2k} at the working digits plus ten (t0 itself for k = 0)."""
        with mp.workdps(self.ctx.work_digits + 10):
            return mp.mpf(self.family.t0) * q2_exact(self.grid.params.q) ** self.k

    @cached_property
    def t(self) -> float:
        """The time rounded to binary64."""
        return float(self.t_mp)

    @cached_property
    def eprofile_run(self) -> list:
        """The run of (-t q^{2n}; q^2)_inf over the grid's exponents."""
        start = self.k - self.family.ks[0]
        return self.family.eprofile_run[start:start + self.grid.size]

    @cached_property
    def eprofile(self) -> GridFn:
        """e(-t q^{2n}; q^2), the reciprocals of ``eprofile_run``, in binary64."""
        return GridFn(self.grid, _binary64(fone, self.eprofile_run))

    def transformed(self, op: TransformOp) -> np.ndarray:
        """M G for ``op``'s matrix M, read-only: kept for the last operator (by identity)."""
        if self._hat is None or self._hat[0] is not op:
            self._hat = (op, op.matrix @ self.fn.values)
            self._hat[1].flags.writeable = False
        return self._hat[1]


def _binary64(num, run: list) -> np.ndarray:
    """Raw mpf num / (m 2^e) over a run, by int true division: rounded once."""
    _, man, exp, _ = num
    return np.array([(man << exp - e) / m if exp >= e else man / (m << e - exp) for m, e in run])


def _gauss_prefactor(t, grid: LatticeGrid):
    """q^{-2v}/t, so that G(q^n, t) = A(t) e(-q^{-2v} q^{2n}/t; q^2)."""
    return mp.mpf(grid.params.q) ** (-2 * mp.mpf(grid.params.v)) / mp.mpf(t)


def gauss_recurrence_defect(g: GaussKernel, exps) -> float:
    """Largest binary64-ulp gap between G(q^n, t) and one direct product each.

    The direct route evaluates A(t) e(z_n; q^2) at each exponent in ``exps``
    with its own truncated product at the kernel's digits and its exact time
    (A(t) is the kernel's), so a kernel whose run steps by a q^2 other than
    the exact one, or is sliced at another offset, shows here.
    """
    grid, ctx = g.grid, g.ctx
    with mp.workdps(ctx.work_digits + 10):
        # qseries' q^2, not heat's binding that the run read: another q^2 shows.
        q2 = qseries.q2_exact(grid.params.q)
        pref = _gauss_prefactor(g.t_mp, grid)
        return worst(*(
            ulps(g.fn[n], float(g.amp_mp * qexp_mp(-(pref * q2 ** int(n)), q2, ctx)))
            for n in exps
        ))


def gauss_mass_defect(g: GaussKernel, c: float) -> float:
    """|c ||G||_1 - 1|: the kernel carries unit probability mass."""
    return abs(c * norm_p(g.fn, 1.0) - 1.0)


# Shares of the kernel's sup below which the cross-checks skip a row.
_FLOAT_GUARD = 1e-6
_HP_GUARD = 1e-12


def gauss_crosscheck(g: GaussKernel, op: TransformOp, window: tuple[int, int]) -> float:
    """Float-path check: forward of ``g``'s e-profile vs its closed form.

    Relative error is measured on trusted rows where the closed form carries
    at least ``_FLOAT_GUARD`` of the kernel's sup (below that the true value is
    produced by near-total cancellation of the quadrature and binary64 cannot
    represent the comparison; the high-precision twin covers those rows).
    NaN if a kernel value is not finite: it would gate every row out.
    """
    sup = float(np.max(np.abs(g.fn.values)))
    if not math.isfinite(sup):
        return math.nan
    ff = forward(g.eprofile, op)
    rows = [(ff[n], g.fn[n]) for n in range(window[0], window[1] + 1)]
    return worst(*(abs(a - b) / abs(b) for a, b in rows if abs(b) >= _FLOAT_GUARD * sup))


def _fixed_ratio(num, m: int, e: int, bits: int) -> int:
    """floor(num 2^bits / (m 2^e)) for a positive raw mpf num."""
    shift = num[2] + bits - e
    return (num[1] << shift) // m if shift >= 0 else (num[1] >> -shift) // m


def _hp_rows(g: GaussKernel, op: TransformOp, window: tuple[int, int]) -> tuple[int, dict]:
    """S1+S2 and {x: (dot, closed)} of :func:`gauss_crosscheck_hp`'s gated rows."""
    grid = op.grid
    rows = range(window[0], window[1] + 1)
    guard = _HP_GUARD * max(g.fn[x] for x in rows)
    gated = [x for x in rows if g.fn[x] >= guard]
    # 2^low <= 2^-(prec+1) C_min / c, as C_min > 2^(frexp exponent - 2).
    low = (math.frexp(min(g.fn[x] for x in gated))[1] - mp.mag(op.c_mp)
           - dps_to_prec(g.ctx.work_digits + 10) - 3)
    jmp = op.table.row(window[0] + grid.n_lo, window[1] + grid.n_hi, hp=True)
    s1 = max(map(mp.mag, jmp)) + grid.size.bit_length() - low
    u = [_fixed_ratio(w._mpf_, m, e, s1) for w, (m, e) in zip(op.jackson_mp, g.eprofile_run)]
    s2 = sum(u).bit_length() - s1 - low
    jfix = [to_fixed(j, s2) for j in jmp]
    amp, (_, c_man, c_exp, _) = g.amp_mp._mpf_, op.c_mp._mpf_
    closed = {x: _fixed_ratio(amp, c_man * m, c_exp + e, s1 + s2)
              for x in gated for m, e in [g.run[grid.index(x)]]}
    dots = hankel_dots([u], jfix, [[x - window[0] for x in closed]])[0]
    return s1 + s2, {x: (dot, cx) for (x, cx), dot in zip(closed.items(), dots)}


def gauss_crosscheck_hp(g: GaussKernel, op: TransformOp, window: tuple[int, int]) -> float:
    """High-precision check of the transform route against the closed form.

    Beyond binary64 the comparison survives 20+ orders of magnitude of
    quadrature cancellation; only trusted rows where the closed form drops
    below ``_HP_GUARD`` of the kernel's sup are skipped (there the *lattice
    truncation* floor of the quadrature, not arithmetic, is what remains).
    Row x is one exact integer dot (a digit GEMM for all rows,
    :func:`numerics.hankel_dots`), sum_j u_j J_{x+j} with u_j = floor(w_j e_j 2^S1)
    (Jackson weights ``op.jackson_mp``, e-profile run) and J_k = j_v(q^k) 2^S2
    truncated, against floor(G(q^x, t) 2^(S1+S2) / c).  Its truncation error
    is below N 2^-S1 max|J| + 2^-(S1+S2) sum_j u_j; S1 and S2 come from the
    measured max|J| and sum of u, each term at most 2^-(prec+1) C_min / c, so
    c times the bound sits 2^-prec below C_min, the smallest gated closed-form
    value (prec: the bits of the kernel's working digits plus ten).  NaN if a
    kernel value is not finite: the gate would drop its row, or every row.
    """
    if not np.isfinite(g.fn.values).all():
        return math.nan
    _, rows = _hp_rows(g, op, window)
    return worst(*(abs(dot - closed) / closed for dot, closed in rows.values()))


def heat_apply(f: GridFn, t: float, k: Kernel3, ctx: PrecisionCtx = DEFAULT_CTX,
               g: GaussKernel | None = None) -> GridFn:
    """Heat flow P_t f = G(., t) *_q f = M (MG Mf) for window-supported f, MG
    kept by ``g`` (:meth:`GaussKernel.transformed`).

    A given kernel ``g`` must be the one at time ``t``: ValueError otherwise.
    """
    if g is None:
        g = gauss_kernel(t, k.grid, ctx)
    elif g.t != t:
        raise ValueError(f"Gauss kernel at t={g.t} given for heat flow at t={t}")
    check_factors(f, g.fn, k)    # f first: G > 0 reaches past the window
    op = k.op
    return GridFn(op.grid, op.matrix @ (g.transformed(op) * (op.matrix @ f.values)))


def heat_residual(u_t: np.ndarray, u_below: np.ndarray, g: GaussKernel, below: GaussKernel,
                  window: tuple[int, int]) -> float:
    """Pointwise q-heat-equation residual of the flows u_t = P_t f and u_below =
    P_{q^2 t} f, t = g.t, on trusted interior rows, worst over the rows of the
    stacks: one window-supported probe f a row, flowed by
    :func:`~qfourier.translation.convolve_rows`.

    The time difference uses u at t and at q^2 t; ``below`` must be G(., q^2 t),
    the member one step below ``g`` in its family (ValueError otherwise).  Rows
    are restricted to the trusted ``window``, where the q^{-2n} amplification
    of the space operator stays far below the tolerance budget.
    """
    if below.family is not g.family or below.k != g.k + 1:
        raise ValueError(f"Gauss kernel at t={below.t} is not the member one step "
                         f"below t={g.t} in its family")
    grid = g.grid
    rhs = (u_t - u_below) / g.t  # (1-q^2) D_{q^2,t} u
    lo, hi = max(window[0], grid.n_lo + 1) - grid.n_lo, min(window[1], grid.n_hi - 1) - grid.n_lo
    du = q_bessel_rows(u_t, grid)[1][:, lo - 1:hi]  # its column i is grid row i + 1
    return worst(*(np.abs(du - rhs[:, lo:hi + 1]) / (1.0 + np.abs(du))).ravel())


def heat_spectral_defect(fs: np.ndarray, u: np.ndarray, g: GaussKernel, k: Kernel3,
                         window: tuple[int, int]) -> float:
    """Worst || F(P_t f) - e(-t x^2) . Ff ||_2 / || e(-t x^2) . Ff ||_2 on trusted rows,
    t = g.t, over the rows of the probe stack ``fs`` (window-supported probes) and
    of their flow u = P_t fs (:func:`~qfourier.translation.convolve_rows`)."""
    grid, m = k.grid, k.op.matrix
    lhs = u @ m.T
    rhs = g.eprofile.values * (fs @ m.T)
    rows = slice(grid.index(window[0]), grid.index(window[1]) + 1)
    w = grid.weights()[rows]
    num = np.sqrt(((lhs - rhs)[:, rows] ** 2) @ w)
    return worst(*num / np.maximum(np.sqrt(rhs[:, rows] ** 2 @ w), TINY))


def heat_markov_check(g: GaussKernel, k: Kernel3) -> float:
    """Unit defect of P_t, t = g.t (the Gauss kernel is a probability density)."""
    return markov_check_convolution(g.fn, k)


def composition_defect(f: GridFn, g_t: GaussKernel, g_s: GaussKernel, g_ts: GaussKernel,
                       k: Kernel3) -> float:
    """|| P_t P_s f - P_{t+s} f ||_2 / || P_{t+s} f ||_2 on window rows, t = g_t.t,
    s = g_s.t, and ``g_ts`` the kernel at t + s (ValueError otherwise).

    Reported without a gate: the composition law in t is not implied by the
    q-exponential symbol (e(a)e(b) != e(a+b)), so this measures how far the
    family is from a classical semigroup.
    """
    if g_ts.t != g_t.t + g_s.t:
        raise ValueError(f"Gauss kernel at t={g_ts.t} given for t + s = {g_t.t + g_s.t}")
    grid = k.grid
    u_s = heat_apply(f, g_s.t, k, g=g_s)
    # u_s has full-grid support, so neither factor of P_t u_s = M (MG Mu_s)
    # is window-supported and only its window rows are trusted.
    m = k.op.matrix
    sel = [grid.index(int(e)) for e in k.window_exponents]
    lhs = (m @ (g_t.transformed(k.op) * (m @ u_s.values)))[sel]
    u_ts = heat_apply(f, g_ts.t, k, g=g_ts)
    ww = grid.weights()[sel]
    num = math.sqrt(float(ww @ (lhs - u_ts.values[sel]) ** 2))
    den = math.sqrt(float(ww @ u_ts.values[sel] ** 2))
    return num / max(den, TINY)
