"""q-translation operator, its triple-product kernel, and Markov checks.

The kernel

    D_v(x, y, z) = c_{q,v}^2 int j_v(xs) j_v(ys) j_v(zs) s^{2v+1} d_q s

is totally symmetric and, where it is nonnegative, makes the translation

    T_{q,x} f(y) = int f(z) D_v(x, y, z) z^{2v+1} d_q z

a Markov operator.  Two truncation budgets govern a finite build:

* the s-integral of an entry loses its tail unless at least one argument
  exponent is small enough for the decay bound to kill the weight -- this
  caps the *upper* end of the trusted exponent window;
* the z-integrals against the kernel (unit fixed point, row sums) need the
  product mass of (x, y) to stay inside the grid -- this lifts the *lower*
  end, and is calibrated against the measured row-sum defect.

Entries of the symmetric window cube are summed exactly in integers and
rounded once.  Each high-precision table value j_n becomes the int
J_n = trunc(j_n 2^P), P = prec + 64 (prec the working precision in bits);
per window exponent a the row A_s = w_s j(q^{a+s}) is formed at working
precision and truncated to an int at scale 2^P over its largest term; the
sum over s of A_s J_{b+s} J_{c+s} is exact big-integer arithmetic, turned
into binary64 by one correctly rounded int/int division.  Before that last
rounding an entry is off by at most

    k 2^-prec sum_s |w_s j_a j_b j_c|   (mp weights and row products)
  + 2^-(prec+62) N C^2 max_s |w_s j_a|  (truncation to ints)

with k a few units, N the grid size and C >= 1 the decay-bound constant
(|j_v| <= C).  The extended blocks feeding integral checks are double
precision (their error is orders of magnitude below the 1e-8 gates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations
from operator import mul

import mpmath as mp
import numpy as np

from .bessel import (
    BesselTable,
    decay_bound_constant,
    decay_bound_log10,
    jv_table,
)
from .errors import GridMismatch, NotProbability, OffWindow
from .lattice import GridFn, LatticeGrid, jackson_integral, norm2, sup_norm
from .numerics import TINY, worst
from .qseries import DEFAULT_CTX, PrecisionCtx, QParams, c_qv, c_qv_mp
from .transform import _logsum10, psi_norm_sq

# Guard bits of the fixed-point window cube below the working precision.
_GUARD_BITS = 64

__all__ = [
    "Kernel3",
    "MarkovReport",
    "kernel",
    "translate",
    "convolve",
    "kernel_min",
    "positivity_min",
    "PositivityResult",
    "markov_check",
    "markov_check_convolution",
    "eigen_check",
    "basis_function",
    "multiplier_coeffs",
    "hypergroup_expansion_defect",
    "hypergroup_window",
    "default_scan_grid",
]


@dataclass
class Kernel3:
    """Tabulated translation kernel on a trusted exponent window.

    ``cube[i, j, k]`` holds D_v(q^a, q^b, q^c) for window exponents and is
    exactly symmetric (each entry is computed once, in sorted argument order,
    as an exact fixed-point integer sum rounded once to binary64; the module
    docstring bounds its truncation error).  ``block[i]`` holds
    D_v(q^a, ., .) over the whole grid for window exponent a, which by
    symmetry also serves every entry with *any* argument in the window.
    """

    grid: LatticeGrid
    table: BesselTable
    c: float
    window_lo: int
    window_hi: int
    cube: np.ndarray = field(repr=False)
    block: np.ndarray = field(repr=False)
    max_rowsum_defect: float = 0.0

    @property
    def window(self) -> tuple[int, int]:
        return (self.window_lo, self.window_hi)

    @property
    def window_exponents(self) -> np.ndarray:
        return np.arange(self.window_lo, self.window_hi + 1)

    @property
    def width(self) -> int:
        return self.window_hi - self.window_lo + 1

    def windex(self, e: int) -> int:
        if not (self.window_lo <= e <= self.window_hi):
            raise OffWindow(
                f"exponent {e} outside kernel window [{self.window_lo}, {self.window_hi}]"
            )
        return e - self.window_lo

    def in_window(self, f: GridFn) -> bool:
        supp = f.support_exponents()
        return bool(
            supp.size == 0
            or (supp.min() >= self.window_lo and supp.max() <= self.window_hi)
        )


def _entry_weights(grid: LatticeGrid, c: float) -> np.ndarray:
    """c^2 (1-q) q^{s(2v+2)} over the grid: the d_q s measure inside D_v."""
    return c * c * grid.weights()


def _rowsum_defect(a: int, b: int, jmat: np.ndarray, went: np.ndarray,
                   grid: LatticeGrid) -> float:
    """|1 - (1-q) sum_z q^{z(2v+2)} D(a, b, z)| computed in double precision."""
    row = jmat @ (went * jmat[grid.index(a)] * jmat[grid.index(b)])
    return abs(1.0 - float(grid.weights() @ row))


def _upper_cutoff(grid: LatticeGrid, ctx: PrecisionCtx, tol: float,
                  tail_terms: int = 80) -> int:
    """Largest exponent whose kernel entries keep their s-integral tail < tol.

    Exponents are accepted upward from ``n_lo`` until the first one whose
    tail bound reaches ``tol``.
    """
    p = grid.params
    q, v = p.q, p.v
    lgq = math.log10(q)
    const = decay_bound_constant(p, ctx)
    c = c_qv(p, ctx)
    s = np.arange(grid.n_lo - tail_terms, grid.n_lo, dtype=float)
    base = (2.0 * math.log10(c) + math.log10(1.0 - q)
            + s * (2.0 * v + 2.0) * lgq + 2.0 * math.log10(const))
    es = np.arange(grid.n_lo, grid.n_hi + 1)
    log_tail = _logsum10(base + decay_bound_log10(es[:, None] + s, p, const))
    bad = np.flatnonzero(~(log_tail < math.log10(tol)))
    accepted = int(bad[0]) if bad.size else es.size
    return grid.n_lo + max(accepted - 1, 0)


def _to_fixed(x, bits: int) -> int:
    """The finite mpf ``x`` times 2**bits as an int, truncated toward zero."""
    sign, man, exp, _ = x._mpf_
    if not man and exp:
        raise ValueError(f"kernel input {x} is not finite")
    shift = exp + bits
    man = man << shift if shift >= 0 else man >> -shift
    return -man if sign else man


def _window_cube(grid: LatticeGrid, table: BesselTable, wexps: np.ndarray,
                 ctx: PrecisionCtx) -> np.ndarray:
    """D_v(q^a, q^b, q^c) over the window as exact fixed-point sums (module doc).

    Each sorted triple is summed once and mirrored, so permutation symmetry
    is exact.
    """
    p = grid.params
    exps = grid.exponents
    n = grid.size
    width = len(wexps)
    with mp.workdps(ctx.work_digits):
        bits = mp.mp.prec + _GUARD_BITS
        jmp = table.mp_values
        jfix = [_to_fixed(x, bits) for x in jmp]
        c_mp = c_qv_mp(p, ctx)
        q_mp = mp.mpf(p.q)
        w_mp = [c_mp * c_mp * (1 - q_mp) * q_mp ** (int(s) * (2 * mp.mpf(p.v) + 2))
                for s in exps]
        # Row i holds the table slice j_v(q^{wexps[i] + s}) over the grid s.
        starts = [int(a) + grid.n_lo - table.n_min for a in wexps]
        jrows = [jfix[t:t + n] for t in starts]
        cube = np.empty((width, width, width))
        for i, t in enumerate(starts):
            arow = [w * x for w, x in zip(w_mp, jmp[t:t + n])]
            top = max((x._mpf_[2] + x._mpf_[3] for x in arow if x), default=0)
            afix = [_to_fixed(x, bits - top) for x in arow]
            scale = 1 << (3 * bits - top)
            for j in range(i, width):
                pair = list(map(mul, afix, jrows[j]))
                for k in range(j, width):
                    val = sum(map(mul, pair, jrows[k])) / scale
                    for perm in set(permutations((i, j, k))):
                        cube[perm] = val
    return cube


def kernel(grid: LatticeGrid, table: BesselTable, ctx: PrecisionCtx = DEFAULT_CTX,
           max_width: int = 24, entry_tol: float = 1e-12,
           rowsum_tol: float = 1e-9) -> Kernel3:
    """Tabulate the translation kernel on its trusted window."""
    p = grid.params
    c = c_qv(p, ctx)
    jmat = table.hankel(grid.exponents)
    went = _entry_weights(grid, c)

    win_hi = _upper_cutoff(grid, ctx, entry_tol)
    win_lo = grid.n_lo + 1
    while win_lo < win_hi and _rowsum_defect(
            win_lo, win_lo, jmat, went, grid) > rowsum_tol:
        win_lo += 1
    win_lo = max(win_lo, win_hi - max_width + 1)
    if win_hi - win_lo + 1 < 3:
        raise GridMismatch(
            f"kernel window collapsed to [{win_lo}, {win_hi}]; grid too small"
        )

    wexps = np.arange(win_lo, win_hi + 1)
    width = len(wexps)

    # Extended block, double precision: block[i] = D(q^{wexps[i]}, ., .).
    block = np.empty((width, grid.size, grid.size))
    for i, a in enumerate(wexps):
        m = (jmat * (went * jmat[grid.index(int(a))])[None, :]) @ jmat.T
        block[i] = 0.5 * (m + m.T)

    cube = _window_cube(grid, table, wexps, ctx)

    kern = Kernel3(grid, table, c, int(win_lo), int(win_hi), cube, block)
    defects = [
        _rowsum_defect(int(a), int(b), jmat, went, grid)
        for a in wexps for b in wexps
    ]
    kern.max_rowsum_defect = float(max(defects))
    return kern


def translate(f: GridFn, x_exp: int, k: Kernel3) -> GridFn:
    """T_{q,x} f(y) = (1-q) sum_z q^{z(2v+2)} f(q^z) D(x, y, q^z), full-grid output.

    x must be a window exponent; y and z range over the whole grid (every
    needed kernel entry is trusted because its x argument is in the window).
    """
    if f.grid != k.grid:
        raise GridMismatch("function lives on a different grid than the kernel")
    i = k.windex(x_exp)
    return GridFn(k.grid, k.block[i] @ (k.grid.weights() * f.values))


def _convolve_routed(outer: GridFn, inner_fn: GridFn, k: Kernel3) -> np.ndarray:
    """c int T_{q,x} inner(y) outer(y) y^{2v+1} d_q y with outer window-supported."""
    w = k.grid.weights()
    wf = w * inner_fn.values
    acc = np.zeros(k.grid.size)
    for e in outer.support_exponents():
        i = k.windex(int(e))
        acc += (w[k.grid.index(int(e))] * outer[int(e)]) * (k.block[i] @ wf)
    return k.c * acc


def convolve(f: GridFn, g: GridFn, k: Kernel3) -> GridFn:
    """q-convolution f *_q g; at least one factor must be window-supported."""
    if f.grid != g.grid:
        raise GridMismatch("convolution factors live on different grids")
    if f.grid != k.grid:
        raise GridMismatch("functions live on a different grid than the kernel")
    if k.in_window(g):
        return GridFn(k.grid, _convolve_routed(g, f, k))
    if k.in_window(f):
        return GridFn(k.grid, _convolve_routed(f, g, k))
    raise OffWindow("neither convolution factor is supported inside the kernel window")


def kernel_min(k: Kernel3) -> tuple[float, tuple[int, int, int]]:
    """Minimum of the trusted window cube and its argument exponents."""
    idx = np.unravel_index(int(np.argmin(k.cube)), k.cube.shape)
    exps = tuple(int(k.window_exponents[i]) for i in idx)
    return float(k.cube[idx]), exps


@dataclass(frozen=True)
class PositivityResult:
    """Outcome of a kernel positivity scan at one (q, v)."""

    q: float
    v: float
    min_value: float
    argmin: tuple[int, int, int]
    window: tuple[int, int]


def default_scan_grid(p: QParams) -> LatticeGrid:
    """Grid sized so identity-truncation tails stay below ~1e-14 for (q, v)."""
    lg = math.log10(1.0 / p.q)
    n_hi = max(40, int(math.ceil(16.0 / ((2.0 * p.v + 2.0) * lg))) + 8)
    n_lo = -max(10, int(math.ceil(math.sqrt(16.0 / lg))) + 6)
    return LatticeGrid(p, n_lo, n_hi)


def positivity_min(p: QParams, window: int = 16, ctx: PrecisionCtx = DEFAULT_CTX,
                   grid: LatticeGrid | None = None) -> PositivityResult:
    """Build the kernel for (q, v) and return min D_v over the trusted window.

    The sign of the minimum is the finite-window proxy for membership of q in
    the positivity domain; for v < 0 the result is observational only.
    """
    if grid is None:
        grid = default_scan_grid(p)
    table = jv_table(grid, ctx)
    k = kernel(grid, table, ctx, max_width=window)
    mn, arg = kernel_min(k)
    return PositivityResult(p.q, p.v, mn, arg, k.window)


@dataclass(frozen=True)
class MarkovReport:
    """Defects of the Markov-operator axioms for a kernel-driven operator."""

    min_kernel: float
    unit_defect: float
    symmetry_defect: float
    contraction_defect: float
    jensen_defect: float
    sup_defect: float

    def worst(self) -> float:
        return worst(self.unit_defect, self.symmetry_defect,
                     self.contraction_defect, self.jensen_defect, self.sup_defect)


def _markov_defects(apply_op, k: Kernel3, probes: list[GridFn],
                    unit_values: np.ndarray) -> MarkovReport:
    from .lattice import inner as _inner

    unit_defect = float(np.max(np.abs(unit_values - 1.0)))
    symmetry = contraction = jensen = supd = 0.0
    images = [apply_op(f) for f in probes]
    for f, tf in zip(probes, images):
        nf = norm2(f)
        contraction = worst(contraction, norm2(tf) / max(nf, TINY) - 1.0)
        supd = worst(supd, sup_norm(tf) / max(sup_norm(f), TINY) - 1.0)
        if np.all(f.values >= 0.0):
            tf2 = apply_op(GridFn(k.grid, f.values**2))
            jensen = worst(jensen, float(np.max(tf.values**2 - tf2.values)))
    for (f, tf), (g, tg) in zip(zip(probes, images), zip(probes[1:], images[1:])):
        defect = abs(_inner(tf, g) - _inner(f, tg))
        symmetry = worst(symmetry, defect / max(norm2(f) * norm2(g), TINY))
    mn, _ = kernel_min(k)
    return MarkovReport(
        min_kernel=mn,
        unit_defect=unit_defect,
        symmetry_defect=float(symmetry),
        contraction_defect=float(contraction),
        jensen_defect=float(jensen),
        sup_defect=float(supd),
    )


def _spread_exponents(k: Kernel3, count: int = 5) -> list[int]:
    pos = np.linspace(0, k.width - 1, num=min(count, k.width))
    return sorted({int(k.window_exponents[int(round(i))]) for i in pos})


def markov_check(k: Kernel3, probes: list[GridFn],
                 x_exps: list[int] | None = None) -> MarkovReport:
    """Markov-axiom defects for the translations {T_{q,x}} at window x values.

    The unit fixed point is evaluated at window y exponents (beyond them the
    product mass of (x, y) leaves the grid and the defect measures truncation,
    not the operator); symmetry, contraction, Jensen and the sup bound are
    probed with window-supported functions over the full grid.
    """
    if x_exps is None:
        x_exps = _spread_exponents(k)
    for f in probes:
        if not k.in_window(f):
            raise OffWindow("markov probes must be supported inside the kernel window")
    wsel = [k.grid.index(int(e)) for e in k.window_exponents]
    units = np.concatenate([
        (k.block[k.windex(int(x))] @ k.grid.weights())[wsel] for x in x_exps
    ])
    reports = [
        _markov_defects(lambda f, _x=x: translate(f, int(_x), k), k, probes, units)
        for x in x_exps
    ]
    return MarkovReport(
        min_kernel=reports[0].min_kernel,
        unit_defect=reports[0].unit_defect,
        symmetry_defect=worst(*(r.symmetry_defect for r in reports)),
        contraction_defect=worst(*(r.contraction_defect for r in reports)),
        jensen_defect=worst(*(r.jensen_defect for r in reports)),
        sup_defect=worst(*(r.sup_defect for r in reports)),
    )


def _check_probability(rho: GridFn, k: Kernel3, tol: float = 1e-10) -> None:
    if np.any(rho.values < 0.0):
        raise NotProbability("density has negative values")
    mass = k.c * jackson_integral(rho)
    if abs(mass - 1.0) > tol:
        raise NotProbability(f"c * integral(rho) = {mass!r}, expected 1 within {tol}")


def markov_check_convolution(rho: GridFn, k: Kernel3,
                             probes: list[GridFn]) -> MarkovReport:
    """Markov-axiom defects for K: f -> f *_q rho, rho a probability density."""
    _check_probability(rho, k)
    w = k.grid.weights()
    wrho = w * rho.values
    # Unit fixed point and induced-kernel minimum on window x rows.
    units = []
    kmin = np.inf
    for i in range(k.width):
        row = wrho @ k.block[i]               # int D(x, y, .) rho(y) dy at x = win[i]
        units.append(k.c * float(row @ w))    # (1 * rho)(x)
        kmin = min(kmin, k.c * float(np.min(row)))

    def apply_op(f: GridFn) -> GridFn:
        return convolve(f, rho, k)

    base = _markov_defects(apply_op, k, probes, np.asarray(units))
    return MarkovReport(
        min_kernel=float(kmin),
        unit_defect=base.unit_defect,
        symmetry_defect=base.symmetry_defect,
        contraction_defect=base.contraction_defect,
        jensen_defect=base.jensen_defect,
        sup_defect=base.sup_defect,
    )


def _basis_values(k: Kernel3, n: int) -> np.ndarray:
    """f_n = psi_{q^n} / ||psi_{q^n}|| sampled on the grid (closed-form norm)."""
    exps = k.grid.exponents
    psi = k.c * k.table.values[(n + exps) - k.table.n_min]
    return psi / math.sqrt(psi_norm_sq(k.grid, n))


def basis_function(k: Kernel3, n: int) -> GridFn:
    """Unit eigenfunction f_n = psi_{q^n}/||psi_{q^n}|| as a grid function."""
    return GridFn(k.grid, _basis_values(k, n))


def eigen_check(k: Kernel3, n: int, x_exp: int) -> float:
    """|| T_{q,x} f_n - (f_n(x)/f_n(0)) f_n ||_2 for the unit eigenfunction f_n.

    The eigenvalue is j_v(q^{n} x, q^2): the lattice never contains 0, and
    f_n(0) is defined through j_v(0) = 1.
    """
    fn = GridFn(k.grid, _basis_values(k, n))
    lam = k.table.value(n + x_exp)
    tfn = translate(fn, x_exp, k)
    return norm2(GridFn(k.grid, tfn.values - lam * fn.values))


def multiplier_coeffs(rho: GridFn, k: Kernel3) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues c_n of f -> f *_q rho for window n (diagonal on the basis).

        c_n = c int (f_n(y)/f_n(0)) rho(y) y^{2v+1} d_q y = c int j_v(q^n y) rho ...

    Returns (window exponents, coefficients).  Requires c rho y^{2v+1} d_q y
    to be a probability measure; |c_n| <= 1 then holds wherever the kernel is
    positive (reported, not assumed, elsewhere).
    """
    _check_probability(rho, k)
    exps = k.grid.exponents
    wrho = k.grid.weights() * rho.values
    ns = k.window_exponents
    coeffs = np.array([
        k.c * float(k.table.values[(int(n) + exps) - k.table.n_min] @ wrho)
        for n in ns
    ])
    return ns, coeffs


def _expansion_term_envelope(k: Kernel3, ctx: PrecisionCtx = DEFAULT_CTX) -> np.ndarray:
    """log10 bound on the size of the n-th basis-expansion term over the cube.

    term_n(x,y,z) = c^2 (1-q) q^{n(2v+2)} j(q^{n+a}) j(q^{n+b}) j(q^{n+c});
    the bound takes the slowest-decaying window exponent in all three slots.
    """
    p = k.grid.params
    const = decay_bound_constant(p, ctx)
    ns = k.grid.exponents.astype(float)
    base = (2.0 * math.log10(k.c) + math.log10(1.0 - p.q)
            + ns * (2.0 * p.v + 2.0) * math.log10(p.q))
    return base + 3.0 * decay_bound_log10(ns + k.window_hi, p, const)


def hypergroup_window(k: Kernel3, width: int,
                      ctx: PrecisionCtx = DEFAULT_CTX) -> tuple[int, int]:
    """Best-positioned width-``width`` band of expansion indices inside the grid.

    Positive-n terms die geometrically (the lattice weight), negative-n terms
    quadratically (the decay bound), so the band that minimizes the predicted
    missing mass sits asymmetrically; it is found by scanning the log-envelope.
    """
    env = _expansion_term_envelope(k, ctx)
    n = len(env)
    width = min(width, n)
    best_lo, best_cost = 0, math.inf
    for lo in range(0, n - width + 1):
        outside = np.concatenate([env[:lo], env[lo + width:]])
        cost = float(np.max(outside)) if outside.size else -math.inf
        if cost < best_cost:
            best_lo, best_cost = lo, cost
    lo_exp = int(k.grid.exponents[best_lo])
    return lo_exp, lo_exp + width - 1


def hypergroup_expansion_defect(k: Kernel3,
                                n_window: tuple[int, int] | None = None) -> float:
    """Max normalized gap between the kernel cube and its basis expansion

        D(x,y,z) = sum_n f_n(x) f_n(y) f_n(z) / f_n(0).

    By default n runs over the whole grid (the finite stand-in for the full
    lattice sum); a narrower ``n_window`` exposes the truncation tail, which
    must shrink as the window grows.
    """
    if n_window is None:
        n_window = (k.grid.n_lo, k.grid.n_hi)
    wexps = k.window_exponents
    sel = [k.grid.index(int(e)) for e in wexps]
    rhs = np.zeros((k.width, k.width, k.width))
    for n in range(n_window[0], n_window[1] + 1):
        fn = _basis_values(k, int(n))[sel]
        fn0 = k.c / math.sqrt(psi_norm_sq(k.grid, int(n)))
        rhs += np.einsum("a,b,c->abc", fn, fn, fn) / fn0
    scale = float(np.max(np.abs(k.cube)))
    return float(np.max(np.abs(k.cube - rhs))) / max(scale, TINY)
