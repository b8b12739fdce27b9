"""q-translation operator, its triple-product kernel, and Markov checks.

The kernel

    D_v(x, y, z) = c_{q,v}^2 int j_v(xs) j_v(ys) j_v(zs) s^{2v+1} d_q s

is totally symmetric and, where it is nonnegative, makes the translation

    T_{q,x} f(y) = int f(z) D_v(x, y, z) z^{2v+1} d_q z

a Markov operator.  Two truncation budgets govern a finite build:

* the s-integral of an entry loses its tail unless at least one argument
  exponent is small enough for the decay bound to kill the weight -- this
  caps the *upper* end of the trusted exponent window (the bound, and its
  known limit, are :func:`~qfourier.transform.entry_tail_log10`'s);
* the z-integrals against the kernel (unit fixed point, row sums) need the
  product mass of (x, y) to stay inside the grid -- this lifts the *lower*
  end, and is calibrated against the measured row-sum defect.

Entries of the symmetric window cube are exact integer sums, rounded once.
With g = 2v+2 and U_t = c^2 (1-q) q^{tg} j(q^t) over table exponents t,

    D(a, b, c) = q^{-ag} S_a(b-a, c-a),  S_a(d, e) = sum_{t=a+n_lo}^{a+n_hi} U_t j_{t+d} j_{t+e}.

Table values become ints J_t = trunc(j_t 2^P), P = prec + 64 (prec the
working precision in bits), and U_t, formed once at working precision from
q^{tg} by one running product at P + 64 bits (libmp products on raw mpf
tuples, rounded as mpf products are), ints at one scale: 2^P over
max |U_t| plus (that top less the smallest row top) guard bits, so no row is
coarser than 2^-P of its largest term.  The face a = window_lo is summed in
full, exactly, as binary64 GEMMs over 16-bit digits of the products
U_t J_{t+d} and of J (:func:`numerics.hankel_dots` states the 2^53 bound);
S_{a+1} is S_a less its t = a+n_lo term plus the t = a+1+n_hi term, exactly.
S_a F_a, with F_a = q^{-ag} an int of at least P bits, becomes binary64 by
one correctly rounded int/int division, before which an entry is off by at most

    k 2^-prec T                           (mp U_t, F_a; q^{tg} adds N 2^-(P+64))
  + 2^-(prec+62) N C^2 q^{-ag} max |U_t|  (truncation to ints, t in row a)
  + 3 d T                                 (table error, |dj| <= d |j|)

with T the sum of the absolute terms, k a few units, N the grid size,
C >= 1 the decay-bound constant (|j_v| <= C) and d the relative error of
``table.mp_values``: below 1e-40 for the recurrence table, while table
errors of 7.5e-30 already turn D(-6, 2, 2) = +8.3e-48 at q = 1/2, v = 3/2
into -7.5e-47.

Every float apply goes through the cell's transform matrix M
(:mod:`qfourier.transform`, built on the first apply), under which
translation and convolution are diagonal -- the product formula of
Koornwinder & Swarttouw:

    T_{q,x} f = M (j_v(x .) Mf),        f *_q g = M (Mf Mg).

Both are the lattice sums that define D_v taken in another order, with
the same truncation, so the trust rule above still decides which outputs
hold; their binary64 rounding sits orders of magnitude below the 1e-8
gates.  Besides its mat-vecs an apply makes one grid check, identity
first (:func:`~qfourier.lattice.same_grid`), and one window test
(:meth:`Kernel3.off_window`: a value nonzero or NaN off the window is
support); a heat flow's M G is its Gauss kernel's, formed once per
operator (:meth:`~qfourier.heat.GaussKernel.transformed`).  Identities
that compare two routes take the M route on one side and the exact window
cube on the other.  The kernel's window calibration reads single rows of
M (M 1 by one Hankel correlation, then one row dot per row sum), so
building the kernel, and the positivity scan, allocate no N x N array.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field
from itertools import accumulate, repeat
from operator import mul

import mpmath as mp
import numpy as np
from mpmath.libmp import mpf_mul, round_nearest

from .bessel import BesselTable, decay_bound_log10, jv_table
from .errors import GridMismatch, GridTooSmall, NotProbability, OffWindow
from .lattice import GridFn, LatticeGrid, jackson_integral, norms, same_grid, stack
from .numerics import TINY, hankel_dots, to_fixed, worst
from .qseries import DEFAULT_CTX, PrecisionCtx, QParams
from .transform import (
    TransformOp,
    build_transform,
    entry_tail_log10,
    hankel_rows,
    psi_norm_sq,
    tail_weight_log10,
)

__all__ = [
    "Kernel3",
    "MarkovReport",
    "kernel",
    "translate",
    "convolve",
    "check_factors",
    "translate_rows",
    "convolve_rows",
    "kernel_min",
    "positivity_min",
    "PositivityResult",
    "markov_check",
    "markov_check_convolution",
    "eigen_check",
    "basis_function",
    "basis_rows",
    "multiplier_coeffs",
    "hypergroup_expansion_defect",
    "hypergroup_window",
    "default_scan_grid",
]


@dataclass
class Kernel3:
    """Translation kernel on a trusted exponent window, with the cell's transform.

    ``cube[i, j, k]`` holds D_v(q^a, q^b, q^c) for window exponents and is
    exactly symmetric (each entry is computed once, in sorted argument order,
    as an exact fixed-point integer sum rounded once to binary64; the module
    docstring bounds its truncation error).  ``op`` is the transform every
    float apply goes through; its matrix is built on the first apply, not by
    the window calibration, which reads single rows.  An entry with *any*
    argument in the window is trusted, so translations by window x have
    full-grid output.
    The grid, the table and c_{q,v} are the transform's.
    """

    window_lo: int
    window_hi: int
    cube: np.ndarray = field(repr=False)
    op: TransformOp = field(repr=False)

    @property
    def grid(self) -> LatticeGrid:
        return self.op.grid

    @property
    def table(self) -> BesselTable:
        return self.op.table

    @property
    def c(self) -> float:
        return self.op.c

    @property
    def window(self) -> tuple[int, int]:
        return (self.window_lo, self.window_hi)

    @property
    def window_exponents(self) -> np.ndarray:
        return np.arange(self.window_lo, self.window_hi + 1)

    @property
    def width(self) -> int:
        return self.window_hi - self.window_lo + 1

    @property
    def window_slice(self) -> slice:
        """Positions of the window exponents in a grid vector."""
        return slice(self.window_lo - self.grid.n_lo, self.window_hi - self.grid.n_lo + 1)

    def windex(self, e: int) -> int:
        if not (self.window_lo <= e <= self.window_hi):
            raise OffWindow(
                f"exponent {e} outside kernel window [{self.window_lo}, {self.window_hi}]"
            )
        return e - self.window_lo

    def off_window(self, values: np.ndarray) -> bool | np.ndarray:
        """Whether a value vector (a bool), or each row of a stack (a bool array), has
        support off the window: a value nonzero or NaN at a grid exponent outside it."""
        s = self.window_slice
        if values.ndim == 1:
            return bool(np.count_nonzero(values[:s.start]) or np.count_nonzero(values[s.stop:]))
        return values[..., :s.start].any(axis=-1) | values[..., s.stop:].any(axis=-1)


def _translate_hat(op: TransformOp, x_exp: int, fhat: np.ndarray) -> np.ndarray:
    """M (j_v(q^{x_exp} .) fhat): T_{q,x} of the function whose transform is fhat."""
    return op.matrix @ (op.table.row(x_exp + op.grid.n_lo, x_exp + op.grid.n_hi) * fhat)


# Tail bound below which an exponent's kernel entries are trusted (upper cutoff).
_ENTRY_TOL = 1e-12
# Row-sum defect below which a low exponent joins the kernel window.
_ROWSUM_TOL = 1e-9


def _upper_cutoff(op: TransformOp) -> int:
    """Largest exponent whose kernel entries keep their s-integral tail < _ENTRY_TOL:
    the one below the first, upward from ``n_lo``, whose tail bound
    (:func:`~qfourier.transform.entry_tail_log10`) reaches it."""
    grid = op.grid
    bad = np.flatnonzero(~(entry_tail_log10(grid, op.table) < math.log10(_ENTRY_TOL)))
    accepted = int(bad[0]) if bad.size else grid.size
    return grid.n_lo + max(accepted - 1, 0)


def _window_cube(op: TransformOp, wexps: np.ndarray) -> np.ndarray:
    """D_v on the window: face sums as exact digit GEMMs, then exact slides (module doc).

    The working precision is the table's, as the error bound assumes.  Each
    entry is written once, in sorted order; one gather at the sorted index
    triples (min, middle, max) makes the cube symmetric.
    """
    grid, table, c_mp = op.grid, op.table, op.c_mp
    p = grid.params
    n, width = grid.size, len(wexps)
    t_lo = int(wexps[0]) + grid.n_lo
    with mp.workdps(table.ctx.work_digits):
        prec = mp.mp.prec
        bits = prec + 64  # guard bits below the working precision
        jmp = [x._mpf_ for x in table.row(t_lo, int(wexps[-1]) + grid.n_hi, hp=True)]
        q_mp = mp.mpf(p.q)
        g = 2 * mp.mpf(p.v) + 2
        with mp.workprec(bits + 64):
            qg, q_lo = q_mp ** g, q_mp ** (t_lo * g)
        # q^{tg} by one running product at bits + 64, then U_t at prec.
        qtg = accumulate(repeat(qg._mpf_, len(jmp) - 1),
                         lambda x, y: mpf_mul(x, y, bits + 64, round_nearest), initial=q_lo._mpf_)
        c2 = (c_mp * c_mp * (1 - q_mp))._mpf_
        u = [mpf_mul(mpf_mul(c2, x, prec, round_nearest), j, prec, round_nearest)
             for x, j in zip(qtg, jmp)]
        # mp.mag's magnitudes, -inf for 0; also for nan and inf, which to_fixed rejects.
        mags = [e + bc if m else -math.inf for _, m, e, bc in u]
        ubits = bits - min(max(mags[i:i + n]) for i in range(width))
        ufix = [to_fixed(x, ubits) for x in u]
        jfix = [to_fixed(x, bits) for x in jmp]  # J_{t_lo+m}
        with mp.workprec(bits):
            qpow = [q_mp ** (-int(a) * g) for a in wexps]
    faces = [list(map(mul, ufix[:n], jfix[d:d + n])) for d in range(width)]
    # sums[d1][d2] = S_a(d1, d2) for the current row a, d1 <= d2.
    sums = [[0] * d1 + row for d1, row in enumerate(
        hankel_dots(faces, jfix, [range(d1, width) for d1 in range(width)]))]
    tri = np.empty((width, width, width))  # tri[i, j, k] for i <= j <= k
    for i in range(width):
        out, inn = i - 1, i - 1 + n  # offsets of the t leaving and entering row i
        # F_a with at least ``bits`` bits, and a nonnegative total scale.
        fbits = max(bits - mp.mag(qpow[i]), -ubits - 2 * bits)
        f_a, scale = to_fixed(qpow[i], fbits), 1 << (ubits + 2 * bits + fbits)
        for d1 in range(width - i):
            row = sums[d1]
            if i:
                x_out, x_in = ufix[out] * jfix[out + d1], ufix[inn] * jfix[inn + d1]
                for d2 in range(d1, width - i):
                    row[d2] += x_in * jfix[inn + d2] - x_out * jfix[out + d2]
            tri[i, i + d1, i + d1:] = [row[d2] * f_a / scale for d2 in range(d1, width - i)]
    i, j, k = np.ogrid[:width, :width, :width]
    lo, hi = np.minimum(np.minimum(i, j), k), np.maximum(np.maximum(i, j), k)
    return tri[lo, i + j + k - lo - hi, hi]


def kernel(grid: LatticeGrid, table: BesselTable, ctx: PrecisionCtx = DEFAULT_CTX,
           max_width: int = 24) -> Kernel3:
    """Tabulate the translation kernel on its trusted window.

    The window's low end is calibrated from single rows of the transform
    matrix, which stays unbuilt.  The working digits are the table's; ``ctx``
    is accepted for positional callers and not read.  A ``max_width`` below 3
    admits no window on any grid: ValueError.
    """
    if max_width < 3:
        raise ValueError(f"a kernel window needs max_width >= 3, got {max_width}")
    op = build_transform(grid, table, ctx)
    cq, w = op.c * (1.0 - grid.params.q), op.col_weights
    # M 1 as a Hankel correlation: no N x N array.
    one_hat = cq * np.correlate(table.row(2 * grid.n_lo, 2 * grid.n_hi), w, "valid")

    def row_sum(a: int) -> float:
        """T_{q,a} 1 (a) = (1-q) sum_z q^{z(2v+2)} D(a, a, z): row a of M, which is
        c (1-q) j_v(q^{a+.}) q^{.(2v+2)}, dotted with j_v(q^{a+.}) M 1."""
        j = hankel_rows(op, a)[0]
        return float(((cq * j) * w) @ (j * one_hat))

    win_hi = _upper_cutoff(op)
    win_lo = grid.n_lo + 1
    # The row sum lifts the low end.
    while win_lo < win_hi and abs(1.0 - row_sum(win_lo)) > _ROWSUM_TOL:
        win_lo += 1
    win_lo = max(win_lo, win_hi - max_width + 1)
    if win_hi - win_lo + 1 < 3:
        why = (f"kernel window is empty: upper cutoff {win_hi} lies below the calibrated "
               f"low end {win_lo}" if win_lo > win_hi
               else f"kernel window collapsed to [{win_lo}, {win_hi}]")
        raise GridTooSmall(f"{why}: grid [{grid.n_lo}, {grid.n_hi}] is too small for "
                           f"q={grid.params.q}, v={grid.params.v}")

    cube = _window_cube(op, np.arange(win_lo, win_hi + 1))
    return Kernel3(int(win_lo), int(win_hi), cube, op)


def translate(f: GridFn, x_exp: int, k: Kernel3) -> GridFn:
    """T_{q,x} f(y) = (1-q) sum_z q^{z(2v+2)} f(q^z) D(x, y, q^z), full-grid output.

    Computed as M (j_v(x .) Mf).  x must be a window exponent; y and z range
    over the whole grid (every kernel entry the sum stands for is trusted
    because its x argument is in the window).
    """
    if not same_grid(f.grid, k.grid):
        raise GridMismatch("function lives on a different grid than the kernel")
    k.windex(x_exp)
    op = k.op
    return GridFn(op.grid, _translate_hat(op, x_exp, op.matrix @ f.values))


def check_factors(f: GridFn, g: GridFn, k: Kernel3) -> None:
    """The checks of f *_q g: both factors on the kernel's grid (GridMismatch), one of them
    window-supported, f tested first (OffWindow): the trust rule of the module doc."""
    if not (same_grid(f.grid, g.grid) and same_grid(f.grid, k.grid)):
        raise GridMismatch("convolution factors live on a different grid than the kernel")
    if k.off_window(f.values) and k.off_window(g.values):
        raise OffWindow("neither convolution factor is supported inside the kernel window")


def convolve(f: GridFn, g: GridFn, k: Kernel3) -> GridFn:
    """q-convolution f *_q g = M (Mf Mg); one factor must be window-supported
    (:func:`check_factors`)."""
    check_factors(f, g, k)
    op = k.op
    return GridFn(op.grid, op.matrix @ ((op.matrix @ f.values) * (op.matrix @ g.values)))


def translate_rows(f: np.ndarray, x_exps, k: Kernel3) -> np.ndarray:
    """T_{q,x} f = M (j_v(x .) Mf) on each row of a value stack; ``x_exps`` is one window
    exponent, or one per row."""
    for x in np.atleast_1d(x_exps):
        k.windex(int(x))
    m = k.op.matrix
    return ((f @ m.T) * hankel_rows(k.op, x_exps)) @ m.T


def convolve_rows(f: np.ndarray, g: np.ndarray, k: Kernel3) -> np.ndarray:
    """f *_q g = M (Mf Mg) on each row pair of value stacks (one vector g serves every
    row); as in :func:`convolve`, one factor of each pair must be window-supported."""
    if np.any(k.off_window(f) & k.off_window(g)):
        raise OffWindow("neither convolution factor is supported inside the kernel window")
    m = k.op.matrix
    return ((f @ m.T) * (g @ m.T)) @ m.T


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


def positivity_min(p: QParams, window: int = 16,
                   ctx: PrecisionCtx = DEFAULT_CTX) -> PositivityResult:
    """Build the kernel for (q, v) and return min D_v over the trusted window.

    The sign of the minimum is the finite-window proxy for membership of q in
    the positivity domain; for v < 0 the result is observational only.
    """
    grid = default_scan_grid(p)
    table = jv_table(grid, ctx)
    k = kernel(grid, table, ctx, max_width=window)
    mn, arg = kernel_min(k)
    return PositivityResult(p.q, p.v, mn, arg, k.window)


@dataclass(frozen=True)
class MarkovReport:
    """Defects of the Markov-operator axioms for a kernel-driven operator."""

    unit_defect: float
    symmetry_defect: float
    contraction_defect: float
    jensen_defect: float
    sup_defect: float

    def worst(self) -> float:
        return worst(*astuple(self))


def _markov_defects(apply_rows, k: Kernel3, f: np.ndarray,
                    unit_values: np.ndarray) -> MarkovReport:
    """Axiom defects of f -> apply_rows(f) on the probe rows of f, all rows at once."""
    grid, w = k.grid, k.grid.weights()
    tf, nf = apply_rows(f), norms(f, grid)
    nn = np.all(f >= 0.0, axis=1)                   # Jensen needs f >= 0
    # Symmetry: <Tf, g> - <f, Tg> over consecutive probe pairs (f, g).
    symmetry = np.abs((tf[:-1] * f[1:]) @ w - (f[:-1] * tf[1:]) @ w)
    return MarkovReport(
        unit_defect=float(np.max(np.abs(unit_values - 1.0))),
        symmetry_defect=float(worst(*symmetry / np.maximum(nf[:-1] * nf[1:], TINY))),
        contraction_defect=float(worst(*norms(tf, grid) / np.maximum(nf, TINY) - 1.0)),
        jensen_defect=float(worst(*np.max(tf[nn] ** 2 - apply_rows(f[nn] ** 2), axis=1))),
        sup_defect=float(worst(*np.max(np.abs(tf), axis=1)
                               / np.maximum(np.max(np.abs(f), axis=1), TINY) - 1.0)),
    )


def markov_check(k: Kernel3, probes: list[GridFn]) -> MarkovReport:
    """Markov-axiom defects for the translations {T_{q,x}} at window x values.

    The unit fixed point T_{q,x} 1 = 1 is evaluated for every window x at
    window y exponents (beyond them the product mass of (x, y) leaves the
    grid and the defect measures truncation, not the operator): these are
    the kernel's row sums (1-q) sum_z q^{z(2v+2)} D(x, y, z).  Symmetry,
    contraction, Jensen and the sup bound are probed at five spread window
    x with window-supported functions over the full grid.
    """
    x_exps = sorted({int(k.window_exponents[int(round(i))])
                     for i in np.linspace(0, k.width - 1, num=min(5, k.width))})
    fs = stack(k.grid, probes)
    if np.any(k.off_window(fs)):
        raise OffWindow("markov probes must be supported inside the kernel window")
    one_hat = k.op.matrix @ np.ones(k.grid.size)
    units = np.concatenate([_translate_hat(k.op, int(x), one_hat)[k.window_slice]
                            for x in k.window_exponents])
    reports = [_markov_defects(lambda v, _x=x: translate_rows(v, _x, k), k, fs, units)
               for x in x_exps]
    # Each axis's worst over x; the unit defect is the same in every report.
    return MarkovReport(*(worst(*axis) for axis in zip(*map(astuple, reports))))


def _check_probability(rho: GridFn, k: Kernel3) -> None:
    if not same_grid(rho.grid, k.grid):
        raise GridMismatch("density lives on a different grid than the kernel")
    if np.any(rho.values < 0.0):
        raise NotProbability("density has negative values")
    mass = k.c * jackson_integral(rho)
    if abs(mass - 1.0) > 1e-10:
        raise NotProbability(f"c * integral(rho) = {mass!r}, expected 1 within 1e-10")


def markov_check_convolution(rho: GridFn, k: Kernel3,
                             probes: list[GridFn]) -> MarkovReport:
    """Markov-axiom defects for K: f -> f *_q rho, rho a probability density."""
    _check_probability(rho, k)
    # Unit fixed point on window x rows: row x is T_{q,x} rho =
    # int D(x, y, .) rho(y) dy, and (1 * rho)(x) = c int row; M rho is formed once.
    rho_hat = k.op.matrix @ rho.values
    rows = np.array([_translate_hat(k.op, int(x), rho_hat) for x in k.window_exponents])
    units = k.c * (rows @ k.grid.weights())
    return _markov_defects(lambda v: convolve_rows(v, rho.values, k), k,
                           stack(k.grid, probes), units)


def basis_rows(k: Kernel3, ns) -> np.ndarray:
    """Unit eigenfunctions f_n = psi_{q^n}/||psi_{q^n}||, closed-form norms, one row an n."""
    return k.c * hankel_rows(k.op, ns) / np.sqrt(psi_norm_sq(k.grid, np.atleast_1d(ns)))[:, None]


def basis_function(k: Kernel3, n: int) -> GridFn:
    """Unit eigenfunction f_n = psi_{q^n}/||psi_{q^n}|| (closed-form norm)."""
    return GridFn(k.grid, basis_rows(k, n)[0])


def eigen_check(k: Kernel3, n, x_exp: int) -> float:
    """Worst || T_{q,x} f_n - (f_n(x)/f_n(0)) f_n ||_2 over the unit eigenfunctions
    f_n, n one exponent or several.

    The eigenvalue is j_v(q^{n} x, q^2): the lattice never contains 0, and
    f_n(0) is defined through j_v(0) = 1.
    """
    fn = basis_rows(k, n)
    lam = np.array([k.table.value(int(m) + x_exp) for m in np.atleast_1d(n)])
    return worst(*norms(translate_rows(fn, x_exp, k) - lam[:, None] * fn, k.grid))


def multiplier_coeffs(rho: GridFn, k: Kernel3) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues c_n of f -> f *_q rho for window n (diagonal on the basis).

        c_n = c int (f_n(y)/f_n(0)) rho(y) y^{2v+1} d_q y = c int j_v(q^n y) rho ...

    Returns (window exponents, coefficients).  Requires c rho y^{2v+1} d_q y
    to be a probability measure; |c_n| <= 1 then holds wherever the kernel is
    positive (reported, not assumed, elsewhere).
    """
    _check_probability(rho, k)
    wrho = k.grid.weights() * rho.values
    ns = k.window_exponents
    lo, hi = k.grid.n_lo, k.grid.n_hi
    coeffs = np.array([k.c * float(k.table.row(n + lo, n + hi) @ wrho) for n in ns])
    return ns, coeffs


def hypergroup_window(k: Kernel3, width: int) -> tuple[int, int]:
    """Best-positioned width-``width`` band of expansion indices inside the grid.

    Positive-n terms die geometrically (the lattice weight), negative-n terms
    quadratically (the decay bound), so the band that minimizes the predicted
    missing mass sits asymmetrically; it is found by scanning the log-envelope
    of term_n(x,y,z) = c^2 (1-q) q^{n(2v+2)} j(q^{n+a}) j(q^{n+b}) j(q^{n+c}),
    bounded with the slowest-decaying window exponent in all three slots.
    """
    if width < 1:
        raise ValueError(f"a hypergroup band needs width >= 1, got {width}")
    p, ns = k.grid.params, k.grid.exponents.astype(float)
    env = (tail_weight_log10(k.table, ns)
           + 3.0 * decay_bound_log10(ns + k.window_hi, p, k.table.decay_const))
    n = len(env)
    width = min(width, n)
    # Band [lo, lo + width) costs max(prefix max, suffix max); argmin keeps the first best.
    before = np.concatenate(([-math.inf], np.maximum.accumulate(env)))
    after = np.concatenate((np.maximum.accumulate(env[::-1])[::-1], [-math.inf]))
    los = np.arange(n - width + 1)
    lo_exp = int(k.grid.exponents[int(np.argmin(np.maximum(before[los], after[los + width])))])
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
    ns = np.arange(n_window[0], n_window[1] + 1)
    fn = basis_rows(k, ns)[:, k.window_slice]       # f_n(y) at window y, one row per n
    ratio = hankel_rows(k.op, ns)[:, k.window_slice]    # f_n(x)/f_n(0) = j_v(q^{n+x})
    # Slice x of the sum is one product: (ratio[:, x] f_n)^T f_n over n.
    rhs = np.array([(ratio[:, [a]] * fn).T @ fn for a in range(k.width)])
    scale = float(np.max(np.abs(k.cube)))
    return float(np.max(np.abs(k.cube - rhs))) / max(scale, TINY)
