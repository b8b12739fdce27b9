"""The q-Bessel Fourier transform as a finite linear operator.

On the truncated grid the transform is the N x N matrix

    M[n, m] = c_{q,v} (1-q) q^{m(2v+2)} j_v(q^{n+m}, q^2),

a Hankel-type kernel (depends on n+m) times a diagonal weight.  On the
infinite lattice M is an involution and an isometry; on a truncation those
identities hold up to lattice-tail errors.  This module is the one home of
their bound: the weight W_s = c^2 (1-q) q^{s(2v+2)} (:func:`tail_weight_log10`)
times the decay envelope of each j_v factor, over ``_TAIL_TERMS`` = 80
exponents past each grid end.  :func:`trusted_window` sums it per exponent
(one scaled GEMM per tail), and identity checks gate only rows/columns whose
bound is below tolerance; the kernel's upper cutoff reads
:func:`entry_tail_log10`, the hypergroup band the weight.  Known limit: the
80-term lower tail is no upper bound on long grids (q=0.499, v=0.282 on
[-24, 199] trusts exponents 138 to 199, where M^2 - I measures 1.0).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import mpmath as mp
import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .bessel import BesselTable, decay_bound_log10
from .errors import GridMismatch, GridTooSmall
from .lattice import GridFn, LatticeGrid, norms, same_grid, stack
from .numerics import TINY, worst
from .qseries import DEFAULT_CTX, PrecisionCtx

__all__ = [
    "TransformOp",
    "build_transform",
    "forward",
    "hankel_rows",
    "psi_norm_sq",
    "inversion_residual",
    "plancherel_defect",
    "OrthoCheck",
    "orthogonality_matrix",
    "q_bessel_operator",
    "q_bessel_rows",
    "delta_multiplier_defect",
    "trusted_window",
    "tail_weight_log10",
    "entry_tail_log10",
    "basis_completeness_defect",
]


@dataclass
class TransformOp:
    """The transform on a grid, with the table it is built from.

    The N x N matrix M (``matrix``) is built on first read, from one table
    row and the column weights; code that needs only single rows of M (the
    kernel's window calibration) never builds it.  c_{q,v} (``c``, and
    ``c_mp`` at working precision) is the table's.  The mp Jackson weights
    ``jackson_mp`` are built once, on first use.
    """

    grid: LatticeGrid
    table: BesselTable

    @property
    def c(self) -> float:
        return self.table.c

    @property
    def c_mp(self) -> mp.mpf:
        return self.table.c_mp

    @cached_property
    def col_weights(self) -> np.ndarray:
        """q^{m(2v+2)} over the grid's exponents: M's column weights without c (1-q)."""
        p = self.grid.params
        return np.power(p.q, self.grid.exponents.astype(float) * (2.0 * p.v + 2.0))

    @cached_property
    def matrix(self) -> np.ndarray:
        """M[n, m] = c (1-q) j_v(q^{n+m}) q^{m(2v+2)}, built on first read."""
        grid = self.grid
        # [n, m] = j_v(q^{n+m}): overlapping windows of one row.
        hankel = sliding_window_view(self.table.row(2 * grid.n_lo, 2 * grid.n_hi), grid.size)
        return (self.c * (1.0 - grid.params.q)) * hankel * self.col_weights[None, :]

    @cached_property
    def jackson_mp(self) -> list:
        """(1-q) q^{n(2v+2)} over the grid's exponents, at the table's working
        digits plus ten: the high-precision side of ``grid.weights()``."""
        p = self.grid.params
        with mp.workdps(self.table.ctx.work_digits + 10):
            qm, order = mp.mpf(p.q), 2 * mp.mpf(p.v) + 2
            return [(1 - qm) * qm ** (int(n) * order) for n in self.grid.exponents]


def _check_table(grid: LatticeGrid, table: BesselTable) -> None:
    """Raise GridMismatch unless ``table`` is j_v of the grid's (q, v) on [2 n_lo, 2 n_hi]."""
    if table.params != grid.params or table.n_min > 2 * grid.n_lo or table.n_max < 2 * grid.n_hi:
        raise GridMismatch(f"table {table.params} on [{table.n_min}, {table.n_max}] does not "
                           f"cover {grid.params} on [{2 * grid.n_lo}, {2 * grid.n_hi}]")


def build_transform(grid: LatticeGrid, table: BesselTable,
                    ctx: PrecisionCtx = DEFAULT_CTX) -> TransformOp:
    """The transform over a shared Bessel table; M is built on first read of
    ``matrix`` (``ctx`` is not read)."""
    _check_table(grid, table)
    return TransformOp(grid, table)


def forward(f: GridFn, op: TransformOp) -> GridFn:
    """Apply the transform: (Ff)(q^n) = c (1-q) sum_m q^{m(2v+2)} f(q^m) j_v(q^{n+m})."""
    if not same_grid(f.grid, op.grid):
        raise GridMismatch("function lives on a different grid than the operator")
    return GridFn(op.grid, op.matrix @ f.values)


def hankel_rows(op: TransformOp, x_exps) -> np.ndarray:
    """Rows x of the Hankel block j_v(q^{x+n}), n over the grid, for x in ``x_exps``
    (an int gives one row): windows of one bounds-checked table row."""
    xs = np.atleast_1d(x_exps)
    lo = int(xs.min())
    row = op.table.row(lo + op.grid.n_lo, int(xs.max()) + op.grid.n_hi)
    return sliding_window_view(row, op.grid.size)[xs - lo]


def psi_norm_sq(grid: LatticeGrid, x_exp: int) -> float:
    """Closed-form ||psi_x||^2 = x^{-2(v+1)} / (1-q)."""
    q, v = grid.params.q, grid.params.v
    return q ** (-2.0 * x_exp * (v + 1.0)) / (1.0 - q)


def inversion_residual(f: GridFn | Sequence[GridFn], op: TransformOp) -> float:
    """Worst ||F(Ff) - f||_2 / ||f||_2 over f, one probe or a sequence (0 on the lattice)."""
    fs, m = stack(op.grid, f), op.matrix
    return worst(*norms(fs @ m.T @ m.T - fs, op.grid) / np.maximum(norms(fs, op.grid), TINY))


def plancherel_defect(f: GridFn | Sequence[GridFn], op: TransformOp) -> float:
    """Worst | ||Ff||_2 - ||f||_2 | / ||f||_2 over f, one probe or a sequence."""
    fs = stack(op.grid, f)
    nf = norms(fs, op.grid)
    return worst(*np.abs(norms(fs @ op.matrix.T, op.grid) - nf) / np.maximum(nf, TINY))


@dataclass(frozen=True)
class OrthoCheck:
    """Scale-free orthogonality defects of the basis {psi_x} on a window."""

    max_offdiag: float       # max |<psi_x, psi_y>| / (||psi_x|| ||psi_y||), x != y
    max_diag_rel: float      # max relative error of <psi_x, psi_x> vs closed form
    window: tuple[int, int]


def orthogonality_matrix(op: TransformOp, window: tuple[int, int]) -> OrthoCheck:
    """Gram-matrix defects of {psi_x} for exponents inside ``window``, against the
    closed-form norms of :func:`psi_norm_sq`."""
    grid = op.grid
    lo, hi = window
    wexps = np.arange(lo, hi + 1)
    psi = op.c * hankel_rows(op, wexps)
    gram = (psi * grid.weights()[None, :]) @ psi.T
    norm_sq = psi_norm_sq(grid, wexps)
    diag_rel = np.abs(np.diag(gram) / norm_sq - 1.0)
    scale = 1.0 / np.sqrt(norm_sq)
    normalized = np.abs(gram) * scale[:, None] * scale[None, :]
    np.fill_diagonal(normalized, 0.0)
    return OrthoCheck(float(normalized.max()), float(diag_rel.max()), (lo, hi))


def q_bessel_operator(f: GridFn) -> GridFn:
    """Delta f of :func:`q_bessel_rows` on the grid trimmed by one exponent at each end."""
    return GridFn(*q_bessel_rows(f.values, f.grid))


def q_bessel_rows(values: np.ndarray, grid: LatticeGrid) -> tuple[LatticeGrid, np.ndarray]:
    """Second-order q-difference operator

        Delta f(x) = [f(x/q) - (1+q^{2v}) f(x) + q^{2v} f(qx)] / x^2

    of one value vector, or of each row of a stack, on interior exponents only
    (the ends lack a neighbour): the trimmed grid and the values on it.
    """
    q, v = grid.params.q, grid.params.v
    q2v = q ** (2.0 * v)
    if grid.n_lo + 1 >= 0 or grid.n_hi - 1 <= 0 or grid.size - 2 < 8:
        raise GridMismatch(
            "the difference operator needs an interior that still straddles "
            f"x = 1 with 8+ points; grid [{grid.n_lo}, {grid.n_hi}] is too tight"
        )
    inner_grid = LatticeGrid(grid.params, grid.n_lo + 1, grid.n_hi - 1)
    combo = values[..., :-2] - (1.0 + q2v) * values[..., 1:-1] + q2v * values[..., 2:]
    n = inner_grid.exponents.astype(float)
    return inner_grid, combo * np.power(q, -2.0 * n)


def delta_multiplier_defect(f: GridFn | Sequence[GridFn], op: TransformOp) -> float:
    """Worst residual of F[Delta f](x) = -x^2 Ff(x) over compactly supported f, one or several.

    Requires f to vanish within two exponents of both grid ends, so the
    extended Delta f coincides with the infinite-lattice one and the identity
    holds exactly (only rounding remains).
    """
    grid, m = op.grid, op.matrix
    fs = stack(grid, f)
    supp = grid.exponents[np.any(fs != 0.0, axis=0)]
    if supp.size and (supp.min() < grid.n_lo + 2 or supp.max() > grid.n_hi - 2):
        raise GridMismatch("delta-multiplier check needs support margin >= 2 from both ends")
    df = np.zeros_like(fs)
    df[:, 1:-1] = q_bessel_rows(fs, grid)[1]       # Delta f, zero-extended
    x2 = np.power(grid.params.q, 2.0 * grid.exponents.astype(float))
    rhs = -x2 * (fs @ m.T)
    return worst(*norms(df @ m.T - rhs, grid) / np.maximum(norms(rhs, grid), TINY))


def _logsum10(log_terms: np.ndarray, axis: int = -1) -> np.ndarray:
    """log10 of a sum given log10 of the (positive) terms; -inf safe."""
    m = np.max(log_terms, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    s = np.sum(10.0 ** np.clip(log_terms - m_safe, -300.0, 0.0), axis=axis)
    return np.squeeze(m_safe, axis=axis) + np.log10(np.maximum(s, TINY))


# Relative bound on the reproducing identity that admits an exponent to the window.
_TRUST_TOL = 1e-12
# Lattice-tail exponents summed beyond each end of the grid.
_TAIL_TERMS = 80
_LN10 = math.log(10.0)


def tail_weight_log10(table: BesselTable, s: np.ndarray) -> np.ndarray:
    """log10 of the tail weight W_s = c^2 (1-q) q^{s(2v+2)} at exponents s, from the table."""
    p = table.params
    return (2.0 * math.log10(table.c) + math.log10(1.0 - p.q)
            + s * (2.0 * p.v + 2.0) * math.log10(p.q))


def entry_tail_log10(grid: LatticeGrid, table: BesselTable) -> np.ndarray:
    """log10 of sum_s W_s C^2 B(e+s), s the ``_TAIL_TERMS`` below n_lo, per grid exponent
    e: a kernel entry's lower tail, its other two j_v factors bounded by C."""
    p, const = grid.params, table.decay_const
    s = np.arange(grid.n_lo - _TAIL_TERMS, grid.n_lo, dtype=float)
    base = tail_weight_log10(table, s) + 2.0 * math.log10(const)
    return _logsum10(base + decay_bound_log10(grid.exponents[:, None] + s, p, const))


def _gram_log10(log_half: np.ndarray) -> np.ndarray:
    """log10 of sum_m 10^(L[a, m] + L[b, m]), an upper bound, for (N, M) log10 terms L.

    With row maxima r and E = 10^(L - r) <= 1 the sum is 10^(r_a + r_b) E E^T:
    one GEMM, no overflow.  Entries of E below tiny = 2^-1022 are flushed to
    zero first (subnormals slow the GEMM by about a quarter).  A term lost to
    the flush or to underflow in the GEMM has both factors <= 1 and one below
    tiny, or a product below tiny, so it is below tiny of 10^(r_a + r_b);
    adding M tiny keeps the result an upper bound on the exact sum.
    """
    tiny = np.finfo(float).tiny
    r = log_half.max(axis=1)
    e = 10.0 ** (log_half - r[:, None])
    e[e < tiny] = 0.0
    return r[:, None] + r[None, :] + np.log10(e @ e.T + log_half.shape[1] * tiny)


def _trust_log10(grid: LatticeGrid, table: BesselTable) -> np.ndarray:
    """log10 of the relative reproducing-identity bound at each grid exponent.

    tail(a, b) = sum_m W_m B(a+m) B(b+m), W the tail weight and B the decay
    envelope, is a Gram matrix: per lattice tail (the ``_TAIL_TERMS`` m beyond
    one end of the grid) one GEMM, ``_gram_log10`` of L = log10 B(a+m) W_m^(1/2),
    in O(N M + N^2) memory.  The tails are scaled apart, as a row's two differ
    by hundreds of decades: under one scale the smaller is lost, to the floor
    (up to 359 decades loose at q=0.124, v=1.964, [-33, 279]) or without it to
    zero (307 decades low there at e=0).
    """
    p, const = grid.params, table.decay_const
    exps = grid.exponents.astype(float)
    lower, upper = (
        _gram_log10(decay_bound_log10(exps[:, None] + m, p, const)
                    + 0.5 * tail_weight_log10(table, m))
        for m in (np.arange(grid.n_lo - _TAIL_TERMS, grid.n_lo, dtype=float),
                  np.arange(grid.n_hi + 1, grid.n_hi + 1 + _TAIL_TERMS, dtype=float)))
    log_tail = np.logaddexp(_LN10 * lower, _LN10 * upper) / _LN10    # (N, N): (a, b)

    # (M^2 - I)[a, b] = w_b tail(a, b), w the Jackson weights (1-q) q^{b(2v+2)};
    # push through the weighted L2 norm of column b relative to the unit bump's.
    log_w = math.log10(1.0 - p.q) + exps * (2.0 * p.v + 2.0) * math.log10(p.q)
    log_err = log_w[None, :] + log_tail
    log_num2 = _logsum10(log_w[:, None] + 2.0 * log_err, axis=0)    # per column b
    return 0.5 * (log_num2 - log_w)


def trusted_window(grid: LatticeGrid, table: BesselTable,
                   ctx: PrecisionCtx = DEFAULT_CTX) -> tuple[int, int]:
    """Exponent range where truncation cannot disturb the reproducing identity.

    For a unit bump at exponent b the relative L2 residual of F(Ff) = f on the
    truncated lattice is bounded in log10 space by the two-branch decay envelope
    of j_v (``_trust_log10``); the window keeps the exponents whose bound stays
    below ``_TRUST_TOL``.  ``ctx`` is accepted for positional callers and not read.
    """
    _check_table(grid, table)
    ok = _trust_log10(grid, table) < math.log10(_TRUST_TOL)
    if not ok.any():
        raise GridTooSmall(f"no trusted exponents: grid [{grid.n_lo}, {grid.n_hi}] "
                           f"is too small for q={grid.params.q}, v={grid.params.v}")
    idxs = np.flatnonzero(ok)
    return int(grid.exponents[idxs[0]]), int(grid.exponents[idxs[-1]])


def basis_completeness_defect(f: GridFn | Sequence[GridFn], op: TransformOp) -> float:
    """Expand f over {psi_x / ||psi_x||} (closed-form norms) and resum.

    Returns the worst ||reconstruction - f||_2 / ||f||_2 over f, one probe or a
    sequence.  The expansion runs over the whole grid: coefficients of
    deep-lattice basis functions are tiny but not negligible, and dropping them
    would lose the q^{2x(v+1)}-weighted tail.
    """
    grid = op.grid
    fs = stack(grid, f)
    psi = op.c * hankel_rows(op, grid.exponents)
    coeffs = (fs * grid.weights()) @ psi.T / psi_norm_sq(grid, grid.exponents)
    return worst(*norms(coeffs @ psi - fs, grid) / np.maximum(norms(fs, grid), TINY))
