"""The q-Bessel Fourier transform as a finite linear operator.

On the truncated grid the transform is the N x N matrix

    M[n, m] = c_{q,v} (1-q) q^{m(2v+2)} j_v(q^{n+m}, q^2),

a Hankel-type kernel (depends on n+m) times a diagonal weight.  On the
infinite lattice M is an involution and an isometry; on a truncation those
identities hold up to lattice-tail errors, which this module budgets
explicitly: :func:`trusted_window` bounds, per exponent, the relative error
the missing tails can inject into the reproducing identity, and identity
checks gate only rows/columns whose bound is below tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bessel import BesselTable, decay_bound_constant, decay_bound_log10
from .errors import GridMismatch
from .lattice import GridFn, LatticeGrid, inner, norm2
from .numerics import TINY
from .qseries import DEFAULT_CTX, PrecisionCtx, c_qv

__all__ = [
    "TransformOp",
    "build_transform",
    "forward",
    "basis_fn",
    "psi_norm_sq",
    "inversion_residual",
    "plancherel_defect",
    "OrthoCheck",
    "orthogonality_matrix",
    "q_bessel_operator",
    "extend_to_grid",
    "delta_multiplier_defect",
    "trusted_window",
    "basis_completeness_defect",
]


@dataclass
class TransformOp:
    """Materialized transform matrix together with its building blocks."""

    grid: LatticeGrid
    table: BesselTable
    c: float
    kernel: np.ndarray = field(repr=False)   # c (1-q) j_v(q^{n+m}), Hankel block
    weights: np.ndarray = field(repr=False)  # q^{m(2v+2)}
    matrix: np.ndarray = field(repr=False)   # kernel * weights (columns)


def build_transform(grid: LatticeGrid, table: BesselTable,
                    ctx: PrecisionCtx = DEFAULT_CTX) -> TransformOp:
    """Assemble the transform matrix from a shared Bessel table."""
    if table.n_min > 2 * grid.n_lo or table.n_max < 2 * grid.n_hi:
        raise GridMismatch(
            f"table [{table.n_min}, {table.n_max}] does not cover "
            f"[{2 * grid.n_lo}, {2 * grid.n_hi}]"
        )
    q, v = grid.params.q, grid.params.v
    c = c_qv(grid.params, ctx)
    exps = grid.exponents
    kernel = (c * (1.0 - q)) * table.hankel(exps)
    weights = np.power(q, exps.astype(float) * (2.0 * v + 2.0))
    matrix = kernel * weights[None, :]
    return TransformOp(grid, table, c, kernel, weights, matrix)


def forward(f: GridFn, op: TransformOp) -> GridFn:
    """Apply the transform: (Ff)(q^n) = c (1-q) sum_m q^{m(2v+2)} f(q^m) j_v(q^{n+m})."""
    if f.grid != op.grid:
        raise GridMismatch("function lives on a different grid than the operator")
    return GridFn(op.grid, op.matrix @ f.values)


def basis_fn(op: TransformOp, x_exp: int) -> GridFn:
    """Basis function psi_x(t) = c_{q,v} j_v(x t, q^2) at x = q^{x_exp}."""
    exps = op.grid.exponents
    vals = op.c * op.table.values[(x_exp + exps) - op.table.n_min]
    return GridFn(op.grid, vals)


def psi_norm_sq(grid: LatticeGrid, x_exp: int) -> float:
    """Closed-form ||psi_x||^2 = x^{-2(v+1)} / (1-q)."""
    q, v = grid.params.q, grid.params.v
    return q ** (-2.0 * x_exp * (v + 1.0)) / (1.0 - q)


def inversion_residual(f: GridFn, op: TransformOp) -> float:
    """||F(Ff) - f||_2 / ||f||_2 (0 on the infinite lattice)."""
    ff = forward(forward(f, op), op)
    return norm2(GridFn(f.grid, ff.values - f.values)) / max(norm2(f), TINY)


def plancherel_defect(f: GridFn, op: TransformOp) -> float:
    """| ||Ff||_2 - ||f||_2 | / ||f||_2."""
    nf = norm2(f)
    return abs(norm2(forward(f, op)) - nf) / max(nf, TINY)


@dataclass(frozen=True)
class OrthoCheck:
    """Scale-free orthogonality defects of the basis {psi_x} on a window."""

    max_offdiag: float       # max |<psi_x, psi_y>| (1-q) x^{v+1} y^{v+1}, x != y
    max_diag_rel: float      # max relative error of <psi_x, psi_x> vs closed form
    window: tuple[int, int]


def orthogonality_matrix(op: TransformOp,
                         window: tuple[int, int] | None = None) -> OrthoCheck:
    """Gram-matrix defects of {psi_x} for exponents inside ``window``."""
    grid = op.grid
    q, v = grid.params.q, grid.params.v
    if window is None:
        window = trusted_window(grid, op.table)
    lo, hi = window
    wexps = np.arange(lo, hi + 1)
    psi = op.c * op.table.values[(wexps[:, None] + grid.exponents[None, :])
                                 - op.table.n_min]
    gram = (psi * grid.weights()[None, :]) @ psi.T
    scale = np.power(q, wexps.astype(float) * (v + 1.0))
    normalized = np.abs(gram) * (1.0 - q) * scale[:, None] * scale[None, :]
    diag_rel = np.abs(np.diag(normalized) - 1.0)
    np.fill_diagonal(normalized, 0.0)
    return OrthoCheck(float(normalized.max()), float(diag_rel.max()), (lo, hi))


def q_bessel_operator(f: GridFn) -> GridFn:
    """Second-order q-difference operator

        Delta f(x) = [f(x/q) - (1+q^{2v}) f(x) + q^{2v} f(qx)] / x^2,

    evaluated on interior exponents only (the ends lack a neighbour); the
    result lives on the grid trimmed by one exponent at each end.
    """
    grid = f.grid
    q, v = grid.params.q, grid.params.v
    q2v = q ** (2.0 * v)
    if grid.n_lo + 1 >= 0 or grid.n_hi - 1 <= 0 or grid.size - 2 < 8:
        raise GridMismatch(
            "the difference operator needs an interior that still straddles "
            f"x = 1 with 8+ points; grid [{grid.n_lo}, {grid.n_hi}] is too tight"
        )
    inner_grid = LatticeGrid(grid.params, grid.n_lo + 1, grid.n_hi - 1)
    fv = f.values
    combo = fv[:-2] - (1.0 + q2v) * fv[1:-1] + q2v * fv[2:]
    n = inner_grid.exponents.astype(float)
    return GridFn(inner_grid, combo * np.power(q, -2.0 * n))


def extend_to_grid(f: GridFn, grid: LatticeGrid) -> GridFn:
    """Zero-pad a function on a subrange of ``grid`` out to the full grid."""
    if f.grid.params != grid.params:
        raise GridMismatch("subgrid has different lattice parameters")
    if f.grid.n_lo < grid.n_lo or f.grid.n_hi > grid.n_hi:
        raise GridMismatch("function range is not contained in the target grid")
    vals = np.zeros(grid.size)
    a = f.grid.n_lo - grid.n_lo
    vals[a:a + f.grid.size] = f.values
    return GridFn(grid, vals)


def delta_multiplier_defect(f: GridFn, op: TransformOp) -> float:
    """Residual of F[Delta f](x) = -x^2 Ff(x) for compactly supported f.

    Requires f to vanish within two exponents of both grid ends, so the
    extended Delta f coincides with the infinite-lattice one and the identity
    holds exactly (only rounding remains).
    """
    grid = f.grid
    supp = f.support_exponents()
    if supp.size == 0:
        return 0.0
    if supp.min() < grid.n_lo + 2 or supp.max() > grid.n_hi - 2:
        raise GridMismatch(
            "delta-multiplier check needs support margin >= 2 from both ends"
        )
    df = extend_to_grid(q_bessel_operator(f), grid)
    lhs = forward(df, op)
    ff = forward(f, op)
    x2 = np.power(grid.params.q, 2.0 * grid.exponents.astype(float))
    rhs = GridFn(grid, -x2 * ff.values)
    diff = GridFn(grid, lhs.values - rhs.values)
    return norm2(diff) / max(norm2(rhs), TINY)


def _logsum10(log_terms: np.ndarray, axis: int = -1) -> np.ndarray:
    """log10 of a sum given log10 of the (positive) terms; -inf safe."""
    m = np.max(log_terms, axis=axis, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    s = np.sum(10.0 ** np.clip(log_terms - m_safe, -300.0, 0.0), axis=axis)
    return np.squeeze(m_safe, axis=axis) + np.log10(np.maximum(s, TINY))


def trusted_window(grid: LatticeGrid, table: BesselTable | None = None,
                   ctx: PrecisionCtx = DEFAULT_CTX, tol: float = 1e-12,
                   tail_terms: int = 80) -> tuple[int, int]:
    """Exponent range where truncation cannot disturb the reproducing identity.

    For a unit bump at exponent b the relative L2 residual of F(Ff) = f on
    the truncated lattice is bounded using the two-branch decay envelope of
    j_v; the window keeps the exponents whose bound stays below ``tol``.
    All bookkeeping runs in log10 space (the raw tail terms overflow/underflow
    binary64 by hundreds of orders of magnitude).
    """
    p = grid.params
    q, v = p.q, p.v
    lgq = math.log10(q)
    const = decay_bound_constant(p, ctx)
    c = c_qv(p, ctx)
    exps = grid.exponents.astype(float)

    m_tail = np.concatenate([
        np.arange(grid.n_lo - tail_terms, grid.n_lo, dtype=float),
        np.arange(grid.n_hi + 1, grid.n_hi + 1 + tail_terms, dtype=float),
    ])
    # log10 of c^2 (1-q) q^{m(2v+2)} B(a+m) B(b+m), summed over tail m
    base = 2.0 * math.log10(c) + math.log10(1.0 - q) + m_tail * (2.0 * v + 2.0) * lgq
    log_b = decay_bound_log10(exps[:, None] + m_tail[None, :], p, const)
    log_terms = base[None, None, :] + log_b[:, None, :] + log_b[None, :, :]
    log_tail = _logsum10(log_terms, axis=2)                        # (N, N): (a, b)

    # (M^2 - I)[a, b] = (1-q) q^{b(2v+2)} * tail(a, b); push through the
    # weighted L2 norm of column b relative to the unit bump's norm.
    lg1q = math.log10(1.0 - q)
    log_err = lg1q + exps[None, :] * (2.0 * v + 2.0) * lgq + log_tail
    log_rownorm = lg1q + exps[:, None] * (2.0 * v + 2.0) * lgq      # weights on a
    log_num2 = _logsum10(log_rownorm + 2.0 * log_err, axis=0)       # per column b
    log_rel = 0.5 * (log_num2 - (lg1q + exps * (2.0 * v + 2.0) * lgq))

    ok = log_rel < math.log10(tol)
    if not ok.any():
        raise GridMismatch("no trusted exponents: grid too small for this (q, v)")
    idxs = np.flatnonzero(ok)
    return int(grid.exponents[idxs[0]]), int(grid.exponents[idxs[-1]])


def basis_completeness_defect(f: GridFn, op: TransformOp,
                              window: tuple[int, int] | None = None) -> float:
    """Expand f over {psi_x / ||psi_x||} (closed-form norms) and resum.

    Returns ||reconstruction - f||_2 / ||f||_2.  The expansion runs over the
    whole grid: coefficients of deep-lattice basis functions are tiny but not
    negligible, and dropping them would lose the q^{2x(v+1)}-weighted tail.
    """
    grid = op.grid
    recon = np.zeros(grid.size)
    for x_exp in grid.exponents:
        psi = basis_fn(op, int(x_exp))
        coeff = inner(f, psi) / psi_norm_sq(grid, int(x_exp))
        recon += coeff * psi.values
    return norm2(GridFn(grid, recon - f.values)) / max(norm2(f), TINY)
