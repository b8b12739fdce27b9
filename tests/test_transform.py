"""Finite q-Hankel transform: involution, isometry, orthogonal basis."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from qfourier import transform
from qfourier.bessel import decay_bound_log10, jv_table
from qfourier.errors import GridMismatch, GridTooSmall, PrecisionExhausted
from qfourier.lattice import GridFn, LatticeGrid, delta_fn, norm_p
from qfourier.numerics import TINY
from qfourier.probes import seeded_probes
from qfourier.qseries import PrecisionCtx, QParams
from qfourier.report import DEFAULT_CELLS, SuiteConfig, _CellRunner
from qfourier.transform import (
    basis_completeness_defect,
    build_transform,
    delta_multiplier_defect,
    forward,
    hankel_rows,
    inversion_residual,
    orthogonality_matrix,
    plancherel_defect,
    psi_norm_sq,
    q_bessel_operator,
    trusted_window,
)


@pytest.fixture(scope="module")
def probes(cell_half):
    lo, hi = cell_half.window
    win = (max(lo, cell_half.grid.n_lo + 2), min(hi, cell_half.grid.n_hi - 2))
    return seeded_probes(cell_half.grid, win, 30, seed=2024)


class TestForward:
    def test_zero_maps_to_zero(self, cell_half):
        f = GridFn(cell_half.grid, np.zeros(cell_half.grid.size))
        assert np.all(forward(f, cell_half.op).values == 0.0)

    def test_grid_mismatch(self, cell_half, cell_v0):
        f = GridFn(cell_v0.grid, np.zeros(cell_v0.grid.size))
        with pytest.raises(GridMismatch):
            forward(f, cell_half.op)

    def test_forward_is_inner_product_with_basis(self, cell_half, probes):
        op = cell_half.op
        f = probes[0]
        ff = forward(f, op)
        xs = np.arange(*cell_half.window)
        psi = op.c * hankel_rows(op, xs)        # psi_x = c j_v(x ., q^2), one row an x
        np.testing.assert_allclose([ff[x] for x in xs],
                                   psi @ (op.grid.weights() * f.values), rtol=1e-12)

    def test_basis_row_off_the_table_raises(self, cell_half):
        # psi_{q^-15} needs j_v(q^{-25}) on a table that starts at -20; the
        # row must not wrap around to the table's far end.
        with pytest.raises(IndexError):
            hankel_rows(cell_half.op, -15)

    def test_table_of_another_order_rejected(self, cell_half, cell_v0):
        with pytest.raises(GridMismatch):
            build_transform(cell_half.grid, cell_v0.table)
        with pytest.raises(GridMismatch):
            trusted_window(cell_half.grid, cell_v0.table)

    def test_basis_function_concentrates(self, cell_half):
        # F psi_y is delta-like: off-target values vanish.
        grid, op = cell_half.grid, cell_half.op
        y = 0
        ff = forward(GridFn(grid, op.c * hankel_rows(op, y)[0]), op)
        lo, hi = cell_half.window
        for x in range(lo, hi + 1):
            if x != y:
                assert abs(ff[x]) < 1e-9
        assert ff[y] == pytest.approx(
            psi_norm_sq(grid, y) / 1.0, rel=1e-10)

    def test_norm_of_basis_function(self, cell_half):
        # ||psi_x||^2 = x^{-2(v+1)}/(1-q) for window x.
        grid, op = cell_half.grid, cell_half.op
        xs = np.arange(cell_half.window[0], cell_half.window[1] + 1)
        psi = op.c * hankel_rows(op, xs)
        np.testing.assert_allclose(psi**2 @ grid.weights(), psi_norm_sq(grid, xs), rtol=1e-10)

    def test_psi_norm_at_one(self, cell_v0):
        # q = 1/2, v = 0, x = 1: ||psi_1||^2 = 1/(1-q) = 2.
        op = cell_v0.op
        psi = op.c * hankel_rows(op, 0)[0]
        assert psi**2 @ op.grid.weights() == pytest.approx(2.0, rel=1e-10)


class TestInversionAndPlancherel:
    def test_inversion_on_probes(self, cell_half, probes):
        worst = max(inversion_residual(f, cell_half.op) for f in probes)
        assert worst < 1e-9

    def test_inversion_on_delta(self, cell_half):
        f = delta_fn(cell_half.grid, 0)
        assert inversion_residual(f, cell_half.op) < 1e-9

    def test_zero_residual_for_zero(self, cell_half):
        f = GridFn(cell_half.grid, np.zeros(cell_half.grid.size))
        assert inversion_residual(f, cell_half.op) == 0.0
        assert plancherel_defect(f, cell_half.op) == 0.0

    def test_plancherel_on_probes(self, cell_half, probes):
        worst = max(plancherel_defect(f, cell_half.op) for f in probes)
        assert worst < 1e-9


class TestOrthogonality:
    def test_window_defects(self, cell_half):
        chk = orthogonality_matrix(cell_half.op, cell_half.window)
        assert chk.max_offdiag < 1e-9
        assert chk.max_diag_rel < 1e-9

    def test_diagonal_value_v0(self, cell_v0):
        op = cell_v0.op
        psi = op.c * hankel_rows(op, 0)[0]
        assert psi**2 @ op.grid.weights() == pytest.approx(2.0, rel=1e-9)

    def test_diagonal_value_v1_at_q(self):
        # delta diagonal at x = q, v = 1: 1/((1-q) q^4) = 32 for q = 1/2.
        from qfourier.bessel import jv_table
        from qfourier.lattice import LatticeGrid
        from qfourier.qseries import PrecisionCtx, QParams
        from qfourier.transform import build_transform

        ctx = PrecisionCtx()
        grid = LatticeGrid(QParams(0.5, 1.0), -10, 40)
        op = build_transform(grid, jv_table(grid, ctx), ctx)
        psi = op.c * hankel_rows(op, 1)[0]
        assert psi**2 @ grid.weights() == pytest.approx(32.0, rel=1e-9)


def _column_weights(grid):
    """q^{m(2v+2)} over the grid's exponents, as TransformOp.matrix forms them."""
    p = grid.params
    return np.power(p.q, grid.exponents.astype(float) * (2.0 * p.v + 2.0))


class TestMatrixStructure:
    def test_bitwise_reconstruction(self):
        # M[n, m] = c (1-q) j_v(q^{n+m}) q^{m(2v+2)}, gathered from the table,
        # on the default cells and three more grids.
        for q, v, n_lo, n_hi in list(DEFAULT_CELLS) + [
                (0.9, 0.0, -30, 300), (0.3, -0.7, -12, 59), (0.95, 0.5, -100, 600)]:
            grid = LatticeGrid(QParams(q, v), n_lo, n_hi)
            table = jv_table(grid, PrecisionCtx())
            op = build_transform(grid, table)
            e = grid.exponents
            rebuilt = ((op.c * (1.0 - q)) * table.values[np.add.outer(e, e) - table.n_min]
                       * _column_weights(grid)[None, :])
            assert np.array_equal(rebuilt, op.matrix), (q, v, n_lo, n_hi)

    def test_report_row_flags_weights_on_rows(self):
        # Weights on rows instead of columns: every off-diagonal entry moves.
        runner = _CellRunner(0.5, 0.5, -10, 40, SuiteConfig(probes=10))
        op, w = runner.op, _column_weights(runner.grid)
        # M is built on first read: the bad one is planted on a copy's instance.
        runner.op = dataclasses.replace(op)
        runner.op.matrix = op.matrix / w[None, :] * w[:, None]
        n = runner.grid.size
        assert dict(runner.check_transform())["transform-matrix-structure"] == n * (n - 1)

    def test_normalized_symmetry_exact_for_dyadic_q(self, cell_half):
        # q = 1/2 weights are powers of two: division undoes multiplication.
        lhs = cell_half.op.matrix / _column_weights(cell_half.grid)[None, :]
        assert np.array_equal(lhs, lhs.T)


class TestQBesselOperator:
    def test_interior_output_range(self, cell_half):
        grid = cell_half.grid
        out = q_bessel_operator(GridFn(grid, np.ones(grid.size)))
        assert out.grid.n_lo == grid.n_lo + 1
        assert out.grid.n_hi == grid.n_hi - 1

    def test_eigen_relation_through_matrix(self, cell_half):
        # Delta j_v(q . ) = -q^2 j_v(q . ) on trusted interior points.  Deeper
        # rows amplify binary64 rounding by q^{-2n}; eigen_residual reads the
        # same relation at every entry of the mp table, relative to its terms.
        grid, table = cell_half.grid, cell_half.table
        q = grid.params.q
        vals = table.row(1 + grid.n_lo, 1 + grid.n_hi)
        df = q_bessel_operator(GridFn(grid, vals))
        lo, hi = cell_half.window
        for n in range(max(lo, grid.n_lo + 1), min(hi, grid.n_hi - 1) + 1):
            expected = -(q**2) * table.value(1 + n)
            assert df[n] == pytest.approx(expected, abs=1e-9 * (1 + abs(expected)))


class TestDeltaMultiplier:
    def test_identity_on_probes(self, cell_half, probes):
        worst = max(delta_multiplier_defect(f, cell_half.op) for f in probes[:10])
        assert worst < 1e-8

    def test_zero_function(self, cell_half):
        f = GridFn(cell_half.grid, np.zeros(cell_half.grid.size))
        assert delta_multiplier_defect(f, cell_half.op) == 0.0

    def test_rejects_boundary_support(self, cell_half):
        grid = cell_half.grid
        vals = np.zeros(grid.size)
        vals[0] = 1.0
        with pytest.raises(GridMismatch):
            delta_multiplier_defect(GridFn(grid, vals), cell_half.op)


def _full_cube_trust_log10(grid, table):
    """The reproducing-identity bound summed over one (N, N, M) tail cube.

    The same operations as ``transform._logsum10`` on the whole cube, done in
    place so the reference holds one cube, not four.  The tail weight
    c^2 (1-q) q^{m(2v+2)} is written out here, not read from the module.
    """
    p, const, c = grid.params, table.decay_const, table.c
    exps = grid.exponents.astype(float)
    m_tail = np.concatenate([
        np.arange(grid.n_lo - transform._TAIL_TERMS, grid.n_lo, dtype=float),
        np.arange(grid.n_hi + 1, grid.n_hi + 1 + transform._TAIL_TERMS, dtype=float),
    ])
    base = (2.0 * math.log10(c) + math.log10(1.0 - p.q)
            + m_tail * (2.0 * p.v + 2.0) * math.log10(p.q))
    log_b = decay_bound_log10(exps[:, None] + m_tail[None, :], p, const)
    cube = base[None, None, :] + log_b[:, None, :] + log_b[None, :, :]
    m = np.max(cube, axis=2, keepdims=True)
    m_safe = np.where(np.isfinite(m), m, 0.0)
    cube -= m_safe
    np.clip(cube, -300.0, 0.0, out=cube)
    np.power(10.0, cube, out=cube)
    log_tail = m_safe[:, :, 0] + np.log10(np.maximum(cube.sum(axis=2), TINY))
    del cube
    log_w = math.log10(1.0 - p.q) + exps * (2.0 * p.v + 2.0) * math.log10(p.q)
    log_err = log_w[None, :] + log_tail
    log_num2 = transform._logsum10(log_w[:, None] + 2.0 * log_err, axis=0)
    return 0.5 * (log_num2 - log_w)


class TestWindowAndCompleteness:
    def test_trusted_window_straddles_one(self, cell_half):
        lo, hi = cell_half.window
        assert lo <= 0 <= hi
        assert lo >= cell_half.grid.n_lo

    @pytest.mark.parametrize("q, v, n_lo, n_hi", list(DEFAULT_CELLS) + [(0.9, 0.0, -30, 300)])
    def test_blocked_bound_matches_full_cube(self, q, v, n_lo, n_hi):
        # The Gram products round differently from the cube's sums, by at
        # most 4.5e-13 decades on 90 grids.
        grid = LatticeGrid(QParams(q, v), n_lo, n_hi)
        table = jv_table(grid, PrecisionCtx())
        ref = _full_cube_trust_log10(grid, table)
        np.testing.assert_allclose(transform._trust_log10(grid, table), ref,
                                   rtol=1e-14, atol=1e-12)

    @pytest.mark.parametrize("q, v, n_lo, n_hi, window", [
        (0.5, 0.0, -10, 40, (-10, 4)), (0.5, 0.5, -10, 40, (-10, 4)),
        (0.5, 1.5, -10, 40, (-10, 5)), (0.8, 0.5, -20, 120, (-20, 8)),
        (0.3, -0.7, -12, 59, (-12, 7)), (0.3, 0.0, -12, 40, (-12, 8)),
        (0.3, 0.5, -12, 40, (-12, 8)), (0.5, -0.7, -14, 97, (-14, 7)),
        (0.5, 0.0, -14, 40, (-14, 8)), (0.5, 0.5, -14, 40, (-14, 8)),
        (0.7, -0.7, -17, 181, (-3, 7)), (0.7, 0.0, -17, 60, (-8, 8)),
        (0.7, 0.5, -17, 43, (-8, 8)), (0.9, -0.7, -25, 591, None),
        (0.9, 0.0, -25, 183, None), (0.9, 0.5, -25, 125, None),
        (0.9, 0.0, -30, 300, (-30, 8)),
        (0.9, 0.0, -40, 300, (-24, 18)),    # the bound clears _TRUST_TOL by 0.002 decades
        (0.9, 0.5, -30, 300, (-30, 8)), (0.5, -0.7, -20, 140, (-20, 13)),
        (0.5, 1.5, -2, 80, None),
    ])
    def test_window_pins(self, q, v, n_lo, n_hi, window):
        # The default cells, the README scan's default grids and five longer
        # grids; None: no trusted exponent, the grid is too small.
        grid = LatticeGrid(QParams(q, v), n_lo, n_hi)
        table = jv_table(grid, PrecisionCtx())
        if window is None:
            with pytest.raises(GridTooSmall, match=rf"\[{n_lo}, {n_hi}\].*q={q}, v={v}"):
                trusted_window(grid, table)
        else:
            assert trusted_window(grid, table) == window

    def test_tails_are_scaled_apart(self):
        # One row's tails differ by hundreds of decades here.  Under one row
        # scale the smaller tail is lost: the bound read up to 359 decades
        # loose with the underflow floor, and 307 decades low at e=0 without it.
        grid = LatticeGrid(QParams(0.124, 1.964), -33, 279)
        table = jv_table(grid, PrecisionCtx())
        ref = _full_cube_trust_log10(grid, table)
        np.testing.assert_allclose(transform._trust_log10(grid, table), ref,
                                   rtol=1e-14, atol=1e-12)
        assert trusted_window(grid, table) == (-33, 279)

    def test_gram_floor_keeps_an_upper_bound(self):
        # Rows peaking 400 decades apart: every cross term underflows in E E^T.
        log_half = np.array([[0.0, -200.0, -400.0], [-400.0, -200.0, 0.0], [-1.0, 0.0, -1.0]])
        ln10 = math.log(10.0)
        exact = np.logaddexp.reduce(
            ln10 * (log_half[:, None, :] + log_half[None, :, :]), axis=2) / ln10
        got = transform._gram_log10(log_half)
        assert np.all(got >= exact - 1e-12)
        np.testing.assert_allclose(np.diag(got), np.diag(exact), rtol=1e-14, atol=1e-12)
        assert got[0, 1] <= math.log10(3 * np.finfo(float).tiny) + 1e-12

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(q=st.floats(0.1, 0.95), v=st.floats(-0.999, 3.0),
           n_lo=st.integers(-40, -2), n_hi=st.integers(10, 300))
    def test_random_grids_match_full_cube(self, q, v, n_lo, n_hi):
        grid = LatticeGrid(QParams(q, v), n_lo, n_hi)
        try:
            table = jv_table(grid, PrecisionCtx())
        except PrecisionExhausted:
            reject()
        ref = _full_cube_trust_log10(grid, table)
        got = transform._trust_log10(grid, table)
        np.testing.assert_allclose(got, ref, rtol=1e-14, atol=1e-12)
        tol = math.log10(transform._TRUST_TOL)
        assert np.array_equal(got < tol, ref < tol)

    def test_one_call_holds_no_cube(self):
        # q = 0.9 on [-30, 300]: the (N, N, 160) tail cube alone is 140 MB and
        # its reduction peaked at 423 MB; row blocks keep the call near O(N^2).
        grid = LatticeGrid(QParams(0.9, 0.0), -30, 300)
        table = jv_table(grid, PrecisionCtx())
        assert trusted_window(grid, table) == (-30, 8)   # constants built here
        tracemalloc.start()
        try:
            trusted_window(grid, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 16e6

    def test_completeness_on_probes(self, cell_half, probes):
        worst = max(basis_completeness_defect(f, cell_half.op)
                    for f in probes[:5])
        assert worst < 1e-9

    def test_decay_at_infinity(self, cell_half, probes):
        # Transforms of integrable probes are tiny at the largest lattice point.
        op, grid = cell_half.op, cell_half.grid
        for f in probes[:10]:
            ff = forward(f, op)
            assert abs(ff[grid.n_lo]) < 1e-6 * np.max(np.abs(ff.values))

    def test_sup_bound(self, cell_half, probes):
        op = cell_half.op
        sup_j = float(np.max(np.abs(cell_half.table.values)))
        for f in probes[:10]:
            ff = forward(f, op)
            bound = op.c * sup_j * norm_p(f, 1.0)
            assert np.max(np.abs(ff.values)) <= bound * (1 + 1e-12)
