"""Finite q-Hankel transform: involution, isometry, orthogonal basis."""

import numpy as np
import pytest

from qfourier.errors import GridMismatch
from qfourier.lattice import GridFn, delta_fn, inner, norm_p
from qfourier.probes import seeded_probes
from qfourier.transform import (
    basis_completeness_defect,
    basis_fn,
    build_transform,
    delta_multiplier_defect,
    forward,
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
        for x in range(*cell_half.window):
            assert ff[x] == pytest.approx(inner(f, basis_fn(op, x)), rel=1e-12)

    def test_basis_row_off_the_table_raises(self, cell_half):
        # psi_{q^-15} needs j_v(q^{-25}) on a table that starts at -20; the
        # row must not wrap around to the table's far end.
        with pytest.raises(IndexError):
            basis_fn(cell_half.op, -15)

    def test_table_of_another_order_rejected(self, cell_half, cell_v0):
        with pytest.raises(GridMismatch):
            build_transform(cell_half.grid, cell_v0.table)
        with pytest.raises(GridMismatch):
            trusted_window(cell_half.grid, cell_v0.table)

    def test_basis_function_concentrates(self, cell_half):
        # F psi_y is delta-like: off-target values vanish.
        grid, op = cell_half.grid, cell_half.op
        y = 0
        ff = forward(basis_fn(op, y), op)
        lo, hi = cell_half.window
        for x in range(lo, hi + 1):
            if x != y:
                assert abs(ff[x]) < 1e-9
        assert ff[y] == pytest.approx(
            psi_norm_sq(grid, y) / 1.0, rel=1e-10)

    def test_norm_of_basis_function(self, cell_half):
        # ||psi_x||^2 = x^{-2(v+1)}/(1-q) for window x.
        grid, op = cell_half.grid, cell_half.op
        for x in range(cell_half.window[0], cell_half.window[1] + 1):
            psi = basis_fn(op, x)
            assert inner(psi, psi) == pytest.approx(psi_norm_sq(grid, x), rel=1e-10)

    def test_psi_norm_at_one(self, cell_v0):
        # q = 1/2, v = 0, x = 1: ||psi_1||^2 = 1/(1-q) = 2.
        psi = basis_fn(cell_v0.op, 0)
        assert inner(psi, psi) == pytest.approx(2.0, rel=1e-10)


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
        psi = basis_fn(cell_v0.op, 0)
        assert inner(psi, psi) == pytest.approx(2.0, rel=1e-9)

    def test_diagonal_value_v1_at_q(self):
        # delta diagonal at x = q, v = 1: 1/((1-q) q^4) = 32 for q = 1/2.
        from qfourier.bessel import jv_table
        from qfourier.lattice import LatticeGrid
        from qfourier.qseries import PrecisionCtx, QParams
        from qfourier.transform import build_transform

        ctx = PrecisionCtx()
        grid = LatticeGrid(QParams(0.5, 1.0), -10, 40)
        op = build_transform(grid, jv_table(grid, ctx), ctx)
        psi = basis_fn(op, 1)
        assert inner(psi, psi) == pytest.approx(32.0, rel=1e-9)


class TestMatrixStructure:
    def test_bitwise_reconstruction(self, cell_half):
        op = cell_half.op
        assert np.array_equal(op.kernel * op.weights[None, :], op.matrix)

    def test_normalized_symmetry_exact_for_dyadic_q(self, cell_half):
        # q = 1/2 weights are powers of two: division undoes multiplication.
        op = cell_half.op
        lhs = op.matrix / op.weights[None, :]
        assert np.array_equal(lhs, lhs.T)


class TestQBesselOperator:
    def test_interior_output_range(self, cell_half):
        grid = cell_half.grid
        out = q_bessel_operator(GridFn(grid, np.ones(grid.size)))
        assert out.grid.n_lo == grid.n_lo + 1
        assert out.grid.n_hi == grid.n_hi - 1

    def test_eigen_relation_through_matrix(self, cell_half):
        # Delta j_v(q . ) = -q^2 j_v(q . ) on trusted interior points.  Deeper
        # rows amplify binary64 rounding by q^{-2n}; the certified check over
        # the whole interior is eigen_residual on the high-precision table.
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


class TestWindowAndCompleteness:
    def test_trusted_window_straddles_one(self, cell_half):
        lo, hi = cell_half.window
        assert lo <= 0 <= hi
        assert lo >= cell_half.grid.n_lo

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
