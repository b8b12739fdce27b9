"""Normalized q-Bessel function: series, tables, decay bound, eigen relation."""

import math
import sys

import numpy as np
import pytest

from qfourier.bessel import (
    decay_bound_check,
    decay_bound_constant,
    eigen_residual,
    jv,
    jv_exact_dyadic,
    jv_table,
)
from qfourier.lattice import LatticeGrid
from qfourier.qseries import PrecisionCtx, QParams

CTX = PrecisionCtx()


def ulps(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


class TestScalar:
    def test_at_zero(self):
        assert jv(0.0, QParams(0.5, 0.5), CTX) == 1.0
        assert jv(0.0, QParams(0.9, 1.5), CTX) == 1.0

    def test_precision_ceiling(self):
        from qfourier.errors import PrecisionExhausted

        with pytest.raises(PrecisionExhausted):
            jv(2.0 ** 300, QParams(0.5, 0.5), CTX)

    def test_small_argument_expansion(self):
        # j = 1 - q^2 x^2 / ((1-q^{2v+2})(1-q^2)) + O(x^4).
        q, v = 0.5, 0.5
        x = q**10
        two_term = 1 - q**2 * x**2 / ((1 - q ** (2 * v + 2)) * (1 - q**2))
        assert jv(x, QParams(q, v), CTX) == pytest.approx(two_term, abs=1e-10)

    @pytest.mark.parametrize("m", [-5, -3, 0, 2])
    def test_exact_rational_oracle(self, m):
        got = jv(0.5 ** m, QParams(0.5, 0.0), CTX)
        assert ulps(got, jv_exact_dyadic(m, 0.0)) <= 2.0

    def test_alternating_partial_sums_bracket(self):
        # For x <= 1 the terms decrease in magnitude; partial sums bracket.
        q, v, x = 0.5, 0.5, 1.0
        q2, q2v = q * q, q ** (2 * v)
        term, total = 1.0, 1.0
        partials = [total]
        u = 1.0
        for _ in range(25):
            u *= q2
            term *= -(u * x * x) / ((1 - q2v * u) * (1 - u))
            total += term
            partials.append(total)
        limit = jv(x, QParams(q, v), CTX)
        for lo, hi in zip(partials[1::2], partials[0::2]):
            assert lo - 1e-15 <= limit <= hi + 1e-15


class TestTable:
    def test_covers_double_range_and_matches_scalar(self, cell_half):
        table, grid = cell_half.table, cell_half.grid
        assert table.n_min == 2 * grid.n_lo
        assert table.n_max == 2 * grid.n_hi
        assert table.value(0) == pytest.approx(
            jv(1.0, grid.params, CTX), abs=1e-15)

    def test_reproducible_across_work_digits(self, cell_half):
        table80 = jv_table(cell_half.grid, PrecisionCtx(80, 1e-30))
        worst = max(ulps(float(a), float(b))
                    for a, b in zip(cell_half.table.values, table80.values))
        assert worst <= 1.0

    def test_oracle_agreement_on_table_points(self, cell_half):
        table = cell_half.table
        v = cell_half.p.v
        for n in range(-8, table.n_max + 1):
            assert ulps(table.value(n), jv_exact_dyadic(n, v)) <= 1.0

    def test_deep_entries_for_larger_order(self):
        # At q = 1/2, v = 3/2 the series at q^n, n < 0, cancels about
        # (2n^2 - 4n) log10(2) digits; the working precision must cover the
        # (2v+1)|n| part too.  Every normal binary64 entry on [-40, -8].
        table = jv_table(LatticeGrid(QParams(0.5, 1.5), -20, 80), CTX)
        checked = 0
        for n in range(-40, -7):
            ref = jv_exact_dyadic(n, 1.5, terms=110)
            if abs(ref) < sys.float_info.min:
                continue
            assert abs(table.value(n) - ref) <= 1e-15 * abs(ref), n
            checked += 1
        assert checked >= 20


class TestDecayBound:
    def test_holds_on_table(self, cell_half):
        chk = decay_bound_check(cell_half.table, CTX)
        assert chk.max_ratio <= 1.0 + 1e-12
        assert chk.passed

    def test_negative_branch_explicitly(self):
        p = QParams(0.5, 0.0)
        const = decay_bound_constant(p, CTX)
        for n in range(-8, 0):
            bound = const * p.q ** (n * n - (2 * p.v + 1) * n)
            assert abs(jv(p.q**n, p, CTX)) <= bound * (1 + 1e-12)

    def test_positive_branch_explicitly(self):
        p = QParams(0.5, 0.0)
        const = decay_bound_constant(p, CTX)
        for n in range(0, 30):
            assert abs(jv(p.q**n, p, CTX)) <= const * (1 + 1e-12)


class TestEigenRelation:
    @pytest.mark.parametrize("lambda_exp", [-2, 0, 1, 3])
    def test_residual_small(self, cell_half, lambda_exp):
        r = eigen_residual(cell_half.grid, lambda_exp, cell_half.table)
        assert r < 1e-9

    def test_constant_function_is_annihilated(self, cell_half):
        # Delta 1 = (1 - (1+q^{2v}) + q^{2v}) / x^2 = 0, exactly.
        from qfourier.lattice import GridFn
        from qfourier.transform import q_bessel_operator

        grid = cell_half.grid
        out = q_bessel_operator(GridFn(grid, np.ones(grid.size)))
        assert np.max(np.abs(out.values)) == 0.0

    def test_quadratic_gives_constant(self, cell_half):
        # f(x) = x^2: Delta f = q^{-2} - 1 - q^{2v} + q^{2v+2}, a constant.
        from qfourier.lattice import GridFn
        from qfourier.transform import q_bessel_operator

        grid = cell_half.grid
        q, v = grid.params.q, grid.params.v
        x2 = np.power(q, 2.0 * grid.exponents.astype(float))
        out = q_bessel_operator(GridFn(grid, x2))
        expected = q**-2 - 1 - q ** (2 * v) + q ** (2 * v + 2)
        assert np.allclose(out.values, expected, rtol=1e-12)
