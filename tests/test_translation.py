"""Translation kernel, q-convolution, Markov machinery, hypergroup expansion."""

from itertools import combinations_with_replacement

import mpmath as mp
import numpy as np
import pytest

from qfourier.errors import NotProbability, OffWindow
from qfourier.lattice import GridFn, delta_fn, jackson_integral, norm2
from qfourier.probes import seeded_probes
from qfourier.qseries import PrecisionCtx, QParams, c_qv_mp
from qfourier.transform import forward
from qfourier.translation import (
    basis_function,
    convolve,
    eigen_check,
    hypergroup_expansion_defect,
    hypergroup_window,
    kernel_min,
    markov_check,
    markov_check_convolution,
    multiplier_coeffs,
    positivity_min,
    translate,
)

CTX = PrecisionCtx()


@pytest.fixture(scope="module")
def kprobes(cell_half):
    return seeded_probes(cell_half.grid, cell_half.kern.window, 12, seed=11)


@pytest.fixture(scope="module")
def kprobes_nn(cell_half):
    return seeded_probes(cell_half.grid, cell_half.kern.window, 6, seed=12,
                         nonneg=True)


@pytest.fixture(scope="module")
def bump_density(cell_half):
    d = delta_fn(cell_half.grid, 0)
    return GridFn(cell_half.grid, d.values / cell_half.kern.c)


class TestKernelBuild:
    def test_window_inside_grid(self, cell_half):
        k = cell_half.kern
        assert cell_half.grid.n_lo <= k.window_lo <= k.window_hi <= cell_half.grid.n_hi
        assert k.width <= 24

    def test_total_symmetry_exact(self, cell_half):
        cube = cell_half.kern.cube
        for perm in [(0, 2, 1), (1, 0, 2), (1, 2, 0), (2, 0, 1), (2, 1, 0)]:
            assert np.array_equal(cube, cube.transpose(perm))

    def test_row_sums_are_unit(self, cell_half):
        assert cell_half.kern.max_rowsum_defect < 1e-8

    def test_cube_agrees_with_block(self, cell_half):
        # Same quantity through the high-precision and double paths; the
        # double path carries ~1e-17 absolute quadrature noise on entries
        # that cancel to near zero.
        k = cell_half.kern
        g = cell_half.grid
        i = k.width // 2
        sub = k.block[i][np.ix_(
            [g.index(int(e)) for e in k.window_exponents],
            [g.index(int(e)) for e in k.window_exponents],
        )]
        assert np.allclose(sub, k.cube[i], rtol=1e-12, atol=1e-16)


class TestTranslate:
    def test_unit_fixed_point_on_window(self, cell_half):
        k, grid = cell_half.kern, cell_half.grid
        one = GridFn(grid, np.ones(grid.size))
        wsel = [grid.index(int(e)) for e in k.window_exponents]
        for x in (k.window_lo, 0, k.window_hi):
            t1 = translate(one, x, k)
            assert np.max(np.abs(t1.values[wsel] - 1.0)) < 1e-8

    def test_translate_of_bessel_factorizes(self, cell_half):
        # T_{q,x} j_v(q^n .) = j_v(q^n x) j_v(q^n .), n on the lattice.
        k, grid, table = cell_half.kern, cell_half.grid, cell_half.table
        for n in (-1, 0, 2):
            f = GridFn(grid, table.values[(n + grid.exponents) - table.n_min])
            for x in (0, 1):
                tf = translate(f, x, k)
                expected = table.value(n + x) * f.values
                err = np.max(np.abs(tf.values - expected)) / np.max(np.abs(expected))
                assert err < 1e-8

    def test_translate_delta_gives_kernel_row(self, cell_half):
        k, grid = cell_half.kern, cell_half.grid
        a = 2
        td = translate(delta_fn(grid, a), 0, k)
        expected = k.block[k.windex(0)][:, grid.index(a)]
        assert np.allclose(td.values, expected, rtol=1e-12, atol=1e-300)

    def test_off_window_x_rejected(self, cell_half):
        grid = cell_half.grid
        one = GridFn(grid, np.ones(grid.size))
        with pytest.raises(OffWindow):
            translate(one, grid.n_hi, cell_half.kern)


class TestConvolve:
    def test_commutativity(self, cell_half, kprobes):
        k = cell_half.kern
        worst = 0.0
        for f, g in zip(kprobes[:6], kprobes[6:12]):
            fg = convolve(f, g, k)
            gf = convolve(g, f, k)
            worst = max(worst, norm2(GridFn(k.grid, fg.values - gf.values))
                        / norm2(fg))
        assert worst < 1e-8

    def test_product_formula(self, cell_half, kprobes):
        k, op = cell_half.kern, cell_half.op
        worst = 0.0
        for f, g in zip(kprobes[:6], kprobes[6:12]):
            lhs = forward(convolve(f, g, k), op)
            rhs = GridFn(k.grid, forward(f, op).values * forward(g, op).values)
            worst = max(worst, norm2(GridFn(k.grid, lhs.values - rhs.values))
                        / norm2(rhs))
        assert worst < 1e-8

    def test_zero_annihilates(self, cell_half, kprobes):
        k = cell_half.kern
        zero = GridFn(k.grid, np.zeros(k.grid.size))
        assert np.all(convolve(kprobes[0], zero, k).values == 0.0)

    def test_needs_window_support(self, cell_half):
        k, grid = cell_half.kern, cell_half.grid
        wide = GridFn(grid, np.ones(grid.size))
        with pytest.raises(OffWindow):
            convolve(wide, wide, k)


def _fsum_cube(cell, dps: int = 80):
    """Reference cube: sorted window triples -> (D, sum |terms|) by mp.fsum."""
    p, grid, table, k = cell.p, cell.grid, cell.table, cell.kern
    exps = [int(s) for s in grid.exponents]
    jmp = table.mp_values
    out = {}
    with mp.workdps(dps):
        c = c_qv_mp(p, cell.ctx)
        q = mp.mpf(p.q)
        w = [c * c * (1 - q) * q ** (s * (2 * mp.mpf(p.v) + 2)) for s in exps]
        for a, b, d in combinations_with_replacement(k.window_exponents.tolist(), 3):
            terms = [ws * jmp[a + s - table.n_min] * jmp[b + s - table.n_min]
                     * jmp[d + s - table.n_min] for ws, s in zip(w, exps)]
            out[a, b, d] = (float(mp.fsum(terms)), float(mp.fsum(terms, absolute=True)))
    return out


class TestKernelOracle:
    @pytest.mark.parametrize("name", ["cell_half", "cell_v0"])
    def test_cube_matches_80_digit_fsum(self, name, request):
        cell = request.getfixturevalue(name)
        k = cell.kern
        exact = 0
        for (a, b, d), (ref, mass) in _fsum_cube(cell).items():
            got = float(k.cube[k.windex(a), k.windex(b), k.windex(d)])
            if abs(ref) > 1e-30 * mass:
                assert got == ref, (a, b, d)
                exact += 1
            else:
                assert abs(got - ref) <= 1e-45 * mass, (a, b, d)
        assert exact > 0


class TestPositivity:
    def test_nonnegative_for_v_half(self, cell_half):
        mn, _ = kernel_min(cell_half.kern)
        assert mn >= -1e-10

    def test_nonnegative_for_v_zero(self, cell_v0):
        mn, _ = kernel_min(cell_v0.kern)
        assert mn >= -1e-10

    def test_scan_result_for_q09(self):
        res = positivity_min(QParams(0.9, 0.5), window=10, ctx=CTX)
        assert res.min_value >= -1e-10

    # Bits the 50-digit mp.fsum cube gave; the integer sums must keep them.
    @pytest.mark.parametrize("v, value, argmin", [
        (0.0, 2.0271374738780628e-09, (-13, -1, -1)),
        (0.5, 1.4688956858673655e-12, (-13, 0, 0)),
    ])
    def test_scan_minimum_at_q09_pinned(self, v, value, argmin):
        res = positivity_min(QParams(0.9, v), ctx=CTX)
        assert (res.min_value, res.argmin) == (value, argmin)

    def test_negative_order_reported_not_gated(self):
        # v < 0 carries no positivity claim; strongly negative minima appear.
        res = positivity_min(QParams(0.5, -0.7), window=10, ctx=CTX)
        assert res.min_value < 0.0


class TestMarkov:
    def test_translation_axioms(self, cell_half, kprobes, kprobes_nn):
        rep = markov_check(cell_half.kern, kprobes + kprobes_nn)
        assert rep.unit_defect < 1e-8
        assert rep.symmetry_defect < 1e-8
        assert rep.contraction_defect < 1e-8
        assert rep.jensen_defect < 1e-8
        assert rep.sup_defect < 1e-8

    def test_positive_probe_stays_positive(self, cell_half, kprobes_nn):
        k = cell_half.kern
        mn, _ = kernel_min(k)
        assert mn >= -1e-10
        for f in kprobes_nn[:3]:
            tf = translate(f, 0, k)
            assert np.min(tf.values) >= -1e-10 * np.max(f.values)

    def test_convolution_operator_axioms(self, cell_half, kprobes, kprobes_nn,
                                         bump_density):
        rep = markov_check_convolution(bump_density, cell_half.kern,
                                       kprobes + kprobes_nn)
        assert rep.worst() < 1e-8

    def test_probes_must_sit_in_window(self, cell_half):
        grid = cell_half.grid
        wide = GridFn(grid, np.ones(grid.size))
        with pytest.raises(OffWindow):
            markov_check(cell_half.kern, [wide])


class TestEigenAndMultiplier:
    def test_eigen_residuals(self, cell_half):
        k = cell_half.kern
        worst = max(eigen_check(k, n, x)
                    for n in range(-2, 5) for x in (k.window_lo, 0, k.window_hi))
        assert worst < 1e-8

    def test_small_argument_eigenvalue_near_one(self, cell_half):
        # Deep small-argument regime: j_v(q^n x) ~ 1 and T f_n ~ f_n.
        k = cell_half.kern
        n, x = 4, 3
        lam = cell_half.table.value(n + x)
        assert lam == pytest.approx(1.0, abs=1e-3)
        assert eigen_check(k, n, x) < 1e-8

    def test_bump_multiplier_coeffs(self, cell_half, bump_density):
        k, table = cell_half.kern, cell_half.table
        ns, coeffs = multiplier_coeffs(bump_density, k)
        expected = np.array([table.value(int(n)) for n in ns])
        assert np.max(np.abs(coeffs - expected)) < 1e-8
        assert np.max(np.abs(coeffs)) <= 1.0 + 1e-12

    def test_diagonal_action_matches_convolution(self, cell_half, bump_density):
        k = cell_half.kern
        worst = 0.0
        for n in (-2, 0, 1, 3):
            fn = basis_function(k, n)
            conv = convolve(fn, bump_density, k)
            cn = cell_half.table.value(n)
            worst = max(worst, norm2(GridFn(k.grid, conv.values - cn * fn.values)))
        assert worst < 1e-8

    def test_rejects_non_probability(self, cell_half):
        grid = cell_half.grid
        bad = GridFn(grid, np.ones(grid.size))
        with pytest.raises(NotProbability):
            multiplier_coeffs(bad, cell_half.kern)
        neg = GridFn(grid, -delta_fn(grid, 0).values / cell_half.kern.c)
        with pytest.raises(NotProbability):
            multiplier_coeffs(neg, cell_half.kern)

    def test_mass_conservation(self, cell_half, kprobes_nn):
        # Weighted integral is preserved by translation.
        k = cell_half.kern
        for f in kprobes_nn[:3]:
            tf = translate(f, 0, k)
            lhs = jackson_integral(tf)
            rhs = jackson_integral(f)
            assert abs(lhs - rhs) < 1e-8 * (1 + abs(rhs))


class TestHypergroup:
    def test_full_expansion_defect(self, cell_half):
        assert hypergroup_expansion_defect(cell_half.kern) < 1e-7

    def test_window_growth_consistency(self, cell_half):
        k = cell_half.kern
        d14 = hypergroup_expansion_defect(k, hypergroup_window(k, 14, CTX))
        d20 = hypergroup_expansion_defect(k, hypergroup_window(k, 20, CTX))
        assert d20 <= d14

    def test_single_term_is_rank_one(self, cell_half):
        # A one-index window reduces the expansion to a rank-one product.
        k = cell_half.kern
        d = hypergroup_expansion_defect(k, (0, 0))
        fn = basis_function(k, 0)
        sel = [k.grid.index(int(e)) for e in k.window_exponents]
        fn0 = k.c / np.sqrt(1.0 / (1.0 - k.grid.params.q))
        rank1 = np.einsum("a,b,c->abc", fn.values[sel], fn.values[sel],
                          fn.values[sel]) / fn0
        expected = np.max(np.abs(k.cube - rank1)) / np.max(np.abs(k.cube))
        assert d == pytest.approx(expected, rel=1e-12)
