"""q-Gauss kernel and heat semigroup."""

import dataclasses
import hashlib
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qfourier import bessel, heat, numerics, qseries, report, translation
from qfourier.heat import (
    GaussFamily,
    composition_defect,
    gauss_crosscheck,
    gauss_crosscheck_hp,
    gauss_family,
    gauss_kernel,
    gauss_mass_defect,
    gauss_recurrence_defect,
    heat_apply,
    heat_markov_check,
    heat_residual,
    heat_spectral_defect,
)
from qfourier.lattice import GridFn, LatticeGrid, jackson_integral, stack
from qfourier.numerics import ulps
from qfourier.probes import seeded_probes
from qfourier.qseries import (
    PrecisionCtx,
    QParams,
    gauss_amplitude_mp,
    q2_exact,
    qexp_lattice_mp,
    qexp_mp,
)
from qfourier.report import DEFAULT_CELLS, SuiteConfig, run_cell
from qfourier.transform import build_transform, trusted_window
from qfourier.translation import convolve_rows, translate
from markov_ref import loop_markov_convolution

CTX = PrecisionCtx()


@pytest.fixture(scope="module")
def kprobes(cell_half):
    return seeded_probes(cell_half.grid, cell_half.kern.window, 6, seed=31)


def heat_times(q):
    return [q**4, q**2, 1.0, q**-2]


class TestGaussKernel:
    def test_strictly_positive(self, cell_half):
        for t in heat_times(cell_half.p.q):
            g = gauss_kernel(t, cell_half.grid, CTX)
            assert np.min(g.fn.values) > 0.0

    @pytest.mark.parametrize("t_idx", [0, 1, 2, 3])
    def test_unit_mass(self, cell_half, t_idx):
        t = heat_times(cell_half.p.q)[t_idx]
        g = gauss_kernel(t, cell_half.grid, CTX)
        assert gauss_mass_defect(g, cell_half.op.c) < 1e-8

    def test_closed_form_vs_transform_float(self, cell_half):
        worst = max(gauss_crosscheck(gauss_kernel(t, cell_half.grid, CTX), cell_half.op,
                                     cell_half.window)
                    for t in heat_times(cell_half.p.q))
        assert worst < 1e-8

    def test_closed_form_vs_transform_hp(self, cell_half):
        worst = max(
            gauss_crosscheck_hp(gauss_kernel(t, cell_half.grid, CTX), cell_half.op,
                                cell_half.window)
            for t in heat_times(cell_half.p.q)
        )
        assert worst < 1e-8

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["interior", "low end"])
    def test_nonfinite_kernel_value_fails_both(self, cell_08, where, bad):
        # One kernel value of G(., 1) on the trusted window planted: the float
        # row's sup and the hp row's guard gated a NaN out, so the float row
        # read 0.0 and the hp row 3.9e-24, or raised on an empty gate at the
        # window's low end.
        lo, hi = cell_08.window
        g = gauss_kernel(1.0, cell_08.grid, CTX)
        vals = g.fn.values.copy()
        vals[cell_08.grid.index(lo if where == "low end" else (lo + hi) // 2)] = bad
        planted = dataclasses.replace(g, fn=GridFn(cell_08.grid, vals))
        assert math.isnan(gauss_crosscheck(planted, cell_08.op, cell_08.window))
        assert math.isnan(gauss_crosscheck_hp(planted, cell_08.op, cell_08.window))

    def test_hp_weights_built_once_per_operator(self, cell_half):
        # The mp Jackson weights are the operator's, shared by every t, and
        # are the float grid weights before their rounding.
        op = cell_half.op
        weights = op.jackson_mp
        gauss_crosscheck_hp(gauss_kernel(1.0, cell_half.grid, CTX), op, cell_half.window)
        assert op.jackson_mp is weights
        np.testing.assert_allclose([float(w) for w in weights], cell_half.grid.weights(),
                                   rtol=1e-15, atol=0.0)

    def test_rejects_nonpositive_time(self, cell_half):
        with pytest.raises(ValueError):
            gauss_kernel(-1.0, cell_half.grid, CTX)

    def test_rejects_zero_time(self, cell_half):
        with pytest.raises(ValueError):
            gauss_kernel(0.0, cell_half.grid, CTX)

    @pytest.mark.parametrize("q, v, n_lo, n_hi", list(DEFAULT_CELLS))
    def test_integer_dot_matches_fdot(self, q, v, n_lo, n_hi):
        # The reference: mp.fdot of the mp Jackson weights times the e-profile
        # with the hp table row, times c, and A(t) over the kernel's product,
        # at the working digits plus ten.
        grid = LatticeGrid(QParams(q, v), n_lo, n_hi)
        table = bessel.jv_table(grid, CTX)
        op, window = build_transform(grid, table, CTX), trusted_window(grid, table, CTX)
        for t in heat_times(q):
            g = gauss_kernel(t, grid, CTX)
            scale, rows = heat._hp_rows(g, op, window)
            assert rows
            with mp.workdps(CTX.work_digits + 10):
                we = [w / mp.ldexp(m, e) for w, (m, e) in zip(op.jackson_mp, g.eprofile_run)]
                for x, (dot, closed) in rows.items():
                    ref = mp.fdot(we, table.row(x + n_lo, x + n_hi, hp=True)) * op.c_mp
                    m, e = g.run[grid.index(x)]
                    ref_closed = g.amp_mp / mp.ldexp(m, e)
                    assert abs(mp.ldexp(dot, -scale) * op.c_mp - ref) <= 1e-45 * abs(ref), x
                    assert (abs(mp.ldexp(closed, -scale) * op.c_mp - ref_closed)
                            <= 1e-45 * ref_closed), x

    @pytest.mark.parametrize("pick", [max, min])
    def test_hp_sees_one_closed_form_value_moved(self, cell_half, pick):
        # One gated closed-form value (the largest, then the smallest) times
        # 1 + 1e-10: the product under it divided by that factor.
        g = gauss_kernel(1.0, cell_half.grid, CTX)
        _, rows = heat._hp_rows(g, cell_half.op, cell_half.window)
        x = pick(rows, key=lambda n: g.fn[n])
        assert gauss_crosscheck_hp(g, cell_half.op, cell_half.window) <= 1e-15
        run = list(g.run)
        m, e = run[cell_half.grid.index(x)]
        run[cell_half.grid.index(x)] = (m * 10**10 // (10**10 + 1), e)
        moved = dataclasses.replace(g, run=run)
        assert gauss_crosscheck_hp(moved, cell_half.op, cell_half.window) >= 5e-11

    def test_keeps_working_precision_values(self, cell_half):
        g = gauss_kernel(1.0, cell_half.grid, CTX)
        with mp.workdps(CTX.work_digits + 10):
            assert [float(g.amp_mp / mp.ldexp(m, e)) for m, e in g.run] == list(g.fn.values)


def _float_times(q):
    """Six float times: q2 = q * q in binary64, q2 * q2, q2 * (q2 * q2), 1, 2 and
    q**-2.  Each is its own one-member family, with t rounded to binary64."""
    q2 = q * q
    return sorted({q2 * (q2 * q2), q2 * q2, q2, 1.0, 2.0, q**-2})


# sha256 of the binary64 kernel values and of the binary64 e-profiles of
# gauss_kernel at float times, each over the times in order: they depend on
# mp arithmetic only.
_GAUSS_SHA256 = {
    (0.5, 0.0, -10, 40): (
        "a4500e661aff4d42f6b8567584f4bbc3bdbbea10d79ead9b17639d96eadece0e",
        "b172161af5d17bc546aabff02314eec93c43c9cef859c37fb64c6dc879fef322"),
    (0.5, 0.5, -10, 40): (
        "9a4404b2554caf0311d0da77d1f202f7240af639f2f4453858fdf58cc4054567",
        "b172161af5d17bc546aabff02314eec93c43c9cef859c37fb64c6dc879fef322"),
    (0.5, 1.5, -10, 40): (
        "347b8cd9d943f97020f462aa065bbdfe3704132e5d3adf67453cf29e4b10116a",
        "b172161af5d17bc546aabff02314eec93c43c9cef859c37fb64c6dc879fef322"),
    (0.8, 0.5, -20, 120): (
        "1b16097e5f671748b7b83f352934af443beb7abeabf8181a3239436459a13fb0",
        "f03d6dd8c0596cbd28db2c317c3a4e9dbe824c784f965fb2c32d736e42b542bd"),
    (0.9, 0.0, -30, 300): (
        "65d501bf7e99a60d3637756489301d895073196424dd4de884481a90e0b08e20",
        "8f66d9424a9f05f8c9859d254f11e48c99fb756aa38ce81841a8e59bebf4ff52"),
}


class TestGaussFingerprint:
    def test_pins_cover_the_default_cells(self):
        assert set(DEFAULT_CELLS) <= set(_GAUSS_SHA256)

    @pytest.mark.parametrize("q, v, n_lo, n_hi", list(_GAUSS_SHA256))
    def test_bit_identical(self, q, v, n_lo, n_hi):
        grid = LatticeGrid(QParams(q, v), n_lo, n_hi)
        times = [q**4, 1.0, q**-2] if (q, v, n_lo, n_hi) not in DEFAULT_CELLS else _float_times(q)
        fn, prof = hashlib.sha256(), hashlib.sha256()
        for t in times:
            g = gauss_kernel(t, grid, CTX)
            fn.update(g.fn.values.tobytes())
            prof.update(g.eprofile.values.tobytes())
        assert (fn.hexdigest(), prof.hexdigest()) == _GAUSS_SHA256[(q, v, n_lo, n_hi)]


# The check cell's family, t0 = 1 and k = -1..3: sha256 of the binary64
# kernel values and of the binary64 e-profiles, each over k in order.
_FAMILY_SHA256 = {
    (0.5, 0.0, -10, 40): (
        "23aecf2ff5c15ac824113a897135d359e8332a3e02b61eed26b6b749ba51b741",
        "5b0bb90603141f7574f892e5b9a27f0ac11dcfbca214eb64ba4fe459a26b04fb"),
    (0.5, 0.5, -10, 40): (
        "3eab082c272c69f41ceda741e104718f295dbf10d8fd66d85d99b4621c8af0f4",
        "5b0bb90603141f7574f892e5b9a27f0ac11dcfbca214eb64ba4fe459a26b04fb"),
    (0.5, 1.5, -10, 40): (
        "b7a4a39c125b8cee8dd1acca7025611ccddd6560ce0b95379ad26e6b236471ed",
        "5b0bb90603141f7574f892e5b9a27f0ac11dcfbca214eb64ba4fe459a26b04fb"),
    (0.8, 0.5, -20, 120): (
        "74f6acf62cd06d8be20e9f778063815d8e51074fa4098b0f4e44f6a88f5860d6",
        "a4f7c0ebcbc663118f3d0b53cab91fd0a0d35c4d752db0913c3543608a463e4f"),
    (0.9, 0.0, -30, 300): (
        "09f94fa1450c47fef8a89a5c82dab019496991f349040cc20279f3c033dd5877",
        "53833e3a4d64989490c3d572110815c46b926fa228e48a925b98992fea7eb262"),
}


class TestFamilyFingerprint:
    def test_pins_cover_the_default_cells(self):
        assert set(DEFAULT_CELLS) <= set(_FAMILY_SHA256)

    @pytest.mark.parametrize("q, v, n_lo, n_hi", list(_FAMILY_SHA256))
    def test_bit_identical(self, q, v, n_lo, n_hi):
        fam = gauss_family(1.0, LatticeGrid(QParams(q, v), n_lo, n_hi), range(-1, 4), CTX)
        fn, prof = hashlib.sha256(), hashlib.sha256()
        for g in map(fam.member, fam.ks):
            fn.update(g.fn.values.tobytes())
            prof.update(g.eprofile.values.tobytes())
        assert (fn.hexdigest(), prof.hexdigest()) == _FAMILY_SHA256[(q, v, n_lo, n_hi)]

    def test_dyadic_members_are_the_float_time_kernels(self, cell_half):
        # At q = 1/2 every q^{2k} is a binary64 number: each member equals the
        # one-member family at its float time, to the bit.
        fam = gauss_family(1.0, cell_half.grid, range(-1, 4), CTX)
        for k in fam.ks:
            got, g = fam.member(k), gauss_kernel(0.25**k, cell_half.grid, CTX)
            assert got.t == g.t
            assert np.array_equal(got.fn.values, g.fn.values), k
            assert np.array_equal(got.eprofile.values, g.eprofile.values), k


def _float_step_kernel(t, grid):
    """G(., t) from a run on float(q*q): the lattice steps by it, and the
    products take it as their base, where the exact q^2 is the kernel's."""
    p = grid.params
    with mp.workdps(CTX.work_digits + 10):
        amp = gauss_amplitude_mp(t, p, CTX)
        pref = mp.mpf(p.q) ** (-2 * mp.mpf(p.v)) / t
        run = qexp_lattice_mp(pref, mp.mpf(p.q * p.q), grid.n_lo, grid.n_hi, CTX)
    return GaussFamily(t, grid, range(1), amp, run, CTX).member(0)


def _direct_member(fam, k):
    """Member k of ``fam`` by direct mp products at the exact time t0 q2^k, in
    binary64: A(t) by its four products, one product per kernel point and per
    e-profile point."""
    grid = fam.grid
    with mp.workdps(CTX.work_digits + 10):
        q2 = q2_exact(grid.params.q)
        t = mp.mpf(fam.t0) * q2**k
        amp, pref = gauss_amplitude_mp(t, grid.params, CTX), heat._gauss_prefactor(t, grid)
        kernel = [float(amp * qexp_mp(-(pref * q2 ** int(n)), q2, CTX)) for n in grid.exponents]
        prof = [float(qexp_mp(-(t * q2 ** int(n)), q2, CTX)) for n in grid.exponents]
    return kernel, prof


def _direct_eprofile(t, grid):
    """e(-t q^{2n}; q^2) by its own product at every grid point, in binary64."""
    with mp.workdps(CTX.work_digits + 10):
        q2 = q2_exact(grid.params.q)
        return np.array([float(qexp_mp(-(t * q2 ** int(n)), q2, CTX)) for n in grid.exponents])


def _spread(grid):
    return sorted({int(round(n)) for n in np.linspace(grid.n_lo, grid.n_hi, 5)})


class TestLatticeRecurrence:
    @settings(max_examples=30, deadline=None)
    @given(q=st.floats(0.1, 0.95),
           v=st.floats(-0.99, 3.0),
           m=st.integers(-3, 3),
           t_off=st.floats(0.05, 20.0),
           on_lattice=st.booleans())
    def test_agrees_with_one_product_per_point(self, q, v, m, t_off, on_lattice):
        grid = LatticeGrid(QParams(q, v), -4, 10)
        t = q ** (2 * m) if on_lattice else t_off
        g = gauss_kernel(t, grid, CTX)
        assert gauss_recurrence_defect(g, grid.exponents) <= 4.0

    @settings(max_examples=20, deadline=None)
    @given(q=st.floats(0.1, 0.95),
           v=st.floats(-0.99, 3.0),
           t=st.floats(1e-3, 1e3),
           n_lo=st.integers(-40, -4))
    @example(q=0.1, v=0.5, t=1.0, n_lo=-40)  # |z| at n_lo: 1e80
    def test_deep_grids_agree_with_one_product_per_point(self, q, v, t, n_lo):
        # From n_lo = -40 the run's |z| passes 1e20 (at q <= 0.3 or so): the
        # kernel within 4 ulps and the e-profile within 1 ulp of one product
        # per point, 0.0 and subnormal values included.
        grid = LatticeGrid(QParams(q, v), n_lo, 4)
        g = gauss_kernel(t, grid, CTX)
        assert gauss_recurrence_defect(g, grid.exponents) <= 4.0
        assert max(map(ulps, g.eprofile.values, _direct_eprofile(t, grid))) <= 1.0

    def test_underflow_matches_one_product_per_point(self):
        # q = 0.3, t = 1e3 on [-40, 4]: |z| at n_lo passes 1e38, and both the
        # kernel and the e-profile fall through a subnormal value to 0.0.
        grid = LatticeGrid(QParams(0.3, 0.5), -40, 4)
        g = gauss_kernel(1e3, grid, CTX)
        with mp.workdps(CTX.work_digits + 10):
            q2, pref = q2_exact(0.3), heat._gauss_prefactor(1e3, grid)
            kernel = np.array([float(g.amp_mp * qexp_mp(-(pref * q2 ** int(n)), q2, CTX))
                               for n in grid.exponents])
        for got, want in ((g.fn.values, kernel), (g.eprofile.values, _direct_eprofile(1e3, grid))):
            low = want < sys.float_info.min
            assert 0 < np.count_nonzero(want[low]) < np.count_nonzero(low)
            assert np.array_equal(got[low], want[low])
            assert max(map(ulps, got, want)) <= 4.0

    @settings(max_examples=25, deadline=None)
    @given(q=st.floats(0.1, 0.95),
           v=st.floats(-1.0, 3.0, exclude_min=True),
           k=st.integers(-3, 3),
           below=st.integers(0, 3),
           above=st.integers(0, 3),
           t0=st.floats(0.05, 20.0))
    @example(q=0.8, v=0.5, k=2, below=3, above=1, t0=1.0)
    def test_family_member_within_one_ulp_of_direct_products(self, q, v, k, below, above, t0):
        # Member k of a family spanning k - below .. k + above: amplitude
        # q^{-2k(v+1)} A(t0) and slices of the two runs, against A(t) and one
        # product per point at the exact t = t0 q2^k.
        fam = gauss_family(t0, LatticeGrid(QParams(q, v), -4, 10), range(k - below, k + above + 1),
                           CTX)
        g, (kernel, prof) = fam.member(k), _direct_member(fam, k)
        assert max(map(ulps, g.fn.values, kernel)) <= 1.0
        assert max(map(ulps, g.eprofile.values, prof)) <= 1.0

    def test_float_q2_step_breaks_the_identity(self):
        # At q = 0.8, float(q*q) is not the exact square of q: a recurrence
        # stepping by it drifts ~150 ulps from the direct products.
        grid = LatticeGrid(QParams(0.8, 0.5), -20, 120)
        bad = _float_step_kernel(1.0, grid)
        assert gauss_recurrence_defect(bad, _spread(grid)) > 100.0
        good = gauss_kernel(1.0, grid, CTX)
        assert gauss_recurrence_defect(good, _spread(grid)) <= 4.0

    def test_float_q2_step_is_harmless_when_q2_is_exact(self, cell_half):
        bad = _float_step_kernel(1.0, cell_half.grid)
        assert gauss_recurrence_defect(bad, cell_half.grid.exponents) == 0.0

    def test_rejects_nonnegative_points(self):
        # z_n = -a q^{2n} must be negative: a > 0.
        for a in (-0.5, 0.0):
            with pytest.raises(ValueError):
                qexp_lattice_mp(a, q2_exact(0.5), 0, 1, CTX)

    @pytest.mark.parametrize("t_idx", [0, 1, 2, 3])
    def test_eprofile_within_one_ulp_of_one_product_per_point(self, t_idx):
        # q = 0.8: the e-profile, rounded once from the exact q^2, against
        # e(-t q^{2n}; q^2) by its own product at every grid point.  A
        # binary64 profile stepping by q*q was up to 137 ulps off here.
        grid = LatticeGrid(QParams(0.8, 0.5), -20, 120)
        t = heat_times(0.8)[t_idx]
        prof = gauss_kernel(t, grid, CTX).eprofile
        assert max(map(ulps, prof.values, _direct_eprofile(t, grid))) <= 1.0


def _count_gauss_work(monkeypatch) -> dict:
    """Record each amplitude's t and each integer run's (a, n_lo, n_hi) made
    through the heat module's bindings."""
    calls = {"amplitude": [], "run": []}
    amplitude, run = heat.gauss_amplitude_mp, heat.qexp_lattice_mp

    def counted_amplitude(t, *args):
        calls["amplitude"].append(float(t))
        return amplitude(t, *args)

    def counted_run(a, q2, n_lo, n_hi, *args):
        calls["run"].append((float(a), n_lo, n_hi))
        return run(a, q2, n_lo, n_hi, *args)

    monkeypatch.setattr(heat, "gauss_amplitude_mp", counted_amplitude)
    monkeypatch.setattr(heat, "qexp_lattice_mp", counted_run)
    return calls


class TestCellMemo:
    def test_one_build_per_distinct_time(self, monkeypatch):
        # Per default cell, two amplitudes, A(1) and A(2), and three integer
        # runs: the t0 = 1 family's kernel run, which k = -1..3 shifts by up to
        # three exponents down and one up, its e-profile run, shifted by one
        # down and three up, and the t = 2 kernel of heat-composition.
        calls = _count_gauss_work(monkeypatch)
        for cell in DEFAULT_CELLS:
            calls["amplitude"].clear()
            calls["run"].clear()
            assert run_cell(*cell, SuiteConfig(cells=(cell,), probes=10)).passed
            q, v, n_lo, n_hi = cell
            grid = LatticeGrid(QParams(q, v), n_lo, n_hi)
            with mp.workdps(CTX.work_digits + 10):
                pref = [float(heat._gauss_prefactor(t, grid)) for t in (1.0, 2.0)]
            assert sorted(calls["amplitude"]) == [1.0, 2.0], cell
            assert sorted(calls["run"]) == sorted([(pref[0], n_lo - 3, n_hi + 1),
                                                   (1.0, n_lo - 1, n_hi + 3),
                                                   (pref[1], n_lo, n_hi)]), cell

    def test_one_c_qv_and_one_decay_constant_per_cell(self, monkeypatch):
        # The cell's Bessel table evaluates c_{q,v} and C once each; the
        # transform, the trusted window, the kernel cutoff, the decay check,
        # the hypergroup band and the Gauss cross-check all read its values.
        import sys

        calls = {"c_qv_mp": [], "decay_bound_constant": []}
        originals = {"c_qv_mp": qseries.c_qv_mp,
                     "decay_bound_constant": bessel.decay_bound_constant}

        def counting(name):
            def wrapper(*args, **kwargs):
                calls[name].append(args)
                return originals[name](*args, **kwargs)
            return wrapper

        for modname, module in list(sys.modules.items()):
            if not modname.startswith("qfourier"):
                continue
            for name, original in originals.items():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name))
        cfg = SuiteConfig(cells=((0.5, 0.5, -10, 40),), probes=10)
        assert run_cell(0.5, 0.5, -10, 40, cfg).passed
        assert {name: len(c) for name, c in calls.items()} == {
            "c_qv_mp": 1, "decay_bound_constant": 1}

    def test_one_eprofile_per_distinct_time(self, monkeypatch):
        # Four times, each read by the float and hp cross-checks and three
        # spectral defects (t = 1 also by the Gauss multiplier): one e-profile
        # run, of which each time's profile is a slice.
        calls = _count_gauss_work(monkeypatch)
        runner = report._CellRunner(0.5, 0.5, -10, 40, SuiteConfig(probes=10))
        runner.run()
        fam = runner.gauss[0].family
        assert [c for c in calls["run"] if c[1:] == (-11, 43)] == [(1.0, -11, 43)]
        for k in (2, 1, 0, -1):
            g = runner.gauss[k]
            assert g.family is fam
            assert g.eprofile_run == fam.eprofile_run[k + 1:k + 1 + fam.grid.size]

    def test_one_heat_flow_per_member(self, monkeypatch):
        # The spectral and heat-equation rows share the flows P_t f of the
        # three heat probes: one product per member k = -1..3, where forming
        # them per row took twelve.
        runner = report._CellRunner(0.5, 0.5, -10, 40, SuiteConfig(probes=10))
        fs = np.array([f.values for f in runner.kprobes[:3]])
        flowed, original = [], translation.convolve_rows

        def counting(f, g, k):
            if np.array_equal(f, fs):
                flowed.append(next(m for m, h in runner.gauss.items() if h.fn.values is g))
            return original(f, g, k)

        monkeypatch.setattr(translation, "convolve_rows", counting)
        rows = dict(runner.check_heat())
        assert rows["heat-equation-residual"] < 1e-7
        assert sorted(flowed) == [-1, 0, 1, 2, 3]

    def test_gauss_kernel_builds_no_eprofile(self, monkeypatch):
        calls = _count_gauss_work(monkeypatch)
        g = gauss_kernel(1.0, LatticeGrid(QParams(0.5, 0.5), -10, 40), CTX)
        assert np.all(g.fn.values > 0.0)
        assert calls == {"amplitude": [1.0], "run": [(2.0, -10, 40)]}


class TestHeatFlow:
    def test_unit_fixed_point_on_window(self, cell_half):
        # P_t 1 = 1 on window rows: (1 * G)(x) = c int T_{q,x} 1 (y) G(y) dy.
        k, grid = cell_half.kern, cell_half.grid
        g = gauss_kernel(1.0, grid, CTX)
        w = grid.weights()
        one = GridFn(grid, np.ones(grid.size))
        units = [k.c * float((w * g.fn.values) @ translate(one, int(x), k).values)
                 for x in k.window_exponents]
        assert np.max(np.abs(np.asarray(units) - 1.0)) < 1e-8

    def test_positivity_preserved(self, cell_half, kprobes):
        k = cell_half.kern
        f = GridFn(k.grid, np.abs(kprobes[0].values))
        u = heat_apply(f, 1.0, k, CTX)
        assert np.min(u.values) >= -1e-12

    def test_spectral_diagonalization(self, cell_half, kprobes):
        k, fs = cell_half.kern, stack(cell_half.grid, kprobes[:3])
        gs = [gauss_kernel(t, cell_half.grid, CTX) for t in heat_times(cell_half.p.q)]
        worst = max(heat_spectral_defect(fs, convolve_rows(fs, g.fn.values, k), g, k,
                                         cell_half.window) for g in gs)
        assert worst < 1e-8

    def test_heat_equation_residual(self, cell_half, kprobes):
        fam = gauss_family(1.0, cell_half.grid, range(-1, 4), CTX)
        fs = stack(cell_half.grid, kprobes[:3])
        flows = {j: convolve_rows(fs, fam.member(j).fn.values, cell_half.kern) for j in fam.ks}
        worst = max(
            heat_residual(flows[j], flows[j + 1], fam.member(j), fam.member(j + 1),
                          cell_half.window)
            for j in (2, 1, 0, -1)
        )
        assert worst < 1e-7

    def test_residual_needs_the_member_below(self, cell_half, kprobes):
        # u at q^2 t is member k + 1 of g's own family: two steps down, or the
        # same time from another family, is refused.
        fam = gauss_family(1.0, cell_half.grid, range(3), CTX)
        g, other = fam.member(0), gauss_family(0.25, cell_half.grid, range(1), CTX).member(0)
        u = stack(cell_half.grid, kprobes[0])
        for below in (fam.member(2), other):
            with pytest.raises(ValueError, match="not the member one step below t=1.0"):
                heat_residual(u, u, g, below, cell_half.window)
        with pytest.raises(ValueError, match="not k=3"):
            fam.member(3)

    def test_mass_and_positivity_after_flow(self, cell_half):
        # Flowing the Gauss kernel keeps it positive and mass-normalized.
        k, grid = cell_half.kern, cell_half.grid
        s = 1.0
        g_s = gauss_kernel(s, grid, CTX)
        bump = seeded_probes(grid, k.window, 1, seed=5, nonneg=True)[0]
        u = heat_apply(bump, s, k, CTX, g=g_s)
        assert np.min(u.values) >= -1e-12 * np.max(u.values)
        assert abs(k.c * jackson_integral(u)
                   - k.c * jackson_integral(bump)) < 1e-8

    def test_kernel_for_another_time_is_refused(self, cell_half, kprobes):
        k, g = cell_half.kern, gauss_kernel(1.0, cell_half.grid, CTX)
        with pytest.raises(ValueError, match="t=1.0 given for heat flow at t=0.25"):
            heat_apply(kprobes[0], 0.25, k, CTX, g=g)
        assert np.array_equal(heat_apply(kprobes[0], 1.0, k, CTX, g=g).values,
                              heat_apply(kprobes[0], 1.0, k, CTX).values)


class TestHeatMarkov:
    def test_axioms_at_three_times(self, cell_half, kprobes):
        nn = seeded_probes(cell_half.grid, cell_half.kern.window, 4, seed=32,
                           nonneg=True)
        q = cell_half.p.q
        for t in (q**2, 1.0, q**-2):
            g = gauss_kernel(t, cell_half.grid, CTX)
            assert heat_markov_check(g, cell_half.kern) < 1e-8
            # The unit row, and the contraction, Jensen and sup bounds it implies.
            assert numerics.worst(*loop_markov_convolution(g.fn, cell_half.kern,
                                                           kprobes + nn)) < 1e-8

    def test_symmetry_specifically(self, cell_half, kprobes):
        from qfourier.lattice import inner, norm2

        k = cell_half.kern
        f, g = kprobes[0], kprobes[1]
        pf = heat_apply(f, 1.0, k, CTX)
        pg = heat_apply(g, 1.0, k, CTX)
        defect = abs(inner(pf, g) - inner(f, pg)) / (norm2(f) * norm2(g))
        assert defect < 1e-8

    def test_sup_norm_bound(self, cell_half, kprobes):
        from qfourier.lattice import sup_norm

        k = cell_half.kern
        for f in kprobes[:3]:
            u = heat_apply(f, 1.0, k, CTX)
            assert sup_norm(u) <= sup_norm(f) * (1 + 1e-9)


class TestScalarIdentity:
    def test_symbol_matches_pointwise(self, cell_half):
        # e(z,q^2) - e(q^2 z, q^2) = z e(z, q^2) spot-checked on the mp route.
        q2 = q2_exact(cell_half.p.q)
        with mp.workdps(CTX.work_digits + 10):
            for z in (-8.0, -1.0, -0.25):
                ez = qexp_mp(z, q2, CTX)
                lhs = ez - qexp_mp(q2 * z, q2, CTX)
                assert abs(lhs / (z * ez) - 1) <= mp.mpf(10) ** -45


class TestNaN:
    def test_residual_is_nan_not_zero(self, cell_half, kprobes):
        f = kprobes[1].copy()
        f.values[f.grid.index(int(cell_half.kern.window_exponents[-1]))] = math.nan
        fam = gauss_family(1.0, cell_half.grid, range(2), CTX)
        u_t, u_below = (convolve_rows(stack(f.grid, f), fam.member(j).fn.values, cell_half.kern)
                        for j in (0, 1))
        assert math.isnan(heat_residual(u_t, u_below, fam.member(0), fam.member(1),
                                        cell_half.window))


class TestComposition:
    def test_defect_is_finite_and_reported(self, cell_half, kprobes):
        g1, g2 = (gauss_kernel(t, cell_half.grid, CTX) for t in (1.0, 2.0))
        d = composition_defect(kprobes[0], g1, g1, g2, cell_half.kern)
        assert np.isfinite(d)
        assert d >= 0.0

    def test_kernel_for_another_sum_is_refused(self, cell_half, kprobes):
        g1 = gauss_kernel(1.0, cell_half.grid, CTX)
        with pytest.raises(ValueError, match="t=1.0 given for t \\+ s = 2.0"):
            composition_defect(kprobes[0], g1, g1, g1, cell_half.kern)
