"""A fault x row matrix: planted faults against the gated rows of two default cells.

Each fault below breaks one layer the way a plausible bug would: a q-product
or a series step, one j_v table entry, c_{q,v}, q^2, a Jackson weight, a
column of the transform matrix M or its weight, a window-cube entry, a Gauss
kernel value, amplitude or slice, an e-profile value, a delta, the
q-difference operator, a translation or a convolution.  For each fault and
cell the matrix pins what ``run_cell`` does: the exact set of gated rows that
fail, or the refusal it raises (mutation analysis: DeMillo, Lipton & Sayward,
"Hints on test data selection", IEEE Computer 11(4), 1978).

It is the evidence for deleting rows.  Twenty-three gated rows left the
registry on it; the faults that once broke what they read stay here, each failing a
kept row:

* ``kernel-symmetry`` compared the cube's symmetrizing gather with itself,
  ``multiplier-bump-coefficients`` compared ``table.row`` with
  ``table.value``, ``qexp-ode-identity`` read exactly 0 since the product
  loop from q^2 z is the loop from z less its first factor, and
  ``convolution-product-formula`` measured M^2 = I;
* ``jackson-linearity`` and ``cauchy-schwarz`` hold for any finite positive
  weights, ``transform-sup-bound`` (the triangle inequality) and
  ``transform-decay-at-infinity`` for any table, and ``basis-completeness``
  was ``transform-inversion`` summed in another order.  Their catches were
  the M-column and column-weight faults (``transform-matrix-structure``
  fails both) and the ``psi_norm_sq`` fault (``orthogonality-diagonal``);
* the three ``markov-*-symmetry`` rows read <Tf, g> - <f, Tg>, which is
  rounding for any table, since the Jackson weight times M is symmetric
  whatever M's entries (``test_translation``'s garbled-table test); the
  weight and M faults they saw fail ``transform-matrix-structure``,
  ``translation-delta`` or ``convolution-commutativity`` at a smaller size;
* ``qpoch-splitting`` and ``qexp-series-agreement`` read the products that
  ``qpoch-euler-series`` reads, and it failed every product fault at their
  size or smaller (its rungs are pinned at the end of this file);
* the nine ``markov-*-{contraction,jensen,sup}`` rows read theorems of the
  kept ``kernel-positivity`` and unit rows, on probes; on the ladder none was
  ever the first row alone to catch a fault, and the translation and
  convolution faults they saw fail ``translation-delta`` or
  ``convolution-commutativity`` (``markov_ref`` keeps them as tests).

Every fault fails a gated row or raises a refusal on each cell it applies
to.  A gated row that no fault fails is listed in ``UNCAUGHT`` with its
ROADMAP item; the list may not grow.

A 1e-10 fault in c, in the Jackson weight at q^0 or in the bump's delta, a
1e-9 fault in the Gauss amplitude or a one-step mis-slice of the t = 1 Gauss
run makes a density the report builds miss unit mass by more than 1e-10: the
rows that read it read NaN and fail, before ``gauss-mass`` (1e-8) would.  Refusals
pinned here (exit 3, not a failed gate): a c fault of 1e-9 or a 1e-8 fault
in j_v(1) moves the kernel's row sums past the 1e-9 calibration, and the
window collapses into GridTooSmall: a wrong table or constant refused as a
grid too small.  At q = 0.8, float(q*q) in place of the exact square leaves
the j_v table uncertified: PrecisionExhausted.
"""

import dataclasses
import functools
import itertools
import sys
from functools import cached_property

import mpmath as mp
import numpy as np
import pytest

from qfourier import bessel, heat, lattice, qseries, report, transform, translation
from qfourier.errors import GridTooSmall, PrecisionExhausted, QFourierError
from qfourier.lattice import GridFn
from qfourier.report import SuiteConfig, run_cell

CELLS = [(0.5, 0.5, -10, 40), (0.8, 0.5, -20, 120)]     # two of the default cells
CFG = SuiteConfig()


# ---------------- planting ----------------

def everywhere(module, name, wrap):
    """Plant: ``module.name`` replaced by ``wrap`` of it in every qfourier module
    that binds it, so that a fault in a function body reaches every caller."""
    def plant(m):
        orig = getattr(module, name)
        new = wrap(orig)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("qfourier") and \
                    vars(mod).get(name) is orig:
                m.setattr(mod, name, new)
    return plant


def attribute(owner, name, wrap):
    """Plant: ``owner.name`` (a module function or a class attribute) replaced by
    ``wrap`` of it."""
    return lambda m: m.setattr(owner, name, wrap(getattr(owner, name)))


def cached(cls, name, post):
    """Plant: the cached property ``cls.name`` passed through ``post(obj, value)``."""
    def plant(m):
        func = vars(cls)[name].func
        prop = cached_property(lambda obj: post(obj, func(obj)))
        prop.__set_name__(cls, name)
        m.setattr(cls, name, prop)
    return plant


def in_check(method, plant):
    """Plant ``plant`` only while the runner's check ``method`` runs."""
    def planted(m):
        check = getattr(report._CellRunner, method)

        def faulted(self):
            with pytest.MonkeyPatch.context() as inner:
                plant(inner)
                yield from check(self)

        m.setattr(report._CellRunner, method, faulted)
    return planted


def at_exponent(grid, values, n, eps):
    """A copy of a grid vector with its value at q^n times 1 + eps."""
    out = np.array(values, dtype=float)
    out[grid.index(n)] *= 1 + eps
    return out


def mp_scaled(eps):
    """An mp-valued function times 1 + eps."""
    return lambda f: lambda *args: f(*args) * (1 + mp.mpf(eps))


# ---------------- faults ----------------

def table_entry(n, eps):
    """j_v(q^n) times 1 + eps in the table, mp value and binary64 value alike."""
    def wrap(jv_table):
        def faulted(grid, *args):
            t = jv_table(grid, *args)
            mpv = list(t.mp_values)
            with mp.workdps(200):
                mpv[t.index(n)] *= 1 + mp.mpf(eps)
            values = t.values.copy()
            values[t.index(n)] = float(mpv[t.index(n)])
            return dataclasses.replace(t, values=values, mp_values=mpv)
        return faulted
    return everywhere(bessel, "jv_table", wrap)


def float_q2(q2_exact):
    """float(q*q) for the exact square of the binary64 q."""
    return lambda q: mp.mpf(float(q * q))


def jackson_weight(n, eps):
    """The Jackson weight at q^n times 1 + eps, on every grid."""
    return attribute(lattice.LatticeGrid, "weights",
                     lambda weights: lambda g: at_exponent(g, weights(g), n, eps))


def m_column(n, eps):
    """Column q^n of the transform matrix times 1 + eps."""
    def post(op, matrix):
        out = matrix.copy()
        out[:, op.grid.index(n)] *= 1 + eps
        return out
    return cached(transform.TransformOp, "matrix", post)


def series_input(i, eps):
    """Input i of every ratio_sum_mp series, (x, r, d, a)[i], times 1 + eps."""
    def wrap(ratio_sum_mp):
        def faulted(inputs, *args):
            def moved():
                values = list(inputs())
                values[i] *= 1 + mp.mpf(eps)
                return values
            return ratio_sum_mp(moved, *args)
        return faulted
    return everywhere(qseries, "ratio_sum_mp", wrap)


def asymmetric_cube(window_cube):
    """One off-diagonal cube entry moved by 1e-6 of the cube's max, after the gather."""
    def faulted(op, wexps):
        cube = window_cube(op, wexps)
        cube[0, 1, 2] += 1e-6 * np.max(np.abs(cube))
        return cube
    return faulted


def lowered_minimum(window_cube):
    """The cube's smallest entry, in all its argument orders, less 1e-9 of the max."""
    def faulted(op, wexps):
        cube = window_cube(op, wexps)
        shift = 1e-9 * np.max(np.abs(cube))
        for idx in set(itertools.permutations(np.unravel_index(np.argmin(cube), cube.shape))):
            cube[idx] -= shift
        return cube
    return faulted


def shifted_coeffs(multiplier_coeffs):
    """Multiplier coefficients moved one window exponent along."""
    def faulted(rho, k):
        ns, coeffs = multiplier_coeffs(rho, k)
        return ns, np.roll(coeffs, 1)
    return faulted


def late_product(qpoch_inf_mp):
    """(a q; q)_inf for (a; q)_inf: the loop starts one factor late."""
    return lambda a, q, *ctx: qpoch_inf_mp(mp.mpf(a) * q, q, *ctx)


def kernel_slice_off_by_one(member):
    """Member ``member``'s kernel from the family's kernel run one exponent along
    (a family whose run ends there, as the one-member t = 2 family's does, has
    no run to slide along)."""
    def wrap(member_of):
        def faulted(fam, k):
            g = member_of(fam, k)
            start = fam.ks[-1] - k + 1
            if k != member or start + fam.grid.size > len(fam.run):
                return g
            run = fam.run[start:start + fam.grid.size]
            return dataclasses.replace(
                g, run=run, fn=GridFn(fam.grid, heat._binary64(g.amp_mp._mpf_, run)))
        return faulted
    return attribute(heat.GaussFamily, "member", wrap)


def eprofile_slice_off_by_one(member):
    """Member ``member``'s e-profile from the family's e-profile run one exponent along."""
    def faulted(g):
        start = g.k - g.family.ks[0] + (g.k == member)
        return g.family.eprofile_run[start:start + g.grid.size]
    return attribute(heat.GaussKernel, "eprofile_run", lambda _: property(faulted))


def gauss_value(n, eps):
    """G(q^n, t) times 1 + eps, for every member of the family."""
    def wrap(member_of):
        def faulted(fam, k):
            g = member_of(fam, k)
            return dataclasses.replace(g, fn=GridFn(g.grid, at_exponent(g.grid, g.fn.values,
                                                                         n, eps)))
        return faulted
    return attribute(heat.GaussFamily, "member", wrap)


def deltas(eps, bump):
    """The delta at q^0 (``bump``) or every other delta, times 1 + eps."""
    def wrap(delta_fn):
        def faulted(grid, x):
            d = delta_fn(grid, x)
            return GridFn(grid, d.values * (1 + eps)) if (x == 0) == bump else d
        return faulted
    return everywhere(lattice, "delta_fn", wrap)


def translate_by_m(f, x_exps, k):
    """T_{q,x} f with its last product by M, not M^T."""
    for x in np.atleast_1d(x_exps):
        k.windex(int(x))
    m = k.op.matrix
    return ((f @ m.T) * transform.hankel_rows(k.op, x_exps)) @ m


def convolve_by_m(f, g, k):
    """f *_q g with its last product by M, not M^T."""
    m = k.op.matrix
    return ((f @ m.T) * (g @ m.T)) @ m


def scaled_rows(apply_rows):
    """An apply on stacks, times 1 + 1e-6."""
    return lambda *args: apply_rows(*args) * (1 + 1e-6)


def scaled_q_difference(q_bessel_rows):
    """The q-difference operator times 1 + 1e-8."""
    def faulted(values, grid):
        inner, out = q_bessel_rows(values, grid)
        return inner, out * (1 + 1e-8)
    return faulted


def both(want):
    """The same outcome on both cells."""
    return want, want


QPOCH_ROWS = {"qpoch-euler-series"}
GAUSS_ROUTES = {"gauss-transform-consistency", "gauss-transform-consistency-hp"}
M_ROWS = {"gauss-transform-consistency", "transform-matrix-structure", "translation-delta"}
# The rows that read the report's own densities, NaN when one is refused.
BUMP_DENSITY = {"markov-bump-unit"}
GAUSS_DENSITY = {"markov-heat-unit", "multiplier-gauss-coefficients"}
TABLE_Q05 = {"bessel-eigen-relation", "bessel-oracle-agreement", "bessel-table-reproducibility"}
EIGEN = {"bessel-eigen-relation"}

# name -> (plant, outcome on the q=0.5 cell, outcome on the q=0.8 cell).  An
# outcome is the set of gated rows that fail, the refusal raised, or
# None where the fault is none on that cell (q*q is exact at q = 1/2).  The
# faults planted ``in_check`` are live only in that check: planted for the
# whole cell, each leaves the j_v table uncertified (its anchors read the same
# products and series), and the cell is refused before any row is gated.
FAULTS = {
    # -- q-series: products, Euler's and Jacobi's series --
    "qexp-ode-identity/late": (
        in_check("check_qseries", everywhere(qseries, "qpoch_inf_mp", late_product)),
        QPOCH_ROWS, QPOCH_ROWS),
    "qexp-ode-identity/scaled": (
        in_check("check_qseries", everywhere(qseries, "qpoch_inf_mp", mp_scaled(1e-11))),
        QPOCH_ROWS, QPOCH_ROWS),
    "qpoch/scaled-everywhere": (
        everywhere(qseries, "qpoch_inf_mp", mp_scaled(1e-11)),
        QPOCH_ROWS | {"gauss-lattice-recurrence"}, QPOCH_ROWS | {"gauss-lattice-recurrence"}),
    "series/euler-denominator": (
        in_check("check_qseries", series_input(2, 1e-11)), QPOCH_ROWS, QPOCH_ROWS),
    "series/term-ratio": (
        in_check("check_qseries", series_input(1, 1e-8)),
        QPOCH_ROWS | {"gauss-amplitude-lattice-scaling"},
        QPOCH_ROWS | {"gauss-amplitude-lattice-scaling"}),
    "q2/float-everywhere": (
        everywhere(qseries, "q2_exact", float_q2), None, PrecisionExhausted),
    "q2/float-in-heat": (
        attribute(heat, "q2_exact", float_q2), None, {"gauss-lattice-recurrence"}),
    "c/1e-10": (everywhere(qseries, "c_qv_mp", mp_scaled(1e-10)), *both(GAUSS_DENSITY)),
    "c/1e-9": (everywhere(qseries, "c_qv_mp", mp_scaled(1e-9)), GridTooSmall, GridTooSmall),
    # -- the j_v table --
    "table/mid": (
        table_entry(5, 1e-10), TABLE_Q05 | {"gauss-transform-consistency-hp"},
        EIGEN | GAUSS_ROUTES | {"kernel-transform-projection", "multiplier-gauss-coefficients"}),
    "table/top": (
        table_entry(30, 1e-10), TABLE_Q05,
        {"bessel-eigen-relation", "bessel-table-reproducibility"}),
    "table/deep": (
        table_entry(-8, 1e-4), EIGEN | {"bessel-oracle-agreement"},
        EIGEN | GAUSS_ROUTES | {"multiplier-gauss-coefficients", "markov-bump-unit",
                                "markov-heat-unit", "markov-translation-unit"}),
    "table/deep-x10": (
        table_entry(-18, 9.0),
        EIGEN | {"bessel-decay-bound", "bessel-table-reproducibility"}, EIGEN),
    "table/q^-12": (table_entry(-12, 1e-4), *both(EIGEN)),
    "table/q^-16": (table_entry(-16, 1e-8), *both(EIGEN)),
    "table/q^0": (table_entry(0, 1e-8), GridTooSmall, GridTooSmall),
    # -- lattice weights and deltas --
    "weight/q^-5": (
        jackson_weight(-5, 1e-8),
        {"convolution-commutativity", "orthogonality-diagonal", "transform-plancherel"},
        {"convolution-commutativity", "orthogonality-diagonal", "orthogonality-offdiag",
         "transform-plancherel"}),
    "weight/q^0": (jackson_weight(0, 1e-10), *both(BUMP_DENSITY)),
    "delta/others": (
        deltas(1e-10, bump=False), {"delta-reproduction", "translation-delta"},
        {"delta-reproduction", "translation-delta"}),
    "delta/bump": (deltas(1e-10, bump=True), *both(BUMP_DENSITY | {"translation-delta"})),
    # -- the transform matrix and the basis norms --
    "M/column": (
        m_column(5, 1e-8), M_ROWS | {"transform-inversion"},
        M_ROWS | {"transform-inversion", "transform-plancherel", "kernel-transform-projection"}),
    "M/column-weight": (
        cached(transform.TransformOp, "col_weights",
               lambda op, w: at_exponent(op.grid, w, 0, 1e-10)),
        M_ROWS, M_ROWS),
    "psi-norm": (
        everywhere(transform, "psi_norm_sq", lambda f: lambda *args: f(*args) * (1 + 1e-8)),
        {"orthogonality-diagonal", "hypergroup-window-growth"}, {"orthogonality-diagonal"}),
    "q-difference": (
        everywhere(transform, "q_bessel_rows", scaled_q_difference),
        {"delta-multiplier"}, {"delta-multiplier"}),
    # -- the kernel, translation and convolution --
    "kernel-symmetry": (
        attribute(translation, "_window_cube", asymmetric_cube),
        {"convolution-commutativity", "hypergroup-expansion"},
        {"convolution-commutativity", "hypergroup-expansion"}),
    "cube/minimum": (
        attribute(translation, "_window_cube", lowered_minimum),
        {"convolution-commutativity", "kernel-positivity", "hypergroup-window-growth"},
        {"convolution-commutativity", "kernel-positivity"}),
    "translation/scaled": (
        attribute(translation, "translate_rows", scaled_rows),
        *both({"kernel-transform-projection", "translation-delta",
               "translation-eigenfunctions"})),
    "translation/transposed": (
        lambda m: m.setattr(translation, "translate_rows", translate_by_m),
        *both({"kernel-transform-projection", "translation-delta",
               "translation-eigenfunctions"})),
    "convolution-product-formula": (
        attribute(translation, "convolve_rows", scaled_rows),
        *both({"convolution-commutativity", "heat-spectral-diagonalization",
               "multiplier-diagonal-action"})),
    "convolution/transposed": (
        lambda m: m.setattr(translation, "convolve_rows", convolve_by_m),
        *both({"convolution-commutativity", "heat-equation-residual",
               "heat-spectral-diagonalization", "multiplier-diagonal-action"})),
    "multiplier-bump-coefficients": (
        attribute(translation, "multiplier_coeffs", shifted_coeffs),
        {"multiplier-gauss-coefficients"}, {"multiplier-gauss-coefficients"}),
    # -- the Gauss family --
    "gauss/value": (
        gauss_value(15, 1e-9), {"gauss-lattice-recurrence"},
        {"gauss-lattice-recurrence", "multiplier-gauss-coefficients"}),
    "gauss/amplitude": (
        everywhere(qseries, "gauss_amplitude_mp", mp_scaled(1e-9)),
        *both(GAUSS_DENSITY | {"gauss-amplitude-lattice-scaling"})),
    "gauss-family/kernel-slice": (
        kernel_slice_off_by_one(1),
        *both(GAUSS_ROUTES | {"gauss-mass", "heat-spectral-diagonalization",
                              "heat-equation-residual"})),
    "gauss-family/kernel-slice-t1": (
        kernel_slice_off_by_one(0),
        *both(GAUSS_DENSITY | GAUSS_ROUTES | {"gauss-lattice-recurrence", "gauss-mass",
                                              "heat-equation-residual",
                                              "heat-spectral-diagonalization"})),
    "gauss-family/eprofile-slice": (
        eprofile_slice_off_by_one(1), *both(GAUSS_ROUTES | {"heat-spectral-diagonalization"})),
    "eprofile/value": (
        cached(heat.GaussKernel, "eprofile",
               lambda g, e: GridFn(g.grid, at_exponent(g.grid, e.values, 3, 1e-7))),
        *both({"gauss-transform-consistency", "heat-spectral-diagonalization",
               "multiplier-gauss-coefficients"})),
}

# Gated rows that no fault above fails, with the ROADMAP item that decides them.
UNCAUGHT: dict[str, int] = {}


@functools.cache
def outcome(fault: str, cell: tuple):
    """The failing gated rows of ``cell`` with ``fault`` planted, or the refusal's type."""
    with pytest.MonkeyPatch.context() as m:
        FAULTS[fault][0](m)
        try:
            rep = run_cell(*cell, CFG)
        except QFourierError as exc:
            return type(exc)
    return frozenset(r.name for r in rep.identities if r.gated and not r.passed)


def _cases():
    for name, (_, *expected) in FAULTS.items():
        for i, (cell, want) in enumerate(zip(CELLS, expected)):
            if want is None:
                continue
            yield pytest.param(name, cell, want, id=f"{name}-cell{i}")


@pytest.mark.parametrize("cell", CELLS)
def test_clean_cell_passes(cell):
    rep = run_cell(*cell, CFG)
    assert rep.passed, [r.name for r in rep.identities if not r.passed]


@pytest.mark.parametrize("fault, cell, want", list(_cases()))
def test_planted_fault_fails_kept_rows(fault, cell, want):
    got = outcome(fault, cell)
    if isinstance(want, type):
        assert got is want
    else:
        assert isinstance(got, frozenset), f"raised {got.__name__}"
        assert got == want, f"missed by {sorted(want - got)}, also failed {sorted(got - want)}"


def test_every_gated_row_catches_a_fault():
    gated = {r.name for cell in CELLS for r in run_cell(*cell, CFG).identities if r.gated}
    caught = set().union(*(outcome(name, cell) for name, (_, *expected) in FAULTS.items()
                           for cell, want in zip(CELLS, expected)
                           if isinstance(want, set)))
    assert gated - caught == set(UNCAUGHT)
    assert all(want for _, *expected in FAULTS.values() for want in expected
               if isinstance(want, set)), "a pinned fault passes every gate"


# ---------------- the q-product ladder ----------------

LADDER = [10.0 ** -k for k in range(15, 7, -1)]         # 1e-15 .. 1e-8
# fault -> (plant at eps, the smallest eps at which qpoch-euler-series fails on
# each cell).  Each patches every qfourier module, so the cell's runner (table,
# kernel, Gauss family) is built before any fault is planted.
QPOCH_RUNGS = {
    "product": (lambda eps: everywhere(qseries, "qpoch_inf_mp", mp_scaled(eps)), 1e-11, 1e-11),
    "euler-denominator": (lambda eps: series_input(2, eps), 1e-13, 1e-14),
    "term-ratio": (lambda eps: series_input(1, eps), 1e-13, 1e-13),
    "x": (lambda eps: series_input(0, eps), 1e-13, 1e-13),
}


@functools.cache
def runner(cell: tuple) -> report._CellRunner:
    return report._CellRunner(*cell, CFG)


@pytest.mark.parametrize("fault, cell, rung", [
    pytest.param(name, cell, rung, id=f"{name}-cell{i}")
    for name, (_, *rungs) in QPOCH_RUNGS.items()
    for i, (cell, rung) in enumerate(zip(CELLS, rungs))])
def test_qpoch_row_rung(fault, cell, rung):
    # The one q-product row reads all seven products against Euler's series:
    # it fails from its rung up, and passes below it.
    tol = report.IDENTITIES["qpoch-euler-series"][1]

    r = runner(cell)

    def fails(eps):
        with pytest.MonkeyPatch.context() as m:
            QPOCH_RUNGS[fault][0](eps)(m)
            return not dict(r.check_qseries())["qpoch-euler-series"] <= tol

    assert [fails(eps) for eps in LADDER] == [eps >= rung for eps in LADDER]
