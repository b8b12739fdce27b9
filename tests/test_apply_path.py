"""The float apply path: pinned outputs, and the checks it keeps.

``forward``, ``translate``, ``convolve`` and ``heat_apply`` on the q = 0.8,
v = 0.5, [-20, 120] cell, the markov-apply benchmark's, are pinned to the
bit (sha256 of the binary64 outputs) for six seeded probes, bumps and dense
ones alternating.  A change to the path's bookkeeping must leave them as
they are.  The path keeps every check: equal grids pass and other grids
raise, off-window arguments raise, and the window test gives the verdict
of the support rule it replaced.  A Gauss kernel keeps M G per operator,
which must never go stale.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qfourier.bessel import jv_table
from qfourier.errors import GridMismatch, OffWindow
from qfourier.heat import gauss_family, gauss_kernel, heat_apply
from qfourier.lattice import GridFn, LatticeGrid, delta_fn
from qfourier.probes import seeded_probes
from qfourier.qseries import PrecisionCtx, QParams
from qfourier.transform import build_transform, forward
from qfourier.translation import convolve, convolve_rows, kernel, translate

CTX = PrecisionCtx()
Q, V, N_LO, N_HI = 0.8, 0.5, -20, 120
SEED = 30
TIMES = (Q**4, Q**2, 1.0, Q**-2)


class ApplyCell:
    def __init__(self):
        self.grid = LatticeGrid(QParams(Q, V), N_LO, N_HI)
        self.table = jv_table(self.grid, CTX)
        self.op = build_transform(self.grid, self.table, CTX)
        self.kern = kernel(self.grid, self.table, CTX)
        self.rho = GridFn(self.grid, delta_fn(self.grid, 0).values / self.op.c)
        self.gauss = {t: gauss_kernel(t, self.grid, CTX) for t in TIMES}
        self.probes = seeded_probes(self.grid, self.kern.window, 6, SEED)


@pytest.fixture(scope="module")
def cell():
    return ApplyCell()


def _sha256(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(a.tobytes())
    return h.hexdigest()


# sha256 over the six probes in order (translate: every window x per probe;
# heat_apply: the four times per probe), taken before the window test, the
# grid checks and the Gauss transform were trimmed down to their mat-vecs.
_APPLY_SHA256 = {
    "forward":
        "3315fe2a3a7e926818aca85e6d76b93beda09a97e9c77f2e56212ed8b3683639",
    "translate":
        "7f05c29bdab53db3c52f8c0d3eafab02d37b2d4609c82cf2f6ff13ef7de5bc18",
    "convolve":
        "7c370206d0143d749695f095db7e822a6ae6165394b2aba8a435666dd50af474",
    "heat_apply":
        "c8f678391b979068fdbc7e18155d995d7a688f26ee37eef82f37b2164aa552c7",
}


def _outputs(cell, name):
    k = cell.kern
    for f in cell.probes:
        if name == "forward":
            yield forward(f, cell.op).values
        elif name == "translate":
            yield from (translate(f, int(x), k).values for x in k.window_exponents)
        elif name == "convolve":
            yield convolve(f, cell.rho, k).values
        else:
            yield from (heat_apply(f, t, k, CTX, g=cell.gauss[t]).values for t in TIMES)


@pytest.mark.parametrize("name", list(_APPLY_SHA256))
def test_apply_outputs_pinned(cell, name):
    assert _sha256(_outputs(cell, name)) == _APPLY_SHA256[name]


def test_probes_are_bumps_and_dense(cell):
    nonzero = [int(np.count_nonzero(f.values)) for f in cell.probes]
    assert max(nonzero[0::2]) <= 3 and min(nonzero[1::2]) > 3


def _applies(cell, f, g):
    """Each apply of the path on f: forward, translate at the window's first x,
    convolve with g, and the heat flow at t = 1."""
    k = cell.kern
    return [forward(f, cell.op), translate(f, k.window_lo, k), convolve(f, g, k),
            heat_apply(f, 1.0, k, CTX, g=cell.gauss[1.0])]


class TestGridChecks:
    def test_equal_but_distinct_grids_are_accepted(self, cell):
        twin = LatticeGrid(QParams(Q, V), N_LO, N_HI)
        assert twin is not cell.grid and twin == cell.grid
        f = cell.probes[1]
        got = _applies(cell, GridFn(twin, f.values), GridFn(twin, cell.rho.values))
        for a, b in zip(got, _applies(cell, f, cell.rho)):
            assert np.array_equal(a.values, b.values)

    def test_other_grid_raises(self, cell):
        # Same size, other q: only the grid check tells them apart.
        other = LatticeGrid(QParams(0.7, V), N_LO, N_HI)
        f, k = cell.probes[1], cell.kern
        alien = GridFn(other, f.values)
        with pytest.raises(GridMismatch):
            forward(alien, cell.op)
        with pytest.raises(GridMismatch):
            translate(alien, k.window_lo, k)
        with pytest.raises(GridMismatch):
            convolve(alien, GridFn(other, cell.rho.values), k)
        with pytest.raises(GridMismatch):
            convolve(f, GridFn(other, cell.rho.values), k)
        with pytest.raises(GridMismatch):
            heat_apply(alien, 1.0, k, CTX, g=cell.gauss[1.0])
        with pytest.raises(GridMismatch):
            heat_apply(f, 1.0, k, CTX, g=gauss_kernel(1.0, other, CTX))


class TestWindowChecks:
    def test_off_window_x_raises(self, cell):
        k = cell.kern
        for x in (k.window_lo - 1, k.window_hi + 1):
            with pytest.raises(OffWindow):
                translate(cell.probes[1], x, k)

    def test_two_off_window_factors_raise(self, cell):
        k, grid = cell.kern, cell.grid
        wide = GridFn(grid, np.ones(grid.size))
        with pytest.raises(OffWindow):
            convolve(wide, wide, k)
        with pytest.raises(OffWindow):
            heat_apply(wide, 1.0, k, CTX, g=cell.gauss[1.0])
        stack = np.array([cell.probes[1].values, wide.values])
        with pytest.raises(OffWindow):
            convolve_rows(stack, wide.values, k)
        with pytest.raises(OffWindow):
            convolve_rows(stack, np.array([cell.probes[0].values, wide.values]), k)
        # One window-supported factor in each pair is enough.
        convolve(wide, cell.probes[1], k)
        convolve_rows(stack, stack[::-1], k)

    @settings(max_examples=200, deadline=None)
    @given(rows=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.just(N_HI - N_LO + 1)),
                           elements=st.sampled_from([0.0, -0.0, math.nan, math.inf, -math.inf,
                                                     5e-324, -5e-324, 2.2250738585072014e-308,
                                                     1.0, -3.5]),
                           fill=st.sampled_from([0.0, -0.0])))
    def test_window_test_is_the_support_rule(self, cell, rows):
        """off_window against the rule it replaced: the exponents where a value is
        != 0 (NaN included, -0.0 not) lie outside [window_lo, window_hi]."""
        k, exps = cell.kern, cell.grid.exponents

        def support_rule(values):
            supp = exps[values != 0.0]
            return bool(supp.size and (supp.min() < k.window_lo or supp.max() > k.window_hi))

        expected = [support_rule(r) for r in rows]
        assert list(k.off_window(rows)) == expected
        assert [k.off_window(r) for r in rows] == expected
        assert [k.off_window(GridFn(cell.grid, r).values) for r in rows] == expected


class TestGaussMemo:
    def test_kernel_values_are_read_only(self, cell):
        fam = gauss_family(1.0, cell.grid, range(-1, 2), CTX)
        for g in [cell.gauss[1.0]] + [fam.member(k) for k in fam.ks]:
            with pytest.raises(ValueError):
                g.fn.values[0] = 1.0
            with pytest.raises(ValueError):
                g.transformed(cell.op)[0] = 1.0

    def test_an_operator_copy_gets_a_fresh_transform(self, cell):
        g = gauss_kernel(Q**2, cell.grid, CTX)
        hat = g.transformed(cell.op)
        assert g.transformed(cell.op) is hat
        twin = dataclasses.replace(cell.op)
        twin.matrix = 2.0 * cell.op.matrix
        assert np.array_equal(g.transformed(twin), twin.matrix @ g.fn.values)
        assert np.array_equal(g.transformed(cell.op), hat)

    def test_a_kernel_copy_gets_a_fresh_transform(self, cell):
        g = gauss_kernel(Q**2, cell.grid, CTX)
        g.transformed(cell.op)
        # As tests/test_fault_catalogue.py plants a faulted member.
        moved = dataclasses.replace(g, fn=GridFn(cell.grid, np.roll(g.fn.values, 1)))
        assert np.array_equal(moved.transformed(cell.op), cell.op.matrix @ moved.fn.values)
        assert not np.array_equal(moved.transformed(cell.op), g.transformed(cell.op))

    def test_memoized_flow_is_the_uncached_product(self, cell):
        m, k = cell.op.matrix, cell.kern
        for t, g in cell.gauss.items():
            for f in cell.probes:
                uncached = m @ ((m @ g.fn.values) * (m @ f.values))
                for _ in range(2):
                    assert np.array_equal(heat_apply(f, t, k, CTX, g=g).values, uncached)
