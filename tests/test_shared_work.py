"""Routes that share work across a check cell against copies of the routes
that repeated it, and counts of the work they do.

Each ``_old_*`` function below is the earlier or plainer route, kept here
as the reference: the eigen relation in mpf arithmetic (for the raw libmp
loop), Euler's, theta and j_v steps that always divide by both factors, one
series chain per anchor, and probes filled one exponent at a time.  The
routes must reproduce them to the bit on the default cells, the twelve
README scan grids and q = 0.9, v = 0 on [-30, 300].  The counting tests fail
if the repeated work comes back.
"""

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import dps_to_prec, from_man_exp

from qfourier import bessel, probes
from qfourier.bessel import BesselTable, jv_table
from qfourier.lattice import GridFn, LatticeGrid
from qfourier.numerics import to_fixed
from qfourier.qseries import PrecisionCtx, QParams, q2_exact, ratio_sum_mp
from qfourier.report import DEFAULT_CELLS
from qfourier.translation import default_scan_grid

CTX = PrecisionCtx()

GRIDS = ([LatticeGrid(QParams(q, v), lo, hi) for q, v, lo, hi in DEFAULT_CELLS]
         + [default_scan_grid(QParams(q, v)) for q in (0.3, 0.5, 0.7, 0.9)
            for v in (-0.7, 0.0, 0.5)]
         + [LatticeGrid(QParams(0.9, 0.0), -30, 300)])
IDS = [f"q{g.params.q:g}-v{g.params.v:g}-[{g.n_lo},{g.n_hi}]" for g in GRIDS]


@pytest.fixture(scope="module")
def tables() -> dict:
    return {grid: jv_table(grid, CTX) for grid in GRIDS}


# ---------------- the earlier routes ----------------

def _old_eigen_residual(table: BesselTable) -> float:
    """The relative residual in mpf arithmetic, one expression per entry; the
    ratio rounded to 53 bits, as the raw loop's division is."""
    p = table.params
    with mp.workdps(max(table.ctx.work_digits, bessel._CERTIFY_DIGITS) + 10):
        q2, q2v = q2_exact(p.q), mp.mpf(p.q) ** (2 * mp.mpf(p.v))
        u, res, j = q2 ** (table.n_min + 1), 0.0, table.mp_values
        for lo, mid, hi in zip(j, j[1:], j[2:]):
            top, middle = q2v * hi, (1 + q2v - u) * mid
            total, size = top - middle + lo, abs(top) + abs(middle) + abs(lo)
            with mp.workprec(53):
                res = max(res, float(abs(total) / size))
            u *= q2
        return res


def _old_ratio_sum(inputs, digits: int, guard: int = 32) -> mp.mpf:
    """The evaluator with the full step, dividing by both factors every time."""
    prec = dps_to_prec(digits)
    while True:
        w = prec + guard
        with mp.workprec(w):
            g, r, d, a = (to_fixed(mp.mpf(y), w) for y in inputs())
        one = 1 << w
        t = total = mass = one
        u, n = d, 0
        while t > 1 or t < -1:
            t = (t * g << w) // ((one - (a * u >> w)) * (one - u))
            u = u * d >> w
            g = g * r >> w
            n += 1
            total += t
            mass += abs(t)
        need = mass.bit_length() - abs(total).bit_length() + (2 * n).bit_length() + 8
        if need <= guard:
            return mp.make_mpf(from_man_exp(total, -w))
        guard = need


def _old_anchor_series(table: BesselTable) -> list:
    """The series at every anchor, each summed on its own chain, in exponent order."""
    lo, hi, p = table.n_min, table.n_max, table.params
    anchors = {*range(lo, lo + 4), *(lo + k * (hi - lo) // 4 for k in (1, 2, 3)), hi - 1}
    return [float(bessel._series(lambda: q2_exact(p.q) ** e, -e, p, bessel._JV_DIGITS,
                                 f"j_v at q^{e}"))
            for e in sorted(anchors) if lo <= e < hi]


def _old_bump(grid, window, rng):
    lo, hi = window
    width = min(int(rng.integers(1, 4)), hi - lo + 1)
    start = rng.integers(lo, hi - width + 2)
    vals = np.zeros(grid.size)
    for k in range(width):
        vals[grid.index(int(start + k))] = rng.uniform(0.2, 1.0)
    return GridFn(grid, vals / np.sqrt(grid.weights() @ vals**2))


def _old_dense(grid, window, rng):
    lo, hi = window
    center = rng.uniform(lo + 1, hi - 1) if hi - lo > 2 else 0.5 * (lo + hi)
    spread = rng.uniform(1.0, max(1.5, (hi - lo) / 3.0))
    vals = np.zeros(grid.size)
    for n in range(lo, hi + 1):
        vals[grid.index(n)] = np.exp(-((n - center) / spread) ** 2) * rng.normal()
    nrm = np.sqrt(grid.weights() @ vals**2)
    if nrm == 0.0:
        vals[grid.index(int(round(center)))] = 1.0
        nrm = np.sqrt(grid.weights() @ vals**2)
    return GridFn(grid, vals / nrm)


def _old_probes(grid, window, count, seed, nonneg=False):
    rng = np.random.default_rng(seed)
    return [_old_bump(grid, window, rng) if nonneg or k % 2 == 0
            else _old_dense(grid, window, rng) for k in range(count)]


# ---------------- equality ----------------

@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_eigen_residual_equals_the_mpf_loop(tables, grid):
    table = tables[grid]
    assert bessel.eigen_residual(table) == _old_eigen_residual(table)


@pytest.mark.parametrize("grid", GRIDS, ids=IDS)
def test_shared_chain_anchors_equal_separate_sums(tables, grid, monkeypatch):
    seen = []
    ulps = bessel.ulps

    def recording(a, b):
        seen.append(b)
        return ulps(a, b)

    monkeypatch.setattr(bessel, "ulps", recording)
    assert bessel.anchor_ulps(tables[grid]) == 0.0
    assert seen == _old_anchor_series(tables[grid])


_DIGITS = st.sampled_from([16, 26, 60])
_RATIO = st.floats(0.05, 0.9)


@given(x=st.floats(-20.0, 20.0), r=_RATIO, d=st.floats(0.0, 0.95), digits=_DIGITS)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_shortcut_a_zero_equals_full_step(x, r, d, digits):
    # Euler's series and the theta halves: a = 0, the factor 1 - a d^{n+1} is one.
    assert ratio_sum_mp(lambda: (x, r, d, 0), digits, "a = 0") == _old_ratio_sum(
        lambda: (x, r, d, 0), digits)


@given(x=st.floats(-0.95, 0.95), d=st.floats(0.0, 0.95), digits=_DIGITS)
@settings(max_examples=30, deadline=None, derandomize=True)
def test_shortcut_euler_first_series_equals_full_step(x, d, digits):
    # r = 1: 1/(z;q)_inf as Euler's sum z^n / (q;q)_n.
    assert ratio_sum_mp(lambda: (x, 1, d, 0), digits, "r = 1") == _old_ratio_sum(
        lambda: (x, 1, d, 0), digits)


@given(x=st.floats(-20.0, 20.0), r=_RATIO, a=st.floats(-2.0, 0.9),
       d=st.sampled_from([0.0, 1e-40, 1e-12]), digits=_DIGITS)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_shortcut_d_zero_equals_full_step(x, r, a, d, digits):
    # d = 0, or a d^{n+1} that underflows the scale after a few terms.
    assert ratio_sum_mp(lambda: (x, r, d, a), digits, "d = 0") == _old_ratio_sum(
        lambda: (x, r, d, a), digits)


@pytest.mark.parametrize("grid", GRIDS[:4], ids=IDS[:4])
@pytest.mark.parametrize("nonneg", [False, True], ids=["bump+dense", "nonneg"])
def test_probes_equal_the_per_exponent_loops(grid, nonneg):
    for window in [(grid.n_lo, grid.n_hi), (-7, 3), (0, 1), (2, 4), (5, 5)]:
        for seed in (0, 1234, 1235, 1236):
            new = probes.seeded_probes(grid, window, 12, seed, nonneg)
            old = _old_probes(grid, window, 12, seed, nonneg)
            assert all(np.array_equal(a.values, b.values) for a, b in zip(new, old))


def test_probes_draw_the_same_stream():
    # The rng is left where the loops left it: later draws agree too.
    grid = GRIDS[3]
    rng_new, rng_old = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(5):
        probes._dense_probe(grid, (-10, 30), rng_new)
        probes.bump_probe(grid, (-10, 30), rng_new)
        _old_dense(grid, (-10, 30), rng_old)
        _old_bump(grid, (-10, 30), rng_old)
    assert rng_new.random() == rng_old.random()


# ---------------- work counts ----------------

class _Counted:
    """An mp value that counts the reads of its raw tuple."""

    def __init__(self, x, reads: list):
        self.x, self.reads = x, reads

    @property
    def _mpf_(self):
        self.reads.append(self)
        return self.x._mpf_


@pytest.mark.parametrize("grid", GRIDS[:4], ids=IDS[:4])
def test_eigen_residual_reads_each_entry_a_few_times(tables, grid):
    # Each entry's tuple is taken once, and its three residuals read that.
    table, reads = tables[grid], []
    counted = [_Counted(x, reads) for x in table.mp_values]
    got = bessel.eigen_residual(BesselTable(table.params, table.n_min, table.n_max,
                                            table.values, counted, table.ctx))
    assert got == bessel.eigen_residual(table)
    assert sorted(map(id, reads)) == sorted(map(id, counted))


@pytest.mark.parametrize("grid", GRIDS[:4], ids=IDS[:4])
def test_anchor_check_runs_five_chains(tables, grid, monkeypatch):
    # The four deepest anchors share one chain; the quarter points and
    # n_max - 1 take one each.
    chains = []
    ratio_sum = bessel.ratio_sum_mp

    def counting(inputs, digits, where, guard=32):
        chains.append(where)
        return ratio_sum(inputs, digits, where, guard)

    monkeypatch.setattr(bessel, "ratio_sum_mp", counting)
    bessel.anchor_ulps(tables[grid])
    assert len(chains) == 5
