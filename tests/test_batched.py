"""Each batched check against the per-probe loop it replaced.

The report's probe rows stack their probes into one (P, N) matrix and apply
each operator as one product.  The loops below are the formulas those rows
had before, one probe at a time through ``translate``, ``convolve``,
``forward`` and ``norm2``: they are the reference (the Markov loops are
``markov_ref``'s, which the Markov tests share).  A product
sums in another order than a mat-vec, so the two agree within tolerances
fixed here from each row's arithmetic, not from the values seen:

* ``ROUNDING``, absolute, for defects that binary64 rounding alone makes
  (each is a few ulps of a unit-scale quantity);
* ``AMPLIFIED``, absolute, for the two rows that scale rounding up:
  ``heat-equation-residual`` multiplies u by x^{-2}, and
  ``kernel-transform-projection`` divides by |rhs| down to 1e-6;
* exact equality where the arithmetic is the same: the Markov unit rows
  (the kernel's row sums, computed as before) and one-term Jackson sums.
"""

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qfourier import qseries, report
from qfourier.bessel import decay_bound_log10, jv_table
from qfourier.heat import heat_apply
from qfourier.lattice import GridFn, delta_fn, jackson_integral, norm2
from qfourier.numerics import TINY, worst
from qfourier.probes import seeded_probes
from qfourier.qseries import QParams
from qfourier.report import DEFAULT_CELLS, SuiteConfig
from qfourier.transform import forward, psi_norm_sq, q_bessel_operator
from qfourier.translation import (
    basis_function,
    convolve,
    default_scan_grid,
    hypergroup_expansion_defect,
    hypergroup_window,
    kernel,
    markov_check,
    markov_check_convolution,
    translate,
)
from markov_ref import loop_markov_convolution, loop_markov_translation

ROUNDING = 1e-14
AMPLIFIED = 1e-13

CELLS = [(0.5, 0.5, -10, 40), (0.8, 0.5, -20, 120)]     # two of the default cells


@pytest.fixture(scope="module", params=CELLS, ids=["q0.5", "q0.8"])
def runner(request):
    return report._CellRunner(*request.param, SuiteConfig())


@pytest.fixture(scope="module")
def rows(runner):
    return {r.name: r.residual for r in runner.run()}


# ---------------- the per-probe loops ----------------

def loop_transform_rows(r) -> dict:
    op, grid = r.op, r.grid
    out = {"transform-inversion": worst(*(
        norm2(GridFn(grid, forward(forward(f, op), op).values - f.values))
        / max(norm2(f), TINY) for f in r.tprobes))}
    out["transform-plancherel"] = worst(*(
        abs(norm2(forward(f, op)) - norm2(f)) / max(norm2(f), TINY) for f in r.tprobes))
    x2 = np.power(grid.params.q, 2.0 * grid.exponents.astype(float))
    delta = 0.0
    for f in r.tprobes[:20]:
        df = np.zeros(grid.size)
        df[1:-1] = q_bessel_operator(f).values
        rhs = GridFn(grid, -x2 * forward(f, op).values)
        lhs = forward(GridFn(grid, df), op)
        delta = worst(delta, norm2(GridFn(grid, lhs.values - rhs.values)) / max(norm2(rhs), TINY))
    out["delta-multiplier"] = delta
    return out


def loop_translation_rows(r) -> dict:
    k, grid, table, w = r.kern, r.grid, r.table, r.grid.weights()
    proj = 0.0
    for y, z in [(k.window_lo, k.window_hi), (0, 0), (k.window_hi, k.window_hi)]:
        dyz = translate(delta_fn(grid, z), y, k).values
        for t in (-1, 0, 2):
            lhs = float((w * table.row(t + grid.n_lo, t + grid.n_hi)) @ dyz)
            rhs = table.value(t + z) * table.value(t + y)
            proj = worst(proj, abs(lhs - rhs) / max(abs(rhs), 1e-6))
    out = {"kernel-transform-projection": proj}
    x_used, win = int(min(k.window_exponents, key=abs)), k.window_slice
    tdelta = 0.0
    for a in (x_used, k.window_lo, k.window_hi):
        td = translate(delta_fn(grid, a), x_used, k).values[win]
        dv = k.cube[k.windex(x_used), :, k.windex(a)]
        tdelta = worst(tdelta, float(np.max(np.abs(td - dv)))
                       / max(float(np.max(np.abs(dv))), TINY))
    out["translation-delta"] = tdelta
    eigen = 0.0
    for n in range(-2, 5):
        for x in (k.window_lo, k.window_hi):
            fn = basis_function(k, n)
            gap = translate(fn, x, k).values - table.value(n + x) * fn.values
            eigen = worst(eigen, norm2(GridFn(grid, gap)))
    out["translation-eigenfunctions"] = eigen
    comm, ww = 0.0, w[win]
    for f, g in zip(r.kprobes[0:40:2], r.kprobes[1:40:2]):
        fg = convolve(f, g, k).values[win]
        gf = k.c * np.einsum("xyz,y,z->x", k.cube, (w * g.values)[win], (w * f.values)[win])
        comm = worst(comm, np.sqrt(ww @ (fg - gf) ** 2) / max(np.sqrt(ww @ gf ** 2), TINY))
    out["convolution-commutativity"] = comm
    rho = GridFn(grid, delta_fn(grid, 0).values / r.c)
    diag = 0.0
    for n in (-2, 0, 1, 3):
        fn = basis_function(k, n)
        diag = worst(diag, norm2(GridFn(grid, convolve(fn, rho, k).values
                                         - table.value(n) * fn.values)))
    out["multiplier-diagonal-action"] = diag
    return out


def loop_hypergroup_defect(k, n_window=None) -> float:
    n_window = n_window or (k.grid.n_lo, k.grid.n_hi)
    rhs = np.zeros((k.width,) * 3)
    for n in range(n_window[0], n_window[1] + 1):
        fn = basis_function(k, n).values[k.window_slice]
        rhs += np.einsum("a,b,c->abc", fn, fn, fn) / (k.c / np.sqrt(psi_norm_sq(k.grid, n)))
    return float(np.max(np.abs(k.cube - rhs))) / float(np.max(np.abs(k.cube)))


def loop_hypergroup_window(k, width: int) -> tuple[int, int]:
    """The reference band search: one concatenation per band start, with the
    tail weight c^2 (1-q) q^{n(2v+2)} written out."""
    p, ns = k.grid.params, k.grid.exponents.astype(float)
    weight = (2.0 * math.log10(k.c) + math.log10(1.0 - p.q)
              + ns * (2.0 * p.v + 2.0) * math.log10(p.q))
    env = weight + 3.0 * decay_bound_log10(ns + k.window_hi, p, k.table.decay_const)
    width = min(width, len(env))
    best_lo, best_cost = 0, np.inf
    for lo in range(0, len(env) - width + 1):
        outside = np.concatenate([env[:lo], env[lo + width:]])
        cost = float(np.max(outside)) if outside.size else -np.inf
        if cost < best_cost:
            best_lo, best_cost = lo, cost
    lo_exp = int(k.grid.exponents[best_lo])
    return lo_exp, lo_exp + width - 1


def loop_heat_rows(r) -> dict:
    k, grid, (w_lo, w_hi) = r.kern, r.grid, r.window
    spectral = residual = 0.0
    for j in (2, 1, 0, -1):                   # t = q^4, q^2, 1 and q^-2
        g, below = r.gauss[j], r.gauss[j + 1]
        t = g.t
        for f in r.kprobes[:3]:
            lhs = forward(heat_apply(f, t, k, g=g), k.op).values
            rhs = g.eprofile.values * forward(f, k.op).values
            sel = [grid.index(n) for n in range(w_lo, w_hi + 1)]
            ws = grid.weights()[sel]
            spectral = worst(spectral, np.sqrt(ws @ (lhs[sel] - rhs[sel]) ** 2)
                             / max(np.sqrt(ws @ rhs[sel] ** 2), TINY))
            u_t = heat_apply(f, t, k, g=g)
            u_s = heat_apply(f, below.t, k, g=below)
            du, dt = q_bessel_operator(u_t), (u_t.values - u_s.values) / t
            for n in range(max(w_lo, grid.n_lo + 1), min(w_hi, grid.n_hi - 1) + 1):
                residual = worst(residual,
                                 abs(du[n] - dt[grid.index(n)]) / (1.0 + abs(du[n])))
    return {"heat-spectral-diagonalization": spectral, "heat-equation-residual": residual}


# ---------------- the batched functions against the loops ----------------

def assert_markov(unit, ref):
    """The batched unit defect is the loop's, exactly (the same arithmetic); the
    consequences the report no longer gates hold within its former 1e-8."""
    assert unit == ref[0]
    assert worst(*ref[1:]) < 1e-8, ref


def _probe_sets(r) -> dict:
    # The 16 probes the report's Markov rows once read: ten signed, six nonnegative.
    probes = r.kprobes[:10] + seeded_probes(r.grid, r.kern.window, 6, r.cfg.seed + 2,
                                            nonneg=True)
    dense = [f for f in r.kprobes[:20] if np.any(f.values < 0.0)]
    return {"all": probes, "empty": [], "one": probes[:1], "no-nonneg": dense}


@pytest.mark.parametrize("which", ["all", "empty", "one", "no-nonneg"])
class TestMarkovAgainstLoop:
    def test_translation(self, runner, which):
        probes = _probe_sets(runner)[which]
        assert_markov(markov_check(runner.kern), loop_markov_translation(runner.kern, probes))

    def test_bump_convolution(self, runner, which):
        probes = _probe_sets(runner)[which]
        rho = GridFn(runner.grid, delta_fn(runner.grid, 0).values / runner.c)
        assert_markov(markov_check_convolution(rho, runner.kern),
                      loop_markov_convolution(rho, runner.kern, probes))

    def test_heat(self, runner, which):
        probes = _probe_sets(runner)[which]
        g = runner.gauss[0]
        assert_markov(markov_check_convolution(g.fn, runner.kern),
                      loop_markov_convolution(g.fn, runner.kern, probes))


def test_markov_rows_against_loop(runner, rows):
    rho = GridFn(runner.grid, delta_fn(runner.grid, 0).values / runner.c)
    refs = {"translation": loop_markov_translation(runner.kern, []),
            "bump": loop_markov_convolution(rho, runner.kern, []),
            "heat": loop_markov_convolution(runner.gauss[0].fn, runner.kern, [])}
    for op, ref in refs.items():
        assert rows[f"markov-{op}-unit"] == ref[0], op


@pytest.mark.parametrize("loop", [loop_transform_rows, loop_translation_rows, loop_heat_rows])
def test_probe_rows_against_loop(runner, rows, loop):
    amplified = ("heat-equation-residual", "kernel-transform-projection")
    for name, ref in loop(runner).items():
        tol = AMPLIFIED if name in amplified else ROUNDING
        assert abs(rows[name] - ref) <= tol, (name, rows[name], ref)


@pytest.mark.parametrize("f_count", [0, 1, 5])
def test_one_probe_case_is_the_batch(runner, f_count):
    # A list of one probe is that probe; a batch is the worst of its one-probe
    # values, to rounding (a product of P rows sums in another order than one
    # row); no probe gives 0.
    from qfourier import transform
    probes, op = runner.tprobes[:f_count], runner.op
    for fn in (transform.inversion_residual, transform.plancherel_defect,
               transform.delta_multiplier_defect, transform.basis_completeness_defect):
        got, ref = fn(probes, op), worst(*(fn(f, op) for f in probes))
        assert got == ref if f_count <= 1 else abs(got - ref) <= ROUNDING, fn.__name__


def test_delta_reproduction_is_exact(runner, rows):
    rng = np.random.default_rng(runner.cfg.seed + 3)
    f = GridFn(runner.grid, rng.normal(size=runner.grid.size))
    ref = worst(*(abs(jackson_integral(GridFn(runner.grid, d.values * f.values)) - f[n])
                  / max(abs(f[n]), TINY) for n, d in runner.deltas.items()))
    assert rows["delta-reproduction"] == ref        # one nonzero term a row


def test_hypergroup_against_loop(runner, rows):
    k = runner.kern
    assert abs(rows["hypergroup-expansion"] - loop_hypergroup_defect(k)) <= ROUNDING
    for width in (1, 14, 20):
        band = hypergroup_window(k, width)
        assert abs(hypergroup_expansion_defect(k, band) - loop_hypergroup_defect(k, band)) \
            <= ROUNDING


# ---------------- the band search, the A(1) memo and the memory bound ----------------

def _scan_kernels():
    """The README scan: q in {0.3, 0.5, 0.7, 0.9} by v in {-0.7, 0, 0.5}."""
    for q in (0.3, 0.5, 0.7, 0.9):
        for v in (-0.7, 0.0, 0.5):
            grid = default_scan_grid(QParams(q, v))
            yield f"scan q={q} v={v}", kernel(grid, jv_table(grid), max_width=16)


def test_hypergroup_window_matches_the_loop():
    cells = ((f"cell q={c[0]} v={c[1]}", report._CellRunner(*c, SuiteConfig()).kern)
             for c in DEFAULT_CELLS)
    for label, k in (*cells, *_scan_kernels()):
        for width in (1, 2, 5, 14, 20, k.grid.size - 1, k.grid.size, k.grid.size + 3):
            assert hypergroup_window(k, width) == loop_hypergroup_window(k, width), (label, width)


def test_gauss_amplitude_at_one_is_built_once(monkeypatch):
    # check_qseries reads A(1) from the cell's t0 = 1 Gauss family.
    calls = Counter()
    amplitude = qseries.gauss_amplitude_mp

    def counted(t, *args):
        calls[float(t)] += 1
        return amplitude(t, *args)

    monkeypatch.setattr(qseries, "gauss_amplitude_mp", counted)
    monkeypatch.setattr("qfourier.heat.gauss_amplitude_mp", counted)
    report.run_cell(0.5, 0.5, -10, 40, SuiteConfig())
    assert calls[1.0] == 1 and max(calls.values()) == 1


def test_run_cell_memory_bound():
    # Batching allocates no temporary larger than (P, N) or (N, N): the
    # q = 0.8 default cell's traced peak stays where the per-probe loops had it.
    cell = DEFAULT_CELLS[3]
    report.run_cell(*cell, SuiteConfig())
    tracemalloc.start()
    try:
        report.run_cell(*cell, SuiteConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6
