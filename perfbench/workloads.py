"""The benchmark's workloads: set-up, the fixed op list of a pass, and checks.

Each workload is a closed loop with one caller.  ``setup`` builds what the
ops share and is timed; ``ops`` is the fixed list one pass runs in order;
``run`` is one timed op; ``fingerprint`` lets every later pass be compared
with the first.  After the timed passes, ``prepare`` computes the references
and checks the set-up's artifacts, and ``check`` verifies the first pass's
outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from qfourier import bessel, heat, lattice, probes, report, transform, translation
from qfourier.lattice import GridFn, LatticeGrid
from qfourier.qseries import PrecisionCtx, QParams

import reference as ref
from reference import Checks

# Tolerances of the benchmark's own checks.  The first three hold values the
# library rounds once from a high-precision result; the rest mirror the
# library's own gates for the same identity.
TOL_JV = 1e-13          # table entry vs the qhyper reference, relative
TOL_C = 1e-13           # c_{q,v} vs mpmath.qp, relative
TOL_KERNEL = 1e-13      # cube entry vs the 50-digit sum, relative to sum |terms|
TOL_GAUSS = 1e-10       # Gauss kernel vs its mpmath.qp closed form, relative
TOL_POSITIVE = 1e-10    # kernel-positivity: no cube entry below -1e-10 (v >= 0)
TOL_INVERSION = 1e-9    # transform-inversion
TOL_MARKOV = 1e-8       # markov-*-unit, markov-heat-contraction
TOL_SPECTRAL = 1e-8     # heat-spectral-diagonalization, multiplier identities
TOL_MASS = 1e-10        # probability density check of translation._check_probability


def _corners(lo: int, hi: int) -> list[tuple[int, int, int]]:
    return [(lo, lo, lo), (lo, lo, hi), (lo, hi, hi), (hi, hi, hi)]


def check_kernel_cube(checks: Checks, label: str, grid: LatticeGrid,
                      table: bessel.BesselTable, c: float, cube: np.ndarray,
                      window: tuple[int, int]):
    """Check a kernel cube and the table under it against the references.

    Returns the reference j-values over [win_lo + n_lo, win_hi + n_hi], the
    exponents every entry of the cube sums over.
    """
    q, v = grid.params.q, grid.params.v
    lo, hi = window
    jref = ref.jv_range(q, v, lo + grid.n_lo, hi + grid.n_hi)
    checks.gate(f"{label} j_v table vs qhyper",
                max(ref.rel_err(table.value(n), jref[n]) for n in jref), TOL_JV)
    c_mp = ref.c_qv(q, v)
    checks.gate(f"{label} c_qv vs mpmath.qp", ref.rel_err(c, c_mp), TOL_C)

    width = hi - lo + 1
    checks.require(f"{label} cube shape", cube.shape == (width,) * 3,
                   f"shape {cube.shape} for window {window}")
    checks.require(f"{label} cube symmetry",
                   all(np.array_equal(cube, cube.transpose(p))
                       for p in permutations(range(3))),
                   "entries differ under an argument permutation")
    if v >= 0.0:
        checks.gate(f"{label} kernel positivity", max(0.0, -float(cube.min())),
                    TOL_POSITIVE)
    argmin = tuple(int(i) + lo for i in np.unravel_index(int(np.argmin(cube)), cube.shape))
    worst = 0.0
    for a, b, d in [argmin] + _corners(lo, hi):
        value, scale = ref.kernel_entry(q, v, grid.exponents, jref, c_mp, a, b, d)
        worst = max(worst, abs(float(cube[a - lo, b - lo, d - lo]) - value) / scale)
    checks.gate(f"{label} kernel entries vs 50-digit sums", worst, TOL_KERNEL)
    return jref


@dataclass
class Cell:
    grid: LatticeGrid
    table: bessel.BesselTable
    op: transform.TransformOp
    kern: translation.Kernel3
    window: tuple[int, int] | None


def build_cell(q: float, v: float, n_lo: int, n_hi: int, ctx: PrecisionCtx,
               width: int, trusted: bool) -> Cell:
    grid = LatticeGrid(QParams(q, v), n_lo, n_hi)
    table = bessel.jv_table(grid, ctx)
    op = transform.build_transform(grid, table, ctx)
    kern = translation.kernel(grid, table, ctx, max_width=width)
    window = transform.trusted_window(grid, table, ctx) if trusted else None
    return Cell(grid, table, op, kern, window)


def _cell_label(q: float, v: float) -> str:
    return f"q={q:g} v={v:g}"


# --------------------------------------------------------------------------


class CheckSuite:
    """``report.run_suite`` with the default SuiteConfig, one cell per op."""

    name = "check-suite"

    def __init__(self, seed: int, smoke: bool) -> None:
        # The program's input is the default SuiteConfig, with its own probe
        # seed 1234, so the benchmark seed changes nothing here.
        self.cfg = report.SuiteConfig()
        self.cells = self.cfg.cells[:1] if smoke else self.cfg.cells
        self.artifacts: list[Cell] = []

    def release(self) -> None:
        self.artifacts = []

    def setup(self) -> None:
        ctx = self.cfg.ctx()
        self.artifacts = [build_cell(*cell, ctx, self.cfg.window, trusted=True)
                          for cell in self.cells]

    def prepare(self, checks: Checks) -> None:
        for (q, v, _, _), art in zip(self.cells, self.artifacts):
            check_kernel_cube(checks, _cell_label(q, v), art.grid, art.table,
                              art.op.c, art.kern.cube, art.kern.window)

    def ops(self) -> list:
        return list(self.cells)

    def run(self, cell):
        return report.run_cell(*cell, self.cfg)

    def check(self, checks: Checks, index: int, cell, out) -> None:
        art = self.artifacts[index]
        label = _cell_label(cell[0], cell[1])
        checks.require(f"{label} trusted window", tuple(out.trusted_window) == art.window,
                       f"{out.trusted_window} vs set-up {art.window}")
        checks.require(f"{label} kernel window", tuple(out.kernel_window) == art.kern.window,
                       f"{out.kernel_window} vs set-up {art.kern.window}")
        for r in out.identities:
            if r.gated:
                checks.gate(f"{label} {r.name}", r.residual, r.tolerance)

    def fingerprint(self, out):
        return (out.trusted_window, out.kernel_window,
                [(r.name, r.residual, r.passed) for r in out.identities])


# --------------------------------------------------------------------------

SCAN_Q = (0.3, 0.5, 0.7, 0.9)
SCAN_V = (-0.7, 0.0, 0.5)
SCAN_WINDOW = 16


class PositivityScan:
    """``translation.positivity_min`` over the README scan, one (q, v) per op."""

    name = "positivity-scan"

    def __init__(self, seed: int, smoke: bool) -> None:
        pairs = [(q, v) for q in SCAN_Q for v in SCAN_V]
        if smoke:
            pairs = [(0.3, 0.0), (0.5, -0.7)]
        order = np.random.default_rng(seed).permutation(len(pairs))
        self.pairs = [pairs[i] for i in order]
        self.ctx = PrecisionCtx()
        self.tables: dict = {}
        self._kernel = None
        self._original_kernel = None

    def release(self) -> None:
        self.tables = {}

    def setup(self) -> None:
        for q, v in self.pairs:
            grid = translation.default_scan_grid(QParams(q, v))
            self.tables[(q, v)] = (grid, bessel.jv_table(grid, self.ctx))

    def prepare(self, checks: Checks) -> None:
        """Nothing: the references need the window each op finds (``check``)."""

    # The result of positivity_min carries only the minimum, so the kernel
    # it was taken from is read through a pass-through on translation.kernel,
    # the binding positivity_min calls.  ``run`` keeps the kernel's cube,
    # constant and table, and lets its grid-sized block go.
    def begin(self) -> None:
        self._original_kernel = original = translation.kernel

        def kernel(*args, **kwargs):
            self._kernel = k = original(*args, **kwargs)
            return k

        translation.kernel = kernel

    def end(self) -> None:
        translation.kernel = self._original_kernel

    def ops(self) -> list:
        return list(self.pairs)

    def run(self, pair):
        q, v = pair
        result = translation.positivity_min(QParams(q, v), SCAN_WINDOW, self.ctx)
        k, self._kernel = self._kernel, None
        return result, k.cube, k.c, k.table

    def check(self, checks: Checks, index: int, pair, out) -> None:
        result, cube, c, table = out
        q, v = pair
        label = _cell_label(q, v)
        grid, setup_table = self.tables[pair]
        checks.require(f"{label} set-up table is the op's table",
                       np.array_equal(setup_table.values, table.values))
        lo, hi = result.window
        argmin = tuple(e - lo for e in result.argmin)
        checks.require(f"{label} reported minimum",
                       result.min_value == float(cube.min()) == float(cube[argmin]),
                       f"{result.min_value!r} at {result.argmin} vs cube min {cube.min()!r}")
        check_kernel_cube(checks, label, grid, table, c, cube, result.window)

    def fingerprint(self, out):
        result, cube, c, table = out
        return (result, cube.tobytes(), c, table.values.tobytes())


# --------------------------------------------------------------------------

MARKOV_CELL = (0.8, 0.5, -20, 120)
# seeded_probes alternates sparse bumps and dense probes.  A bump's heat
# flow costs one mat-vec per support point (1-3), a dense probe's one per
# window point, so the op list takes two dense probes per bump: the median op
# is then a dense one, whose cost does not depend on the seed.
MARKOV_DENSE, MARKOV_BUMPS = 16, 8


class MarkovApply:
    """Translation, convolution and heat flow applied with prebuilt operators."""

    name = "markov-apply"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.dense, self.bumps = (1, 1) if smoke else (MARKOV_DENSE, MARKOV_BUMPS)
        self.ctx = PrecisionCtx()
        q = MARKOV_CELL[0]
        self.times = (q**4, q**2, 1.0, q**-2)
        self.cell: Cell | None = None

    def release(self) -> None:
        self.cell = None
        self.gauss = {}
        self.probes = []

    def setup(self) -> None:
        self.cell = cell = build_cell(*MARKOV_CELL, self.ctx, 24, trusted=False)
        self.gauss = {t: heat.gauss_kernel(t, cell.grid, self.ctx) for t in self.times}
        delta = lattice.delta_fn(cell.grid, 0)
        self.rho = GridFn(cell.grid, delta.values / cell.op.c)
        made = probes.seeded_probes(cell.grid, cell.kern.window, 2 * self.dense,
                                    self.seed)
        dense, bumps = made[1::2], made[0::2][:self.bumps]
        self.probes = [f for k, b in enumerate(bumps)
                       for f in dense[2 * k:2 * k + 2] + [b]]

    def prepare(self, checks: Checks) -> None:
        cell = self.cell
        q, v = cell.grid.params.q, cell.grid.params.v
        label = _cell_label(q, v)
        jref = check_kernel_cube(checks, label, cell.grid, cell.table, cell.op.c,
                                 cell.kern.cube, cell.kern.window)
        exps = [int(n) for n in cell.grid.exponents]
        for t, g in self.gauss.items():
            closed = ref.gauss_profile(q, v, t, exps)
            checks.gate(f"{label} Gauss kernel t={t:.6g} vs mpmath.qp",
                        max(ref.rel_err(g.fn[n], closed[n]) for n in exps), TOL_GAUSS)
        w = cell.grid.weights()
        checks.require(f"{label} rho >= 0", bool(np.all(self.rho.values >= 0.0)))
        checks.gate(f"{label} c int rho = 1",
                    abs(float(ref.c_qv(q, v)) * float(w @ self.rho.values) - 1.0), TOL_MASS)

        self.window = transform.trusted_window(cell.grid, cell.table, self.ctx)
        rows = list(range(self.window[0], self.window[1] + 1))
        self.rows = np.array([cell.grid.index(n) for n in rows])
        self.jrows = np.array([float(jref[n]) for n in rows])
        self.symbols = {t: np.array([float(ref.heat_symbol(q, t, n)) for n in rows])
                        for t in self.times}

    def ops(self) -> list:
        return list(self.probes)

    def run(self, f: GridFn):
        cell = self.cell
        ff = transform.forward(f, cell.op)
        tx = [translation.translate(f, int(x), cell.kern)
              for x in cell.kern.window_exponents]
        conv = translation.convolve(f, self.rho, cell.kern)
        heats = [heat.heat_apply(f, t, cell.kern, self.ctx, g=self.gauss[t])
                 for t in self.times]
        return ff, tx, conv, heats

    def _rows_rel(self, lhs: np.ndarray, rhs: np.ndarray) -> float:
        """Weighted L2 distance on the trusted rows, relative to rhs."""
        w = self.cell.grid.weights()[self.rows]
        num = math.sqrt(float(w @ (lhs[self.rows] - rhs[self.rows]) ** 2))
        return num / math.sqrt(float(w @ rhs[self.rows] ** 2))

    def check(self, checks: Checks, index: int, f: GridFn, out) -> None:
        ff, tx, conv, heats = out
        cell = self.cell
        op, w = cell.op, cell.grid.weights()
        fv = f.values
        label = f"probe {index}"
        forward = lambda g: transform.forward(g, op).values  # noqa: E731

        checks.gate(f"{label} F(Ff) = f on trusted rows",
                    self._rows_rel(forward(ff), fv), TOL_INVERSION)

        mass, abs_mass = float(w @ fv), float(w @ np.abs(fv))
        checks.gate(f"{label} int T_x f = int f",
                    max(abs(float(w @ t.values) - mass) for t in tx) / abs_mass, TOL_MARKOV)
        if np.all(fv >= 0.0):
            checks.gate(f"{label} T_x f >= 0",
                        max(max(0.0, -float(t.values.min())) / float(np.abs(t.values).max())
                            for t in tx), TOL_POSITIVE)

        norm_f = math.sqrt(float(w @ fv**2))
        ffv = ff.values
        for t, h in zip(self.times, heats):
            checks.gate(f"{label} ||P_t f|| <= ||f|| t={t:.6g}",
                        max(0.0, math.sqrt(float(w @ h.values**2)) / norm_f - 1.0),
                        TOL_MARKOV)
            symbol = np.zeros_like(ffv)
            symbol[self.rows] = self.symbols[t]
            checks.gate(f"{label} F(P_t f) = e(-t x^2; q^2) Ff t={t:.6g}",
                        self._rows_rel(forward(h), symbol * ffv), TOL_SPECTRAL)
        jv = np.zeros_like(ffv)
        jv[self.rows] = self.jrows
        checks.gate(f"{label} F(f * rho) = j_v Ff",
                    self._rows_rel(forward(conv), jv * ffv), TOL_SPECTRAL)

    def fingerprint(self, out):
        ff, tx, conv, heats = out
        return np.concatenate([ff.values, conv.values]
                              + [t.values for t in tx] + [h.values for h in heats])


WORKLOADS = {w.name: w for w in (CheckSuite, PositivityScan, MarkovApply)}
