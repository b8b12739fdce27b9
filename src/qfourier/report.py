"""Identity suites and machine-readable check reports.

Every identity the library implements is registered once, in
:data:`IDENTITIES`, with a human-readable statement and a tolerance.  The
``check_*`` methods of a cell yield (name, residual) pairs; a suite run turns
them into one :class:`CellReport` per (q, v, grid) cell and an aggregate
:class:`CheckReport` whose JSON serialization is byte-identical across runs
with the same configuration and seed (the runtime field aside).

The scalar q-series rows set the products of :mod:`qfourier.qseries`
against Euler's and Jacobi's series, summed by its one series evaluator
:func:`~qfourier.qseries.ratio_sum_mp` and sharing no code with them: one
Euler row reads every product the library calls at one point each.  A
nonnegative kernel of unit mass makes a Markov operator, and contraction,
Jensen and the sup bound follow: ``kernel-positivity`` gates D_v >= 0 on
the window cube for v >= 0, and the ``markov-*-unit`` rows gate unit mass
through M at window x and y, beyond which the product mass leaves the grid
(:func:`~qfourier.translation.markov_check`).

Gated identities decide the exit status.  A density the report builds
itself (the bump delta(., 1)/c, the t = 1 Gauss kernel) that the library
refuses is a library fault, not bad input: the rows that read it read NaN
and fail.  Observational entries (tolerance ``None``,
marked ``gated: false``) record quantities the library deliberately does not
assert: kernel positivity for v < 0 and the semigroup composition gap.
"""

from __future__ import annotations

import json
import math
import time
from collections.abc import Iterator
from dataclasses import asdict, dataclass, field

import mpmath as mp
import numpy as np

from . import bessel, heat, lattice, qseries, transform, translation
from .errors import GridTooSmall, NotProbability
from .lattice import GridFn, LatticeGrid
from .numerics import TINY, ulps, worst
from .probes import seeded_probes
from .qseries import PrecisionCtx, QParams, q2_exact

__all__ = [
    "SuiteConfig",
    "IdentityResult",
    "CellReport",
    "CheckReport",
    "DEFAULT_CELLS",
    "IDENTITIES",
    "run_cell",
    "run_suite",
    "report_to_json",
]

# Default suite cells: (q, v, n_lo, n_hi).
DEFAULT_CELLS: tuple[tuple[float, float, int, int], ...] = (
    (0.5, 0.0, -10, 40),
    (0.5, 0.5, -10, 40),
    (0.5, 1.5, -10, 40),
    (0.8, 0.5, -20, 120),
)

# name -> (statement, tolerance); a tolerance of None marks an observational row.
IDENTITIES: dict[str, tuple[str, float | None]] = {
    "qpoch-euler-series": (
        "sum (-1)^n q^{n(n-1)/2} z^n/(q;q)_n = (z;q)_inf: Euler's series vs the product", 1e-12),
    "gauss-amplitude-lattice-scaling": (
        "A(q^{2m}) = q^{-2m(v+1)} A(1): theta ratio at q^{2m} vs four products at 1", 1e-10),
    "delta-reproduction": ("integral(f delta_q(x,.)) = f(x)", 1e-12),
    "bessel-decay-bound": ("|j_v(q^n)| <= C min(1, q^{n^2-(2v+1)n})", 1e-12),
    "bessel-eigen-relation": (                              # the table certificate's 1e-40
        "q^{2v} j(q^{n+1}) - (1+q^{2v}-q^{2n}) j(q^n) + j(q^{n-1}) = 0 at every table "
        "entry, relative to its terms", 1e-40),
    "bessel-table-reproducibility": (                       # binary64 ulps
        "recurrence table vs series at the deep end, quarter points and n_max-1, "
        "<= 1 ulp", 1.0),
    "bessel-oracle-agreement": (                            # binary64 ulps
        "exact-rational oracle vs production path, <= 1 ulp", 1.0),
    "transform-inversion": ("F(Ff) = f", 1e-9),
    "transform-plancherel": ("||Ff||_2 = ||f||_2", 1e-9),
    "orthogonality-offdiag": ("<psi_x, psi_y> = 0 for x != y (normalized)", 1e-9),
    "orthogonality-diagonal": ("||psi_x||^2 = x^{-2(v+1)}/(1-q)", 1e-9),
    "transform-matrix-structure": (
        "M[n,m] = c (1-q) j_v(q^{n+m}) q^{m(2v+2)} bitwise", 0.0),
    "delta-multiplier": ("F[Delta f](x) = -x^2 Ff(x)", 1e-8),
    "kernel-transform-projection": (
        "int D(x,y,z) j_v(xt) x^{2v+1} d_q x = j_v(yt) j_v(zt)", 1e-8),
    # Gated for v >= 0 only; a v < 0 cell reports its raw minimum instead.
    "kernel-positivity": ("min D_v >= 0 over the window (v >= 0)", 1e-10),
    "translation-delta": ("T_{q,x} delta_a(y) = D(x,y,a): M route vs window cube", 1e-12),
    "translation-eigenfunctions": ("T_{q,x} f_n = (f_n(x)/f_n(0)) f_n", 1e-8),
    "markov-translation-unit": ("T_{q,x} 1 = 1 at window x and y", 1e-8),
    "convolution-commutativity": (
        "f * g = g * f: M route vs window-cube contraction", 1e-8),
    "multiplier-diagonal-action": ("f_n * rho = c_n f_n", 1e-8),
    "markov-bump-unit": ("1 * rho = 1 at window x", 1e-8),
    "multiplier-gauss-coefficients": (
        "c_n = e(-q^{2n}, q^2) for the Gauss density at t=1", 1e-8),
    "hypergroup-expansion": ("D(x,y,z) = sum_n f_n(x) f_n(y) f_n(z) / f_n(0)", 1e-7),
    "hypergroup-window-growth": (
        "expansion defect shrinks as the index window grows", 0.0),
    "gauss-transform-consistency": (
        "G(.,t) closed form vs transform of e(-t y^2) (float)", 1e-8),
    "gauss-transform-consistency-hp": (
        "G(.,t) closed form vs transform (high precision)", 1e-8),
    "gauss-mass": ("c ||G(.,t)||_1 = 1", 1e-8),
    "gauss-lattice-recurrence": (                           # binary64 ulps
        "G(q^n,1) by the lattice recurrence vs one product per point, <= 4 ulps", 4.0),
    "heat-spectral-diagonalization": ("F(P_t f) = e(-t x^2, q^2) Ff", 1e-8),
    "heat-equation-residual": ("Delta u = (1-q^2) D_{q^2,t} u for u = P_t f", 1e-7),
    "markov-heat-unit": ("P_t 1 = 1 at window x", 1e-8),
    "heat-composition": (
        "||P_t P_s f - P_{t+s} f|| / ||P_{t+s} f|| (observational)", None),
}


@dataclass(frozen=True)
class SuiteConfig:
    """Configuration of a check run.

    ``tolerances`` overrides the registry tolerance of gated identities only.
    """

    cells: tuple[tuple[float, float, int, int], ...] = DEFAULT_CELLS
    work_digits: int = 50
    seed: int = 1234
    probes: int = 100
    window: int = 24
    tolerances: dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for q, v, n_lo, n_hi in self.cells:
            QParams(q, v)           # raises on invalid q or v
            LatticeGrid(QParams(q, v), n_lo, n_hi)
        PrecisionCtx(self.work_digits)
        if self.probes < 1:     # over no probes the probe rows read 0 and pass
            raise ValueError(f"probes must be >= 1, got {self.probes}")
        for name, tol in self.tolerances.items():
            if name not in IDENTITIES:
                raise ValueError(f"tolerance for unknown identity {name!r}")
            if IDENTITIES[name][1] is None:
                raise ValueError(f"{name} is observational and takes no tolerance")
            if not tol >= 0:        # NaN fails here too
                raise ValueError(f"tolerance for {name} must be >= 0, got {tol}")

    def ctx(self) -> PrecisionCtx:
        return PrecisionCtx(self.work_digits)


def _theta_amplitudes(ts, p: QParams, ctx: PrecisionCtx) -> list:
    """A(t) = theta(q^{2v+2} t) / theta(t) at each t, by Jacobi's triple product:
    with Q = q^2, theta(w) = sum_{n in Z} Q^{n(n-1)/2} w^n = (Q;Q)_inf (-w;Q)_inf
    (-Q/w;Q)_inf, two half sums, at w and at Q/w, that share their n = 0 term."""
    digits = ctx.work_digits + 10
    with mp.workdps(digits):
        q2, c = q2_exact(p.q), mp.mpf(p.q) ** (2 * mp.mpf(p.v) + 2)

        def half(y):
            return qseries.ratio_sum_mp(lambda: (y, q2, 0, 0), digits,
                                        f"a theta series at q={p.q:g}")

        def theta(w):
            return half(w) + half(q2 / w) - 1

        return [theta(c * t) / theta(t) for t in map(mp.mpf, ts)]


@dataclass
class IdentityResult:
    """Outcome of one identity check."""

    name: str
    statement: str
    residual: float
    tolerance: float | None
    passed: bool
    gated: bool = True


@dataclass
class CellReport:
    q: float
    v: float
    n_lo: int
    n_hi: int
    trusted_window: tuple[int, int]
    kernel_window: tuple[int, int]
    work_digits: int
    seed: int
    identities: list[IdentityResult]
    runtime_s: float

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.identities)


@dataclass
class CheckReport:
    config: SuiteConfig
    cells: list[CellReport]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.cells)


# What a check yields: a registry row's (name, residual), or a finished result.
Rows = Iterator[tuple[str, float] | IdentityResult]


def _unit(check) -> float:
    """``check()``, or NaN where it refuses the report's own density (module doc)."""
    try:
        return check()
    except NotProbability:
        return math.nan


class _CellRunner:
    """Builds the shared artifacts for one (q, v, grid) cell and runs checks."""

    def __init__(self, q: float, v: float, n_lo: int, n_hi: int,
                 cfg: SuiteConfig):
        self.cfg = cfg
        self.ctx = cfg.ctx()
        self.p = QParams(q, v)
        self.grid = LatticeGrid(self.p, n_lo, n_hi)
        # The delta-reproduction deltas come first: a grid whose Jackson weights
        # leave binary64 there is refused before the table is built.
        self.deltas = {n: lattice.delta_fn(self.grid, n) for n in range(n_lo, n_hi + 1, 7)}
        self.table = bessel.jv_table(self.grid, self.ctx)
        self.kern = translation.kernel(self.grid, self.table, self.ctx,
                                       max_width=cfg.window)
        lo, hi = self.kern.window
        if not lo <= 0 <= hi:   # the bump, its deltas and the projection rows sit at 0
            raise GridTooSmall(f"kernel window [{lo}, {hi}] leaves out exponent 0: grid "
                               f"[{n_lo}, {n_hi}] cannot be checked for q={q}, v={v}")
        self.op = self.kern.op
        self.window = transform.trusted_window(self.grid, self.table, self.ctx)
        self.c = self.op.c
        sw = (max(self.window[0], n_lo + 2), min(self.window[1], n_hi - 2))
        self.tprobes = seeded_probes(self.grid, sw, cfg.probes, cfg.seed)
        self.kprobes = seeded_probes(self.grid, self.kern.window,
                                     max(40, cfg.probes // 5), cfg.seed + 1)
        # The cell's Gauss kernels at t = q^{2k}, k = -1..3: the heat rows' q^-2, 1,
        # q^2 and q^4 and the member below each that the heat residual reads, from
        # one amplitude A(1) (check_qseries reads it) and one run of products.
        family = heat.gauss_family(1.0, self.grid, range(-1, 4), self.ctx)
        self.gauss = {k: family.member(k) for k in family.ks}

    # ---------------- scalar q-series identities ----------------

    def check_qseries(self) -> Rows:
        ctx, p, q = self.ctx, self.p, self.p.q

        def rel(got, ref) -> float:
            return float(abs(got / ref - 1))

        def euler(z):       # Euler's series for (z;q)_inf
            return qseries.ratio_sum_mp(lambda: (-z, qm, qm, 0), ctx.work_digits + 10,
                                        f"Euler's series at q={q:g}")

        with mp.workdps(ctx.work_digits + 10):
            qm, q2 = mp.mpf(q), q2_exact(q)
            c = qm ** (2 * mp.mpf(p.v) + 2)
            a1 = self.gauss[0].amp_mp       # A's products at t = 1 only, built once a cell
            amps = _theta_amplitudes([q2**m for m in range(-3, 4)], p, ctx)
            rows = {
                "qpoch-euler-series": worst(*(
                    rel(euler(z), qseries.qpoch_inf_mp(z, q, ctx))
                    for z in (-4.0, -1.0, -0.5, 0.0, 0.25, 0.3, 0.9))),
                "gauss-amplitude-lattice-scaling": worst(*(
                    rel(am * c**m, a1) for m, am in zip(range(-3, 4), amps))),
            }
        yield from rows.items()

    # ---------------- lattice quadrature identities ----------------

    def check_lattice(self) -> Rows:
        f = np.random.default_rng(self.cfg.seed + 3).normal(size=self.grid.size)
        # Row n of the stack is the delta at q^n: its integral against f is one term.
        rep = (lattice.stack(self.grid, self.deltas.values()) * f) @ self.grid.weights()
        fn = f[[self.grid.index(n) for n in self.deltas]]
        yield "delta-reproduction", worst(*np.abs(rep - fn) / np.maximum(np.abs(fn), TINY))

    # ---------------- Bessel identities ----------------

    def check_bessel(self) -> Rows:
        yield "bessel-decay-bound", worst(bessel.decay_bound_check(self.table) - 1.0)

        yield "bessel-eigen-relation", bessel.eigen_residual(self.table)

        yield "bessel-table-reproducibility", bessel.anchor_ulps(self.table)

        if self.p.q == 0.5 and (2 * self.p.v + 2) == int(2 * self.p.v + 2):
            res = 0.0
            for n in range(max(-8, self.table.n_min), self.table.n_max + 1):
                oracle = bessel.jv_exact_dyadic(n, self.p.v)
                res = worst(res, ulps(self.table.value(n), oracle))
            yield "bessel-oracle-agreement", res

    # ---------------- transform identities ----------------

    def check_transform(self) -> Rows:
        op, grid = self.op, self.grid

        yield "transform-inversion", transform.inversion_residual(self.tprobes, op)
        yield "transform-plancherel", transform.plancherel_defect(self.tprobes, op)

        ortho = transform.orthogonality_matrix(op, self.window)
        yield "orthogonality-offdiag", ortho.max_offdiag
        yield "orthogonality-diagonal", ortho.max_diag_rel

        # M rebuilt from the table by one gather, in TransformOp.matrix's order of operations.
        e, q, v = grid.exponents, self.p.q, self.p.v
        rebuilt = ((self.c * (1.0 - q)) * self.table.values[np.add.outer(e, e) - self.table.n_min]
                   * np.power(q, e.astype(float) * (2.0 * v + 2.0))[None, :])
        yield "transform-matrix-structure", float(np.count_nonzero(rebuilt != op.matrix))

        yield "delta-multiplier", transform.delta_multiplier_defect(self.tprobes[:20], op)

    # ---------------- translation identities ----------------

    def check_translation(self) -> Rows:
        kern, grid = self.kern, self.grid

        yield "kernel-transform-projection", self._projection_defect()

        mn, _ = translation.kernel_min(kern)
        if self.p.v >= 0.0:
            yield "kernel-positivity", worst(-mn)
        else:
            # The one row whose statement depends on the cell: observed, raw minimum.
            yield IdentityResult("kernel-positivity",
                                 "min D_v over the window (v < 0, observational)",
                                 float(mn), None, True, False)

        # Window exponent nearest 1; the M route against the cube on window rows.
        x_used = int(min(kern.window_exponents, key=abs))
        ays = (x_used, kern.window_lo, kern.window_hi)
        td = translation.translate_rows(lattice.stack(grid, [
            lattice.delta_fn(grid, a) for a in ays]), x_used, kern)[:, kern.window_slice]
        dv = kern.cube[kern.windex(x_used)][:, [kern.windex(a) for a in ays]].T
        yield "translation-delta", worst(*np.max(np.abs(td - dv), axis=1)
                                         / np.maximum(np.max(np.abs(dv), axis=1), TINY))

        yield "translation-eigenfunctions", worst(*(translation.eigen_check(
            kern, range(-2, 5), x) for x in sorted({kern.window_lo, kern.window_hi})))

        yield "markov-translation-unit", translation.markov_check(kern)

        yield from self._check_convolution()
        yield from self._check_multiplier()

        yield "hypergroup-expansion", translation.hypergroup_expansion_defect(kern)
        d14, d20 = (translation.hypergroup_expansion_defect(
            kern, translation.hypergroup_window(kern, width)) for width in (14, 20))
        yield "hypergroup-window-growth", worst(d20 - d14)

    def _projection_defect(self) -> float:
        kern, grid, table, (lo, hi) = self.kern, self.grid, self.table, self.kern.window
        ys, zs, ts = (lo, 0, hi), (hi, 0, hi), (-1, 0, 2)
        # Row (y, z) is D(., y, z) over x; column t of lhs its integral against j_v(xt).
        dyz = translation.translate_rows(
            lattice.stack(grid, [lattice.delta_fn(grid, z) for z in zs]), ys, kern)
        lhs = dyz @ (grid.weights() * transform.hankel_rows(self.op, ts)).T
        rhs = np.array([[table.value(t + z) * table.value(t + y) for t in ts]
                        for y, z in zip(ys, zs)])
        return worst(*(np.abs(lhs - rhs) / np.maximum(np.abs(rhs), 1e-6)).ravel())

    def _check_convolution(self) -> Rows:
        kern, grid, win = self.kern, self.grid, self.kern.window_slice
        ww = grid.weights()[win]
        # Pairs (f, g) of window-supported probes, one per row of f and of g.
        f, g = (lattice.stack(grid, self.kprobes[i:40:2]) for i in (0, 1))
        fg = translation.convolve_rows(f, g, kern)[:, win]
        # g * f through the cube: c sum_{y,z} D(x,y,z) (w g)_y (w f)_z, slice x at a time.
        wg, wf = g[:, win] * ww, f[:, win] * ww
        gf = kern.c * np.array([np.sum((wg @ slab) * wf, axis=1) for slab in kern.cube]).T
        gap = np.sqrt(((fg - gf) ** 2) @ ww)
        yield "convolution-commutativity", worst(*gap / np.maximum(np.sqrt(gf ** 2 @ ww), TINY))

    def _check_multiplier(self) -> Rows:
        kern, grid = self.kern, self.grid

        # The delta-bump probability density rho = delta_q(., 1) / c.
        rho = GridFn(grid, lattice.delta_fn(grid, 0).values / self.c)

        ns = (-2, 0, 1, 3)
        fn = translation.basis_rows(kern, ns)
        cn = np.array([self.table.value(n) for n in ns])
        yield "multiplier-diagonal-action", worst(*lattice.norms(
            translation.convolve_rows(fn, rho.values, kern) - cn[:, None] * fn, grid))

        yield "markov-bump-unit", _unit(lambda: translation.markov_check_convolution(rho, kern))

        g = self.gauss[0]
        try:
            ns, coeffs = translation.multiplier_coeffs(g.fn, kern)
        except NotProbability:          # the report's own density (module doc)
            yield "multiplier-gauss-coefficients", math.nan
            return
        expected = np.array([g.eprofile[int(n)] for n in ns])
        sup = float(np.max(np.abs(expected)))
        mask = np.abs(expected) >= 1e-6 * sup
        yield "multiplier-gauss-coefficients", float(np.max(
            np.abs(coeffs[mask] - expected[mask]) / np.abs(expected[mask])))

    # ---------------- heat identities ----------------

    def check_heat(self) -> Rows:
        kern, op, win = self.kern, self.op, self.window
        fs = lattice.stack(self.grid, self.kprobes[:3])
        # Each row: worst over t = q^4, q^2, 1 and q^-2.
        gs = [self.gauss[k] for k in (2, 1, 0, -1)]
        yield "gauss-transform-consistency", worst(*(
            heat.gauss_crosscheck(g, op, win) for g in gs))
        yield "gauss-transform-consistency-hp", worst(*(
            heat.gauss_crosscheck_hp(g, op, win) for g in gs))
        yield "gauss-mass", worst(*(heat.gauss_mass_defect(g, self.c) for g in gs))
        # Both ends, the middle and the quarter points of the grid.
        exps = sorted({int(round(n)) for n in
                       np.linspace(self.grid.n_lo, self.grid.n_hi, 5)})
        yield "gauss-lattice-recurrence", heat.gauss_recurrence_defect(self.gauss[0], exps)
        # The flows P_t f at every member's t, each formed once for both rows.
        flows = {k: translation.convolve_rows(fs, g.fn.values, kern)
                 for k, g in self.gauss.items()}
        yield "heat-spectral-diagonalization", worst(*(
            heat.heat_spectral_defect(fs, flows[g.k], g, kern, win) for g in gs))
        yield "heat-equation-residual", worst(*(heat.heat_residual(
            flows[g.k], flows[g.k + 1], g, self.gauss[g.k + 1], win) for g in gs))

        g1 = self.gauss[0]
        yield "markov-heat-unit", _unit(lambda: heat.heat_markov_check(g1, kern))

        yield "heat-composition", heat.composition_defect(
            self.kprobes[0], g1, g1, heat.gauss_kernel(2.0, self.grid, self.ctx), kern)

    def _result(self, name: str, residual: float) -> IdentityResult:
        """The registry row ``name`` applied to its residual."""
        statement, tol = IDENTITIES[name]
        residual = float(residual)
        if tol is None:
            return IdentityResult(name, statement, residual, None, True, False)
        tol = self.cfg.tolerances.get(name, tol)
        return IdentityResult(name, statement, residual, tol, residual <= tol)

    def run(self) -> list[IdentityResult]:
        checks = (self.check_qseries, self.check_lattice, self.check_bessel,
                  self.check_transform, self.check_translation, self.check_heat)
        return [row if isinstance(row, IdentityResult) else self._result(*row)
                for check in checks for row in check()]


def run_cell(q: float, v: float, n_lo: int, n_hi: int,
             cfg: SuiteConfig) -> CellReport:
    start = time.perf_counter()
    runner = _CellRunner(q, v, n_lo, n_hi, cfg)
    identities = runner.run()
    return CellReport(
        q=q, v=v, n_lo=n_lo, n_hi=n_hi,
        trusted_window=runner.window,
        kernel_window=runner.kern.window,
        work_digits=cfg.work_digits,
        seed=cfg.seed,
        identities=identities,
        runtime_s=time.perf_counter() - start,
    )


def run_suite(cfg: SuiteConfig) -> CheckReport:
    cells = [run_cell(q, v, n_lo, n_hi, cfg) for q, v, n_lo, n_hi in cfg.cells]
    return CheckReport(config=cfg, cells=cells)


def report_to_json(report: CheckReport) -> str:
    """Deterministic JSON for fixed config and seed (runtime field aside)."""
    payload = {
        "config": {
            "cells": [list(c) for c in report.config.cells],
            "work_digits": report.config.work_digits,
            "seed": report.config.seed,
            "probes": report.config.probes,
            "window": report.config.window,
            "tolerances": dict(sorted(report.config.tolerances.items())),
        },
        "cells": [
            {
                "environment": {
                    "q": c.q,
                    "v": c.v,
                    "n_lo": c.n_lo,
                    "n_hi": c.n_hi,
                    "trusted_window": list(c.trusted_window),
                    "kernel_window": list(c.kernel_window),
                    "work_digits": c.work_digits,
                    "seed": c.seed,
                    "runtime_s": c.runtime_s,
                },
                "identities": [asdict(r) for r in c.identities],
                "pass": c.passed,
            }
            for c in report.cells
        ],
        "pass": report.passed,
    }
    return json.dumps(payload, indent=2, sort_keys=True)
