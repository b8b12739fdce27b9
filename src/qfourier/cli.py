"""Command-line front end.

Subcommands:

* ``check``            run the identity suites and emit a JSON report
* ``transform``        apply the transform to a CSV grid function
* ``kernel``           tabulate one kernel row D(x, y, .) and its mass
* ``scan-positivity``  minimum kernel value over a (q, v) grid, CSV out
* ``heat``             apply the heat semigroup / report the equation residual

Exit codes: 0 all gated identities pass, 1 an identity failed, 2 bad
configuration or input, 3 precision or grid too small to certify, or a grid
too large to hold.  ``--digits`` beats ``QF_DIGITS``, which beats 50; it also
cuts every q-product at 10^-(digits+5).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .bessel import jv_table
from .errors import GridTooLarge, GridTooSmall, ParseError, PrecisionExhausted, QFourierError
from .heat import gauss_family, gauss_mass_defect, heat_apply, heat_residual
from .lattice import LatticeGrid, delta_fn, load_csv, save_csv
from .qseries import PrecisionCtx, QParams
from .report import (
    DEFAULT_CELLS,
    SuiteConfig,
    report_to_json,
    run_suite,
)
from .transform import build_transform, forward, trusted_window
from .translation import convolve_rows, default_scan_grid, kernel, positivity_min, translate

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_PRECISION = 3


def _env_default(name: str, fallback, cast):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError as exc:
        raise ParseError(f"environment variable {name}={raw!r}: {exc}") from exc


def _add_precision_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--digits", type=int,
                     default=_env_default("QF_DIGITS", 50, int),
                     help="working digits; every q-product is cut at 10^-(digits+5)")


def _add_grid_flags(sub: argparse.ArgumentParser, required_q: bool = True) -> None:
    sub.add_argument("--q", type=float, required=required_q, help="lattice base, 0 < q < 1")
    sub.add_argument("--v", type=float, required=required_q, help="order parameter, v > -1")
    sub.add_argument("--nlo", type=int, default=None, help="lowest lattice exponent")
    sub.add_argument("--nhi", type=int, default=None, help="highest lattice exponent")


def _grid_from_args(args) -> QParams | LatticeGrid | None:
    """The grid the flags name, else their bare (q, v) (v 0.5 if omitted), else None.

    --nlo and --nhi come together, and with --q, as --v does; a half exits 2.
    """
    if (args.nlo is None) != (args.nhi is None):
        raise ParseError("--nlo and --nhi must be given together")
    if args.q is None:
        if args.v is not None or args.nlo is not None:
            raise ParseError("--v, --nlo and --nhi need --q")
        return None
    p = QParams(args.q, 0.5 if args.v is None else args.v)
    return p if args.nlo is None else LatticeGrid(p, args.nlo, args.nhi)


def _scan_grid(args) -> LatticeGrid | None:
    """The flags' grid, the default scan grid of their (q, v), or None."""
    g = _grid_from_args(args)
    return default_scan_grid(g) if isinstance(g, QParams) else g


def _ctx_from_args(args) -> PrecisionCtx:
    return PrecisionCtx(args.digits)


def _value_to_exponent(x: float, grid: LatticeGrid) -> int:
    if x <= 0.0:
        raise ParseError(f"lattice points are positive, got {x}")
    n = round(math.log(x) / math.log(grid.params.q))
    if not math.isclose(grid.params.q ** n, x, rel_tol=1e-9, abs_tol=0.0):
        raise ParseError(f"{x!r} is not a lattice point q^n for q={grid.params.q}")
    return int(n)


def cmd_check(args) -> int:
    tolerances = {}
    if args.tolerance:
        for spec_ in args.tolerance:
            name, _, val = spec_.partition("=")
            if not val:
                raise ParseError(f"--tolerance wants NAME=VALUE, got {spec_!r}")
            tolerances[name] = float(val)
    g = _scan_grid(args)
    cells = DEFAULT_CELLS if g is None else ((g.params.q, g.params.v, g.n_lo, g.n_hi),)
    cfg = SuiteConfig(
        cells=cells,
        work_digits=args.digits,
        seed=args.seed,
        probes=args.probes,
        window=args.window,
        tolerances=tolerances,
    )
    report = run_suite(cfg)
    text = report_to_json(report)
    if args.json:
        with open(args.json, "w") as fh:
            fh.write(text + "\n")
    for cell in report.cells:
        status = "pass" if cell.passed else "FAIL"
        print(f"[{status}] q={cell.q} v={cell.v} grid=[{cell.n_lo},{cell.n_hi}] "
              f"({len(cell.identities)} identities, {cell.runtime_s:.1f}s)")
        for r in cell.identities:
            if not r.passed:
                print(f"    FAIL {r.name}: residual {r.residual:.3e} "
                      f"> tolerance {r.tolerance:.1e}")
    print("overall:", "pass" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_transform(args) -> int:
    ctx = _ctx_from_args(args)
    f = load_csv(args.infile, _grid_from_args(args))  # the file's range without --nlo/--nhi
    op = build_transform(f.grid, jv_table(f.grid, ctx), ctx)
    save_csv(forward(f, op), args.outfile)
    return EXIT_OK


def cmd_kernel(args) -> int:
    ctx = _ctx_from_args(args)
    grid = _scan_grid(args)
    table = jv_table(grid, ctx)
    k = kernel(grid, table, ctx, max_width=args.window)
    x_exp = _value_to_exponent(args.x, grid)
    y_exp = _value_to_exponent(args.y, grid)
    row = translate(delta_fn(grid, y_exp), x_exp, k).values   # D(x, y, .)
    w = grid.weights()
    row_sum = float(w @ row)
    if args.outfile:
        with open(args.outfile, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["n", "z", "D"])
            for n, val in zip(grid.exponents, row):
                wr.writerow([int(n), f"{grid.x(int(n)):.17g}", f"{val:.17g}"])
    print(json.dumps({
        "q": grid.params.q, "v": grid.params.v,
        "x": args.x, "y": args.y,
        "window": list(k.window),
        "row_sum": row_sum,
        "row_sum_defect": abs(row_sum - 1.0),
        "min_kernel": float(np.min(k.cube)),
    }, sort_keys=True))
    return EXIT_OK


def cmd_scan_positivity(args) -> int:
    ctx = _ctx_from_args(args)
    qs = [float(s) for s in args.q_list.split(",") if s]
    vs = [float(s) for s in args.v_list.split(",") if s]
    rows = []
    for q in qs:
        for v in vs:
            res = positivity_min(QParams(q, v), window=args.window, ctx=ctx)
            rows.append(res)
            print(f"q={q} v={v}: min_kernel={res.min_value:.3e} "
                  f"argmin={res.argmin} window={res.window}")
    if args.outfile:
        with open(args.outfile, "w", newline="") as fh:
            wr = csv.writer(fh)
            wr.writerow(["q", "v", "min_kernel",
                         "argmin_x", "argmin_y", "argmin_z"])
            for r in rows:
                wr.writerow([r.q, r.v, f"{r.min_value:.17g}", *r.argmin])
    return EXIT_OK


def cmd_heat(args) -> int:
    ctx = _ctx_from_args(args)
    f = load_csv(args.infile, _grid_from_args(args))
    grid = f.grid
    table = jv_table(grid, ctx)
    k = kernel(grid, table, ctx)
    # G(., t) and, for the residual, G(., q^2 t) at the exact q^2: one family.
    family = gauss_family(args.t, grid, range(2), ctx)
    g = family.member(0)
    u = heat_apply(f, args.t, k, ctx, g=g)
    if args.outfile:
        save_csv(u, args.outfile)
    if args.residual:
        below = family.member(1)
        u_t, u_below = (convolve_rows(f.values[None, :], h.fn.values, k) for h in (g, below))
        resid = heat_residual(u_t, u_below, g, below, trusted_window(grid, table, ctx))
        mass = gauss_mass_defect(g, k.c)
        print(json.dumps({"t": args.t, "residual": resid,
                          "mass_defect": mass}, sort_keys=True))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qfourier",
        description="q-Bessel Fourier analysis on truncated q-lattices",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="run the identity suites")
    _add_grid_flags(p_check, required_q=False)
    _add_precision_flags(p_check)
    p_check.add_argument("--seed", type=int, default=1234)
    p_check.add_argument("--probes", type=int, default=100)
    p_check.add_argument("--window", type=int, default=24,
                         help="kernel window width cap")
    p_check.add_argument("--json", default=None, help="write the report here")
    p_check.add_argument("--tolerance", action="append", default=[],
                         metavar="NAME=VALUE",
                         help="override the tolerance of one gated identity")
    p_check.set_defaults(func=cmd_check)

    p_tr = subs.add_parser("transform", help="transform a CSV grid function")
    _add_grid_flags(p_tr)
    _add_precision_flags(p_tr)
    p_tr.add_argument("--in", dest="infile", required=True)
    p_tr.add_argument("--out", dest="outfile", required=True)
    p_tr.set_defaults(func=cmd_transform)

    p_k = subs.add_parser("kernel", help="tabulate a kernel row D(x, y, .)")
    _add_grid_flags(p_k)
    _add_precision_flags(p_k)
    p_k.add_argument("--x", type=float, required=True, help="lattice value q^n")
    p_k.add_argument("--y", type=float, required=True, help="lattice value q^n")
    p_k.add_argument("--window", type=int, default=24)
    p_k.add_argument("--out", dest="outfile", default=None)
    p_k.set_defaults(func=cmd_kernel)

    p_s = subs.add_parser("scan-positivity",
                          help="minimum kernel value over a (q, v) grid")
    _add_precision_flags(p_s)
    p_s.add_argument("--q-list", required=True)
    p_s.add_argument("--v-list", required=True)
    p_s.add_argument("--window", type=int, default=16)
    p_s.add_argument("--out", dest="outfile", default=None)
    p_s.set_defaults(func=cmd_scan_positivity)

    p_h = subs.add_parser("heat", help="apply the q-heat semigroup")
    _add_grid_flags(p_h)
    _add_precision_flags(p_h)
    p_h.add_argument("--t", type=float, required=True, help="time, t > 0")
    p_h.add_argument("--in", dest="infile", required=True)
    p_h.add_argument("--out", dest="outfile", default=None)
    p_h.add_argument("--residual", action="store_true",
                     help="emit the heat-equation residual as JSON")
    p_h.set_defaults(func=cmd_heat)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except PrecisionExhausted as exc:
        print(f"error: precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (GridTooSmall, GridTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (QFourierError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
