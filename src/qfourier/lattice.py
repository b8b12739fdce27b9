"""Truncated positive q-lattice and weighted Jackson quadrature.

Grid points are x_n = q^n for n_lo <= n <= n_hi, stored by exponent so no
floating drift can creep into the lattice itself.  All functions are even;
only the positive half-lattice is stored.  The weighted Jackson integral

    int f(x) x^{2v+1} d_q x  =  (1-q) sum_n q^{n(2v+2)} f(q^n)

is the measure underneath every norm and inner product in the package.
"""

from __future__ import annotations

import csv
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatch, OffGrid, ParseError, PrecisionExhausted
from .qseries import QParams

__all__ = [
    "LatticeGrid",
    "GridFn",
    "same_grid",
    "jackson_integral",
    "inner",
    "stack",
    "norms",
    "norm_p",
    "sup_norm",
    "delta_fn",
    "save_csv",
    "load_csv",
]

# log10 of the largest finite and the smallest normal binary64 number.
_LOG10_MAX, _LOG10_MIN = math.log10(sys.float_info.max), math.log10(sys.float_info.min)


def _binary64_span(p: QParams) -> tuple[int, int]:
    """The n at which the Jackson weight (1-q) q^{n(2v+2)}, and the power under
    it, are finite, normal binary64 numbers (taken in log10: they overflow).
    A grid must start inside the span, or its sums are inf or NaN; past its
    top weights only drop points, but a delta there (1/weight) is refused."""
    step, lw = (2.0 * p.v + 2.0) * math.log10(p.q), math.log10(1.0 - p.q)
    return math.floor(_LOG10_MAX / step) + 1, math.floor((_LOG10_MIN - lw) / step)


@dataclass(frozen=True)
class LatticeGrid:
    """Exponent range [n_lo, n_hi] of the truncated lattice {q^n}."""

    params: QParams
    n_lo: int
    n_hi: int

    def __post_init__(self) -> None:
        if not (self.n_lo < 0 < self.n_hi):
            raise ValueError(
                f"grid must straddle x = 1: need n_lo < 0 < n_hi, got "
                f"[{self.n_lo}, {self.n_hi}]"
            )
        if self.size < 8:
            raise ValueError(f"grid needs at least 8 points, got {self.size}")
        lo, hi = _binary64_span(self.params)
        if self.n_lo < lo:
            raise PrecisionExhausted(
                f"the Jackson weight (1-q) q^{{n(2v+2)}} at q={self.params.q:g}, "
                f"v={self.params.v:g} overflows binary64 at n={self.n_lo}; it is a "
                f"finite, normal number for n in [{lo}, {hi}]")

    @property
    def size(self) -> int:
        return self.n_hi - self.n_lo + 1

    @property
    def exponents(self) -> np.ndarray:
        return np.arange(self.n_lo, self.n_hi + 1)

    def x(self, n: int) -> float:
        """Lattice point q^n (recomputed, never stored)."""
        return self.params.q ** n

    def index(self, n: int) -> int:
        """Vector index of exponent n."""
        if not (self.n_lo <= n <= self.n_hi):
            raise OffGrid(f"exponent {n} outside grid [{self.n_lo}, {self.n_hi}]")
        return n - self.n_lo

    def weights(self) -> np.ndarray:
        """Jackson weights (1-q) q^{n(2v+2)} for the x^{2v+1} d_q x measure, read-only."""
        return self._weights

    @cached_property
    def _weights(self) -> np.ndarray:
        q, v = self.params.q, self.params.v
        w = (1.0 - q) * np.power(q, self.exponents.astype(float) * (2.0 * v + 2.0))
        w.flags.writeable = False
        return w


@dataclass
class GridFn:
    """An even real function sampled on a LatticeGrid (positive half only)."""

    grid: LatticeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.size,):
            raise GridMismatch(
                f"value vector of length {self.values.shape} does not match "
                f"grid of size {self.grid.size}"
            )

    def __getitem__(self, n: int) -> float:
        """Value at the lattice point q^n."""
        return float(self.values[self.grid.index(n)])

    def copy(self) -> "GridFn":
        return GridFn(self.grid, self.values.copy())


def same_grid(a: LatticeGrid, b: LatticeGrid) -> bool:
    """Whether two grids are one lattice: identity first, then the field comparison."""
    return a is b or a == b


def jackson_integral(f: GridFn) -> float:
    """Weighted Jackson integral of f against x^{2v+1} d_q x."""
    return float(f.grid.weights() @ f.values)


def inner(f: GridFn, g: GridFn) -> float:
    """L^2 inner product <f, g> = int f g x^{2v+1} d_q x."""
    if not same_grid(f.grid, g.grid):
        raise GridMismatch("grid functions live on different lattices")
    return float(f.grid.weights() @ (f.values * g.values))


def stack(grid: LatticeGrid, fns: GridFn | Sequence[GridFn]) -> np.ndarray:
    """One function on ``grid``, or a sequence of them, as the rows of a (P, N) matrix."""
    fns = [fns] if isinstance(fns, GridFn) else list(fns)
    if not all(same_grid(f.grid, grid) for f in fns):
        raise GridMismatch("grid functions live on different lattices")
    return np.array([f.values for f in fns]).reshape(len(fns), grid.size)


def norms(values: np.ndarray, grid: LatticeGrid, p: float = 2.0) -> np.ndarray:
    """L^p norms, weight x^{2v+1} d_q x, p >= 1, of one value vector or of each row."""
    if p < 1.0:
        raise ValueError(f"p must be >= 1, got {p}")
    return (np.abs(values) ** p @ grid.weights()) ** (1.0 / p)


def norm_p(f: GridFn, p: float) -> float:
    """L^p norm with the x^{2v+1} d_q x weight, p >= 1."""
    return float(norms(f.values, f.grid, p))


def norm2(f: GridFn) -> float:
    return norm_p(f, 2.0)


def sup_norm(f: GridFn) -> float:
    """Uniform norm over the stored lattice points."""
    return float(np.max(np.abs(f.values))) if f.grid.size else 0.0


def delta_fn(grid: LatticeGrid, x_exp: int) -> GridFn:
    """Reproducing delta at x = q^{x_exp}: value 1/((1-q) x^{2(v+1)}) at x.

    Integrating delta against any even f reproduces f(x) exactly (the single
    surviving term of the Jackson sum).  Where the weight at x is below the
    normal binary64 range that value is not a double: PrecisionExhausted.
    """
    idx = grid.index(x_exp)  # raises OffGrid outside the grid
    lo, hi = _binary64_span(grid.params)
    if x_exp > hi:
        raise PrecisionExhausted(f"delta at q^{x_exp}: its Jackson weight underflows "
                                 f"binary64 (it is normal for n in [{lo}, {hi}])")
    q, v = grid.params.q, grid.params.v
    vals = np.zeros(grid.size)
    vals[idx] = 1.0 / ((1.0 - q) * q ** (x_exp * 2.0 * (v + 1.0)))
    return GridFn(grid, vals)


def save_csv(f: GridFn, path) -> None:
    """Write a grid function as CSV rows ``n, x, value`` (17 significant digits)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "x", "value"])
        for n, val in zip(f.grid.exponents, f.values):
            writer.writerow([int(n), f"{f.grid.x(int(n)):.17g}", f"{val:.17g}"])


def load_csv(path, grid: LatticeGrid | QParams) -> GridFn:
    """Read a grid function written by :func:`save_csv` onto ``grid``.

    Given :class:`QParams` instead of a grid, the grid is the file's exponent
    range.  The x column must match q^n to 1e-12 relative; exponents must
    cover the grid exactly, each once; every x and value must be finite.
    """
    by_exp: dict[int, tuple[float, float]] = {}
    try:
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path}: empty file")
            if [h.strip().lower() for h in header[:3]] != ["n", "x", "value"]:
                raise ParseError(f"{path}: expected header 'n, x, value', got {header}")
            for lineno, row in enumerate(reader, start=2):
                if not row:
                    continue
                try:
                    n, x, val = int(row[0]), float(row[1]), float(row[2])
                except (ValueError, IndexError) as exc:
                    raise ParseError(f"{path}:{lineno}: malformed row {row}") from exc
                if not (math.isfinite(x) and math.isfinite(val)):
                    raise ParseError(f"{path}:{lineno}: non-finite value in row {row}")
                if n in by_exp:
                    raise ParseError(f"{path}:{lineno}: exponent {n} appears twice")
                by_exp[n] = (x, val)
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if not by_exp:
        raise ParseError(f"{path}: no data rows")
    if isinstance(grid, QParams):
        grid = LatticeGrid(grid, min(by_exp), max(by_exp))
    if sorted(by_exp) != list(range(grid.n_lo, grid.n_hi + 1)):
        raise GridMismatch(
            f"{path}: exponents {sorted(by_exp)[:3]}..{sorted(by_exp)[-3:]} do not "
            f"cover grid [{grid.n_lo}, {grid.n_hi}]"
        )
    vals = np.empty(grid.size)
    for n, (x, val) in by_exp.items():
        x_ref = grid.x(n)
        if not math.isclose(x, x_ref, rel_tol=1e-12, abs_tol=0.0):
            raise GridMismatch(
                f"{path}: x column at n={n} is {x!r}, expected q^n = {x_ref!r}"
            )
        vals[grid.index(n)] = val
    return GridFn(grid, vals)
