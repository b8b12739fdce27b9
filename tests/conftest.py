"""Shared fixtures: fully built (q, v) cells, reused across test modules."""

from dataclasses import dataclass

import pytest

from qfourier.bessel import BesselTable, jv_table
from qfourier.lattice import LatticeGrid
from qfourier.qseries import PrecisionCtx, QParams
from qfourier.transform import TransformOp, build_transform, trusted_window
from qfourier.translation import Kernel3, kernel


@dataclass
class Cell:
    p: QParams
    ctx: PrecisionCtx
    grid: LatticeGrid
    table: BesselTable
    op: TransformOp
    kern: Kernel3
    window: tuple


def _build(q: float, v: float, n_lo: int, n_hi: int) -> Cell:
    p = QParams(q, v)
    ctx = PrecisionCtx()
    grid = LatticeGrid(p, n_lo, n_hi)
    table = jv_table(grid, ctx)
    op = build_transform(grid, table, ctx)
    kern = kernel(grid, table, ctx)
    window = trusted_window(grid, table, ctx)
    return Cell(p, ctx, grid, table, op, kern, window)


@pytest.fixture(scope="session")
def cell_half() -> Cell:
    """Workhorse cell: q = 1/2, v = 1/2, grid [-10, 40]."""
    return _build(0.5, 0.5, -10, 40)


@pytest.fixture(scope="session")
def cell_v0() -> Cell:
    """Integer-order cell: q = 1/2, v = 0, grid [-10, 40]."""
    return _build(0.5, 0.0, -10, 40)


@pytest.fixture(scope="session")
def cell_08() -> Cell:
    """Default cell: q = 0.8, v = 1/2, grid [-20, 120]."""
    return _build(0.8, 0.5, -20, 120)
