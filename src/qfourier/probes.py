"""Seeded probe functions for identity suites.

Two families, both supported inside a prescribed exponent window so lattice
truncation cannot leak into the identity being checked: sparse nonnegative
bumps (exercise positivity-sensitive paths) and dense signed vectors under a
Gaussian envelope (exercise oscillatory paths).  Everything is driven by a
single integer seed for reproducible reports.
"""

from __future__ import annotations

import numpy as np

from .lattice import GridFn, LatticeGrid

__all__ = ["seeded_probes", "bump_probe"]


def bump_probe(grid: LatticeGrid, window: tuple[int, int],
               rng: np.random.Generator) -> GridFn:
    """Sparse nonnegative bump: 1-3 adjacent window exponents, positive heights."""
    lo, hi = window
    width = min(int(rng.integers(1, 4)), hi - lo + 1)
    start = int(rng.integers(lo, hi - width + 2))
    vals = np.zeros(grid.size)
    vals[grid.index(start):grid.index(start + width - 1) + 1] = rng.uniform(0.2, 1.0, width)
    return GridFn(grid, vals / np.sqrt(grid.weights() @ vals**2))


def _dense_probe(grid: LatticeGrid, window: tuple[int, int],
                 rng: np.random.Generator) -> GridFn:
    lo, hi = window
    center = rng.uniform(lo + 1, hi - 1) if hi - lo > 2 else 0.5 * (lo + hi)
    spread = rng.uniform(1.0, max(1.5, (hi - lo) / 3.0))
    vals = np.zeros(grid.size)
    # Each point's square is a Python float ** (libm pow); numpy's ** 2 is x * x,
    # which moves envelope bits.  np.exp agrees with its vector form only within
    # one numpy CPU dispatch: AVX-512 and other dispatch give other bits.
    envelope = [np.exp(-((n - center) / spread) ** 2) for n in range(lo, hi + 1)]
    vals[grid.index(lo):grid.index(hi) + 1] = envelope * rng.normal(size=hi - lo + 1)
    nrm = np.sqrt(grid.weights() @ vals**2)
    if nrm == 0.0:
        vals[grid.index(int(round(center)))] = 1.0
        nrm = np.sqrt(grid.weights() @ vals**2)
    return GridFn(grid, vals / nrm)


def seeded_probes(grid: LatticeGrid, window: tuple[int, int], count: int,
                  seed: int, nonneg: bool = False) -> list[GridFn]:
    """Generate ``count`` unit-norm probes supported inside ``window``.

    Alternates bump and dense probes; ``nonneg=True`` yields bumps only.
    """
    lo, hi = window
    if lo < grid.n_lo or hi > grid.n_hi or lo > hi:
        raise ValueError(f"window [{lo}, {hi}] not inside grid "
                         f"[{grid.n_lo}, {grid.n_hi}]")
    rng = np.random.default_rng(seed)
    probes = []
    for k in range(count):
        if nonneg or k % 2 == 0:
            probes.append(bump_probe(grid, window, rng))
        else:
            probes.append(_dense_probe(grid, window, rng))
    return probes
