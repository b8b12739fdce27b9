"""Planted faults that the kept gated rows catch.

Four rows left the registry because they could not fail on their own:
``kernel-symmetry`` compared the cube's symmetrizing gather with itself,
``multiplier-bump-coefficients`` compared ``table.row`` with ``table.value``,
``qexp-ode-identity`` read exactly 0 since the product loop from q^2 z is the
loop from z less its first factor, and ``convolution-product-formula``
measured M^2 = I.  Each fault below breaks what one of them read; the clean
cell passes every gate and the faulted cell fails the named kept rows
(mutation analysis: DeMillo, Lipton & Sayward, "Hints on test data
selection", IEEE Computer 11(4), 1978).

The Gauss family's members are slices of two shared runs of products; an
off-by-one offset in one member's slice, of the kernel run or of the
e-profile run, must fail a kept row too.
"""

import dataclasses

import mpmath as mp
import numpy as np
import pytest

from qfourier import heat, qseries, report, translation
from qfourier.lattice import GridFn
from qfourier.report import SuiteConfig, run_cell

CELLS = [(0.5, 0.5, -10, 40), (0.8, 0.5, -20, 120)]     # two of the default cells
CFG = SuiteConfig()


def asymmetric_cube(window_cube):
    """One off-diagonal cube entry moved by 1e-6 of the cube's max, after the gather."""
    def faulted(op, wexps):
        cube = window_cube(op, wexps)
        cube[0, 1, 2] += 1e-6 * np.max(np.abs(cube))
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


def scaled_product(qpoch_inf_mp):
    """(a; q)_inf times 1 + 1e-11."""
    return lambda *args: qpoch_inf_mp(*args) * (1 + mp.mpf("1e-11"))


# The member whose slices the two faults below move: t = q^2, read by every
# multi-time heat row and as the member below t = 1 by the heat residual.
_MEMBER = 1


def kernel_slice_off_by_one(member):
    """Member _MEMBER's kernel from the family's kernel run one exponent along."""
    def faulted(fam, k):
        g = member(fam, k)
        if k != _MEMBER:
            return g
        start = fam.ks[-1] - k + 1
        run = fam.run[start:start + fam.grid.size]
        return dataclasses.replace(g, run=run,
                                   fn=GridFn(fam.grid, heat._binary64(g.amp_mp._mpf_, run)))
    return faulted


def eprofile_slice_off_by_one(eprofile_run):
    """Member _MEMBER's e-profile from the family's e-profile run one exponent along."""
    def faulted(g):
        start = g.k - g.family.ks[0] + (g.k == _MEMBER)
        return g.family.eprofile_run[start:start + g.grid.size]
    return property(faulted)


def scaled_convolution(convolve_rows):
    """f * g times 1 + 1e-6, on every row of a stack."""
    return lambda f, g, k: convolve_rows(f, g, k) * (1 + 1e-6)


# (module, name, fault, runner method the fault is live in or None for the
# whole cell, kept rows that must fail).  The q-product faults are live only
# in the scalar q-series checks, where the deleted row ran: planted for the
# whole cell, a late product makes the Gauss densities lose their unit mass
# and the cell raises NotProbability before any row is gated.  The
# convolution fault sits in ``translation.convolve_rows``, the product formula
# that the report's convolution rows and the Markov convolution checks share.
FAULTS = {
    "kernel-symmetry": (
        translation, "_window_cube", asymmetric_cube, None,
        {"convolution-commutativity", "hypergroup-expansion"}),
    "multiplier-bump-coefficients": (
        translation, "multiplier_coeffs", shifted_coeffs, None,
        {"multiplier-gauss-coefficients"}),
    "qexp-ode-identity/late": (
        qseries, "qpoch_inf_mp", late_product, "check_qseries",
        {"qpoch-splitting", "qpoch-euler-series", "qexp-series-agreement"}),
    "qexp-ode-identity/scaled": (
        qseries, "qpoch_inf_mp", scaled_product, "check_qseries",
        {"qpoch-splitting", "qpoch-euler-series", "qexp-series-agreement"}),
    "convolution-product-formula": (
        translation, "convolve_rows", scaled_convolution, None,
        {"convolution-commutativity", "multiplier-diagonal-action",
         "markov-bump-jensen", "markov-bump-sup"}),
    "gauss-family/kernel-slice": (
        heat.GaussFamily, "member", kernel_slice_off_by_one, None,
        {"gauss-transform-consistency", "gauss-transform-consistency-hp", "gauss-mass",
         "heat-spectral-diagonalization", "heat-equation-residual"}),
    "gauss-family/eprofile-slice": (
        heat.GaussKernel, "eprofile_run", eprofile_slice_off_by_one, None,
        {"gauss-transform-consistency", "gauss-transform-consistency-hp",
         "heat-spectral-diagonalization"}),
}


def plant(monkeypatch, module, name, fault, method):
    """Replace ``module.name`` by ``fault`` of it, in ``method`` or throughout."""
    if method is None:
        monkeypatch.setattr(module, name, fault(getattr(module, name)))
        return
    check = getattr(report._CellRunner, method)

    def faulted_check(self):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(module, name, fault(getattr(module, name)))
            yield from check(self)

    monkeypatch.setattr(report._CellRunner, method, faulted_check)


@pytest.mark.parametrize("cell", CELLS)
def test_clean_cell_passes(cell):
    rep = run_cell(*cell, CFG)
    assert rep.passed, [r.name for r in rep.identities if not r.passed]


@pytest.mark.parametrize("cell", CELLS)
@pytest.mark.parametrize("deleted", FAULTS)
def test_planted_fault_fails_kept_rows(deleted, cell, monkeypatch):
    module, name, fault, method, catchers = FAULTS[deleted]
    plant(monkeypatch, module, name, fault, method)
    failed = {r.name for r in run_cell(*cell, CFG).identities if not r.passed}
    assert catchers <= failed, f"missed by {sorted(catchers - failed)}; failed: {sorted(failed)}"
