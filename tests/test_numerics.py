"""Residual bookkeeping: NaN must survive the fold into a worst residual."""

import math
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest

from qfourier import bessel, lattice, report, translation
from qfourier.numerics import ulps, worst


def test_worst_is_the_largest():
    assert worst(1e-9, 3e-12, 2e-8) == 2e-8


def test_worst_of_nothing_is_zero():
    assert worst() == 0.0


def test_worst_keeps_nan_in_any_position():
    # The builtin drops it: max(0.0, nan) == 0.0.
    assert max(0.0, math.nan) == 0.0
    for residuals in ((math.nan, 1.0), (1.0, math.nan), (0.0, 2.0, math.nan, 1.0)):
        assert math.isnan(worst(*residuals))


def test_ulps():
    assert ulps(1.0, 1.0) == 0.0
    assert ulps(1.0, 1.0 + 2 * math.ulp(1.0)) == 2.0


@pytest.fixture(scope="module")
def runner():
    return report._CellRunner(0.5, 0.5, -10, 40, report.SuiteConfig(probes=10))


def _row(runner, check, name):
    """The finished result of row ``name``, read from the cell check ``check``."""
    for row in getattr(runner, check)():
        result = row if isinstance(row, report.IdentityResult) else runner._result(*row)
        if result.name == name:
            return result
    raise AssertionError(f"{check} yields no row {name}")


def _patch(module, fn, stand_in):
    """Plant: ``module.fn`` replaced by a stand-in whose NaN reaches the row."""
    return lambda monkeypatch, runner: monkeypatch.setattr(module, fn, stand_in)


def _nan_probe(probes):
    """Plant: a NaN at the first nonzero value of the runner's first ``probes`` probe,
    an input that the row's probes, stacked as one matrix, carry into its residual."""
    def plant(monkeypatch, runner):
        f = getattr(runner, probes)[0].copy()
        f.values[np.flatnonzero(f.values)[0]] = math.nan
        monkeypatch.setattr(runner, probes, [f] + getattr(runner, probes)[1:])
    return plant


def _nan_table_entry(monkeypatch, runner):
    """Plant: one mp value of the cell's table, at q^0, set to NaN."""
    table = runner.table
    vals = list(table.mp_values)
    vals[table.index(0)] = mp.nan
    monkeypatch.setattr(table, "mp_values", vals)


# (check, row, how its NaN is planted).
_NAN_ROWS = [
    ("check_lattice", "cauchy-schwarz", _patch(lattice, "inner", lambda f, g: math.nan)),
    ("check_bessel", "bessel-decay-bound", _patch(
        bessel, "decay_bound_check", lambda table: SimpleNamespace(max_ratio=math.nan))),
    ("check_bessel", "bessel-eigen-relation", _nan_table_entry),
    ("check_transform", "transform-inversion", _nan_probe("tprobes")),
    ("check_transform", "transform-sup-bound", _nan_probe("tprobes")),
    ("check_translation", "kernel-positivity", _patch(
        translation, "kernel_min", lambda k: (math.nan, (0, 0, 0)))),
    ("check_translation", "markov-translation-contraction", _nan_probe("mprobes")),
    ("check_translation", "hypergroup-window-growth", _patch(
        translation, "hypergroup_expansion_defect", lambda k, n_window=None: math.nan)),
]


@pytest.mark.parametrize("check, name, plant", _NAN_ROWS, ids=[r[1] for r in _NAN_ROWS])
def test_gated_row_fails_on_nan(runner, monkeypatch, check, name, plant):
    assert _row(runner, check, name).passed
    plant(monkeypatch, runner)
    result = _row(runner, check, name)
    assert math.isnan(result.residual)
    assert result.gated and not result.passed
