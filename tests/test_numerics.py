"""Residual bookkeeping: NaN must survive the fold into a worst residual; the
digit GEMMs of ``hankel_dots`` must give the exact integer dots."""

import math
import random
from operator import mul
from types import SimpleNamespace

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfourier import bessel, numerics, report, translation
from qfourier.numerics import hankel_dots, ulps, worst


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


# Ints at the digit edges: all-ones digits, the signed top digit's extremes,
# and powers of 2^16 that need one more digit than their neighbours.
_EDGES = [0, 1, -1] + [x for k in range(1, 51)
                       for x in (2 ** (16 * k) - 1, -2 ** (16 * k - 1), -2 ** (16 * k))]


def _exact_dots(rows, b, shifts):
    return [[sum(map(mul, a, b[s:s + len(a)])) for s in ss] for a, ss in zip(rows, shifts)]


def _fill(rng, count, bits, edges):
    """count ints of up to ``bits`` bits, either sign, with ``edges`` planted."""
    out = [rng.randint(-2 ** bits, 2 ** bits) for _ in range(count)]
    for x in edges:
        out[rng.randrange(count)] = x
    return out


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 1000), extra=st.integers(0, 30), nrows=st.integers(1, 3),
       abits=st.integers(0, 800), bbits=st.integers(0, 800), seed=st.integers(0, 2**32 - 1),
       data=st.data())
def test_hankel_dots_are_exact(n, extra, nrows, abits, bbits, seed, data):
    rng = random.Random(seed)
    edges = st.lists(st.sampled_from(_EDGES), max_size=6)
    rows = [_fill(rng, n, abits, data.draw(edges)) for _ in range(nrows)]
    b = _fill(rng, n + extra, bbits, data.draw(edges))
    shift_set = st.lists(st.integers(0, extra), max_size=extra + 2)
    shifts = [data.draw(shift_set) for _ in rows]
    assert hankel_dots(rows, b, shifts) == _exact_dots(rows, b, shifts)


def test_hankel_dots_of_edge_values():
    # Rows of one edge value against every edge value, and the other way round.
    for x in _EDGES:
        for rows, b, shifts in (
                ([[x] * 100, [-x] * 100], _EDGES, [range(len(_EDGES) - 99), [0, 3, 3]]),
                ([_EDGES[:100]], [x] * 130, [range(31)])):
            assert hankel_dots(rows, b, shifts) == _exact_dots(rows, b, shifts)


def test_hankel_dots_bound_arithmetic(monkeypatch):
    # 2^21 products of two all-ones digits stay below 2^53.
    assert numerics._EXACT_TERMS == 2**21
    assert numerics._EXACT_TERMS * (2**16 - 1) ** 2 < 2**53
    # Past it, ValueError before any array: 2^21 + 1 one-digit terms (bytes
    # iterate as ints 0), or 2^20 + 1 terms of two digits (range, 2^20 at most).
    with pytest.raises(ValueError, match="2\\^21"):
        hankel_dots([bytes(2**21 + 1)], bytes(2**21 + 1), [[0]])
    with pytest.raises(ValueError, match="2\\^21"):
        hankel_dots([range(2**20 + 1)], range(2**20 + 1), [[0]])
    # The bound counts terms times the smaller digit count, inclusively.
    monkeypatch.setattr(numerics, "_EXACT_TERMS", 12)
    assert hankel_dots([[2**16] * 6], [3] * 7, [[0, 1]]) == [[18 * 2**16] * 2]
    assert hankel_dots([[2**16] * 12], [3] * 12, [[0]]) == [[36 * 2**16]]
    with pytest.raises(ValueError):
        hankel_dots([[2**16] * 13], [3] * 13, [[0]])
    with pytest.raises(ValueError):
        hankel_dots([[2**16] * 7], [2**16] * 7, [[0]])



@pytest.mark.parametrize("ka, kb", [(64, 64), (128, 64)])
def test_hankel_dots_at_the_bound_with_extreme_digits(ka, kb):
    # n min(ka, kb) = 2^21 products of extreme digits: every digit 2^16 - 1
    # but the signed top one, -2^15 or 2^15 - 1.  Each GEMM entry and each of
    # the kb partial sums the fold adds stays below 2^53, so all are exact.
    n = 2**21 // min(ka, kb)

    def extreme(k, top):
        return (top << 16 * (k - 1)) + 2 ** (16 * (k - 1)) - 1

    lo_a, hi_a, lo_b = extreme(ka, -2**15), extreme(ka, 2**15 - 1), extreme(kb, -2**15)
    assert [(x.bit_length() + 16) // 16 for x in (lo_a, hi_a, lo_b)] == [ka, ka, kb]
    rows, b = [[lo_a] * n, [hi_a] * n], [lo_b] * n + [extreme(kb, 2**15 - 1)]
    shifts = [[0], [1]]
    assert hankel_dots(rows, b, shifts) == _exact_dots(rows, b, shifts)


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


def _nan_delta(monkeypatch, runner):
    """Plant: the one nonzero value of the runner's first delta set to NaN."""
    n, d = next(iter(runner.deltas.items()))
    d = d.copy()
    d.values[runner.grid.index(n)] = math.nan
    monkeypatch.setitem(runner.deltas, n, d)


def _nan_table_entry(monkeypatch, runner):
    """Plant: one mp value of the cell's table, at q^0, set to NaN."""
    table = runner.table
    vals = list(table.mp_values)
    vals[table.index(0)] = mp.nan
    monkeypatch.setattr(table, "mp_values", vals)


# (check, row, how its NaN is planted).
_NAN_ROWS = [
    ("check_lattice", "delta-reproduction", _nan_delta),
    ("check_bessel", "bessel-decay-bound", _patch(
        bessel, "decay_bound_check", lambda table: SimpleNamespace(max_ratio=math.nan))),
    ("check_bessel", "bessel-eigen-relation", _nan_table_entry),
    ("check_transform", "transform-inversion", _nan_probe("tprobes")),
    ("check_transform", "delta-multiplier", _nan_probe("tprobes")),
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
