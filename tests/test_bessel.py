"""Normalized q-Bessel function: series, tables, decay bound, eigen relation."""

import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from qfourier import bessel
from qfourier.bessel import (
    BesselTable,
    decay_bound_check,
    decay_bound_constant,
    eigen_residual,
    jv,
    jv_exact_dyadic,
    jv_table,
)
from qfourier.errors import PrecisionExhausted
from qfourier.lattice import LatticeGrid
from qfourier.qseries import PrecisionCtx, QParams, q2_exact
from qfourier.report import DEFAULT_CELLS
from qfourier.translation import default_scan_grid

CTX = PrecisionCtx()


def ulps(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


class TestScalar:
    def test_at_zero(self):
        assert jv(0.0, QParams(0.5, 0.5), CTX) == 1.0
        assert jv(0.0, QParams(0.9, 1.5), CTX) == 1.0

    def test_precision_ceiling(self):
        from qfourier.errors import PrecisionExhausted

        with pytest.raises(PrecisionExhausted):
            jv(2.0 ** 300, QParams(0.5, 0.5), CTX)

    def test_small_argument_expansion(self):
        # j = 1 - q^2 x^2 / ((1-q^{2v+2})(1-q^2)) + O(x^4).
        q, v = 0.5, 0.5
        x = q**10
        two_term = 1 - q**2 * x**2 / ((1 - q ** (2 * v + 2)) * (1 - q**2))
        assert jv(x, QParams(q, v), CTX) == pytest.approx(two_term, abs=1e-10)

    @pytest.mark.parametrize("m", [-5, -3, 0, 2])
    def test_exact_rational_oracle(self, m):
        got = jv(0.5 ** m, QParams(0.5, 0.0), CTX)
        assert ulps(got, jv_exact_dyadic(m, 0.0)) <= 2.0

    def test_alternating_partial_sums_bracket(self):
        # For x <= 1 the terms decrease in magnitude; partial sums bracket.
        q, v, x = 0.5, 0.5, 1.0
        q2, q2v = q * q, q ** (2 * v)
        term, total = 1.0, 1.0
        partials = [total]
        u = 1.0
        for _ in range(25):
            u *= q2
            term *= -(u * x * x) / ((1 - q2v * u) * (1 - u))
            total += term
            partials.append(total)
        limit = jv(x, QParams(q, v), CTX)
        for lo, hi in zip(partials[1::2], partials[0::2]):
            assert lo - 1e-15 <= limit <= hi + 1e-15


class TestTable:
    def test_covers_double_range_and_matches_scalar(self, cell_half):
        table, grid = cell_half.table, cell_half.grid
        assert table.n_min == 2 * grid.n_lo
        assert table.n_max == 2 * grid.n_hi
        assert table.value(0) == pytest.approx(
            jv(1.0, grid.params, CTX), abs=1e-15)

    def test_row_is_bounds_checked(self, cell_half):
        table = cell_half.table
        for lo, hi in ((table.n_min, 0), (-1, 2), (3, table.n_max)):
            es = range(lo, hi + 1)
            assert list(table.row(lo, hi)) == [table.value(e) for e in es]
            assert table.row(lo, hi, hp=True) == [table.mp_value(e) for e in es]
        for lo, hi in ((table.n_min - 1, 0), (0, table.n_max + 1)):
            with pytest.raises(IndexError):
                table.row(lo, hi)
            with pytest.raises(IndexError):
                table.row(lo, hi, hp=True)

    def test_constants_once_and_on_first_use(self, monkeypatch):
        # A table that no operator reads evaluates neither constant.
        grid = LatticeGrid(QParams(0.5, 0.5), -10, 40)
        table = jv_table(grid, CTX)
        calls = []
        c_qv_mp, const = bessel.c_qv_mp, bessel.decay_bound_constant
        monkeypatch.setattr(bessel, "c_qv_mp", lambda *a: calls.append("c") or c_qv_mp(*a))
        monkeypatch.setattr(bessel, "decay_bound_constant",
                            lambda *a: calls.append("C") or const(*a))
        assert calls == []
        assert (table.c, table.c, table.decay_const, table.decay_const) == (
            float(c_qv_mp(grid.params, CTX)), float(c_qv_mp(grid.params, CTX)),
            const(grid.params, CTX), const(grid.params, CTX))
        assert sorted(calls) == ["C", "c"]

    def test_reproducible_across_work_digits(self, cell_half):
        table80 = jv_table(cell_half.grid, PrecisionCtx(80, 1e-30))
        worst = max(ulps(float(a), float(b))
                    for a, b in zip(cell_half.table.values, table80.values))
        assert worst <= 1.0

    def test_oracle_agreement_on_table_points(self, cell_half):
        table = cell_half.table
        v = cell_half.p.v
        for n in range(-8, table.n_max + 1):
            assert ulps(table.value(n), jv_exact_dyadic(n, v)) <= 1.0

    def test_deep_entries_for_larger_order(self):
        # At q = 1/2, v = 3/2 the series at q^n, n < 0, cancels about
        # (2n^2 - 4n) log10(2) digits; the working precision must cover the
        # (2v+1)|n| part too.  Every normal binary64 entry on [-40, -8].
        table = jv_table(LatticeGrid(QParams(0.5, 1.5), -20, 80), CTX)
        checked = 0
        for n in range(-40, -7):
            ref = jv_exact_dyadic(n, 1.5, terms=110)
            if abs(ref) < sys.float_info.min:
                continue
            assert abs(table.value(n) - ref) <= 1e-15 * abs(ref), n
            checked += 1
        assert checked >= 20


def _fraction_oracle(m: int, v: float, terms: int) -> float:
    """The q = 1/2 series summed term by term in Fraction (the slow route)."""
    q2, x2 = Fraction(1, 4), Fraction(1, 4) ** m
    q2v = Fraction(1, 2) ** (int(2 * v + 2) - 2)
    total = term = u = Fraction(1)
    for _ in range(terms):
        u *= q2
        term *= -(u * x2) / ((1 - q2v * u) * (1 - u))
        total += term
    return float(total)


class TestExactDyadic:
    @pytest.mark.parametrize("v", [-0.5, 0.0, 0.5, 1.5])
    def test_integer_horner_matches_fraction_sum(self, v):
        for m in range(-8, 81, 11):
            assert jv_exact_dyadic(m, v) == _fraction_oracle(m, v, 60), m
        for m in range(-40, -8, 8):
            assert jv_exact_dyadic(m, v, terms=110) == _fraction_oracle(m, v, 110), m

    @pytest.mark.parametrize("v", [0.25, -1.0])
    def test_rejects_orders_without_dyadic_terms(self, v):
        with pytest.raises(ValueError):
            jv_exact_dyadic(0, v)


# The default cell where the series cancels most: q = 1/2, v = 3/2.
DEEP = LatticeGrid(QParams(0.5, 1.5), -10, 40)


def _with_mp(table: BesselTable, mp_vals: list) -> BesselTable:
    return BesselTable(table.params, table.n_min, table.n_max,
                       np.array([float(x) for x in mp_vals]), mp_vals, table.ctx)


def _eigen_ok(table: BesselTable) -> bool:
    return all(eigen_residual(DEEP, le, table) < 1e-9 for le in (-2, 0, 1, 3))


def _second_solution(table: BesselTable, dps: int) -> list:
    """A recurrence solution run downward from (1, 0) at n_max, n_max + 1."""
    p = table.params
    with mp.workdps(dps):
        q2, q2v = q2_exact(p.q), mp.mpf(p.q) ** (2 * mp.mpf(p.v))
        y = {table.n_max + 1: mp.mpf(0), table.n_max: mp.mpf(1)}
        for n in range(table.n_max, table.n_min, -1):
            y[n - 1] = (1 + q2v - q2**n) * y[n] - q2v * y[n + 1]
    return [y[n] for n in range(table.n_min, table.n_max + 1)]


def _assert_mp_values_match_series(table: BesselTable) -> None:
    """Every mp value within 1e-40 relative of a (120 + lost)-digit series."""
    p = table.params
    for e, got in zip(range(table.n_min, table.n_max + 1), table.mp_values):
        lost = bessel._digits_lost(-e, p)
        ref = bessel._series_at(e, p, CTX, 120 + math.ceil(lost))
        with mp.workdps(60):
            assert abs(got - ref) <= mp.mpf("1e-40") * abs(ref), e


class TestRecurrenceTable:
    """Faults the eigen relation cannot see and the anchor gate must."""

    def test_gate_reads_zero(self):
        table = jv_table(DEEP, CTX)
        assert _eigen_ok(table)
        assert bessel._anchor_ulps(table) == 0.0

    def test_scaled_table_fails_gate(self):
        table = jv_table(DEEP, CTX)
        with mp.workdps(400):
            bad = _with_mp(table, [x * (1 + mp.mpf("1e-12")) for x in table.mp_values])
        assert _eigen_ok(bad)
        assert bessel._anchor_ulps(bad) > 1.0

    def test_second_solution_leftover_fails_gate(self):
        # 1e-12 of the second solution at n_min: what too shallow a start leaves.
        table = jv_table(DEEP, CTX)
        with mp.workdps(400):
            y = _second_solution(table, 400)
            eps = mp.mpf("1e-12") * table.mp_values[0] / y[0]
            bad = _with_mp(table, [j + eps * t for j, t in zip(table.mp_values, y)])
        assert _eigen_ok(bad)
        assert bessel._anchor_ulps(bad) > 1.0

    def test_dropped_order_term_fails_gate(self, monkeypatch):
        # The digit estimate without its (2v+1)m term: the series at the deep
        # end loses its last digits.  The sweep no longer certifies, and the
        # anchors of a sound table disagree with the series.  Per-entry series
        # tables at 50 and 80 digits do not see it.
        def lost(m, p):
            return 2.0 * m * m * math.log10(1.0 / p.q) if m > 0.0 else 0.0

        table = jv_table(DEEP, CTX)
        monkeypatch.setattr(bessel, "_digits_lost", lost)
        with pytest.raises(PrecisionExhausted):
            jv_table(DEEP, CTX)
        assert bessel._anchor_ulps(table) > 1.0

        def series_table(ctx):
            return [float(bessel._series_at(e, DEEP.params, ctx))
                    for e in range(table.n_min, table.n_max + 1)]

        pairs = zip(series_table(CTX), series_table(PrecisionCtx(80, 1e-30)))
        assert max(ulps(a, b) for a, b in pairs) <= 1.0

    @pytest.mark.parametrize("q, v, n_lo, n_hi", list(DEFAULT_CELLS) + [
        (0.9, v, default_scan_grid(QParams(0.9, v)).n_lo,
         default_scan_grid(QParams(0.9, v)).n_hi) for v in (-0.7, 0.0, 0.5)])
    def test_mp_values_match_120_digit_series(self, q, v, n_lo, n_hi):
        _assert_mp_values_match_series(jv_table(LatticeGrid(QParams(q, v), n_lo, n_hi), CTX))

    def test_shallow_grid_with_long_top(self):
        # n_min = -4 needs few digits, but for v > 0 the second solution grows
        # by q^{-2v} a step up to n_max = 160 (about 145 digits at q = 1/2).
        table = jv_table(LatticeGrid(QParams(0.5, 1.5), -2, 80), CTX)
        assert bessel._anchor_ulps(table) == 0.0
        _assert_mp_values_match_series(table)

    def test_shallow_start_is_deepened(self, monkeypatch):
        # Here a start at n_min leaves 2e-16 of the second solution there, one
        # below n_min 1e-32 (binary64-exact, yet 1e-32 in every mp value) and
        # two below 3e-49: certification takes the third sweep.
        grid = LatticeGrid(QParams(0.8, 0.5), -20, 120)
        ref = jv_table(grid, CTX)
        starts = []
        sweep = bessel._sweep

        def spy(p, n_start, n_max, dps):
            starts.append(n_start)
            return sweep(p, n_start, n_max, dps)

        monkeypatch.setattr(bessel, "_sweep", spy)
        monkeypatch.setattr(bessel, "_START_DEPTH", 0)
        table = jv_table(grid, CTX)
        assert starts == [ref.n_min, ref.n_min - 1, ref.n_min - 2]
        assert table.values.tobytes() == ref.values.tobytes()
        _assert_mp_values_match_series(table)

    def test_sweep_runs_at_work_digits(self, monkeypatch):
        # The series at n_min = -24 cancels ~600 digits at q = 0.3; the
        # recurrence does not, and runs at 50 work digits plus 20 guard.
        digits = []
        sweep = bessel._sweep

        def spy(p, n_start, n_max, dps):
            digits.append(dps)
            return sweep(p, n_start, n_max, dps)

        monkeypatch.setattr(bessel, "_sweep", spy)
        table = jv_table(default_scan_grid(QParams(0.3, 0.0)), CTX)
        assert digits and max(digits) <= 70
        assert bessel._anchor_ulps(table) == 0.0

    @pytest.mark.parametrize("grid", [
        default_scan_grid(QParams(0.9, -0.7)),       # the longest README sweep
        LatticeGrid(QParams(0.5, 1.5), -2, 80),      # the most top growth
    ], ids=["q0.9-v-0.7", "q0.5-v1.5"])
    def test_integer_sweep_matches_mp_recurrence(self, grid, monkeypatch):
        # Every step of the int sweep against the same recurrence in mpf at
        # twice the digits: within 10^-(dps-10), lifted above n = 0 by the
        # q^{-2v} a step that the second solution grows for v > 0.
        calls = []
        sweep = bessel._sweep

        def spy(p, n_start, n_max, dps):
            calls.append((p, n_start, n_max, dps, sweep(p, n_start, n_max, dps)))
            return calls[-1][-1]

        monkeypatch.setattr(bessel, "_sweep", spy)
        jv_table(grid, CTX)
        p, n_start, n_max, dps, got = calls[0]
        assert len(got) == n_max - n_start + 1
        w = mp.libmp.dps_to_prec(dps)
        with mp.workdps(2 * dps):
            q2, q2v = q2_exact(p.q), mp.mpf(p.q) ** (2 * mp.mpf(p.v))
            u, prev, cur = q2 ** n_start, mp.mpf(0), mp.mpf(1)
            for n, fixed in zip(range(n_start, n_max + 1), got):
                tol = mp.mpf(10) ** -(dps - 10) * mp.mpf(p.q) ** (-2 * max(p.v, 0) * max(n, 0))
                assert abs(mp.ldexp(fixed, -w) - cur) <= tol * abs(cur), n
                prev, cur = cur, ((1 + q2v - u) * cur - prev) / q2v
                u *= q2

    def test_mp_values_at_both_ends_match_150_digit_series(self):
        # q = 0.9 on [-30, 300]: the deepest entries, where the 70-digit
        # sweep is furthest from the series' own precision, and the top.
        p = QParams(0.9, 0.0)
        table = jv_table(LatticeGrid(p, -30, 300), CTX)
        lo, hi = table.n_min, table.n_max
        for e in [*range(lo, lo + 4), *range(hi - 3, hi + 1)]:
            lost = bessel._digits_lost(-e, p)
            ref = bessel._series_at(e, p, CTX, 150 + math.ceil(lost))
            with mp.workdps(80):
                assert abs(table.mp_value(e) - ref) <= mp.mpf("1e-49") * abs(ref), e

    def test_uncertified_start_raises(self, monkeypatch):
        monkeypatch.setattr(bessel, "_START_DEPTH", 0)
        monkeypatch.setattr(bessel, "_MAX_SWEEPS", 1)
        with pytest.raises(PrecisionExhausted):
            jv_table(LatticeGrid(QParams(0.8, 0.5), -20, 120), CTX)


class TestDecayBound:
    def test_holds_on_table(self, cell_half):
        chk = decay_bound_check(cell_half.table)
        assert chk.max_ratio <= 1.0 + 1e-12
        assert chk.passed

    def test_negative_branch_explicitly(self):
        p = QParams(0.5, 0.0)
        const = decay_bound_constant(p, CTX)
        for n in range(-8, 0):
            bound = const * p.q ** (n * n - (2 * p.v + 1) * n)
            assert abs(jv(p.q**n, p, CTX)) <= bound * (1 + 1e-12)

    def test_positive_branch_explicitly(self):
        p = QParams(0.5, 0.0)
        const = decay_bound_constant(p, CTX)
        for n in range(0, 30):
            assert abs(jv(p.q**n, p, CTX)) <= const * (1 + 1e-12)


class TestEigenRelation:
    @pytest.mark.parametrize("lambda_exp", [-2, 0, 1, 3])
    def test_residual_small(self, cell_half, lambda_exp):
        r = eigen_residual(cell_half.grid, lambda_exp, cell_half.table)
        assert r < 1e-9

    def test_rows_stop_where_table_rounding_would_show(self):
        # q = 1/2, v = -0.7 on [-14, 97]: q^{-2n} lifts the 50-digit rounding
        # to 6.6 at n = 96.  Rows stop at 2n log10(2) <= 50 - 12, n <= 63,
        # so the grid beyond 64 adds no row.
        p = QParams(0.5, -0.7)
        table = jv_table(LatticeGrid(p, -14, 97), CTX)
        long = [eigen_residual(LatticeGrid(p, -14, 97), le, table) for le in (-2, 0, 1, 3)]
        short = [eigen_residual(LatticeGrid(p, -14, 64), le, table) for le in (-2, 0, 1, 3)]
        assert long == short
        assert max(long) < 1e-12

    def test_constant_function_is_annihilated(self, cell_half):
        # Delta 1 = (1 - (1+q^{2v}) + q^{2v}) / x^2 = 0, exactly.
        from qfourier.lattice import GridFn
        from qfourier.transform import q_bessel_operator

        grid = cell_half.grid
        out = q_bessel_operator(GridFn(grid, np.ones(grid.size)))
        assert np.max(np.abs(out.values)) == 0.0

    def test_quadratic_gives_constant(self, cell_half):
        # f(x) = x^2: Delta f = q^{-2} - 1 - q^{2v} + q^{2v+2}, a constant.
        from qfourier.lattice import GridFn
        from qfourier.transform import q_bessel_operator

        grid = cell_half.grid
        q, v = grid.params.q, grid.params.v
        x2 = np.power(q, 2.0 * grid.exponents.astype(float))
        out = q_bessel_operator(GridFn(grid, x2))
        expected = q**-2 - 1 - q ** (2 * v) + q ** (2 * v + 2)
        assert np.allclose(out.values, expected, rtol=1e-12)
