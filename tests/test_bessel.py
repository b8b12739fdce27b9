"""Normalized q-Bessel function: series, tables, decay bound, eigen relation."""

import functools
import hashlib
import math
import sys
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath.libmp import fzero, from_int, from_man_exp, mpf_mul, round_nearest, to_float

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
from qhyper_ref import jv_ref

CTX = PrecisionCtx()


def ulps(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


class TestScalar:
    def test_at_zero(self):
        assert jv(0.0, QParams(0.5, 0.5)) == 1.0
        assert jv(0.0, QParams(0.9, 1.5)) == 1.0

    def test_precision_ceiling(self):
        from qfourier.errors import PrecisionExhausted

        with pytest.raises(PrecisionExhausted):
            jv(2.0 ** 300, QParams(0.5, 0.5))

    @pytest.mark.parametrize("q, x", [(0.99, 2.0), (0.99, 1.0), (0.98, 2.0)])
    def test_measured_cancellation_near_one(self, q, x):
        # The series cancels more digits here than the a-priori estimate counts
        # (81 at q=0.99, x=2); a 400-digit sum of the same series is the truth.
        v = 0.5
        with mp.workdps(400):
            qm = mp.mpf(q)
            x2, c = mp.mpf(x) ** 2, qm ** (2 * v + 2)
            total = term = u = mp.mpf(1)
            for n in range(1, 10_000):
                u *= qm * qm                                  # q^{2n}
                term *= -u * x2 / ((1 - c * u / (qm * qm)) * (1 - u))
                total += term
                if u * x2 < 1 and abs(term) < mp.mpf(10) ** -390:
                    break
        assert ulps(jv(x, QParams(q, v)), float(total)) <= 1.0

    def test_small_argument_expansion(self):
        # j = 1 - q^2 x^2 / ((1-q^{2v+2})(1-q^2)) + O(x^4).
        q, v = 0.5, 0.5
        x = q**10
        two_term = 1 - q**2 * x**2 / ((1 - q ** (2 * v + 2)) * (1 - q**2))
        assert jv(x, QParams(q, v)) == pytest.approx(two_term, abs=1e-10)

    @pytest.mark.parametrize("m", [-5, -3, 0, 2])
    def test_exact_rational_oracle(self, m):
        got = jv(0.5 ** m, QParams(0.5, 0.0))
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
        limit = jv(x, QParams(q, v))
        for lo, hi in zip(partials[1::2], partials[0::2]):
            assert lo - 1e-15 <= limit <= hi + 1e-15


class TestTable:
    def test_covers_double_range_and_matches_scalar(self, cell_half):
        table, grid = cell_half.table, cell_half.grid
        assert table.n_min == 2 * grid.n_lo
        assert table.n_max == 2 * grid.n_hi
        assert table.value(0) == pytest.approx(
            jv(1.0, grid.params), abs=1e-15)

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
        table80 = jv_table(cell_half.grid, PrecisionCtx(80))
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
            ref = jv_exact_dyadic(n, 1.5)
            if abs(ref) < sys.float_info.min:
                continue
            assert abs(table.value(n) - ref) <= 1e-15 * abs(ref), n
            checked += 1
        assert checked >= 20


@functools.cache
def _series_coefficients(v: float, terms: int) -> tuple[list[int], int]:
    """c_0..c_terms of j_v(x) = sum_k c_k x^{2k} at q = 1/2, each a Fraction
    formed from its q-Pochhammer factors, as integers over one denominator."""
    q2 = Fraction(1, 4)
    q2v = Fraction(1, 2) ** (int(2 * v + 2) - 2)
    coeffs, u = [Fraction(1)], Fraction(1)
    for _ in range(terms):
        u *= q2
        coeffs.append(coeffs[-1] * -u / ((1 - q2v * u) * (1 - u)))
    den = math.lcm(*(c.denominator for c in coeffs))
    return [c.numerator * (den // c.denominator) for c in coeffs], den


def _fraction_oracle(m: int, v: float, terms: int) -> float:
    """The first ``terms`` + 1 terms of the q = 1/2 series at x = 2^-m, summed
    exactly in rationals and rounded once (the slow route, a fixed truncation)."""
    nums, den = _series_coefficients(v, terms)
    if m >= 0:
        return sum(n << 2 * m * (terms - k) for k, n in enumerate(nums)) / (den << 2 * m * terms)
    return sum(n << -2 * m * k for k, n in enumerate(nums)) / den


class TestExactDyadic:
    @pytest.mark.parametrize("v", [-0.5, 0.0, 0.5, 1.5])
    def test_integer_horner_matches_fraction_sum(self, v):
        # 130 terms reach 2^-6600 of the sum's envelope at m = -40; the oracle
        # picks its own term count and certifies its rounding.
        for m in range(-40, 121):
            assert jv_exact_dyadic(m, v) == _fraction_oracle(m, v, 130), m

    def test_short_start_is_doubled_not_trusted(self, monkeypatch):
        # Without the guard bits t_{K+1} starts about the size of j_v: the
        # interval test must refuse that sum (20 of these 54 m) and go on.
        monkeypatch.setattr(bessel, "_DYADIC_GUARD_BITS", 0)
        for m in range(-40, 121, 3):
            assert jv_exact_dyadic(m, 0.5) == _fraction_oracle(m, 0.5, 130), m

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
    return eigen_residual(DEEP, (-2, 0, 1, 3), table) < 1e-9


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
    """Every mp value within 1e-40 relative of mpmath's qhyper."""
    p = table.params
    for e, got in zip(range(table.n_min, table.n_max + 1), table.mp_values):
        ref = jv_ref(p.q, p.v, e, 50)
        with mp.workdps(60):
            assert abs(got - ref) <= mp.mpf("1e-40") * abs(ref), e


class TestRecurrenceTable:
    """Faults the eigen relation cannot see and the anchor gate must."""

    def test_gate_reads_zero(self):
        table = jv_table(DEEP, CTX)
        assert _eigen_ok(table)
        assert bessel.anchor_ulps(table) == 0.0

    def test_scaled_table_fails_gate(self):
        table = jv_table(DEEP, CTX)
        with mp.workdps(400):
            bad = _with_mp(table, [x * (1 + mp.mpf("1e-12")) for x in table.mp_values])
        assert _eigen_ok(bad)
        assert bessel.anchor_ulps(bad) > 1.0

    def test_second_solution_leftover_fails_gate(self):
        # 1e-12 of the second solution at n_min: what too shallow a start leaves.
        table = jv_table(DEEP, CTX)
        with mp.workdps(400):
            y = _second_solution(table, 400)
            eps = mp.mpf("1e-12") * table.mp_values[0] / y[0]
            bad = _with_mp(table, [j + eps * t for j, t in zip(table.mp_values, y)])
        assert _eigen_ok(bad)
        assert bessel.anchor_ulps(bad) > 1.0

    @pytest.mark.parametrize("v", [0.0, 0.5])
    def test_gate_measures_the_cancellation_near_one(self, v):
        # q = 0.99 on [-5, 5]: the series cancels more digits than the
        # estimate gives it, and a reference summed at the estimate's digits
        # read 3.2e15 (v = 0) and 1.6e15 ulps (v = 0.5) off a sound table.
        table = jv_table(LatticeGrid(QParams(0.99, v), -5, 5), CTX)
        assert bessel.anchor_ulps(table) <= 1.0

    @pytest.mark.parametrize("q, v, n_lo, n_hi", list(DEFAULT_CELLS) + [
        (0.9, v, default_scan_grid(QParams(0.9, v)).n_lo,
         default_scan_grid(QParams(0.9, v)).n_hi) for v in (-0.7, 0.0, 0.5)])
    def test_mp_values_match_120_digit_series(self, q, v, n_lo, n_hi):
        _assert_mp_values_match_series(jv_table(LatticeGrid(QParams(q, v), n_lo, n_hi), CTX))

    def test_shallow_grid_with_long_top(self):
        # n_min = -4 needs few digits, but for v > 0 the second solution grows
        # by q^{-2v} a step up to n_max = 160 (about 145 digits at q = 1/2).
        table = jv_table(LatticeGrid(QParams(0.5, 1.5), -2, 80), CTX)
        assert bessel.anchor_ulps(table) == 0.0
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
        assert bessel.anchor_ulps(table) == 0.0

    def test_anchors_run_at_sweep_digits(self, monkeypatch):
        # The series cancels ~600 digits at n_min = -24 here, and anchors set
        # by it ran at 671 digits.  The two sums each run one pass plus the 32
        # first guard bits (their terms cancel less than that): the series at
        # n_max, which scales every entry, at the sweep's digits plus 10, and
        # the lattice sum at n_min, which only certifies, at the certificate's
        # digits plus 10.
        sweeps, sums = [], []
        sweep, ratio_sum = bessel._sweep, bessel.ratio_sum_mp

        def spy_sweep(p, n_start, n_max, dps):
            sweeps.append(dps)
            return sweep(p, n_start, n_max, dps)

        def spy_sum(inputs, digits, where, guard=32):
            passes = []

            def spy_inputs():
                passes.append(mp.mp.prec)     # each pass reads its inputs once
                return inputs()

            sums.append((where, digits, passes))
            return ratio_sum(spy_inputs, digits, where, guard)

        monkeypatch.setattr(bessel, "_sweep", spy_sweep)
        monkeypatch.setattr(bessel, "ratio_sum_mp", spy_sum)
        grid = default_scan_grid(QParams(0.3, 0.0))
        table = jv_table(grid, CTX)
        assert [where for where, *_ in sums] == [
            f"j_v at q^{table.n_max} (q=0.3, v=0)",
            f"the lattice sum of j_v at q^{table.n_min} (q=0.3, v=0)"]
        assert [digits for _, digits, _ in sums] == [max(sweeps) + 10, 50]
        assert bessel._CERTIFY_DIGITS == 50
        for _, digits, passes in sums:
            assert passes == [mp.libmp.dps_to_prec(digits) + 32]
            assert passes[0] < mp.libmp.dps_to_prec(671)
        assert bessel.anchor_ulps(table) == 0.0

    @pytest.mark.parametrize("q", [0.3, 0.5, 0.7, 0.9])
    def test_certificate_digit_anchor_matches_sweep_digit_anchor(self, q, monkeypatch):
        # The README scan: the bottom anchor at the certificate's 50 digits
        # against the same sum at the sweep's digits plus 10 (80 to 122), as
        # it ran before; the gap is far inside the 1e-40 certificate, so each
        # table still certifies from its first start, ten below n_min.
        starts, sweep = [], bessel._sweep

        def spy(p, n_start, n_max, dps):
            starts.append((n_start, dps))
            return sweep(p, n_start, n_max, dps)

        monkeypatch.setattr(bessel, "_sweep", spy)
        for v in (-0.7, 0.0, 0.5):
            starts.clear()
            table = jv_table(default_scan_grid(QParams(q, v)), CTX)
            (n_start, dps), = starts
            assert n_start == table.n_min - bessel._START_DEPTH
            new = bessel._anchor(table.n_min, table.params, bessel._CERTIFY_DIGITS)
            old = bessel._anchor(table.n_min, table.params, dps + 10)
            with mp.workdps(dps + 10):
                assert abs(new - old) <= mp.mpf("1e-45") * abs(old), (q, v)

    def test_anchor_above_300_digits_certifies(self):
        # v = 3 on n_max = 40 at q = 0.1: the second solution grows 240 digits,
        # so the sweep runs at 310 digits and the anchors at 320.  Digit counts
        # near 318 must not pass through a binary64 10^-(digits+5).
        table = jv_table(LatticeGrid(QParams(0.1, 3.0), -6, 20), CTX)
        assert bessel.anchor_ulps(table) == 0.0
        _assert_mp_values_match_series(table)

    def test_perturbed_anchor_fails_certification(self, monkeypatch):
        # A lattice sum off by 1e-35 can be matched by no sweep.
        ratio_sum = bessel.ratio_sum_mp

        def scaled(inputs, digits, where, guard=32):
            total = ratio_sum(inputs, digits, where, guard)
            if where.startswith("the lattice sum"):
                with mp.workdps(digits):
                    return total * (1 + mp.mpf("1e-35"))
            return total

        monkeypatch.setattr(bessel, "ratio_sum_mp", scaled)
        with pytest.raises(PrecisionExhausted):
            jv_table(DEEP, CTX)

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
        # sweep is furthest from the series' own precision, and the top,
        # against mpmath's qhyper.
        p = QParams(0.9, 0.0)
        table = jv_table(LatticeGrid(p, -30, 300), CTX)
        lo, hi = table.n_min, table.n_max
        for e in [*range(lo, lo + 4), *range(hi - 3, hi + 1)]:
            ref = jv_ref(p.q, p.v, e, 60)
            with mp.workdps(80):
                assert abs(table.mp_value(e) - ref) <= mp.mpf("1e-49") * abs(ref), e

    def test_uncertified_start_raises(self, monkeypatch):
        monkeypatch.setattr(bessel, "_START_DEPTH", 0)
        monkeypatch.setattr(bessel, "_MAX_SWEEPS", 1)
        with pytest.raises(PrecisionExhausted):
            jv_table(LatticeGrid(QParams(0.8, 0.5), -20, 120), CTX)


def _assert_anchor_matches_series(q: float, v: float, m: int) -> None:
    """The lattice anchor at the sweep digits of a 50-digit table, against
    mpmath's qhyper at q^-m."""
    p = QParams(q, v)
    dps = max(CTX.work_digits, 26) + bessel._SWEEP_GUARD_DIGITS + 10
    got = bessel._anchor(-m, p, dps)
    ref = jv_ref(q, v, -m, 55)
    with mp.workdps(60):
        assert abs(got - ref) <= mp.mpf("1e-45") * abs(ref), (q, v, m)


class TestLatticeAnchor:
    """j_v(q^-m) by the lattice sum against the power series."""

    @pytest.mark.parametrize("q, v, m", [
        (0.1, 3.0, 60),       # the series cancels ~7600 digits
        (0.1, -0.99, 1),
        (0.3, 0.0, 24),       # the README scan's deepest q = 0.3 anchor
        (0.5, 1.5, 20),
        (0.9, -0.7, 1),       # the terms grow 3.7 digits before they fall
        (0.95, 0.5, 1),       # and 7 here: the anchor sums twice
        (0.95, -0.999, 40),
        (0.95, 3.0, 60),
    ])
    def test_matches_series(self, q, v, m):
        _assert_anchor_matches_series(q, v, m)

    @pytest.mark.parametrize("e", [-1, 0])
    def test_cancellation_near_one_is_measured(self, e):
        # At q = 0.99 the lattice sum at q^-1 and the series at 1 both cancel
        # about 41 digits that the a-priori estimate does not count: each
        # anchor sums again with the digits its terms showed.
        p = QParams(0.99, 0.5)
        got = bessel._anchor(e, p, 80)
        ref = jv_ref(0.99, 0.5, e, 80, extra=50)
        with mp.workdps(90):
            assert abs(got - ref) <= mp.mpf("1e-70") * abs(ref)

    @settings(max_examples=12, deadline=None)
    @given(q=st.floats(0.1, 0.95), v=st.floats(-1.0, 3.0, exclude_min=True),
           m=st.integers(1, 60))
    def test_matches_series_anywhere(self, q, v, m):
        _assert_anchor_matches_series(q, v, m)



# Raw mpf tuples for _round_entry: a signed int of 0 to 800 bits, a scale of
# any sign, mantissa and exponent, and a precision past both.
_SIGNED_INTS = st.integers(0, 800).flatmap(lambda b: st.integers(-2**b, 2**b))
_SCALES = st.builds(lambda sign, man, exp: from_man_exp(-man if sign else man, exp),
                    st.booleans(), st.integers(1, 2**400), st.integers(-1200, 1200))

# Raw mpf tuples for _to_floats: mantissas of 1 to 1100 bits, 1018 to 1030
# bits (also with 60 leading ones, which float() rounds up past 2^1024 at 1024
# bits), or 54 bits (a tie at the 54th bit) shifted with one bit more or less
# below it; magnitudes (exp + bits) subnormal, ordinary or near overflow.
_TIE = st.integers(2**52, 2**53 - 1).map(lambda m: 2 * m + 1)
_MANTISSAS = st.one_of(
    _TIE,
    st.tuples(_TIE, st.integers(1, 80), st.sampled_from([-1, 1])).map(
        lambda t: (t[0] << t[1]) + t[2]),
    st.integers(1, 1100).flatmap(lambda b: st.integers(2**(b - 1), 2**b - 1)),
    st.integers(1018, 1030).flatmap(lambda b: st.integers(2**(b - 1), 2**b - 1)),
    st.integers(1018, 1030).flatmap(lambda b: st.integers(1, 2**(b - 60)).map(
        lambda k: 2**b - k)),
)
_MAGNITUDES = st.one_of(st.integers(-1130, -1015), st.integers(-60, 60), st.integers(1015, 1030))
_RAW_FLOATS = st.one_of(st.just(fzero), st.builds(
    lambda man, mag, sign: from_man_exp(-man if sign else man, mag - man.bit_length()),
    _MANTISSAS, _MAGNITUDES, st.booleans()))


class TestRoundEntry:
    @settings(max_examples=400, deadline=None)
    @given(f=_SIGNED_INTS, scale=_SCALES, prec=st.integers(1, 1300))
    def test_matches_mpf_mul(self, f, scale, prec):
        assert (bessel._round_entry(f, scale, prec)
                == mpf_mul(from_int(f), scale, prec, round_nearest))

    @settings(max_examples=300, deadline=None)
    @given(r=st.integers(0, 2**300), m=st.integers(0, 2**300), low=st.integers(0, 200),
           sign=st.booleans(), scale_sign=st.booleans(), exp=st.integers(-1200, 1200))
    def test_halfway_ties_go_to_even(self, r, m, low, sign, scale_sign, exp):
        # f m = (2M + 1) 2^low with 2M + 1 = r m, both odd: half an ulp above M
        # at prec = the bits of M, so the result is M or M + 1, whichever is even.
        r, m = 2 * r + 3, 2 * m + 1
        f = (r << low) * (-1 if sign else 1)
        scale = (int(scale_sign), m, exp, m.bit_length())
        big = (r * m - 1) // 2
        got = bessel._round_entry(f, scale, big.bit_length())
        assert got == mpf_mul(from_int(f), scale, big.bit_length(), round_nearest)
        assert got == from_man_exp((-1) ** (sign ^ scale_sign) * (big + (big & 1)),
                                   exp + low + 1)

    @pytest.mark.parametrize("man", [3, 5, 7, 2**52 + 1, 2**53 - 1, 2**200 + 3])
    def test_ties_in_both_directions(self, man):
        # M even stays, M odd rounds up: the tie one bit below prec.
        for m in (man - 1, man):
            prec = m.bit_length()
            for sign in (0, 1):
                f = (2 * m + 1) * (-1) ** sign
                got = bessel._round_entry(f, (0, 1, -7, 1), prec)
                assert got == mpf_mul(from_int(f), (0, 1, -7, 1), prec, round_nearest)
                assert got == from_man_exp((-1) ** sign * (m + (m & 1)), -6)

    @pytest.mark.parametrize("scale", [(0, 1, 0, 1), (1, 3, -40, 2), (0, 2**400 + 1, 900, 401)])
    def test_zero_and_short_products(self, scale):
        assert bessel._round_entry(0, scale, 53) == mpf_mul(from_int(0), scale, 53,
                                                            round_nearest) == fzero
        # Shorter than prec: no rounding, only the trailing zeros stripped.
        for f in (1, -1, 6, -2**30, 2**100 - 1):
            got = bessel._round_entry(f, scale, 1200)
            assert got == mpf_mul(from_int(f), scale, 1200, round_nearest)
            assert got == from_man_exp(f * scale[1] * (-1) ** scale[0], scale[2])

    @settings(max_examples=300, deadline=None)
    @given(f=st.integers(1, 2**200).map(lambda x: x | 1), sign=st.booleans(),
           mag=st.one_of(st.integers(-1120, -1015), st.integers(-1010, -990),
                         st.integers(990, 1030)), prec=st.integers(1, 200))
    def test_binary64_is_the_mpf_float(self, f, sign, mag, prec):
        # Subnormal binary64 (below 2^-1022, down to zero), and 2^+-1000 up to
        # overflow: to_float at round_nearest is what float() of the mpf gives.
        t = bessel._round_entry(-f if sign else f, (0, 1, mag - f.bit_length(), 1), prec)
        assert to_float(t, rnd=round_nearest) == float(mp.make_mpf(t))

    @settings(max_examples=400, deadline=None)
    @given(raws=st.lists(_RAW_FLOATS, min_size=1, max_size=8))
    def test_one_pass_floats_are_to_float(self, raws):
        # Ties at the 54th bit and one bit either side of them, subnormal,
        # ordinary and near-overflow magnitudes, mantissas on both sides of
        # 1024 bits (those take to_float itself), mixed in one list.
        want = np.array([to_float(t, rnd=round_nearest) for t in raws])
        assert bessel._to_floats(raws).tobytes() == want.tobytes()


# sha256 of ``values`` and of the mp mantissas, as the tables were when both
# anchors summed the series at n_min's precision: the README scan, the
# default cells, and four more (an anchor above 300 digits and three
# q >= 0.95 grids).  The lattice anchor must change no bit of them.
_TABLE_SHA256 = {
    (0.3, -0.7, -12, 59): (
        "042866fb052d7aa141add024c6089a974d452d8d5a67f18774ab1090514bb4c3",
        "8b0b7352242d7a90604aaa972296eb1644da270f3c5bfe373708fafa7a2fa9be"),
    (0.3, 0.0, -12, 40): (
        "06b51b2720dd1846acdaea5c9010609bb03a797007a30b9d2f062023c8731d65",
        "04412579df8db3b3618eeb773db69ff22fb4ff0eb42267067b61617b53db1d84"),
    (0.3, 0.5, -12, 40): (
        "df783467d1f4f8def42db854d4dd737e1e365bb7b7e83ad1a514da5f74f220db",
        "8139f3b7ac922690209587ab720ae3147b058de5e3bbec55c6b8bb948a599325"),
    (0.5, -0.7, -14, 97): (
        "88aeca30ace85525efd189ed6e80c26ffa5c6bf89f7f80621b366d6d90c98de4",
        "ce0d95ba1242cd0bebda0eb3ba71c5a812f0d9be03257da3c0d58e3b304d885f"),
    (0.5, 0.0, -14, 40): (
        "faabea90ad8be19c4302f430f287ce6dd284ca83ab06ad1360360d6318737036",
        "88866b66e0c6a6003f804007ff267e4baf337fb94fe729aadb7bfde66943e341"),
    (0.5, 0.5, -14, 40): (
        "2695a4745ff818685100363bff406e2a70990cc926188ef1fa925d7026423d89",
        "a324950ce43ab24a2abf0de79f3781e8bf156ed75b60a7d3c06fcdd4176b80a3"),
    (0.7, -0.7, -17, 181): (
        "bd45a75df5336e702c7488e763affeca39a2fabb482e1d2a9302973653d5befd",
        "3c7450659095a82f8391c7d55435bbddc86180ef29741476d8a54e70f6d47c85"),
    (0.7, 0.0, -17, 60): (
        "0353396b2d33bbccacbaaefe7e23a8c8c0d5b76aea71b9793fe2791c34645264",
        "c000800afdffa93bda78d9d92db056b40a439845acd436a91296b227f6579246"),
    (0.7, 0.5, -17, 43): (
        "425395a7ea38af1e6cdfadb5b4772340cc64922a1345d135e567a7f1ba1eac43",
        "0c5795fed11f9283270ac952fad8d8b7b6e9f56ed721c0a22be857405226bf5a"),
    (0.9, -0.7, -25, 591): (
        "71694d7abcf33b95d7db308f056a133729e61bb8c3f6f8883c542da118d0546a",
        "5f0d7e57d1287256630fde703b2374b99a0e2c043f3bcbf4167b2a507882bba4"),
    (0.9, 0.0, -25, 183): (
        "9e9fa3526d726a572ff502977b9294b8dac82562ac671f1ff507df363c2d3e26",
        "76007c0c4a60dc68d55dcbe1ff0c4521fe5ba771febeebff09f8c43305e48564"),
    (0.9, 0.5, -25, 125): (
        "8f205699d3a0a7d8979e12e58d028883c6789e4c777fae3a23095d00b9e6c1b7",
        "1ee526c72ed1e22c7f298d792a855b5f32845f2464ccbd8c9be591bffd485731"),
    (0.5, 0.0, -10, 40): (
        "2b34a1ee82626eeb12aaad7a24b140d6a72669d57f7c0bdef210bbcdfeca6108",
        "8a6eb0d772947f7918ab85b6ab533bec3ff36f84f1b5104a1e3ec1292262abe6"),
    (0.5, 0.5, -10, 40): (
        "c2c35cbbc80f4f9efc047457da52235097b88f4c8d66e58b391b7c3417ea3b49",
        "06ce2ee2afc6fa0422d97b5fea701d7a97c39433d60dd3978d57e7b8fb75389d"),
    (0.5, 1.5, -10, 40): (
        "51c829f22fc13646dc9be5d67c944fdad7fa1a6759109b0587b5cf5777c49096",
        "3e98071316a35aaa60c5470dd32ba23d24ee87213adcc73466081067ddd071a6"),
    (0.8, 0.5, -20, 120): (
        "c9dc37136662715b341940781a1ec52e670b123a3faa8e63fa733da0ae80406f",
        "e82e33d2acaad678153bfd36ca24d9e6cceff22066a3f2d4454a3a9b52529408"),
    (0.1, 3.0, -6, 20): (
        "8d394126b1bf36f2850bb265cf809e8fd59c8a4951f999d6f56982727ca00c50",
        "d779c2835b0973e0521d9a833e9384b803500022d259e5f37edf7e01051ef27e"),
    (0.95, 0.5, -3, 6): (
        "d014b9d7b305a4052f690406639cf213582350d81f23037818b7fdfc443de6dd",
        "150c8b26ae7c52185659e9bc04c2415f48399667db78cba23d42c2287a8a1c2f"),
    (0.97, 0.5, -5, 10): (
        "2f0caf60c582bfa501e571b753db1c3fd98c7f483d316a0c9f40958d913cca1a",
        "c25f1880635481cc6162ec087d6deaa77ac6804ed2c50debd3211d9a6e00eaab"),
    (0.95, 0.0, -10, 20): (
        "f009c9b758198ad989cd8080f7d690b7a5adbdbcb5addac6e020839cd5e6298a",
        "9ad024a6c88e607068e57ae51436cdcf63dfa62c432343274f13ae9a490e6442"),
}

# The sweep depths below n_min that each pinned table tried, where not only
# the first, ten below.
_SWEEP_DEPTHS = {
    (0.95, 0.5, -3, 6): [10, 20, 40],
    (0.97, 0.5, -5, 10): [10, 20, 40],
    (0.95, 0.0, -10, 20): [10, 20],
}


def _table_sha256(table: BesselTable) -> tuple[str, str]:
    mantissas = hashlib.sha256()
    for x in table.mp_values:
        sign, man, exp, _ = x._mpf_
        mantissas.update(f"{sign} {man:x} {exp};".encode())
    return hashlib.sha256(table.values.tobytes()).hexdigest(), mantissas.hexdigest()


class TestTableFingerprint:
    def test_pins_cover_scan_and_default_cells(self):
        scan = {(g.params.q, g.params.v, g.n_lo, g.n_hi) for g in (
            default_scan_grid(QParams(q, v)) for q in (0.3, 0.5, 0.7, 0.9)
            for v in (-0.7, 0.0, 0.5))}
        assert scan | set(DEFAULT_CELLS) <= set(_TABLE_SHA256)

    @pytest.mark.parametrize("q, v, n_lo, n_hi", list(_TABLE_SHA256))
    def test_bit_identical(self, q, v, n_lo, n_hi):
        table = jv_table(LatticeGrid(QParams(q, v), n_lo, n_hi), CTX)
        assert _table_sha256(table) == _TABLE_SHA256[(q, v, n_lo, n_hi)]

    @pytest.mark.parametrize("q, v, n_lo, n_hi", list(_TABLE_SHA256))
    def test_certifies_at_pinned_start(self, q, v, n_lo, n_hi, monkeypatch):
        # Every pinned table from the same sweep starts as when it was pinned.
        depths, sweep = [], bessel._sweep

        def spy(p, n_start, n_max, dps):
            depths.append(2 * n_lo - n_start)
            return sweep(p, n_start, n_max, dps)

        monkeypatch.setattr(bessel, "_sweep", spy)
        jv_table(LatticeGrid(QParams(q, v), n_lo, n_hi), CTX)
        assert depths == _SWEEP_DEPTHS.get((q, v, n_lo, n_hi), [10])

    @pytest.mark.parametrize("v", [0.0, 0.5])
    def test_near_one_certifies_at_the_fifth_start(self, v):
        # q = 0.99 on [-5, 5]: the start 80 below n_min still leaves 7e-18 of
        # the second solution and the fifth, 160 below, certifies.  Both ends
        # of the table against mpmath's qhyper (the series cancels ~41 digits).
        p = QParams(0.99, v)
        table = jv_table(LatticeGrid(p, -5, 5), CTX)
        for e in (table.n_min, 0):
            ref = jv_ref(0.99, v, e, 50, extra=50)
            with mp.workdps(60):
                assert abs(table.mp_value(e) - ref) <= mp.mpf("1e-40") * abs(ref), e
            assert table.value(e) == float(ref), e

    @pytest.mark.parametrize("q, v, n_lo, n_hi", [(0.998, 0.5, -3, 6)])
    def test_near_one_still_refused(self, q, v, n_lo, n_hi):
        # No start up to 160 below n_min (the fifth sweep) certifies here.
        with pytest.raises(PrecisionExhausted):
            jv_table(LatticeGrid(QParams(q, v), n_lo, n_hi), CTX)


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
            assert abs(jv(p.q**n, p)) <= bound * (1 + 1e-12)

    def test_positive_branch_explicitly(self):
        p = QParams(0.5, 0.0)
        const = decay_bound_constant(p, CTX)
        for n in range(0, 30):
            assert abs(jv(p.q**n, p)) <= const * (1 + 1e-12)


class TestEigenRelation:
    @pytest.mark.parametrize("lambda_exp", [-2, 0, 1, 3])
    def test_residual_small(self, cell_half, lambda_exp):
        r = eigen_residual(cell_half.grid, (lambda_exp,), cell_half.table)
        assert r < 1e-9

    def test_rows_stop_where_table_rounding_would_show(self):
        # q = 1/2, v = -0.7 on [-14, 97]: q^{-2n} lifts the 50-digit rounding
        # to 6.6 at n = 96.  Rows stop at 2n log10(2) <= 50 - 12, n <= 63,
        # so the grid beyond 64 adds no row.
        p = QParams(0.5, -0.7)
        table = jv_table(LatticeGrid(p, -14, 97), CTX)
        long = [eigen_residual(LatticeGrid(p, -14, 97), (le,), table) for le in (-2, 0, 1, 3)]
        short = [eigen_residual(LatticeGrid(p, -14, 64), (le,), table) for le in (-2, 0, 1, 3)]
        assert long == short
        assert max(long) < 1e-12
        # One call over all four lambda shares the differences, to the bit.
        assert eigen_residual(LatticeGrid(p, -14, 97), (-2, 0, 1, 3), table) == max(long)

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
