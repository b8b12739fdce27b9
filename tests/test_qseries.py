"""Scalar q-series primitives against brute-force oracles."""

import math

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfourier.errors import PoleAtOne, PrecisionExhausted
from qfourier.qseries import (
    PrecisionCtx,
    QParams,
    c_qv,
    gauss_amplitude,
    qexp,
    q2_exact,
    qpoch_finite,
    qpoch_inf,
    qpoch_inf_mp,
)

CTX = PrecisionCtx()


def poch_oracle(a: float, q: float, dps: int = 60) -> float:
    """Brute-force (a; q)_inf: multiply factors until they stop mattering."""
    with mp.workdps(dps):
        prod = mp.mpf(1)
        aqk = mp.mpf(a)
        for _ in range(5000):
            prod *= 1 - aqk
            aqk *= q
            if abs(aqk) < mp.mpf(10) ** -(dps - 5):
                break
        return float(prod)


# Frozen oracle values (poch_oracle at 60 digits).
POCH_CASES = [
    (0.25, 0.25, 0.6885375371203397),   # (q^2; q^2)_inf at q = 1/2
    (-1.0, 0.5, 4.768462058062743),     # 2 prod(1 + 2^-k)
    (0.5, 0.5, 0.2887880950866024),     # Euler function at 1/2
]


class TestQPochFinite:
    def test_empty_product(self):
        assert qpoch_finite(0.7, 0.5, 0) == 1.0

    def test_two_factors(self):
        assert qpoch_finite(0.5, 0.5, 2) == pytest.approx(0.375, abs=0)

    def test_zero_factor(self):
        assert qpoch_finite(2.0, 0.5, 3) == 0.0

    @given(a=st.floats(-2, 0.99), q=st.floats(0.05, 0.95), n=st.integers(0, 25))
    @settings(max_examples=200, deadline=None)
    def test_recurrence(self, a, q, n):
        # a q^n accumulates by repeated multiplication inside the product, so
        # the recurrence holds to rounding, not bitwise.
        lhs = qpoch_finite(a, q, n + 1)
        rhs = qpoch_finite(a, q, n) * (1 - a * q**n)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-15)

    def test_rejects_q_out_of_range(self):
        with pytest.raises(ValueError):
            qpoch_finite(0.5, 1.0, 3)


class TestQPochInf:
    @pytest.mark.parametrize("a,q,expected", POCH_CASES)
    def test_frozen_oracle_values(self, a, q, expected):
        assert qpoch_inf(a, q, CTX) == pytest.approx(expected, rel=1e-13)
        assert poch_oracle(a, q) == pytest.approx(expected, rel=1e-15)

    def test_a_zero(self):
        assert qpoch_inf(0.0, 0.5, CTX) == 1.0

    def test_exact_zero_factor_returns_zero(self):
        # a = q^-2 makes the k = 2 factor vanish identically.
        assert qpoch_inf(4.0, 0.5, CTX) == 0.0
        assert qpoch_inf(1.0, 0.5, CTX) == 0.0

    @pytest.mark.parametrize("a,q", [(0.25, 0.25), (-1.0, 0.5), (0.9, 0.81)])
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_splitting(self, a, q, k):
        whole = qpoch_inf(a, q, CTX)
        split = qpoch_finite(a, q, k) * qpoch_inf(a * q**k, q, CTX)
        assert split == pytest.approx(whole, rel=1e-13)


def mpf_loop(a, q, ctx: PrecisionCtx = CTX, dps: int | None = None) -> mp.mpf:
    """The rounded-mpf product that the fixed-point loop replaced.

    It keeps ``ctx``'s truncation; ``dps`` raises only its precision.
    """
    with mp.workdps(ctx.work_digits + 10):
        tol = min(ctx.tail_tol, mp.mpf(10) ** -(ctx.work_digits + 5))
    with mp.workdps(dps or ctx.work_digits + 10):
        q_ = q if isinstance(q, mp.mpf) else mp.mpf(q)
        prod, aqk = mp.mpf(1), mp.mpf(a)
        while abs(aqk) >= tol:
            prod *= 1 - aqk
            aqk *= q_
        return prod


def _rel(got, ref) -> mp.mpf:
    with mp.workdps(200):
        return abs(got / ref - 1)


# Negative a, |a| >> 1, a = 7.3 (factors of both signs), a = q^2, and an
# exact-q^2 base, over q from 0.3 to 0.998.
MP_CASES = [
    (-1.0, 0.3), (-7500.0, 0.3), (7.3, 0.3), (0.3**2, 0.3),
    (-1.0, 0.8), (7.3, 0.8), (q2_exact(0.8), q2_exact(0.8)), (-3.0, q2_exact(0.8)),
    (-7500.0, 0.99), (7.3, 0.99), (0.99**2, 0.99),
    (-1.0, 0.998), (q2_exact(0.998), q2_exact(0.998)),
]


class TestQPochInfMp:
    """The fixed-point (a; q)_inf against a 120-digit product and the mpf loop."""

    @pytest.mark.parametrize("a,q", MP_CASES)
    def test_against_120_digits(self, a, q):
        got = qpoch_inf_mp(a, q, CTX)
        assert _rel(got, qpoch_inf_mp(a, q, PrecisionCtx(120))) <= mp.mpf(10) ** -50

    @pytest.mark.parametrize("digits", [50, 100])
    @pytest.mark.parametrize("a,q", MP_CASES[:8])
    def test_rounding_below_working_precision(self, a, q, digits):
        # Same factors at 150 digits: what is left is the loop's rounding,
        # about 2^-mp.prec once the guard bits absorb the bound's numerator.
        ctx = PrecisionCtx(digits)
        ref = mpf_loop(a, q, ctx, dps=150)
        assert _rel(qpoch_inf_mp(a, q, ctx), ref) <= mp.mpf(10) ** -(digits + 8)

    @pytest.mark.parametrize("a,q", MP_CASES)
    def test_binary64_matches_mpf_loop(self, a, q):
        assert float(qpoch_inf_mp(a, q, CTX)) == float(mpf_loop(a, q, CTX))

    @pytest.mark.parametrize("digits,ref_digits", [(16, 60), (100, 150)])
    @pytest.mark.parametrize("a,q", [(-1.0, 0.8), (7.3, 0.8), (-3.0, q2_exact(0.3))])
    def test_work_digits_honoured(self, a, q, digits, ref_digits):
        ctx = PrecisionCtx(digits)
        ref = qpoch_inf_mp(a, q, PrecisionCtx(ref_digits))
        assert _rel(qpoch_inf_mp(a, q, ctx), ref) <= mp.mpf(10) ** -digits
        assert _rel(mpf_loop(a, q, ctx), ref) <= mp.mpf(10) ** -digits

    def test_exact_zero_factor(self):
        # 4 * 0.5^2 = 1 exactly: the k = 2 factor vanishes.
        assert qpoch_inf_mp(4.0, 0.5, CTX) == 0
        assert qpoch_inf_mp(1.0, 0.5, CTX) == 0

    @given(a=st.floats(-1e4, 0.99), q=st.floats(0.1, 0.99))
    @settings(max_examples=40, deadline=None)
    def test_functional_equation(self, a, q):
        # (a; q)_inf = (1 - a)(aq; q)_inf: the right side starts its loop at
        # the exact aq, so the two sides truncate x_k differently.
        lhs = qpoch_inf_mp(a, q, CTX)
        tail = qpoch_inf_mp(mp.fmul(a, q, exact=True), q, CTX)
        with mp.workdps(CTX.work_digits + 10):
            rhs = (1 - mp.mpf(a)) * tail
        assert _rel(rhs, lhs) <= mp.mpf(10) ** -45


class TestCqv:
    def test_v_zero_collapses(self):
        assert c_qv(QParams(0.5, 0.0), CTX) == pytest.approx(2.0, rel=1e-14)

    def test_v_one_shift(self):
        # (q^4; q^2)_inf = (q^2; q^2)_inf / (1 - q^2) gives 1/((1-q)(1-q^2)).
        assert c_qv(QParams(0.5, 1.0), CTX) == pytest.approx(8.0 / 3.0, rel=1e-14)

    def test_against_product_oracle(self):
        q, v = 0.9, 0.5
        expected = poch_oracle(q ** (2 * v + 2), q * q) / poch_oracle(q * q, q * q) / (1 - q)
        got = c_qv(QParams(q, v), CTX)
        assert got > 0
        assert got == pytest.approx(expected, rel=1e-13)


class TestOneQ2:
    def test_exact_square(self):
        for q in (0.3, 0.5, 0.8, 0.95):
            q2 = q2_exact(q)
            assert q2 == mp.fmul(q, q, exact=True)
            with mp.workdps(60):
                assert q2 == mp.mpf(q) * mp.mpf(q)
        assert q2_exact(0.5) == 0.25
        assert q2_exact(0.8) != mp.mpf(0.8 * 0.8)  # float(q*q) is rounded

    def test_mpf_base_used_as_given(self):
        q2 = q2_exact(0.8)
        with mp.workdps(CTX.work_digits + 10):
            exact = mp.qp(mp.mpf(-3), q2)
            rounded = mp.qp(mp.mpf(-3), mp.mpf(0.8 * 0.8))
        got = qpoch_inf_mp(-3.0, q2, CTX)
        assert abs(got / exact - 1) < mp.mpf(10) ** -45
        assert abs(rounded / exact - 1) > mp.mpf(10) ** -18


class TestQExp:
    def test_at_zero(self):
        assert qexp(0.0, 0.5, CTX) == 1.0

    def test_series_agreement_inside_disk(self):
        z, q = 0.3, 0.25
        series = math.fsum(z**n / qpoch_finite(q, q, n) for n in range(31))
        assert qexp(z, q, CTX) == pytest.approx(series, rel=1e-12)

    def test_product_extension_at_minus_four(self):
        # Series diverges; the product does not.
        expected = 1.0 / poch_oracle(-4.0, 0.25)
        assert qexp(-4.0, 0.25, CTX) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("z", [-4.0, -1.0, -0.5, 0.0, 0.3, 0.9])
    @pytest.mark.parametrize("q", [0.25, 0.5, 0.81])
    def test_inverse_of_pochhammer(self, z, q):
        assert qexp(z, q, CTX) * qpoch_inf(z, q, CTX) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("z", [1.0, 1.5, 100.0])
    def test_pole_at_one(self, z):
        with pytest.raises(PoleAtOne):
            qexp(z, 0.5, CTX)

    def test_underflowing_product_fails_loudly(self):
        # (0.9; 0.9999)_inf is about e^-13000: binary64 holds 0, no factor does.
        with pytest.raises(PrecisionExhausted, match=r"z=0\.9, q=0\.9999"):
            qexp(0.9, 0.9999, CTX)


class TestSeriesAgreementGate:
    """The report's qexp-series-agreement sizes its own partial sums."""

    @staticmethod
    def _residual(q: float) -> float:
        from types import SimpleNamespace

        from qfourier.report import SuiteConfig, _CellRunner

        # check_qseries reads only the cell's q, v and precision.
        cell = SimpleNamespace(p=QParams(q, 0.5), ctx=CTX, cfg=SuiteConfig())
        rows = _CellRunner.check_qseries(cell)
        return dict(rows)["qexp-series-agreement"]

    def test_passes_at_q09(self):
        # With 61 terms the truncation alone read 1.9e-11 against 1e-12.
        assert self._residual(0.9) <= 1e-12

    def test_truncation_below_rounding_at_q08(self):
        assert self._residual(0.8) < 2e-15

    def test_partial_sum_near_one(self):
        # At q = 0.999 (q;q)_inf is below the binary64 range and (q;q)_n
        # underflows within the 1000 terms: the sum is still a number.
        from qfourier.report import _qexp_partial_sum

        ctx = PrecisionCtx(16, 1e-10)     # fewer mp factors, same point
        assert math.isfinite(_qexp_partial_sum(0.9, 0.999, ctx))


class TestGaussAmplitude:
    def test_positive(self):
        for t in (0.01, 0.5, 1.0, 7.3):
            assert gauss_amplitude(t, QParams(0.5, 0.0), CTX) > 0.0

    def test_frozen_product_oracle_value(self):
        # A(1) at q = 1/2, v = 0: four products at base q^2 = 1/4.
        q2 = 0.25
        expected = (poch_oracle(-q2, q2) * poch_oracle(-1.0, q2)
                    / (poch_oracle(-1.0, q2) * poch_oracle(-q2, q2)))
        assert expected == pytest.approx(1.0, rel=1e-15)  # t=1, v=0 collapses
        assert gauss_amplitude(1.0, QParams(0.5, 0.0), CTX) == pytest.approx(
            expected, rel=1e-13)

    @pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3])
    def test_lattice_quasi_periodicity(self, m):
        q, v = 0.5, 0.5
        p = QParams(q, v)
        a1 = gauss_amplitude(1.0, p, CTX)
        lhs = gauss_amplitude(q ** (2 * m), p, CTX)
        assert lhs * q ** (2 * m * (v + 1)) == pytest.approx(a1, rel=1e-10)

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            gauss_amplitude(0.0, QParams(0.5, 0.5), CTX)


class TestValidation:
    @pytest.mark.parametrize("q", [0.0, 1.0, 1.5, -0.3])
    def test_qparams_rejects_bad_q(self, q):
        with pytest.raises(ValueError):
            QParams(q, 0.5)

    def test_qparams_rejects_bad_v(self):
        with pytest.raises(ValueError):
            QParams(0.5, -1.0)

    def test_precision_ctx_bounds(self):
        with pytest.raises(ValueError):
            PrecisionCtx(work_digits=8)
        with pytest.raises(ValueError):
            PrecisionCtx(tail_tol=2.0)
