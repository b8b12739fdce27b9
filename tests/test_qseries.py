"""Scalar q-series primitives against brute-force oracles."""

from types import SimpleNamespace

import mpmath as mp
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfourier import bessel, qseries
from qfourier.errors import PoleAtOne, PrecisionExhausted
from qfourier.lattice import LatticeGrid
from qfourier.qseries import (
    PrecisionCtx,
    QParams,
    c_qv_mp,
    gauss_amplitude_mp,
    q2_exact,
    qexp_mp,
    qpoch_inf_mp,
    ratio_sum_mp,
)
from qfourier.report import (
    IDENTITIES,
    SuiteConfig,
    _CellRunner,
    _theta_amplitudes,
)
from qhyper_ref import jv_ref

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
    """Finite products (a; q)_n = (a; q)_inf / (a q^n; q)_inf on the mp route."""

    def test_empty_product(self):
        # |a| below the tail tolerance: no factor is taken.
        assert qpoch_inf_mp(1e-70, 0.5, CTX) == 1

    def test_two_factors(self):
        got = qpoch_inf_mp(0.5, 0.5, CTX) / qpoch_inf_mp(0.125, 0.5, CTX)
        assert _rel(got, mp.mpf(0.375)) <= mp.mpf(10) ** -50

    def test_zero_factor(self):
        # 2 * 0.5 = 1 exactly: the k = 1 factor vanishes.
        assert qpoch_inf_mp(2.0, 0.5, CTX) == 0

    @given(a=st.floats(-2, 0.99), q=st.floats(0.05, 0.95), n=st.integers(0, 25))
    @settings(max_examples=100, deadline=None)
    def test_recurrence(self, a, q, n):
        # (a;q)_{n+1} = (a;q)_n (1 - a q^n), i.e. (x;q)_inf = (1 - x)(xq;q)_inf at x = a q^n.
        with mp.workdps(CTX.work_digits + 10):
            x = mp.mpf(a) * mp.mpf(q) ** n
            lhs = qpoch_inf_mp(x, q, CTX)
            rhs = (1 - x) * qpoch_inf_mp(mp.fmul(x, q, exact=True), q, CTX)
        assert _rel(rhs, lhs) <= mp.mpf(10) ** -45

    def test_rejects_q_out_of_range(self):
        with pytest.raises(ValueError):
            qpoch_inf_mp(0.5, 1.0, CTX)


class TestQPochInf:
    @pytest.mark.parametrize("a,q,expected", POCH_CASES)
    def test_frozen_oracle_values(self, a, q, expected):
        assert float(qpoch_inf_mp(a, q, CTX)) == pytest.approx(expected, rel=1e-15)
        assert poch_oracle(a, q) == pytest.approx(expected, rel=1e-15)

    def test_a_zero(self):
        assert qpoch_inf_mp(0.0, 0.5, CTX) == 1

    def test_exact_zero_factor_returns_zero(self):
        # a = q^-2 makes the k = 2 factor vanish identically.
        assert qpoch_inf_mp(4.0, 0.5, CTX) == 0
        assert qpoch_inf_mp(1.0, 0.5, CTX) == 0

    @pytest.mark.parametrize("a,q", [(0.25, 0.25), (-1.0, 0.5), (0.9, 0.81)])
    @pytest.mark.parametrize("k", [1, 5, 10])
    def test_splitting(self, a, q, k):
        whole = qpoch_inf_mp(a, q, CTX)
        with mp.workdps(CTX.work_digits + 10):
            head = mp.fprod(1 - a * mp.mpf(q) ** j for j in range(k))
            split = head * qpoch_inf_mp(a * mp.mpf(q) ** k, q, CTX)
        assert _rel(split, whole) <= mp.mpf(10) ** -50


def mpf_loop(a, q, ctx: PrecisionCtx = CTX, dps: int | None = None) -> mp.mpf:
    """The rounded-mpf product that the fixed-point loop replaced.

    It keeps ``ctx``'s truncation at 10^-(work_digits+5); ``dps`` raises only
    its precision.
    """
    with mp.workdps(ctx.work_digits + 10):
        tol = mp.mpf(10) ** -(ctx.work_digits + 5)
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

    @pytest.mark.parametrize("digits,ref_digits", [(16, 60), (20, 60), (24, 60), (100, 150)])
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
        assert _rel(c_qv_mp(QParams(0.5, 0.0), CTX), mp.mpf(2)) <= mp.mpf(10) ** -50

    def test_v_one_shift(self):
        # (q^4; q^2)_inf = (q^2; q^2)_inf / (1 - q^2) gives 1/((1-q)(1-q^2)).
        with mp.workdps(60):
            assert _rel(c_qv_mp(QParams(0.5, 1.0), CTX), mp.mpf(8) / 3) <= mp.mpf(10) ** -50

    def test_against_product_oracle(self):
        q, v = 0.9, 0.5
        expected = poch_oracle(q ** (2 * v + 2), q * q) / poch_oracle(q * q, q * q) / (1 - q)
        got = float(c_qv_mp(QParams(q, v), CTX))
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
        assert qexp_mp(0.0, 0.5, CTX) == 1

    def test_series_agreement_inside_disk(self):
        z, q = 0.3, 0.25
        with mp.workdps(80):
            series = mp.fsum(mp.mpf(z) ** n / mp.qp(mp.mpf(q), mp.mpf(q), n) for n in range(120))
        assert _rel(qexp_mp(z, q, CTX), series) <= mp.mpf(10) ** -50

    def test_product_extension_at_minus_four(self):
        # Series diverges; the product does not.
        expected = 1.0 / poch_oracle(-4.0, 0.25)
        assert float(qexp_mp(-4.0, 0.25, CTX)) == pytest.approx(expected, rel=1e-15)

    @pytest.mark.parametrize("z", [-4.0, -1.0, -0.5, 0.0, 0.3, 0.9])
    @pytest.mark.parametrize("q", [0.25, 0.5, 0.81])
    def test_inverse_of_pochhammer(self, z, q):
        assert _rel(qexp_mp(z, q, CTX) * qpoch_inf_mp(z, q, CTX), 1) <= mp.mpf(10) ** -50

    @pytest.mark.parametrize("z", [1.0, 1.5, 100.0])
    def test_pole_at_one(self, z):
        with pytest.raises(PoleAtOne):
            qexp_mp(z, 0.5, CTX)


def _qseries_rows(q: float, v: float = 0.5) -> dict:
    # check_qseries reads only the cell's q, v, precision and the A(1) of its
    # t0 = 1 Gauss family, which gauss_family takes from gauss_amplitude_mp.
    p = QParams(q, v)
    cell = SimpleNamespace(p=p, ctx=CTX, cfg=SuiteConfig(), gauss={0: SimpleNamespace(
        amp_mp=qseries.gauss_amplitude_mp(1.0, p, CTX))})
    return dict(_CellRunner.check_qseries(cell))


class TestSeriesAgreementGate:
    """The report's qexp-series-agreement: Euler's series in integers vs the product."""

    def test_passes_at_q09(self):
        # With 61 terms the truncation alone read 1.9e-11 against 1e-12.
        assert _qseries_rows(0.9)["qexp-series-agreement"] <= 1e-12

    def test_truncation_below_rounding_at_q08(self):
        assert _qseries_rows(0.8)["qexp-series-agreement"] < 2e-15

    def test_passes_at_q095(self):
        # The binary64 partial sum read 1.7e-10 here: its own rounding.
        assert _qseries_rows(0.95)["qexp-series-agreement"] <= 1e-12


# The rows' probe points, as check_qseries takes them.
EULER1_Z = (-0.5, 0.3, 0.9)
EULER2_Z = (-4.0, -1.0, -0.5, 0.0, 0.3, 0.9)
SCALAR_ROWS = ("qpoch-splitting", "qpoch-euler-series", "qexp-series-agreement",
               "gauss-amplitude-lattice-scaling")


def _euler(x, r, q, passes: list | None = None) -> mp.mpf:
    """Euler's series (x, r, d) = (z, 1, q) or (-z, q, q) at the report's digits;
    ``passes`` collects the precision of each pass."""
    def inputs():
        if passes is not None:
            passes.append(mp.mp.prec)
        return x, r, q, 0

    return ratio_sum_mp(inputs, CTX.work_digits + 10, "Euler's series")


class TestIndependentRoutes:
    """Each scalar row sets the products against series that share none of their code."""

    @given(q=st.floats(0.1, 0.95), which=st.sampled_from(["euler1", "euler2"]))
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_euler_sums_against_products(self, q, which):
        with mp.workdps(CTX.work_digits + 10):
            for z in EULER1_Z if which == "euler1" else EULER2_Z:
                prod = qpoch_inf_mp(z, q, CTX)
                if which == "euler1":
                    got, want = _euler(z, 1, q), 1 / prod
                else:
                    got, want = _euler(-z, q, q), prod
                assert _rel(got, want) <= mp.mpf(10) ** -45

    @given(q=st.floats(0.1, 0.95), v=st.floats(-0.99, 3.0),
           t=st.one_of(st.integers(-3, 3), st.floats(0.05, 20.0)))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_theta_ratio_against_products(self, q, v, t):
        # An int t is the lattice point q^{2t}; a float t is off the lattice.
        p = QParams(q, v)
        tt = q2_exact(q) ** t if isinstance(t, int) else t
        (theta,) = _theta_amplitudes([tt], p, CTX)
        assert _rel(theta, gauss_amplitude_mp(tt, p, CTX)) <= mp.mpf(10) ** -45

    def test_cancelling_sums_run_again(self):
        # At q = 0.97 these alternating sums cancel more bits than the first
        # pass's 32 guard bits: only a later pass, with the measured bits, is
        # good to working precision (one pass with no guard bits read 6e-33
        # and 3e-48).  The second pass of the first sum measures one bit more
        # than it was given, and a third runs.
        q, first = 0.97, mp.libmp.dps_to_prec(CTX.work_digits + 10) + 32
        with mp.workdps(CTX.work_digits + 10):
            for x, r, want in ((-0.9, q, qpoch_inf_mp(0.9, q, CTX)),
                               (-0.5, 1, 1 / qpoch_inf_mp(-0.5, q, CTX))):
                passes = []
                assert _rel(_euler(x, r, q, passes), want) <= 1e-50
                assert len(passes) >= 2 and passes[0] == first < passes[1]

    def test_perturbed_products_fail_every_row(self, monkeypatch):
        # A relative error that depends on a, so it does not cancel in A(t)'s
        # ratio of four products: a row whose two sides share the product
        # would not see it.
        exact = qseries.qpoch_inf_mp

        def perturbed(a, q, ctx=CTX):
            return exact(a, q, ctx) * (1 + mp.mpf(1e-9) * (1 + abs(mp.mpf(a))))

        monkeypatch.setattr(qseries, "qpoch_inf_mp", perturbed)
        rows = _qseries_rows(0.5)
        for name in SCALAR_ROWS:
            assert rows[name] > IDENTITIES[name][1], name

    def test_rows_pass_unperturbed(self):
        rows = _qseries_rows(0.5)
        for name in SCALAR_ROWS:
            assert rows[name] <= 1e-40, name


def _jv_inputs(q: float, v: float, e: int, passes: list | None = None):
    """The j_v series at x = q^e as ratio_sum_mp takes it:
    (x, r, d, a) = (-x^2 q^2, q^2, q^2, q^{2v})."""
    def inputs():
        if passes is not None:
            passes.append(mp.mp.prec)
        q2 = q2_exact(q)
        return -(q2 ** (e + 1)), q2, q2, mp.mpf(q) ** (2 * mp.mpf(v))

    return inputs


def _ulps53(got, ref) -> mp.mpf:
    """Gap of two mpfs rounded to binary64's 53 bits, in units of the last
    place of ``ref``'s (no exponent range: the values may underflow a double)."""
    with mp.workprec(53):
        a, b = +got, +ref
        _, man, exp, bc = b._mpf_
        return abs(a - b) / mp.ldexp(1, exp + bc - 53)


class TestRatioSum:
    """The one series evaluator on its own."""

    def test_short_first_guard_gives_the_same_double(self):
        # The j_v series at q^-20 (q = 1/2, v = 3/2) cancels about 265 digits.
        # From 32 guard bits, with no estimate, the sum measures that and runs
        # again: the table's double, as from the estimate's first guard.
        passes = []
        got = ratio_sum_mp(_jv_inputs(0.5, 1.5, -20, passes), 26, "j_v at q^-20")
        table = bessel.jv_table(LatticeGrid(QParams(0.5, 1.5), -10, 40), CTX)
        assert float(got) == table.value(-20) == float(jv_ref(0.5, 1.5, -20))
        assert passes[0] == mp.libmp.dps_to_prec(26) + 32 and len(passes) >= 2

    def test_past_max_digits_raises(self, monkeypatch):
        # The same sum needs some 900 bits once measured: past a 100-digit
        # ceiling it is refused, naming the sum.
        monkeypatch.setattr(qseries, "MAX_DIGITS", 100)
        with pytest.raises(PrecisionExhausted, match="j_v at q\\^-20 needs over 100 digits"):
            ratio_sum_mp(_jv_inputs(0.5, 1.5, -20), 26, "j_v at q^-20")

    @given(q=st.floats(0.1, 0.99), v=st.floats(-1.0, 3.0, exclude_min=True),
           e=st.integers(-30, 30))
    @settings(max_examples=25, deadline=None, derandomize=True)
    def test_jv_series_against_qhyper(self, q, v, e):
        # The reference's loss estimate falls about 41 digits short near
        # q = 0.99, hence the extra digits.
        got = ratio_sum_mp(_jv_inputs(q, v, e), 26, f"j_v at q^{e}")
        assert _ulps53(got, jv_ref(q, v, e, 20, extra=50)) <= 1


class TestOneRoute:
    def test_only_mp_functions_exported(self):
        import qfourier

        base = {"QParams", "PrecisionCtx", "DEFAULT_CTX", "q2_exact"}
        assert all(n in base or n.endswith("_mp") for n in qseries.__all__)
        for name in ("qpoch_finite", "qpoch_inf", "qexp", "c_qv", "gauss_amplitude"):
            assert not hasattr(qseries, name) and name not in qfourier.__all__


class TestGaussAmplitude:
    def test_positive(self):
        for t in (0.01, 0.5, 1.0, 7.3):
            assert gauss_amplitude_mp(t, QParams(0.5, 0.0), CTX) > 0

    def test_frozen_product_oracle_value(self):
        # A(1) at q = 1/2, v = 0: four products at base q^2 = 1/4.
        q2 = 0.25
        expected = (poch_oracle(-q2, q2) * poch_oracle(-1.0, q2)
                    / (poch_oracle(-1.0, q2) * poch_oracle(-q2, q2)))
        assert expected == pytest.approx(1.0, rel=1e-15)  # t=1, v=0 collapses
        assert float(gauss_amplitude_mp(1.0, QParams(0.5, 0.0), CTX)) == pytest.approx(
            expected, rel=1e-15)

    @pytest.mark.parametrize("m", [-3, -2, -1, 1, 2, 3])
    def test_lattice_quasi_periodicity(self, m):
        q, v = 0.5, 0.5
        p = QParams(q, v)
        a1 = gauss_amplitude_mp(1.0, p, CTX)
        with mp.workdps(CTX.work_digits + 10):
            lhs = gauss_amplitude_mp(mp.mpf(q) ** (2 * m), p, CTX)
            assert _rel(lhs * mp.mpf(q) ** (2 * m * (v + 1)), a1) <= mp.mpf(10) ** -45

    def test_rejects_nonpositive_t(self):
        with pytest.raises(ValueError):
            gauss_amplitude_mp(0.0, QParams(0.5, 0.5), CTX)


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
