"""Truncated lattice, Jackson quadrature, and CSV round-trip."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qfourier.errors import GridMismatch, GridTooLarge, OffGrid, ParseError, PrecisionExhausted
from qfourier.lattice import (
    MAX_POINTS,
    GridFn,
    LatticeGrid,
    delta_fn,
    inner,
    jackson_integral,
    load_csv,
    norm_p,
    save_csv,
    sup_norm,
)
from qfourier.qseries import QParams


@pytest.fixture
def grid():
    return LatticeGrid(QParams(0.5, 0.5), -6, 12)


def indicator(grid, m):
    vals = np.zeros(grid.size)
    vals[grid.index(m)] = 1.0
    return GridFn(grid, vals)


class TestGrid:
    def test_must_straddle_one(self):
        with pytest.raises(ValueError):
            LatticeGrid(QParams(0.5, 0.5), 1, 20)
        with pytest.raises(ValueError):
            LatticeGrid(QParams(0.5, 0.5), -20, -1)

    def test_minimum_size(self):
        with pytest.raises(ValueError):
            LatticeGrid(QParams(0.5, 0.5), -2, 2)

    def test_maximum_size(self):
        # One point past the cap is refused before any array is allocated.
        p = QParams(0.5, 0.5)
        assert LatticeGrid(p, -10, MAX_POINTS - 11).size == MAX_POINTS
        with pytest.raises(GridTooLarge, match=f"has {MAX_POINTS + 1} points"):
            LatticeGrid(p, -10, MAX_POINTS - 10)

    def test_points_and_index(self, grid):
        assert grid.x(0) == 1.0
        assert grid.x(-2) == 4.0
        assert grid.index(-6) == 0
        with pytest.raises(OffGrid):
            grid.index(13)

    def test_value_length_must_match(self, grid):
        with pytest.raises(GridMismatch):
            GridFn(grid, np.zeros(grid.size + 1))

    def test_weights_built_once_and_read_only(self, grid):
        w = grid.weights()
        assert grid.weights() is w
        with pytest.raises(ValueError):
            w[0] = 1.0
        with pytest.raises(ValueError):
            w *= 2.0
        assert np.array_equal(w, 0.5 * np.power(0.5, 3.0 * grid.exponents))

    def test_weights_stay_normal_binary64(self):
        # At q = 0.1, v = 3 the weights 0.9 q^{8n} are normal doubles for n in
        # [-38, 38].  A grid may not start below that span (the weight is inf
        # at n = -40), and a delta may not sit above it (its value 1/weight
        # was a ZeroDivisionError at n = 45).
        p = QParams(0.1, 3.0)
        grid = LatticeGrid(p, -38, 39)
        w = grid.weights()
        assert np.all(np.isfinite(w)) and w[:-1].min() >= sys.float_info.min
        for n in (-38, 38):
            assert np.isfinite(delta_fn(grid, n).values).all()
        with pytest.raises(PrecisionExhausted, match=r"normal for n in \[-38, 38\]"):
            delta_fn(grid, 39)
        with pytest.raises(PrecisionExhausted, match=r"overflows binary64 at n=-39"):
            LatticeGrid(p, -39, 38)

class TestJackson:
    def test_single_point(self, grid):
        # One-term sum: (1-q) q^{m(2v+2)}.
        q, v, m = 0.5, 0.5, 3
        got = jackson_integral(indicator(grid, m))
        assert got == pytest.approx((1 - q) * q ** (m * (2 * v + 2)), rel=1e-15)

    def test_delta_reproduces_point_values(self, grid):
        rng = np.random.default_rng(0)
        f = GridFn(grid, rng.normal(size=grid.size))
        for m in (-6, -1, 0, 4, 12):
            d = delta_fn(grid, m)
            got = jackson_integral(GridFn(grid, d.values * f.values))
            assert got == pytest.approx(f[m], rel=1e-13)

    def test_positivity(self, grid):
        f = GridFn(grid, np.abs(np.random.default_rng(1).normal(size=grid.size)))
        assert jackson_integral(f) >= 0.0

    @given(a=st.floats(-3, 3), b=st.floats(-3, 3), seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_linearity(self, a, b, seed):
        grd = LatticeGrid(QParams(0.5, 0.5), -6, 12)
        rng = np.random.default_rng(seed)
        f = GridFn(grd, rng.normal(size=grd.size))
        g = GridFn(grd, rng.normal(size=grd.size))
        lhs = jackson_integral(GridFn(grd, a * f.values + b * g.values))
        rhs = a * jackson_integral(f) + b * jackson_integral(g)
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1 + abs(rhs)))


class TestNormsAndInner:
    def test_norm_of_zero(self, grid):
        assert norm_p(GridFn(grid, np.zeros(grid.size)), 2.0) == 0.0

    def test_indicator_norm(self, grid):
        q, v, m, p = 0.5, 0.5, 2, 3.0
        got = norm_p(indicator(grid, m), p)
        assert got == pytest.approx(((1 - q) * q ** (m * (2 * v + 2))) ** (1 / p),
                                    rel=1e-14)

    def test_norm2_squared_is_self_inner(self, grid):
        f = GridFn(grid, np.random.default_rng(2).normal(size=grid.size))
        assert norm_p(f, 2.0) ** 2 == pytest.approx(inner(f, f), rel=1e-13)

    def test_inner_requires_same_grid(self, grid):
        other = LatticeGrid(QParams(0.5, 0.5), -6, 13)
        with pytest.raises(GridMismatch):
            inner(GridFn(grid, np.zeros(grid.size)),
                  GridFn(other, np.zeros(other.size)))

    def test_sup_norm(self, grid):
        f = indicator(grid, 0)
        assert sup_norm(f) == 1.0
        assert sup_norm(GridFn(grid, -3.5 * f.values)) == 3.5

    @given(seed=st.integers(0, 2**31))
    @settings(max_examples=50, deadline=None)
    def test_cauchy_schwarz(self, seed):
        grd = LatticeGrid(QParams(0.5, 0.5), -6, 12)
        rng = np.random.default_rng(seed)
        f = GridFn(grd, rng.normal(size=grd.size))
        g = GridFn(grd, rng.normal(size=grd.size))
        assert abs(inner(f, g)) <= norm_p(f, 2) * norm_p(g, 2) * (1 + 1e-12)

    def test_rejects_p_below_one(self, grid):
        with pytest.raises(ValueError):
            norm_p(indicator(grid, 0), 0.5)


class TestDelta:
    def test_delta_value(self):
        grid = LatticeGrid(QParams(0.5, 0.0), -6, 12)
        assert delta_fn(grid, 0)[0] == pytest.approx(2.0, rel=1e-15)

    def test_delta_value_order_one(self):
        grid = LatticeGrid(QParams(0.5, 1.0), -6, 12)
        # 1/((1-q) q^{1 * 2(v+1)}) = 1/(0.5 * 0.5^4) = 32.
        assert delta_fn(grid, 1)[1] == pytest.approx(32.0, rel=1e-15)

    def test_off_grid(self, grid):
        with pytest.raises(OffGrid):
            delta_fn(grid, 99)


class TestCsv:
    def test_round_trip_bitwise(self, grid, tmp_path):
        f = GridFn(grid, np.random.default_rng(3).normal(size=grid.size))
        path = tmp_path / "f.csv"
        save_csv(f, path)
        g = load_csv(path, grid)
        assert np.array_equal(f.values, g.values)

    def test_grid_read_off_the_file(self, grid, tmp_path):
        f = GridFn(grid, np.random.default_rng(3).normal(size=grid.size))
        path = tmp_path / "f.csv"
        save_csv(f, path)
        g = load_csv(path, grid.params)
        assert g.grid == grid
        assert np.array_equal(f.values, g.values)

    def test_wrong_x_column(self, grid, tmp_path):
        path = tmp_path / "bad.csv"
        f = GridFn(grid, np.ones(grid.size))
        save_csv(f, path)
        text = path.read_text().splitlines()
        n0 = grid.n_lo
        text[1] = f"{n0},3.14159,1.0"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(GridMismatch):
            load_csv(path, grid)

    def test_empty_file(self, grid, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError):
            load_csv(path, grid)

    def test_missing_rows(self, grid, tmp_path):
        path = tmp_path / "short.csv"
        f = GridFn(grid, np.ones(grid.size))
        save_csv(f, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(GridMismatch):
            load_csv(path, grid)

    def test_malformed_row(self, grid, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("n,x,value\n0,1.0,not-a-number\n")
        with pytest.raises(ParseError):
            load_csv(path, grid)

    @pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
    def test_non_finite_value(self, grid, tmp_path, bad):
        path = tmp_path / "nonfinite.csv"
        save_csv(GridFn(grid, np.ones(grid.size)), path)
        lines = path.read_text().splitlines()
        lines[3] = lines[3].rsplit(",", 1)[0] + "," + bad
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError, match="non-finite"):
            load_csv(path, grid)

    def test_duplicate_exponent(self, grid, tmp_path):
        path = tmp_path / "dup.csv"
        save_csv(GridFn(grid, np.ones(grid.size)), path)
        with open(path, "a") as fh:
            fh.write("0,1,7.0\n")
        with pytest.raises(ParseError, match="twice"):
            load_csv(path, grid)
