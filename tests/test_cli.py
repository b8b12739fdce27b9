"""CLI contract: subcommands, exit codes, file formats, determinism."""

import csv
import hashlib
import json
import math
import re

import numpy as np
import pytest

from qfourier import bessel, cli
from qfourier.cli import main
from qfourier.lattice import LatticeGrid, load_csv, save_csv
from qfourier.probes import seeded_probes
from qfourier.qseries import QParams
from qfourier.report import SuiteConfig

CELL = ["--q", "0.5", "--v", "0.5", "--nlo", "-10", "--nhi", "40"]


@pytest.fixture(scope="module")
def probe_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "f.csv"
    grid = LatticeGrid(QParams(0.5, 0.5), -10, 40)
    f = seeded_probes(grid, (-7, 3), 1, seed=5)[0]
    save_csv(f, path)
    return path, grid, f


def _strip_runtime(text: str) -> str:
    return re.sub(r'"runtime_s": [0-9.e+-]+', '"runtime_s": 0', text)


class TestCheck:
    def test_single_cell_passes(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["check", *CELL, "--probes", "10", "--json", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["pass"] is True
        names = {r["name"] for c in payload["cells"] for r in c["identities"]}
        assert "transform-inversion" in names
        assert "kernel-positivity" in names

    def test_deterministic_report(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["check", *CELL, "--probes", "5", "--seed", "7"]
        assert main(args + ["--json", str(a)]) == 0
        assert main(args + ["--json", str(b)]) == 0
        assert _strip_runtime(a.read_text()) == _strip_runtime(b.read_text())

    def test_sixteen_digits_pass(self, capsys):
        # Table entries keep at least 50 digits, so the eigen row's 1e-40 gate
        # holds at the fewest working digits the check accepts.
        assert main(["check", *CELL, "--probes", "5", "--digits", "16"]) == 0

    def test_zero_tolerance_forces_failure(self, tmp_path):
        code = main(["check", *CELL, "--probes", "5",
                     "--tolerance", "transform-inversion=0"])
        assert code == 1

    def test_invalid_q_is_config_error(self, capsys):
        code = main(["check", "--q", "1.5", "--v", "0.5"])
        assert code == 2
        assert "(0, 1)" in capsys.readouterr().err

    def test_env_digits_honored_and_flag_wins(self, tmp_path, monkeypatch):
        monkeypatch.setenv("QF_DIGITS", "55")
        out = tmp_path / "env.json"
        assert main(["check", *CELL, "--probes", "5", "--json", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["work_digits"] == 55
        assert main(["check", *CELL, "--probes", "5", "--digits", "60",
                     "--json", str(out)]) == 0
        assert json.loads(out.read_text())["config"]["work_digits"] == 60

    @pytest.mark.parametrize("argv", [
        ["check"],
        ["transform", "--q", "0.5", "--v", "0.5", "--in", "f.csv", "--out", "g.csv"],
        ["kernel", "--q", "0.5", "--v", "0.5", "--x", "1", "--y", "1"],
        ["scan-positivity", "--q-list", "0.5", "--v-list", "0.5"],
        ["heat", "--q", "0.5", "--v", "0.5", "--t", "1", "--in", "f.csv"]])
    def test_tail_tol_flag_is_refused(self, argv, capsys):
        # --digits alone sets where every product is cut; the former flag is
        # a usage error on every command, refused before anything runs.
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--tail-tol", "1e-30"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tail-tol" in capsys.readouterr().err

    def test_precision_exhausted_exit_code(self, monkeypatch):
        from qfourier import cli as cli_mod
        from qfourier.errors import PrecisionExhausted

        def boom(cfg):
            raise PrecisionExhausted("needs too many digits")

        monkeypatch.setattr(cli_mod, "run_suite", boom)
        assert main(["check", *CELL]) == 3

    @pytest.mark.parametrize("command", [["check"], ["kernel", "--x", "1", "--y", "1"]])
    def test_deep_grid_exits_3(self, command, capsys):
        # The Jackson weight q^{2n} at n = -160, q = 0.1 is 1e320, past
        # binary64: the grid is refused before any table is built.
        grid = ["--q", "0.1", "--v", "0", "--nlo", "-160", "--nhi", "40"]
        assert main([command[0], *grid, *command[1:]]) == 3
        assert "precision exhausted" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["check", "--nlo", "-40", "--nhi", "20"],
        ["kernel", "--nlo", "-40", "--nhi", "20", "--x", "1", "--y", "1"],
        ["check", "--nlo", "-6", "--nhi", "45"]])
    def test_weights_off_binary64_exit_3(self, argv, capsys, monkeypatch):
        # At q = 0.1, v = 3 the weights 0.9 q^{8n} overflow at n = -40 (an
        # OverflowError in delta_fn, or a NaN row sum from kernel), and the
        # check's delta at n = 43 divided by a weight that underflows to 0.
        # Each exits 3, before any table is built, and the message names the
        # exponents that fit.
        def no_table(*args):
            raise AssertionError("jv_table called on a refused grid")

        monkeypatch.setattr(bessel, "jv_table", no_table)
        monkeypatch.setattr(cli, "jv_table", no_table)
        assert main([argv[0], "--q", "0.1", "--v", "3", *argv[1:]]) == 3
        err = capsys.readouterr().err
        assert "precision exhausted" in err and "for n in [-38, 38]" in err

    @pytest.mark.parametrize("q, where", [("0.9", "no trusted exponents: grid [-25, 125]"),
                                          ("0.95", "kernel window collapsed")])
    def test_grid_too_small_exits_3(self, q, where, capsys):
        # The default scan grid of (q, 0.5) is too short for the window;
        # the message names the grid and the pair.
        assert main(["check", "--q", q, "--v", "0.5"]) == 3
        err = capsys.readouterr().err
        assert where in err and f"is too small for q={q}, v=0.5" in err

    def test_empty_kernel_window_exits_3(self, capsys):
        # At q=0.99 the upper cutoff falls below the low end: the message says
        # the window is empty instead of printing an inverted range.
        assert main(["check", "--q", "0.99", "--v", "0.5", "--nlo", "-5", "--nhi", "5"]) == 3
        err = capsys.readouterr().err
        assert ("kernel window is empty: upper cutoff -5 lies below the calibrated "
                "low end -4") in err
        assert "is too small for q=0.99, v=0.5" in err and "[-4, -5]" not in err

    def test_report_lists_every_identity_with_status(self, tmp_path):
        out = tmp_path / "r.json"
        main(["check", *CELL, "--probes", "5", "--json", str(out)])
        payload = json.loads(out.read_text())
        for cell in payload["cells"]:
            for r in cell["identities"]:
                assert set(r) == {"name", "statement", "residual",
                                  "tolerance", "passed", "gated"}
                if r["gated"]:
                    assert r["passed"] == (r["residual"] <= r["tolerance"])
                else:
                    assert r["tolerance"] is None


class TestDegenerateSettings:
    """A setting that leaves a check nothing to read is bad input (exit 2): no probes
    read 0 on every probe row, and a window cap below 3 admits no kernel window."""

    @pytest.mark.parametrize("flag, value", [("--probes", "0"), ("--probes", "-3"),
                                             ("--window", "0"), ("--window", "-5"),
                                             ("--window", "2")])
    def test_check_exits_2(self, flag, value, capsys):
        assert main(["check", *CELL, flag, value]) == 2
        assert f"got {value}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["kernel", "--q", "0.5", "--v", "0.5", "--x", "1", "--y", "1", "--window", "2"],
        ["scan-positivity", "--q-list", "0.5", "--v-list", "0.5", "--window", "0"]],
        ids=["kernel", "scan-positivity"])
    def test_window_cap_exits_2(self, argv, capsys):
        assert main(argv) == 2
        assert "max_width >= 3" in capsys.readouterr().err


class TestGridFlags:
    """--q/--v and --nlo/--nhi are read alike by every command; a half exits 2."""

    @pytest.mark.parametrize("args", [
        ["check", "--q", "0.5", "--v", "0.5", "--nlo", "-10"],
        ["check", "--q", "0.5", "--v", "0.5", "--nhi", "40"],
        ["check", "--v", "1.5"],
        ["check", "--nlo", "-5", "--nhi", "9"],
        ["kernel", "--q", "0.5", "--v", "0.5", "--nlo", "-10", "--x", "1", "--y", "1"],
    ])
    def test_half_given_exits_2(self, args, capsys):
        assert main(args) == 2
        assert "--" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [["transform", "--out", "unused.csv"],
                                         ["heat", "--t", "1.0"]])
    def test_half_grid_with_a_file_exits_2(self, command, probe_csv, capsys):
        path, _, _ = probe_csv
        args = [command[0], "--q", "0.5", "--v", "0.5", "--nlo", "-10",
                "--in", str(path), *command[1:]]
        assert main(args) == 2
        assert "--nlo and --nhi" in capsys.readouterr().err


class TestToleranceOverrides:
    """--tolerance and SuiteConfig.tolerances accept gated registry names only."""

    BAD = [("kernel-postivity", 1e-30),      # misspelt: no such identity
           ("heat-composition", 1.0),        # observational: nothing to gate
           ("transform-inversion", math.nan),
           ("transform-inversion", -1.0),
           # Removed from the registry: they only re-checked their own construction.
           ("kernel-symmetry", 0.0),
           ("multiplier-bump-coefficients", 1e-8),
           ("qexp-ode-identity", 1e-12),
           ("convolution-product-formula", 1e-8),
           # Removed: true for any weights or any table, or another row in another order.
           ("jackson-linearity", 1e-12),
           ("cauchy-schwarz", 1e-12),
           ("transform-decay-at-infinity", 1e-6),
           ("transform-sup-bound", 1e-12),
           ("basis-completeness", 1e-9),
           # Removed: self-adjoint by construction, or Euler's series read by a kept row.
           ("markov-translation-symmetry", 1e-8),
           ("markov-bump-symmetry", 1e-8),
           ("markov-heat-symmetry", 1e-8),
           ("qpoch-splitting", 1e-12),
           ("qexp-series-agreement", 1e-12),
           # Removed: theorems from kernel-positivity and the unit rows.
           *((f"markov-{op}-{axis}", 1e-8) for op in ("translation", "bump", "heat")
             for axis in ("contraction", "jensen", "sup"))]

    @pytest.mark.parametrize("name, tol", BAD)
    def test_suite_config_rejects(self, name, tol):
        with pytest.raises(ValueError, match=name):
            SuiteConfig(tolerances={name: tol})

    @pytest.mark.parametrize("name, tol", BAD)
    def test_cli_exit_2(self, name, tol, capsys):
        assert main(["check", *CELL, "--tolerance", f"{name}={tol}"]) == 2
        assert name in capsys.readouterr().err

    def test_gated_override_is_accepted(self):
        cfg = SuiteConfig(tolerances={"transform-inversion": 1e-6})
        assert cfg.tolerances == {"transform-inversion": 1e-6}


class TestTransform:
    def test_double_transform_round_trips(self, probe_csv, tmp_path):
        path, grid, f = probe_csv
        once = tmp_path / "Ff.csv"
        twice = tmp_path / "FFf.csv"
        base = ["transform", "--q", "0.5", "--v", "0.5"]
        assert main(base + ["--in", str(path), "--out", str(once)]) == 0
        assert main(base + ["--in", str(once), "--out", str(twice)]) == 0
        g = load_csv(twice, grid)
        assert np.max(np.abs(g.values - f.values)) < 1e-9

    def test_missing_file_is_config_error(self, tmp_path):
        code = main(["transform", "--q", "0.5", "--v", "0.5",
                     "--in", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path / "out.csv")])
        assert code == 2


class TestKernel:
    def test_row_sum_near_one(self, tmp_path, capsys):
        out = tmp_path / "row.csv"
        code = main(["kernel", *CELL, "--x", "1", "--y", "1",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["row_sum_defect"] < 1e-8
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["n", "z", "D"]
        assert len(rows) - 1 == 51

    def test_off_lattice_x_rejected(self, capsys):
        assert main(["kernel", *CELL, "--x", "0.3", "--y", "1"]) == 2


# The README scan: every pair's kernel window, and for v = -0.7 the O(1)
# minima with their arguments, bit for bit.
README_SCAN_WINDOWS = {
    (0.3, -0.7): (-8, 7), (0.3, 0.0): (-9, 6), (0.3, 0.5): (-9, 6),
    (0.5, -0.7): (-8, 7), (0.5, 0.0): (-9, 6), (0.5, 0.5): (-9, 6),
    (0.7, -0.7): (-9, 6), (0.7, 0.0): (-9, 6), (0.7, 0.5): (-9, 6),
    (0.9, -0.7): (-13, -1), (0.9, 0.0): (-13, -1), (0.9, 0.5): (-13, 0),
}
README_SCAN_NEGATIVE_ORDER = {
    0.3: (-15.603411165390616, (7, 7, 7)),
    0.5: (-36.423926554282019, (7, 7, 7)),
    0.7: (-8.8661790254944339, (5, 5, 6)),
    0.9: (-5.0467944713318085, (-6, -2, -1)),
}


class TestScanPositivity:
    def test_csv_columns_and_gate(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = main(["scan-positivity", "--q-list", "0.5", "--v-list", "0,0.5",
                     "--window", "10", "--out", str(out)])
        assert code == 0
        with open(out) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["q", "v", "min_kernel",
                           "argmin_x", "argmin_y", "argmin_z"]
        for row in rows[1:]:
            assert float(row[2]) >= -1e-10  # v >= 0 rows only here

    def test_readme_windows_and_negative_order_minima_pinned(self, tmp_path, capsys):
        out = tmp_path / "scan.csv"
        code = main(["scan-positivity", "--q-list", "0.3,0.5,0.7,0.9",
                     "--v-list=-0.7,0,0.5", "--window", "16", "--out", str(out)])
        assert code == 0
        windows = {(float(q), float(v)): (int(lo), int(hi)) for q, v, lo, hi in re.findall(
            r"q=(\S+) v=(\S+): .* window=\((-?\d+), (-?\d+)\)", capsys.readouterr().out)}
        assert windows == README_SCAN_WINDOWS
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        got = {float(r["q"]): (float(r["min_kernel"]),
                               (int(r["argmin_x"]), int(r["argmin_y"]), int(r["argmin_z"])))
               for r in rows if float(r["v"]) == -0.7}
        assert got == README_SCAN_NEGATIVE_ORDER


class TestHeat:
    def test_residual_json(self, probe_csv, capsys):
        path, _, _ = probe_csv
        code = main(["heat", *CELL, "--t", "1.0", "--in", str(path),
                     "--residual"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["t"] == 1.0
        assert payload["residual"] < 1e-7
        assert payload["mass_defect"] < 1e-8

    def test_residual_outputs_pinned(self, probe_csv, tmp_path, capsys):
        # G at t and at q^2 t come from one Gauss family; at q = 1/2, where
        # q^2 t is a binary64 number, the JSON line and the CSV of u are those
        # of two kernels built at float times, to the byte.
        path, _, _ = probe_csv
        out = tmp_path / "u.csv"
        assert main(["heat", *CELL, "--t", "1.0", "--in", str(path), "--out", str(out),
                     "--residual"]) == 0
        assert capsys.readouterr().out == (
            '{"mass_defect": 0.0, "residual": 5.769351816581621e-15, "t": 1.0}\n')
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "4ad49742344fbb3db639d6cb86870b0e6121b7723fc92e9206a74aba4e19645c")

    def test_writes_output_function(self, probe_csv, tmp_path):
        path, grid, _ = probe_csv
        out = tmp_path / "u.csv"
        assert main(["heat", *CELL, "--t", "0.25", "--in", str(path),
                     "--out", str(out)]) == 0
        u = load_csv(out, grid)
        assert np.all(np.isfinite(u.values))


@pytest.fixture
def nan_csv(probe_csv, tmp_path):
    path, _, _ = probe_csv
    lines = path.read_text().splitlines()
    lines[5] = lines[5].rsplit(",", 1)[0] + ",nan"
    bad = tmp_path / "nan.csv"
    bad.write_text("\n".join(lines) + "\n")
    return bad


class TestBadInput:
    def test_heat_residual_rejects_nan(self, nan_csv, capsys):
        code = main(["heat", *CELL, "--t", "1.0", "--in", str(nan_csv),
                     "--residual"])
        assert code == 2
        assert "non-finite" in capsys.readouterr().err

    def test_transform_rejects_nan(self, nan_csv, tmp_path):
        code = main(["transform", "--q", "0.5", "--v", "0.5",
                     "--in", str(nan_csv), "--out", str(tmp_path / "Ff.csv")])
        assert code == 2
        assert not (tmp_path / "Ff.csv").exists()

    def test_duplicate_row_rejected(self, probe_csv, tmp_path, capsys):
        path, _, _ = probe_csv
        dup = tmp_path / "dup.csv"
        dup.write_text(path.read_text() + "0,1,7.0\n")
        code = main(["transform", "--q", "0.5", "--v", "0.5",
                     "--in", str(dup), "--out", str(tmp_path / "Ff.csv")])
        assert code == 2
        assert "twice" in capsys.readouterr().err
