"""The benchmark's own tests.

    python3 -m pytest -q perfbench/selftest.py

Each reference check must fail on a perturbed output, the smoke mode must
run every workload to its end, and a traced run must repeat its call counts
and sizes exactly.  The file name keeps it out of the library's test
collection; it takes under a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

from qfourier.qseries import PrecisionCtx  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from reference import Checks  # noqa: E402


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def cell():
    return workloads.build_cell(0.5, 0.5, -10, 40, PrecisionCtx(), 24, trusted=False)


def _cube_checks(cell, table=None, cube=None) -> Checks:
    checks = Checks()
    workloads.check_kernel_cube(checks, "cell", cell.grid, table or cell.table,
                                cell.op.c, cell.kern.cube if cube is None else cube,
                                cell.kern.window)
    return checks


def _failed(checks: Checks, name: str) -> bool:
    return any(f.startswith(f"cell {name}") for f in checks.failures)


def test_unperturbed_cell_passes(cell):
    checks = _cube_checks(cell)
    assert checks.correct, checks.failures


def test_jv_entry_perturbed_fails(cell):
    table = cell.table
    values = table.values.copy()
    n = cell.kern.window_lo
    values[table.index(n)] *= 1.0 + 1e-10
    perturbed = type(table)(table.params, table.n_min, table.n_max, values, table.ctx,
                            table.mp_values)
    assert _failed(_cube_checks(cell, table=perturbed), "j_v table vs qhyper")


def test_cube_sign_flip_fails(cell):
    # A diagonal entry keeps the cube symmetric: the reference sum must catch it.
    cube = cell.kern.cube.copy()
    cube[-1, -1, -1] = -cube[-1, -1, -1]
    assert _failed(_cube_checks(cell, cube=cube), "kernel entries vs 50-digit sums")
    # An off-diagonal entry flipped alone breaks the exact symmetry.
    cube = cell.kern.cube.copy()
    cube[0, 1, 2] = -cube[0, 1, 2]
    assert _failed(_cube_checks(cell, cube=cube), "cube symmetry")


def test_heat_output_perturbed_fails():
    wl = workloads.MarkovApply(seed=3, smoke=True)
    wl.setup()
    f = wl.ops()[0]
    ff, tx, conv, heats = wl.run(f)
    wl.prepare(Checks())

    clean = Checks()
    wl.check(clean, 0, f, (ff, tx, conv, heats))
    assert clean.correct, clean.failures

    bad = Checks()
    heats = [type(h)(h.grid, h.values * (1.0 + 1e-6)) for h in heats]
    wl.check(bad, 0, f, (ff, tx, conv, heats))
    assert any("F(P_t f)" in msg for msg in bad.failures), bad.failures


def test_nan_fails_a_gate():
    checks = Checks()
    assert not checks.gate("nan", float("nan"), 1.0)
    assert not checks.correct


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_runs_to_end(workload):
    r = _result(_bench("--workload", workload, "--seed", "5", "--seconds", "1",
                       "--trace", "0", "--smoke"))
    assert r["correct"] and r["failed"] == 0 and r["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert sorted(r["metrics"]) == sorted(m["name"] for m in spec["end_to_end"])
    for m in spec["end_to_end"]:
        assert r["metrics"][m["name"]]["unit"] == m["unit"]
        assert r["metrics"][m["name"]]["value"] > 0


def test_traced_smoke_repeats_counts():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == spans.per_layer_names()
    args = ("--workload", "check-suite", "--seconds", "1", "--trace", "1", "--smoke")
    a = _result(_bench(*args, "--seed", "1"))
    b = _result(_bench(*args, "--seed", "2"))
    assert sorted(a["metrics"]) == sorted(spans.per_layer_names())
    for name, metric in a["metrics"].items():
        if not name.endswith("self_ms"):
            assert metric["value"] == b["metrics"][name]["value"], name
    assert a["metrics"]["report.run_cell.calls"]["value"] == 1
    assert a["metrics"]["heat.gauss_kernel.calls"]["value"] > 0


def test_refuses_without_program():
    bare = HERE / "results" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for src in HERE.glob("*.py"):
        shutil.copy(src, bare / "perfbench")
    try:
        proc = _bench("--workload", "markov-apply", "--seed", "1", "--seconds", "1",
                      "--trace", "0", cwd=bare)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
