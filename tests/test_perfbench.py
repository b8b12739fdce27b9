"""The benchmark's view of the library: every workload's traced smoke run passes.

The benchmark calls the library's functions by name and with fixed
signatures; a copy of ``perfbench/`` and ``src/`` is run as the benchmark
runs a checkout, so a change that breaks a workload fails here.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def checkout(tmp_path_factory):
    # A copy, not a symlink: perfbench checks that it imports the src beside it.
    root = tmp_path_factory.mktemp("checkout")
    skip = shutil.ignore_patterns("__pycache__", "results")
    for name in ("perfbench", "src"):
        shutil.copytree(ROOT / name, root / name, ignore=skip)
    return root


@pytest.mark.parametrize("workload", ["check-suite", "positivity-scan", "markov-apply"])
def test_traced_smoke_run_passes(checkout, workload):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    run = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--smoke",
         "--seed", "1", "--trace", "1", "--seconds", "1"],
        cwd=checkout, env=env, capture_output=True, text=True, timeout=600)
    assert run.returncode == 0, run.stderr[-2000:]
    assert json.loads(run.stdout.strip().splitlines()[-1])["correct"] is True
