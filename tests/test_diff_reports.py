"""tools/diff_reports.py on two synthetic check reports."""

import importlib.util
import json
import math
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "diff_reports.py"
_spec = importlib.util.spec_from_file_location("diff_reports", _PATH)
diff_reports = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(diff_reports)


def _report(identities, kernel_window=(-7, 3)):
    env = {"q": 0.5, "v": 0.5, "n_lo": -10, "n_hi": 40, "trusted_window": [-10, 4],
           "kernel_window": list(kernel_window), "work_digits": 50, "seed": 1234,
           "runtime_s": 1.0}
    rows = [{"name": name, "statement": "", "residual": res, "tolerance": 1e-8,
             "passed": passed, "gated": True} for name, res, passed in identities]
    return {"cells": [{"environment": env, "identities": rows}]}


def test_decades_and_flip(tmp_path, capsys):
    ids = [("a", 1e-15, True), ("b", 1e-10, True), ("c", 0.0, True)]
    before = _report(ids)
    after = _report([("a", 1e-13, True), ("b", 1e-7, False), ("c", 2e-16, True)])
    paths = []
    for name, rep in (("before.json", before), ("after.json", after)):
        (tmp_path / name).write_text(json.dumps(rep))
        paths.append(str(tmp_path / name))

    assert diff_reports.main(paths) == 1
    out = capsys.readouterr().out
    assert "a: 1e-15 -> 1e-13 (+2.00 dec) pass -> pass" in out
    assert "FLIP b: 1e-10 -> 1e-07 (+3.00 dec) pass -> FAIL" in out
    assert "c: 0 -> 2e-16 (+inf dec)" in out

    # A report against itself changes nothing; a moved window counts.
    assert not diff_reports.diff(before, before)[1]
    lines, changed = diff_reports.diff(before, _report(ids, kernel_window=(-6, 3)))
    assert changed
    assert "  WINDOW kernel_window: [-7, 3] -> [-6, 3]" in lines
    assert math.isnan(diff_reports.decades(math.nan, 1.0))


def test_identity_in_one_report_sets_exit_status(tmp_path, capsys):
    # A refactor that drops an identity must not pass the diff.
    before = _report([("a", 1e-15, True), ("b", 1e-10, True)])
    after = _report([("a", 1e-15, True)])
    paths = []
    for name, rep in (("before.json", before), ("after.json", after)):
        (tmp_path / name).write_text(json.dumps(rep))
        paths.append(str(tmp_path / name))

    assert diff_reports.main(paths) == 1
    assert "  b: only in before" in capsys.readouterr().out
    assert diff_reports.main(paths[::-1]) == 1
    assert "  b: only in after" in capsys.readouterr().out
