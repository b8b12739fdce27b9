"""Regression table: the outcome of `qfourier check` on cells known to fail.

Each cell's outcome is pinned as it is, faults included: its exit code and
either the exact set of failing gated rows (exit 1) or the refusal message
(exit 3).  A change that mends a cell, or breaks another row, must update its
line here and say why.  No cell may exit 2, which is kept for bad input.
"""

import json

import pytest

from qfourier.cli import main

JENSEN, HEAT = "markov-translation-jensen", "heat-equation-residual"
HP = "gauss-transform-consistency-hp"

# (q, v, grid or None for the default scan grid, exit code, failing rows or message)
CELLS = [
    # Exponent 0, where the check's bump and deltas sit, lies outside the kernel window.
    (0.834, 2.833, (-14, 48), 3,
     "kernel window [-6, -1] leaves out exponent 0: "
     "grid [-14, 48] cannot be checked for q=0.834, v=2.833"),
    (0.293, -0.028, (-40, 56), 3,
     "kernel window [8, 31] leaves out exponent 0: "
     "grid [-40, 56] cannot be checked for q=0.293, v=-0.028"),
    # The 80-term lower tail lets the trusted window take the whole grid.
    (0.499, 0.282, (-24, 199), 1,
     {"delta-multiplier", HEAT, JENSEN, "orthogonality-diagonal", "orthogonality-offdiag",
      "transform-inversion", "transform-plancherel"}),
    # Jensen's defect is absolute: it reads rounding where translated probes are large.
    (0.339, 2.922, (-29, 52), 1, {HEAT, JENSEN}),
    (0.424, 2.492, (-31, 112), 1, {HEAT, JENSEN}),
    (0.151, 1.363, (-17, 21), 1, {JENSEN}),
    (0.6, 0.923, (-34, 129), 1, {HEAT, JENSEN}),
    (0.779, 1.972, (-36, 136), 1, {JENSEN}),
    (0.164, 1.254, None, 1, {HEAT, JENSEN}),
    (0.185, 1.289, None, 1, {HEAT, JENSEN}),
    # The hp Gauss row at its truncation floor.
    (0.729, 0.227, None, 1, {HP}),
    (0.263, -0.143, None, 1, {HEAT}),
    # q = 1/2, v = -0.7 on [-14, 97]: the six v < 0 Markov rows and the hp Gauss
    # row.  The eigen relation, read at every table entry relative to its
    # terms, reads the table's 50-digit rounding and passes.
    (0.5, -0.7, None, 1,
     {HP, *(f"markov-{op}-{axis}" for op in ("translation", "bump")
            for axis in ("contraction", "jensen", "sup"))}),
]


def _id(cell) -> str:
    q, v, grid = cell[:3]
    return f"q={q},v={v}" + ("" if grid is None else f",[{grid[0]},{grid[1]}]")


@pytest.mark.parametrize("q, v, grid, code, outcome", CELLS, ids=map(_id, CELLS))
def test_outcome_pinned(q, v, grid, code, outcome, tmp_path, capsys):
    out = tmp_path / "r.json"
    argv = ["check", "--q", str(q), "--v", str(v), "--json", str(out)]
    if grid is not None:
        argv += ["--nlo", str(grid[0]), "--nhi", str(grid[1])]
    got = main(argv)
    err = capsys.readouterr().err
    assert got != 2, err
    assert got == code, err
    if code == 3:
        assert err.strip() == f"error: {outcome}"
        return
    (cell,) = json.loads(out.read_text())["cells"]
    assert {r["name"] for r in cell["identities"]
            if r["gated"] and not r["passed"]} == outcome
