"""Regression table: the outcome of `qfourier check` on cells drawn at random.

The cells were kept because they once failed; some pass now.  Each cell's
outcome is pinned as it is, faults included: its exit code and either the
exact set of failing gated rows (exit 0 or 1) or the refusal message (exit 3).
A change that mends a cell, or breaks another row, must update its line here
and say why.  No cell may exit 2, which is kept for bad input.
"""

import json

import pytest

from qfourier.cli import main

HEAT, HP = "heat-equation-residual", "gauss-transform-consistency-hp"

# (q, v, grid or None for the default scan grid, exit code, failing rows or message)
CELLS = [
    # Exponent 0, where the check's bump and deltas sit, lies outside the kernel window.
    (0.834, 2.833, (-14, 48), 3,
     "kernel window [-6, -1] leaves out exponent 0: "
     "grid [-14, 48] cannot be checked for q=0.834, v=2.833"),
    (0.293, -0.028, (-40, 56), 3,
     "kernel window [8, 31] leaves out exponent 0: "
     "grid [-40, 56] cannot be checked for q=0.293, v=-0.028"),
    # A default scan grid past lattice.MAX_POINTS: n_hi grows as 1/((2v+2) log(1/q)).
    (0.5, -0.999, None, 3,
     "grid [-14, 26584] for q=0.5, v=-0.999 has 26599 points; "
     "at most 4096 fit the N x N arrays of a check"),
    (0.999, 0.0, None, 3,
     "grid [-198, 18420] for q=0.999, v=0.0 has 18619 points; "
     "at most 4096 fit the N x N arrays of a check"),
    (0.5, -0.9999999999999999, None, 3,
     "grid [-14, 239370146084580904] for q=0.5, v=-0.9999999999999999 has "
     "239370146084580919 points; at most 4096 fit the N x N arrays of a check"),
    # The 80-term lower tail lets the trusted window take the whole grid.
    (0.499, 0.282, (-24, 199), 1,
     {"delta-multiplier", HEAT, "orthogonality-diagonal", "orthogonality-offdiag",
      "transform-inversion", "transform-plancherel"}),
    # These failed only the absolute Jensen probe row (rounding where translated
    # probes are large), or it and the heat residual; the row is gone.
    (0.339, 2.922, (-29, 52), 1, {HEAT}),
    (0.424, 2.492, (-31, 112), 1, {HEAT}),
    (0.151, 1.363, (-17, 21), 0, set()),
    (0.6, 0.923, (-34, 129), 1, {HEAT}),
    (0.779, 1.972, (-36, 136), 0, set()),
    (0.164, 1.254, None, 1, {HEAT}),
    (0.185, 1.289, None, 1, {HEAT}),
    # The hp Gauss row at its truncation floor.
    (0.729, 0.227, None, 1, {HP}),
    (0.263, -0.143, None, 1, {HEAT}),
    # q = 1/2, v = -0.7 on [-14, 97]: the hp Gauss row.  The six Markov probe
    # rows that failed here gated theorems v < 0 does not give; the eigen
    # relation, read at every table entry relative to its terms, reads the
    # table's 50-digit rounding and passes.
    (0.5, -0.7, None, 1, {HP}),
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
