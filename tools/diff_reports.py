#!/usr/bin/env python3
"""Compare two ``qfourier check --json`` reports identity by identity.

    python tools/diff_reports.py BEFORE.json AFTER.json

Cells are matched by (q, v, n_lo, n_hi) and identities by name.  Each
identity present in both reports gets one line: its residual before and
after, the change in log10 of the residual, in decades (``+inf`` when a
zero residual becomes non-zero), and its status on both sides, with
``FLIP`` marking a pass/fail change.  Changed windows, and cells and
identities found in only one report, are printed too.  Exit status: 1 if any
identity flips, any window changes, or any cell or identity is in only one
report, else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

WINDOWS = ("trusted_window", "kernel_window")


def _cells(report: dict) -> dict:
    out = {}
    for cell in report["cells"]:
        env = cell["environment"]
        key = (env["q"], env["v"], env["n_lo"], env["n_hi"])
        out[key] = (env, {r["name"]: r for r in cell["identities"]})
    return out


def decades(before: float, after: float) -> float:
    """log10(after) - log10(before) of two residual magnitudes."""
    a, b = abs(before), abs(after)
    if math.isnan(a) or math.isnan(b):
        return math.nan
    if a == b:
        return 0.0
    if a == 0.0:
        return math.inf
    if b == 0.0:
        return -math.inf
    return math.log10(b) - math.log10(a)


def _status(r: dict) -> str:
    return ("pass" if r["passed"] else "FAIL") if r["gated"] else "observed"


def diff(before: dict, after: dict) -> tuple[list[str], bool]:
    """Printable lines and whether anything the exit status counts changed."""
    old, new = _cells(before), _cells(after)
    lines, changed = [], False
    for key in sorted(old.keys() | new.keys()):
        q, v, n_lo, n_hi = key
        lines.append(f"q={q} v={v} grid=[{n_lo},{n_hi}]")
        if key not in new or key not in old:
            lines.append(f"  cell only in {'before' if key in old else 'after'}")
            changed = True
            continue
        (env0, ids0), (env1, ids1) = old[key], new[key]
        for w in WINDOWS:
            if env0[w] != env1[w]:
                lines.append(f"  WINDOW {w}: {env0[w]} -> {env1[w]}")
                changed = True
        for name in sorted(ids0.keys() | ids1.keys()):
            if name not in ids0 or name not in ids1:
                lines.append(f"  {name}: only in {'before' if name in ids0 else 'after'}")
                changed = True
                continue
            r0, r1 = ids0[name], ids1[name]
            d = decades(r0["residual"], r1["residual"])
            flip = r0["passed"] != r1["passed"]
            changed |= flip
            lines.append(
                f"  {'FLIP ' if flip else ''}{name}: {r0['residual']:.3g} -> "
                f"{r1['residual']:.3g} ({d:+.2f} dec) {_status(r0)} -> {_status(r1)}")
    return lines, changed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    args = parser.parse_args(argv)
    with open(args.before) as fh:
        before = json.load(fh)
    with open(args.after) as fh:
        after = json.load(fh)
    lines, changed = diff(before, after)
    print("\n".join(lines))
    return 1 if changed else 0


if __name__ == "__main__":
    sys.exit(main())
