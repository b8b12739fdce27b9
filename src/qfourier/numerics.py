"""Residual bookkeeping shared by every identity check.

``TINY`` guards relative residuals against a zero denominator; ``worst``
folds residuals into their maximum without losing a NaN (the builtin
``max(0.0, nan)`` is 0.0, so a NaN met after the first residual would
vanish and the gate would pass); ``ulps`` measures a binary64 gap;
``to_fixed`` turns an mpf into the integer of a fixed-point sum or product,
and ``hankel_dots`` sums such integers' shifted dot products exactly.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np

__all__ = ["TINY", "worst", "ulps", "to_fixed", "hankel_dots"]

TINY = 1e-300


def worst(*residuals: float) -> float:
    """Largest of the residuals (0.0 for none); NaN if any of them is NaN."""
    out = 0.0
    for r in residuals:
        if math.isnan(r):
            return math.nan
        out = max(out, r)
    return out


def ulps(a: float, b: float) -> float:
    """|a - b| in units in the last place of the larger magnitude."""
    if a == b:
        return 0.0
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def to_fixed(x, bits: int) -> int:
    """The finite mpf ``x`` (or raw tuple) times 2**bits as an int, truncated toward zero."""
    sign, man, exp, _ = getattr(x, "_mpf_", x)
    if not man and exp:
        raise ValueError(f"fixed-point input {x} is not finite")
    shift = exp + bits
    man = man << shift if shift >= 0 else man >> -shift
    return -man if sign else man


_EXACT_TERMS = 1 << 21  # digit products, each below 2^32: sums below 2^53


def _digits(xs, k: int) -> np.ndarray:
    """k base-2^16 two's-complement digits an int, least first; the top one signed."""
    raw = b"".join(x.to_bytes(2 * k, "little", signed=True) for x in xs)
    d = np.frombuffer(raw, "<u2").reshape(-1, k).astype(float)
    d[:, -1] -= (d[:, -1] >= 1 << 15) * 65536.0
    return d


def hankel_dots(rows, b, shifts) -> list[list[int]]:
    """Exact ints sum_{t<n} a[t] b[t+s], for each row a of ``rows`` (each n long)
    and each s in its entry of ``shifts`` (0 <= s <= len(b) - n).

    Integer digits, split error-free as in Ozaki, Ogita, Oishi & Rump (Numer.
    Algorithms 59, 2012): per row one binary64 GEMM of a's digits against b's
    shifted digit windows, digit pair (k, l) folded onto k+l by one int64 sum
    over a skewed view, then one int64 carry pass.  An output digit sums
    n min(ka, kb) products of digits below 2^16 (ka, kb digits an int); up to
    2^21 of them every partial sum is an integer below 2^53, exact under any
    BLAS order, blocking or thread count.  Past that, ValueError, before any
    array is built.
    """
    n = len(rows[0])
    ka = (max(map(int.bit_length, chain.from_iterable(rows))) + 16) // 16
    kb = (max(map(int.bit_length, b)) + 16) // 16
    if n * min(ka, kb) > _EXACT_TERMS:
        raise ValueError(f"{n} terms of {min(ka, kb)} digits: past 2^21 digit products")
    # win[s] holds the digits of b[s:s+n], one row a digit: a strided view.
    bt = _digits(b, kb).T.copy()
    win = np.ndarray((len(b) - n + 1, kb, n), float, bt, strides=(8, 8 * len(b), 8))
    w, folds = ka + kb - 1, []
    for a, ss in zip(rows, shifts):  # one row at a time keeps one GEMM output alive
        pairs = np.zeros((len(ss), kb, w + 1), np.int64)
        pairs[:, :, :ka] = (win[list(ss)].reshape(-1, n) @ _digits(a, ka)).reshape(-1, kb, ka)
        # Pair (k, l) is at l (w + 1) + k; strides (w, 1) read it at (l, k + l), else pad.
        folds.append(np.ndarray((len(ss), kb, w), np.int64, pairs,
                                strides=(8 * kb * (w + 1), 8 * w, 8)).sum(axis=1))
    v = np.concatenate(folds)
    for k in range(v.shape[1] - 1):  # carry; the uint16 cast below keeps the rest
        v[:, k + 1] += v[:, k] >> 16
    top = 16 * (v.shape[1] - 1)
    flat = iter([int.from_bytes(lo.tobytes(), "little") + (int(hi) << top)
                 for lo, hi in zip(v[:, :-1].astype("<u2"), v[:, -1])])
    return [[next(flat) for _ in ss] for ss in shifts]
