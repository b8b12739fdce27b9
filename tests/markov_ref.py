"""The Markov consequences of an operator, one probe at a time.

An operator with a nonnegative kernel of unit mass is a contraction,
satisfies Jensen's (Tf)^2 <= T(f^2) for f >= 0 and the sup bound
|Tf| <= sup |f|.  The report gates the two premises only (kernel
positivity and the unit rows); the tests read the consequences here,
through ``translate`` and ``convolve``, one probe at a time.
"""

import numpy as np

from qfourier.lattice import GridFn, norm2, sup_norm
from qfourier.numerics import TINY, worst
from qfourier.translation import convolve, translate


def loop_markov(apply_op, grid, probes, unit_values) -> tuple:
    """(unit, contraction, jensen, sup) defects, one probe at a time."""
    contraction = jensen = supd = 0.0
    for f in probes:
        tf = apply_op(f)
        contraction = worst(contraction, norm2(tf) / max(norm2(f), TINY) - 1.0)
        supd = worst(supd, sup_norm(tf) / max(sup_norm(f), TINY) - 1.0)
        if np.all(f.values >= 0.0):
            tf2 = apply_op(GridFn(grid, f.values ** 2))
            jensen = worst(jensen, float(np.max(tf.values ** 2 - tf2.values)))
    return float(np.max(np.abs(unit_values - 1.0))), contraction, jensen, supd


def loop_markov_translation(k, probes) -> tuple:
    """The defects of T_{q,x}, worst over five spread window x."""
    xs = sorted({int(k.window_exponents[int(round(i))])
                 for i in np.linspace(0, k.width - 1, num=min(5, k.width))})
    one = GridFn(k.grid, np.ones(k.grid.size))
    units = np.concatenate([translate(one, int(x), k).values[k.window_slice]
                            for x in k.window_exponents])
    reports = [loop_markov(lambda f, x=x: translate(f, x, k), k.grid, probes, units)
               for x in xs]
    return tuple(worst(*axis) for axis in zip(*reports))


def loop_markov_convolution(rho, k, probes) -> tuple:
    """The defects of f -> f *_q rho."""
    rows = np.array([translate(rho, int(x), k).values for x in k.window_exponents])
    units = k.c * (rows @ k.grid.weights())
    return loop_markov(lambda f: convolve(f, rho, k), k.grid, probes, units)
