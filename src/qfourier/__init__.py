"""q-Bessel Fourier analysis on truncated q-lattices.

Core objects: the normalized q-Bessel function j_v(x, q^2), the finite
q-Hankel transform, the q-translation kernel D_v and its Markov operators,
and the q-heat semigroup, each paired with machine-checkable identities and
explicit truncation budgets.
"""

__version__ = "0.1.0"

from .bessel import (
    BesselTable,
    decay_bound_check,
    eigen_residual,
    jv,
    jv_exact_dyadic,
    jv_table,
)
from .errors import (
    GridMismatch,
    GridTooSmall,
    NotProbability,
    OffGrid,
    OffWindow,
    ParseError,
    PoleAtOne,
    PrecisionExhausted,
    QFourierError,
)
from .heat import (
    GaussKernel,
    gauss_kernel,
    heat_apply,
    heat_markov_check,
    heat_residual,
)
from .lattice import (
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
from .qseries import (
    DEFAULT_CTX,
    PrecisionCtx,
    QParams,
    c_qv_mp,
    gauss_amplitude_mp,
    qexp_mp,
    qpoch_inf_mp,
)
from .report import CheckReport, SuiteConfig, run_suite
from .transform import (
    TransformOp,
    build_transform,
    forward,
    inversion_residual,
    plancherel_defect,
    q_bessel_operator,
    trusted_window,
)
from .translation import (
    Kernel3,
    MarkovReport,
    convolve,
    eigen_check,
    hypergroup_expansion_defect,
    kernel,
    markov_check,
    multiplier_coeffs,
    positivity_min,
    translate,
)

__all__ = [
    "__version__",
    "QParams",
    "PrecisionCtx",
    "DEFAULT_CTX",
    "qpoch_inf_mp",
    "qexp_mp",
    "c_qv_mp",
    "gauss_amplitude_mp",
    "LatticeGrid",
    "GridFn",
    "jackson_integral",
    "inner",
    "norm_p",
    "sup_norm",
    "delta_fn",
    "save_csv",
    "load_csv",
    "BesselTable",
    "jv",
    "jv_table",
    "jv_exact_dyadic",
    "decay_bound_check",
    "eigen_residual",
    "TransformOp",
    "build_transform",
    "forward",
    "inversion_residual",
    "plancherel_defect",
    "q_bessel_operator",
    "trusted_window",
    "Kernel3",
    "MarkovReport",
    "kernel",
    "translate",
    "convolve",
    "markov_check",
    "eigen_check",
    "multiplier_coeffs",
    "hypergroup_expansion_defect",
    "positivity_min",
    "GaussKernel",
    "gauss_kernel",
    "heat_apply",
    "heat_residual",
    "heat_markov_check",
    "SuiteConfig",
    "CheckReport",
    "run_suite",
    "QFourierError",
    "PoleAtOne",
    "PrecisionExhausted",
    "GridMismatch",
    "GridTooSmall",
    "OffGrid",
    "OffWindow",
    "NotProbability",
    "ParseError",
]
