"""Entropy-via-trace: stochastic von Neumann entropy for sparse symmetric matrices.

The package estimates -tr(A log A) for a real symmetric positive semidefinite
matrix A without eigendecomposition: a closed-form Chebyshev approximation of
x*log(x) is applied to A through forward Chebyshev moments, ceil(n/2) sparse
products per probe, and the trace of the resulting polynomial is sampled with
Rademacher probe vectors under an explicit Hoeffding-style confidence radius.
"""

from .sparse import (
    MatrixMarketError,
    SpectralBound,
    SymmetricSparseMatrix,
    gershgorin_upper_bound,
    read_matrix_market,
    write_matrix_market,
)
from .chebyshev import (
    ChebyshevExpansion,
    coefficients,
    entropy_function,
    evaluate_scalar,
    spread_function,
    truncation_error_bound,
)
from .clenshaw import SpectrumEscape, quadratic_form
from .cli import RunConfig, main, run
from .estimator import (
    EntropyEstimate,
    RademacherSampler,
    ScalingParams,
    entropy_with_normalization,
    error_tolerance,
    estimate_adaptive,
    estimate_fixed,
    sample_count,
)
from .oracle import (
    Spectrum,
    dense_spectrum,
    exact_entropy,
    fem_exact_entropy,
)
from .generators import (
    Dispersion,
    SpdcParams,
    fem_matrix,
    random_psd,
    spdc_density_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "ChebyshevExpansion",
    "Dispersion",
    "EntropyEstimate",
    "MatrixMarketError",
    "RademacherSampler",
    "RunConfig",
    "ScalingParams",
    "SpdcParams",
    "SpectralBound",
    "SpectrumEscape",
    "Spectrum",
    "SymmetricSparseMatrix",
    "coefficients",
    "dense_spectrum",
    "entropy_function",
    "entropy_with_normalization",
    "error_tolerance",
    "estimate_adaptive",
    "estimate_fixed",
    "evaluate_scalar",
    "exact_entropy",
    "fem_exact_entropy",
    "fem_matrix",
    "gershgorin_upper_bound",
    "main",
    "run",
    "quadratic_form",
    "random_psd",
    "read_matrix_market",
    "sample_count",
    "spdc_density_matrix",
    "spread_function",
    "truncation_error_bound",
    "write_matrix_market",
]
