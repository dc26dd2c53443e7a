"""Dense ground truth at desk scale: LAPACK eigenvalues and exact entropies.

Everything here is for validating the stochastic estimator on matrices small
enough to decompose, plus closed-form references that need no matrix at all.
The eigenvalues come from LAPACK's symmetric solver (``np.linalg.eigvalsh``);
it shares nothing with the Chebyshev and sampling machinery, so agreement
between the two routes is evidence, not circularity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chebyshev import entropy_function

# the one dimension limit of every dense route: this oracle and the builders
DENSE_CAP = 2000

# the memory a fem: run may hold, at a row's share of it with one worker.
# Traced at m = 10^6, a run that samples (--gamma0) peaks at 13.0 B a row:
# the matrix's 3 B, a probe block's 8 B and its bits and sign check, beside
# the tiled kernel's buffers of one tile; each further worker adds about
# 10 B. Exact moments, the default, peak at 5.5 B, the matrix and one tile's
# buffers a worker, and the build at 4.0 B. The 28 B of a run whose
# Gershgorin pass held three (dim,) temporaries is kept, and so is the cap
FEM_BYTES = 2**30
FEM_ROW_BYTES = 28

# eigenvalues more negative than -NEG_EIG_RTOL * max|lambda| break the PSD
# contract; anything closer to zero is treated as rounding and clamped
NEG_EIG_RTOL = 1e-9


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of a symmetric matrix, sorted ascending."""

    eigenvalues: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.eigenvalues, dtype=np.float64)
        if arr.ndim != 1 or arr.size < 1:
            raise ValueError("spectrum must be a nonempty 1-D array")
        if np.any(np.diff(arr) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        arr.setflags(write=False)
        object.__setattr__(self, "eigenvalues", arr)


def dense_spectrum(A):
    """Eigenvalues of A, ascending, for matrices of dimension at most ``DENSE_CAP``.

    Refuses larger matrices before allocating: the dense transform costs
    O(m^3) time and O(m^2) memory, which is the regime the stochastic
    estimator exists to avoid.
    """
    if A.dim > DENSE_CAP:
        raise ValueError(f"dimension {A.dim} exceeds the dense oracle cap {DENSE_CAP}; "
                         "use the stochastic estimator for matrices this large")
    return Spectrum(eigenvalues=np.linalg.eigvalsh(A.to_dense()))


def exact_entropy(spectrum):
    """-sum_i lambda_i log(lambda_i) over the spectrum, in nats, +0.0 for a pure state.

    Eigenvalues in [-tol, 0) for tol = 1e-9 * max|lambda| are rounding
    artifacts of the decomposition and are clamped to zero; anything more
    negative means the matrix was not PSD and is an error.
    """
    lam = np.asarray(spectrum.eigenvalues, dtype=np.float64)
    scale = float(np.max(np.abs(lam))) if lam.size else 0.0
    floor = -NEG_EIG_RTOL * scale
    if np.any(lam < floor):
        worst = float(lam.min())
        raise ValueError(f"eigenvalue {worst} is negative beyond rounding; matrix is not PSD")
    lam = np.maximum(lam, 0.0)
    return 0.0 - float(np.sum(entropy_function(lam)))


def fem_exact_entropy(m):
    """Closed-form entropy of the (2, -1) tridiagonal second-difference matrix.

    Its eigenvalues are 4 sin^2(i pi / (2m + 2)) for i = 1..m, so the entropy
    is a plain sum with no decomposition. Grows like -2m + 0.7726 for large m.
    """
    m = int(m)
    if m < 1:
        raise ValueError("dimension must be at least 1")
    i = np.arange(1, m + 1, dtype=np.float64)
    lam = 4.0 * np.sin(i * math.pi / (2.0 * m + 2.0)) ** 2
    return float(-np.sum(lam * np.log(lam)))
