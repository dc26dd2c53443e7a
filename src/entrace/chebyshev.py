"""The scalar entropy summand x*log(x) and its closed-form Chebyshev series.

On [0, x0] the function L(x) = x*log(x) (with L(0) = 0) has an explicitly
known Chebyshev expansion: the constant and linear coefficients involve
log(x0/4), and every higher coefficient is the rational (-1)^k x0 / (k(k^2-1)).
That closed form gives two things the estimator leans on:

* coefficients computable in O(n) time with no quadrature,
* a truncation bound x0 / (2 n (n+1)) for the degree-n tail, attained at
  x = 0, so it is sharp on a spectrum with near-zero eigenvalues.

All logarithms are natural, so entropies downstream are in nats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

INV_E = math.exp(-1.0)


def entropy_function(x):
    """x * log(x) for x > 0, continued by its limit 0 at x = 0.

    Accepts a scalar or an ndarray; negative input is a domain error.
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0.0):
        raise ValueError("entropy_function is defined on x >= 0 only")
    out = np.zeros_like(arr)
    pos = arr > 0.0
    out[pos] = arr[pos] * np.log(arr[pos])
    return float(out) if arr.ndim == 0 else out


@dataclass(frozen=True)
class ChebyshevExpansion:
    """Coefficients a_0..a_n of L(x) on [0, x0] in the shifted Chebyshev basis.

    The basis is T_k(2x/x0 - 1); the represented series is
    a_0/2 + sum_{k>=1} a_k T_k, i.e. the constant coefficient is stored
    unhalved.
    """

    degree: int
    x0: float
    coeffs: np.ndarray

    def __post_init__(self):
        if self.degree < 0:
            raise ValueError("degree must be nonnegative")
        if not self.x0 > 0.0:
            raise ValueError("x0 must be positive")
        if self.coeffs.shape != (self.degree + 1,):
            raise ValueError("coefficient array must have degree + 1 entries")


def coefficients(n, x0):
    """Closed-form Chebyshev coefficients of x*log(x) on [0, x0].

    a_0 = x0 (log(x0/4) + 1)
    a_1 = (x0/4) (2 log(x0/4) + 3)
    a_k = (-1)^k x0 / (k (k^2 - 1))   for k >= 2
    """
    n = int(n)
    if n < 0:
        raise ValueError("degree must be nonnegative")
    x0 = float(x0)
    if not x0 > 0.0:
        raise ValueError("x0 must be positive")
    log_q = math.log(x0 / 4.0)
    a = np.empty(n + 1)
    a[0] = x0 * (log_q + 1.0)
    if n >= 1:
        a[1] = (x0 / 4.0) * (2.0 * log_q + 3.0)
    if n >= 2:
        k = np.arange(2.0, n + 1.0)
        a[2:] = np.where(np.arange(2, n + 1) % 2 == 0, 1.0, -1.0) * x0 / (k * (k * k - 1.0))
    a.setflags(write=False)
    return ChebyshevExpansion(degree=n, x0=x0, coeffs=a)


def evaluate_scalar(expansion, x):
    """Evaluate the truncated series at x in [0, x0] by scalar Clenshaw.

    Vectorizes over ndarray input. Points outside the interval are a domain
    error: the series diverges from L there and silently extrapolating would
    corrupt any downstream use.
    """
    arr = np.asarray(x, dtype=np.float64)
    if np.any(arr < 0.0) or np.any(arr > expansion.x0):
        raise ValueError(f"argument outside [0, {expansion.x0}]")
    t = 2.0 * arr / expansion.x0 - 1.0
    a = expansion.coeffs
    b1 = np.zeros_like(t)
    b2 = np.zeros_like(t)
    for k in range(expansion.degree, 0, -1):
        b1, b2 = a[k] + 2.0 * t * b1 - b2, b1
    out = 0.5 * a[0] + t * b1 - b2
    return float(out) if arr.ndim == 0 else out


def truncation_error_bound(n, x0):
    """Uniform bound x0 / (2 n (n+1)) on |L - p_n| over [0, x0], for n >= 1.

    The bound is attained at x = 0, where p_n(0) - L(0) = -x0 / (2 n (n+1)),
    so consumers comparing measured error against it should allow rounding
    slack. It is linear in x0: the floor of a form scaled by m * gamma0 is
    the bound on the interval m * x0 * gamma0.
    """
    n = int(n)
    if n < 1:
        raise ValueError("tail bound requires degree >= 1")
    x0 = float(x0)
    if not x0 > 0.0:
        raise ValueError("x0 must be positive")
    return x0 / (2.0 * n * (n + 1.0))


def _sign(x):
    return (x > 0.0) - (x < 0.0)


def spread_function(x0):
    """Per-unit-x0 width of the range of L over [0, x0].

    d(x0) = (max(0, L(x0)) - min(L(x0), e^-1 * sign(e^-1 - x0))) / x0.
    The sampling cost of the estimator scales with d(x0)^2, and d attains its
    minimum e^-1 at x0 = 1, which is why 1 is the default scaling target.
    """
    x0 = float(x0)
    if not x0 > 0.0:
        raise ValueError("x0 must be positive")
    val = entropy_function(x0)
    upper = max(0.0, val)
    lower = min(val, INV_E * _sign(INV_E - x0))
    return (upper - lower) / x0

