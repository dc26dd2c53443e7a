"""Forward Chebyshev moments for quadratic forms v^T p_n(A / gamma0) v.

Given the Chebyshev expansion p_n(x) = a_0/2 + sum_k a_k T_k(2x/x0 - 1) of
x*log(x) on [0, x0] and a matrix with spectrum inside [0, x0 * gamma0], the
form gamma0 * v^T p_n(A / gamma0) v equals gamma0 * (m a_0/2 + sum_k a_k mu_k)
with moments mu_k = v^T T_k(B) v and B = 2A / (x0 gamma0) - I. The doubling
identities of the kernel polynomial method (Weisse, Wellein, Alvermann and
Fehske, Rev. Mod. Phys. 78, 275 (2006), Sec. II)

    mu_2k   = 2 <T_k v, T_k v>     - mu_0
    mu_2k+1 = 2 <T_k+1 v, T_k v>   - mu_1

give every moment up to n from the vectors T_j(B) v with j <= ceil(n/2), so
a form costs ceil(n/2) matrix-vector products and no similarity transform
of A.
"""

from __future__ import annotations

import numpy as np


def quadratic_form(A, v, expansion, gamma0):
    """gamma0 * v^T p_n(A / gamma0) v for a +-1 probe vector v.

    The argument matrix B is never formed: each t_j+1 = 2 B t_j - t_j-1 is
    built in place on the array the matvec returns. The constant term a_0
    enters the result only through the closed form v^T (a_0/2) v = m a_0 / 2.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (A.dim,):
        raise ValueError(f"probe vector length {v.shape} does not match dimension {A.dim}")
    if not np.all(np.abs(v) == 1.0):
        raise ValueError("probe vector entries must be +-1")
    gamma0 = float(gamma0)
    if not gamma0 > 0.0:
        raise ValueError("gamma0 must be positive")
    n = expansion.degree
    if n < 1:
        raise ValueError("Chebyshev moments require degree >= 1")

    a = expansion.coeffs
    c = 2.0 / (expansion.x0 * gamma0)
    m = A.dim
    mu = np.empty(n + 1)

    # t_0 = v, t_1 = B v
    t_prev = v
    t = A.matvec(v)
    t *= c
    t -= v
    mu[0] = m
    mu[1] = v @ t
    last = (n + 1) // 2
    for j in range(1, last + 1):
        # here t = t_j and t_prev = t_j-1
        if 2 * j <= n:
            mu[2 * j] = 2.0 * (t @ t) - mu[0]
        if j < last:
            t_next = A.matvec(t)
            t_next *= c
            t_next -= t
            t_next *= 2.0
            t_next -= t_prev
            t_prev, t = t, t_next
            mu[2 * j + 1] = 2.0 * (t @ t_prev) - mu[1]

    return gamma0 * (m * a[0] / 2.0 + float(a[1:] @ mu[1:]))
