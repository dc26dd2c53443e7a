"""Shared test oracles, a scattered test matrix, banded ones and the layout of a product.

The oracles recompute quantities through routes independent of the code
under test: adaptive quadrature for expansion coefficients, direct cosine
series (no Clenshaw) for polynomial values, numpy's eigendecomposition for
matrix functions, and exhaustive sign-vector enumeration for expectations.
"""

import itertools
import math
from unittest import mock

import numpy as np

from entrace.chebyshev import entropy_function
from entrace.sparse import SYMMETRY_RTOL, SymmetricSparseMatrix


def random_symmetric(m, seed, density=0.3):
    """Scattered symmetric matrix and its dense array.

    About half its entries are stored, so it is too empty for storage by
    diagonal or by column, and its products take the gather path.
    """
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m))
    a = (a + a.T) / 2.0
    mask = rng.uniform(size=(m, m)) < density
    mask = mask | mask.T
    np.fill_diagonal(mask, True)
    a = np.where(mask, a, 0.0)
    return SymmetricSparseMatrix.from_dense(a), a


def scattered_psd(m, seed):
    """``random_symmetric`` made PSD: each diagonal entry is its row's absolute sum.

    Gershgorin's discs then all lie in [0, inf); the stored pattern, and so
    the gather path and the block width, are those of ``random_symmetric``.
    """
    _, a = random_symmetric(m, seed)
    np.fill_diagonal(a, np.abs(a).sum(axis=1))
    return SymmetricSparseMatrix.from_dense(a)


def wide_band(dim, d):
    """PSD matrix on diagonals 0 and +-d only, stored by diagonal for dim > 3 d."""
    i = np.arange(dim - d)
    rows = np.concatenate((np.arange(dim), i + d, i))
    cols = np.concatenate((np.arange(dim), i, i + d))
    return SymmetricSparseMatrix(dim, rows, cols,
                                 np.concatenate((np.full(dim, 3.0), -np.ones(2 * (dim - d)))))


def dominant_band(m, half, seed, holes=0.2):
    """Strictly diagonally dominant symmetric matrix on diagonals -half..half.

    Off-diagonal pairs are dropped at random, so the strips hold holes, and
    each diagonal entry is its row's absolute sum plus a number in [0.1, 1):
    Gershgorin's lower bound is positive, and the matrix, stored by
    diagonal, is PSD. Returns it and its dense array.
    """
    rng = np.random.default_rng(seed)
    a = np.zeros((m, m))
    for d in range(1, half + 1):
        i = np.arange(m - d)
        i = i[rng.uniform(size=i.size) >= holes]
        a[i, i + d] = a[i + d, i] = rng.normal(size=i.size)
    np.fill_diagonal(a, np.abs(a).sum(axis=1) + rng.uniform(0.1, 1.0, size=m))
    return SymmetricSparseMatrix.from_dense(a), a


def dominant_strips(m, half, seed, holes=0.2):
    """A matrix of ``dominant_band``'s kind built from its entries, with no
    dense array, for dimensions whose m x m array would not fit."""
    rng = np.random.default_rng(seed)
    rows, cols, vals = [], [], []
    radius = np.zeros(m)
    for d in range(1, half + 1):
        i = np.arange(m - d)
        i = i[rng.uniform(size=i.size) >= holes]
        x = rng.normal(size=i.size)
        rows += [i, i + d]
        cols += [i + d, i]
        vals += [x, x]
        np.add.at(radius, i, np.abs(x))
        np.add.at(radius, i + d, np.abs(x))
    rows.append(np.arange(m))
    cols.append(np.arange(m))
    vals.append(radius + rng.uniform(0.1, 1.0, size=m))
    return SymmetricSparseMatrix(m, np.concatenate(rows), np.concatenate(cols),
                                 np.concatenate(vals))


def layout(mat):
    """How the matrix's products run: "diagonals", "columns" or "gather".

    Told apart by the numpy kernel that one product calls: a gathered
    product sums with np.bincount, a product by column is one np.einsum,
    and a product by diagonal calls neither.
    """
    with mock.patch.object(np, "bincount", wraps=np.bincount) as bincount, \
            mock.patch.object(np, "einsum", wraps=np.einsum) as einsum:
        mat.matvec(np.zeros(mat.dim))
    return "gather" if bincount.called else "columns" if einsum.called else "diagonals"


def symmetry_error(rows, cols, values):
    """The message of the constructor's symmetry error, or None if there is none.

    The reference check for entries free of repeats: it sorts them by (row,
    col) and then by (col, row) with np.lexsort, and compares each entry
    with the one that lands in its place, pattern first and then values;
    the first failing entry in (row, col) order is named.
    """
    order = np.lexsort((cols, rows))
    rows, cols, values = (np.asarray(x)[order] for x in (rows, cols, values))
    mirror = np.lexsort((rows, cols))
    miss = np.flatnonzero((rows[mirror] != cols) | (cols[mirror] != rows))
    if miss.size:
        k = int(miss[0])
        return f"sparsity pattern is not symmetric near entry ({rows[k]}, {cols[k]})"
    vt = values[mirror]
    bad = np.flatnonzero(np.abs(values - vt) > SYMMETRY_RTOL * np.maximum(1.0, np.abs(values)))
    if bad.size:
        k = int(bad[0])
        return f"asymmetric values at ({rows[k]}, {cols[k]}): {values[k]!r} vs {vt[k]!r}"
    return None


def coeff_quadrature(k, x0):
    """Expansion coefficient of x*log(x) on [0, x0] by adaptive quadrature.

    a_k = (2/pi) integral_0^pi L(x0 (cos t + 1) / 2) cos(k t) dt.
    """
    from scipy.integrate import quad

    def f(t):
        return entropy_function(x0 * (math.cos(t) + 1.0) / 2.0)

    val, _ = quad(f, 0.0, math.pi, weight="cos", wvar=k,
                  limit=400, epsabs=1e-13, epsrel=1e-13)
    return 2.0 * val / math.pi


def poly_eval_cosine(expansion, x):
    """p_n(x) by the direct cosine series sum_k a_k cos(k arccos(2x/x0 - 1))."""
    t = np.clip(2.0 * np.asarray(x, dtype=np.float64) / expansion.x0 - 1.0, -1.0, 1.0)
    theta = np.arccos(t)
    a = expansion.coeffs
    out = 0.5 * a[0] * np.ones_like(theta)
    for k in range(1, a.size):
        out = out + a[k] * np.cos(k * theta)
    return out


def dense_poly_trace(A, expansion, gamma0):
    """gamma0 * tr(p_n(A / gamma0)) through numpy's dense eigenvalues."""
    lam = np.linalg.eigvalsh(A.to_dense())
    return gamma0 * float(np.sum(poly_eval_cosine(expansion, lam / gamma0)))


def dense_quadratic_form(A, v, expansion, gamma0):
    """gamma0 * v^T p_n(A / gamma0) v through numpy's dense eigenvectors."""
    lam, vec = np.linalg.eigh(A.to_dense())
    w = vec.T @ np.asarray(v, dtype=np.float64)
    return gamma0 * float(np.sum(w * w * poly_eval_cosine(expansion, lam / gamma0)))


def indefinite(m, seed):
    """A dense symmetric matrix whose eigenvalues lie in [0.1, 1) but one, at
    -0.1 lambda_max, with the eigenvectors of a Gaussian matrix's QR factor."""
    rng = np.random.default_rng(seed)
    spectrum = rng.uniform(0.1, 1.0, m)
    spectrum[0] = -0.1 * spectrum.max()
    q = np.linalg.qr(rng.standard_normal((m, m)))[0]
    dense = (q * spectrum) @ q.T
    return SymmetricSparseMatrix.from_dense((dense + dense.T) / 2.0)


def all_sign_vectors(m):
    """Every +-1 vector of length m, 2^m of them. Keep m small."""
    for signs in itertools.product((-1.0, 1.0), repeat=m):
        yield np.array(signs, dtype=np.float64)
