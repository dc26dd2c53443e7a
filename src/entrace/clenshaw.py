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
of A. A block of probe rows shares each of those products. Each step of the
recurrence t_j+1 = 2 (c A t_j - t_j) - t_j-1, c = 2 / (x0 gamma0), is fused
into its product: ``matvec`` hands back each row tile of A t_j, which on a
strip layout is ``sparse.BLOCK_BYTES // 4`` bytes of the block, and the
step finishes it in place while it is in cache.

Every reduction is an ``np.einsum`` over one probe row, never BLAS: a
threaded BLAS dot product splits its sum by thread count, and a reduction
across rows would sum in an order set by the block height. So a form is the
same number whatever the block, the worker count or the BLAS threads.
"""

from __future__ import annotations

import numpy as np

# np.einsum sums a reduction in pieces of its fixed internal buffer size. A
# row no longer than that is summed in one piece in a block as well; a
# longer row is summed alone, so that its pieces start at its first entry.
_EINSUM_PIECE = 8192


def _row_dots(x, y):
    """<x_i, y_i> for each row i, each summed as np.einsum sums one vector.

    y is a block of rows like x, or one row shared by all of them.
    """
    if x.shape[1] <= _EINSUM_PIECE:
        return np.einsum("ij,ij->i" if y.ndim == 2 else "ij,j->i", x, y)
    return np.array([np.einsum("i,i->", xi, yi)
                     for xi, yi in zip(x, np.broadcast_to(y, x.shape))])


def quadratic_form(A, v, expansion, gamma0):
    """gamma0 * v^T p_n(A / gamma0) v for a +-1 probe vector v.

    v may also be a (b, dim) block of probe rows; the result is then an
    array of b forms, each bit-identical to the form of its row alone. The
    argument matrix B is never formed: each t_j+1 = 2 B t_j - t_j-1 is
    built in place on the product A t_j, one row tile at a time, as
    2 (c A t_j - t_j) - t_j-1. The constant term a_0 enters the result only
    through the closed form v^T (a_0/2) v = m a_0 / 2.

    A spectrum far outside [0, x0 * gamma0] makes the vectors overflow;
    numpy's warnings of it are silenced, so the caller sees only the
    non-finite form it returns.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != A.dim:
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
    block = v.reshape(-1, m)
    b = block.shape[0]
    mu = np.empty((b, n + 1))

    def finish(y, lo, hi):
        # y holds rows lo..hi-1 of A t; t and t_prev are read as matvec
        # calls this, so they are the step's t_j and t_j-1 (None for t_1)
        y *= c
        y -= t[:, lo:hi]
        if t_prev is not None:
            y *= 2.0
            y -= t_prev[:, lo:hi]

    # the error state is thread-local, so it is set here, on the worker
    with np.errstate(over="ignore", invalid="ignore"):
        # t_0 = v, t_1 = B v
        t_prev, t = None, block
        t_prev, t = t, A.matvec(t, finish=finish)
        mu[:, 0] = m
        mu[:, 1] = _row_dots(block, t)
        last = (n + 1) // 2
        for j in range(1, last + 1):
            # here t = t_j and t_prev = t_j-1; the doubling identities are
            # applied to the stored inner products after the loop
            if 2 * j <= n:
                mu[:, 2 * j] = _row_dots(t, t)
            if j < last:
                t_prev, t = t, A.matvec(t, finish=finish)
                mu[:, 2 * j + 1] = _row_dots(t, t_prev)
        mu[:, 2::2] *= 2.0
        mu[:, 2::2] -= mu[:, :1]
        mu[:, 3::2] *= 2.0
        mu[:, 3::2] -= mu[:, 1:2]

        forms = gamma0 * (m * a[0] / 2.0 + _row_dots(mu[:, 1:], a[1:]))
    return forms if v.ndim == 2 else float(forms[0])
