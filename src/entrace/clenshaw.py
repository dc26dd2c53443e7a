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
into its product: ``matvec`` hands back each row tile of A t_j, which by
diagonal is ``sparse.BLOCK_BYTES // 4`` bytes of the block and otherwise
all of it, and the step finishes it in place while it is in cache. The
finished tile is stored over t_j-1, which the step has then read for the
last time, so a form holds two (b, dim) vectors, which take the t_j in
turn: t_1 goes to a work array and t_2 over the probe rows, which no moment
reads after mu_1. A caller that keeps its probes passes no work array, and
the form copies them. One kernel, ``_moments``, gives the moments of any
block of real rows whose mu_0 = ||v||^2 the caller knows exactly: m for a
+-1 probe, and its count for a 0/1 colour row of exact moments (see
``estimator``).

Over Rademacher probes the mean of mu_k is tr T_k(B), and two of these are
known without a product: tr T_1(B) = c tr A - m, and tr T_2(B) =
2 tr B^2 - m with tr B^2 = c^2 ||A||_F^2 - 2 c tr A + m. Given tr A and
||A||_F^2, a form takes mu_1 and mu_2 at those means. That is a control
variate with a known mean: the mean of the form stays gamma0 tr p_n(A /
gamma0), while its variance, 2 sum_{i != j} M_ij^2 for the matrix M of the
form (Hutchinson, Commun. Stat. Simul. Comput. 19(2), 1990), becomes that
of the terms of degree 3 and up, at no extra product.

Every reduction is an ``np.einsum`` over one probe row, never BLAS: a
threaded BLAS dot product splits its sum by thread count, and a reduction
across rows would sum in an order set by the block height. So a form is
the same number whatever the block, the worker count or the BLAS threads.

While the spectrum of A lies inside [0, x0 * gamma0], that of B lies inside
[-1, 1], so every |T_k(B)| <= 1 and |mu_k| <= mu_0, m for a probe. A moment
beyond that bound shows that the spectrum has escaped, below 0 or above x0 *
gamma0, and the form is refused; the check reads the sampled mu_1 and mu_2
as well.
This detects an escape, but does not certify its absence: a spectrum a
little beyond the bound can keep every moment within it.
"""

from __future__ import annotations

import numpy as np

# np.einsum sums a reduction in pieces of its fixed internal buffer size. A
# row no longer than that is summed in one piece in a block as well; a
# longer row is summed alone, so that its pieces start at its first entry.
_EINSUM_PIECE = 8192


class SpectrumEscape(ValueError):
    """A probe moment |mu_k| > m, or a Ritz value or residual trace of a Lanczos
    run below zero (``estimator.lanczos_interval``): what no spectrum inside
    [0, x0 * gamma0] gives."""


def _row_dots(x, y):
    """<x_i, y_i> for each row i, each summed as np.einsum sums one vector.

    y is a block of rows like x, or one row shared by all of them.
    """
    if x.shape[1] <= _EINSUM_PIECE:
        return np.einsum("ij,ij->i" if y.ndim == 2 else "ij,j->i", x, y)
    return np.array([np.einsum("i,i->", xi, yi)
                     for xi, yi in zip(x, np.broadcast_to(y, x.shape))])


def _moments(A, block, n, c, work, mu0):
    """The (b, n+1) moments mu_k = v_i^T T_k(B) v_i of the rows v_i of ``block``.

    ``block`` is a (b, dim) array of real rows and ``work`` a float64 array
    of its shape, apart from it: t_1 goes to ``work`` and t_2 over the rows
    of ``block``, whose values are then lost. ``mu0`` gives mu_0 = ||v_i||^2
    exactly, at no pass over the rows: m for +-1 rows, or each 0/1 colour
    row's count.

    Raises ``SpectrumEscape`` if some row has max_k |mu_k| > mu_0 (1 + 1e-10)
    + 1e-10, which no spectrum of B inside [-1, 1] gives.
    """
    mu = np.empty((block.shape[0], n + 1))

    def finish(y, lo, hi):
        # y holds rows lo..hi-1 of A t; t and t_prev are read as matvec
        # calls this, so they are the step's t_j and t_j-1 (None for t_1)
        y *= c
        y -= t[:, lo:hi]
        if t_prev is not None:
            y *= 2.0
            y -= t_prev[:, lo:hi]

    mu[:, 0] = mu0
    # t_0 = v, t_1 = B v
    t_prev, t = None, block
    t_prev, t = t, A.matvec(t, finish=finish, out=work)
    mu[:, 1] = _row_dots(block, t)
    last = (n + 1) // 2
    for j in range(1, last + 1):
        # here t = t_j and t_prev = t_j-1; the doubling identities are
        # applied to the stored inner products after the loop
        if 2 * j <= n:
            mu[:, 2 * j] = _row_dots(t, t)
        if j < last:
            # t_j+1 over t_j-1, the rows of block for t_2
            t_prev, t = t, A.matvec(t, finish=finish, out=t_prev)
            mu[:, 2 * j + 1] = _row_dots(t, t_prev)
    mu[:, 2::2] *= 2.0
    mu[:, 2::2] -= mu[:, :1]
    mu[:, 3::2] *= 2.0
    mu[:, 3::2] -= mu[:, 1:2]

    # |mu_k| <= mu_0, up to rounding, while the spectrum is inside the
    # interval; a row with a nan moment peaks at nan, which passes, and its
    # non-finite form is left to the caller
    peak = np.abs(mu).max(axis=1)
    escaped = np.flatnonzero(peak > mu[:, 0] * (1.0 + 1e-10) + 1e-10)
    if escaped.size:
        i = escaped[0]
        k = int(np.abs(mu[i]).argmax())
        raise SpectrumEscape(f"probe moment |mu_{k}| = {peak[i] / mu[i, 0]:.6g} m "
                             "exceeds mu_0 = m")
    return mu


def quadratic_form(A, v, expansion, gamma0, traces=None, work=None):
    """gamma0 * v^T p_n(A / gamma0) v for a +-1 probe vector v.

    v may also be a (b, dim) block of probe rows; the result is then an
    array of b forms, each bit-identical to the form of its row alone. The
    argument matrix B is never formed: each t_j+1 = 2 B t_j - t_j-1 is
    built in place on the product A t_j, one row tile at a time, as
    2 (c A t_j - t_j) - t_j-1, and written over t_j-1's array. The
    constant term a_0 enters the result only through the closed form
    v^T (a_0/2) v = m a_0 / 2.

    ``work``, a float64 array of v's shape apart from it, takes t_1, and
    t_2 is written over the probe rows of v, so that the form allocates no
    array of v's size; the forms are the same bits. Without ``work`` the
    form copies v and allocates one array, and the caller's probes stay as
    given.

    With ``traces``, the pair (tr A, ||A||_F^2), the form takes mu_1 and
    mu_2 at their means over the probes, tr T_1(B) = c tr A - m and
    tr T_2(B) = 2 (c^2 ||A||_F^2 - 2 c tr A + m) - m with c = 2 / (x0
    gamma0), in place of the sampled moments, once the escape check below
    has read those. The mean of the form stays the same, and its variance
    becomes that of its terms of degree 3 and up; at n <= 2 every probe
    gives the same form. Without ``traces`` every moment is sampled.

    Raises ``SpectrumEscape`` if some row has max_k |mu_k| > mu_0 (1 + 1e-10)
    + 1e-10; its message names the first such row's largest moment and its
    ratio to mu_0 = m. A spectrum far outside [0, x0 *
    gamma0] can make the vectors overflow into nan moments instead; numpy's
    warnings of it are silenced, so the caller sees only the non-finite form
    it returns.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.ndim not in (1, 2) or v.shape[-1] != A.dim:
        raise ValueError(f"probe vector length {v.shape} does not match dimension {A.dim}")
    # boolean temporaries only; nan, +-inf, +-0.0 and any other value fail
    sign = v == 1.0
    sign |= v == -1.0
    if not sign.all():
        raise ValueError("probe vector entries must be +-1")
    del sign
    if work is None:
        v, work = v.copy(), np.empty(v.shape)
    elif work.shape != v.shape or work.dtype != np.float64 or np.may_share_memory(work, v):
        raise ValueError(f"work must be a float64 array of the probes' shape {v.shape}, "
                         "apart from them")
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
    work = work.reshape(block.shape)
    # the error state is thread-local, so it is set here, on the worker
    with np.errstate(over="ignore", invalid="ignore"):
        mu = _moments(A, block, n, c, work, mu0=m)
        if traces is not None:
            tr, frob = traces
            mu[:, 1] = c * tr - m
            if n >= 2:
                mu[:, 2] = 2.0 * (c * c * frob - 2.0 * c * tr + m) - m
        forms = gamma0 * (m * a[0] / 2.0 + _row_dots(mu[:, 1:], a[1:]))
    return forms if v.ndim == 2 else float(forms[0])
