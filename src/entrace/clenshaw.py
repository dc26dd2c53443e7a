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
of A. A block of probe rows shares each of those products, in the
recurrence t_j+1 = 2 (c A t_j - t_j) - t_j-1, c = 2 / (x0 gamma0).

Every step runs a row tile at a time (``_tile_dots``, the matrix-powers
kernel of Demmel, Hoemmen, Mohiyuddin and Yelick, "Avoiding communication
in sparse matrix computations", IPDPS 2008). On a matrix stored by
diagonal, of half-bandwidth beta, with J = ceil(n/2), t_J on a tile
depends only on t_0 within J beta rows of it, so a tile computes each t_j
on its rows and (J - j) beta more on each side, in three buffers that take
t_0 and the t_j in turn. They hold at most ``2 * sparse.BLOCK_BYTES``
together, sized for a core's L2 cache, unless a halo too wide for the
budget leaves only the least tiles (``_tile_height``); past one tile no
t_j is a (b, dim) array. A matrix without a band, stored by column or gathered,
runs one tile of all its rows with no halo, in three (b, dim) buffers.
Each entry is made with the product's (``SymmetricSparseMatrix.product_rows``)
and the recurrence's operations in their order, and each inner product is
summed in np.einsum's pieces, which are added in order across the tiles,
so a form or moment has the same bits in any tiling and in every layout.
The kernel only reads its rows: a probe block is copied a tile at a time,
and a colour row of exact moments is built a tile at a time from its
colour (see ``estimator``). It gives the moments of any block of real rows
whose mu_0 = ||v||^2 the caller knows exactly: m for a +-1 probe, and its
count for a 0/1 colour row.

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

from . import sparse

# np.einsum sums a reduction in pieces of its fixed internal buffer size, and
# adds the pieces' sums to 0.0 from left to right. A row no longer than that
# is summed in one piece in a block as well; a longer row is summed alone, so
# that its pieces start at its first entry. The tiled kernel sums each piece
# on its own and adds the sums in the same order, so its row tiles start at
# multiples of this
_EINSUM_PIECE = 8192


class SpectrumEscape(ValueError):
    """A probe moment |mu_k| > m, or a Ritz value or residual trace of a Lanczos
    run below zero (``estimator.lanczos_interval``): what no spectrum inside
    [0, x0 * gamma0] gives."""


def _row_dots(x, y):
    """<x_i, y> for each row x_i of x, each summed as np.einsum sums one vector."""
    if x.shape[1] <= _EINSUM_PIECE:
        return np.einsum("ij,j->i", x, y)
    return np.array([np.einsum("i,i->", xi, y) for xi in x])


def _doubled(mu):
    """``mu`` with each inner product of degree k >= 2 turned into mu_k, checked.

    mu[:, 0] holds mu_0, mu[:, 1] mu_1, and mu[:, k] for k >= 2 the inner
    product that the doubling identities take to mu_k.
    """
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


def _halo(A, n):
    """Rows the tiled kernel reads beyond each side of a tile: ceil(n / 2)
    beta, and none without a band."""
    return (n + 1) // 2 * (A.bandwidth or 0)


def _tile_columns(rows):
    """Columns of a tile's three (rows, columns) buffers that fit within
    ``2 * sparse.BLOCK_BYTES``, the kernel's budget on a worker."""
    return 2 * sparse.BLOCK_BYTES // (3 * 8 * rows)


def _least_height(A, n):
    """The least row tile: whole pieces, at least one and at least twice the
    halo, so that a tile's work is at most twice the work of its own rows."""
    return -(-max(1, 2 * _halo(A, n)) // _EINSUM_PIECE) * _EINSUM_PIECE


def tile_rows(A, n):
    """Rows of a block whose tiles fit the budget at the least height, on a
    matrix stored by diagonal; 0 where one row's do not."""
    return _tile_columns(1) // min(A.dim, _least_height(A, n) + 2 * _halo(A, n))


def _tile_height(A, n, rows):
    """The row tile of the tiled kernel on a block of ``rows`` rows.

    All m rows without a band. With one, all m rows if their buffers fit
    the budget and m is at most ``BLOCK_BYTES // 32``; otherwise the most
    whole pieces within both, whose buffers hold the halo on each side, but
    never fewer than ``_least_height``. Past ``tile_rows`` the tiles are the
    least ones, and their buffers exceed the budget.
    """
    m, halo = A.dim, _halo(A, n)
    if A.bandwidth is None:
        return m
    columns = _tile_columns(rows)
    most = max(_EINSUM_PIECE, sparse.BLOCK_BYTES // 32 // _EINSUM_PIECE * _EINSUM_PIECE)
    if m <= min(columns, most):
        return m
    height = min(most, (columns - 2 * halo) // _EINSUM_PIECE * _EINSUM_PIECE)
    return min(m, max(_least_height(A, n), height))


def _piece_dots(x, y, out):
    """The inner products of the rows of x and y into the (b, pieces) ``out``,
    one a piece of ``_EINSUM_PIECE`` entries from the first, each summed as
    np.einsum sums it."""
    b, size = x.shape
    full = size - size % _EINSUM_PIECE
    if full:
        shape = (b, full // _EINSUM_PIECE, _EINSUM_PIECE)
        np.einsum("ijk,ijk->ij", x[:, :full].reshape(shape), y[:, :full].reshape(shape),
                  out=out[:, :shape[1]])
    if full < size:
        np.einsum("ij,ij->i", x[:, full:], y[:, full:], out=out[:, -1])


def _tile_dots(A, n, c, lo, hi, source, space):
    """The (b, n, pieces) inner products of the moments 1..n on rows lo..hi-1.

    The matrix-powers kernel, on a matrix of half-bandwidth beta (0 without
    a band, whose one tile is all rows): with J = ceil(n / 2), step j
    computes t_j on rows lo - (J - j) beta .. hi + (J - j) beta - 1 of the
    matrix, clipped to it, from t_j-1 on beta more rows each side, so t_0
    is read on J beta rows beyond the tile and no step reads beyond what
    the last one wrote. Each entry is the product's (``product_rows``),
    then times c, less t_j-1, and from t_2 on times 2 and less t_j-2, so
    its bits do not depend on the tile.

    ``source(base, out)`` writes the rows' t_0 on rows base.. into ``out``,
    a (b, width) array, and returns it. ``space`` is a (3, b, width') array,
    width' at least the tile's rows with their halo, whose three buffers
    take t_0 and the t_j in turn. lo is a multiple of
    ``_EINSUM_PIECE``, so the products are summed in np.einsum's pieces of
    each whole row; column k - 1 holds the inner product that gives mu_k
    (see ``_doubled``), and the pieces are added in order by ``_fold``.
    """
    m, last, beta = A.dim, (n + 1) // 2, A.bandwidth or 0
    base, top = max(0, lo - last * beta), min(m, hi + last * beta)
    b = space.shape[1]
    free = list(space[:, :, :top - base])
    t = source(base, free.pop())
    centre = slice(lo - base, hi - base)
    dots = np.empty((b, n, -(-(hi - lo) // _EINSUM_PIECE)))
    prev = None
    for j in range(1, last + 1):
        # t_j on rows s..e-1, within the buffers' columns s - base..e - base
        s, e = max(0, lo - (last - j) * beta), min(m, hi + (last - j) * beta)
        new = free.pop()
        y = new[:, s - base:e - base]
        A.product_rows(t, s, e, y, base)
        y *= c
        y -= t[:, s - base:e - base]
        if prev is not None:
            y *= 2.0
            y -= prev[:, s - base:e - base]
            free.append(prev)
        prev, t = t, new
        _piece_dots(t[:, centre], prev[:, centre], dots[:, 2 * j - 2])
        if 2 * j <= n:
            _piece_dots(t[:, centre], t[:, centre], dots[:, 2 * j - 1])
    return dots


def _fold(total, dots):
    """Add each piece of ``dots`` to ``total`` in order, as np.einsum adds
    the pieces of a row."""
    for k in range(dots.shape[2]):
        total += dots[:, :, k]


def _tiled_moments(A, n, c, mu0, source, each=map):
    """The (b, n + 1) moments of b rows by ``_tile_dots``, in tiles of
    ``_tile_height`` rows, with ``mu0`` their b values of mu_0.

    ``source`` gives the rows' t_0 a tile at a time (see ``_tile_dots``).
    ``each(task, starts)`` runs task on each tile's first row and returns
    the results in order: ``map``, or a pool's map, which is handed as many
    tiles at a time as keep their inner products within ``BLOCK_BYTES``.
    Each task takes a (3, b, width) space from the call's spares, or makes
    one if none is free, so a call makes one space for each task that runs
    at once. Numpy's warnings of overflow are silenced, as in
    ``quadratic_form``, and a non-finite moment is left to the caller.
    """
    m, b = A.dim, len(mu0)
    height = _tile_height(A, n, b)
    width = min(m, height + 2 * _halo(A, n))
    free = []

    def task(lo):
        # list.pop and list.append are atomic across threads
        try:
            space = free.pop()
        except IndexError:
            space = np.empty((3, b, width))
        try:
            # the error state is thread-local, so it is set on the worker
            with np.errstate(over="ignore", invalid="ignore"):
                return _tile_dots(A, n, c, lo, min(lo + height, m), source, space)
        finally:
            free.append(space)

    starts = range(0, m, height)
    span = max(1, sparse.BLOCK_BYTES // (8 * b * n * -(-height // _EINSUM_PIECE)))
    mu = np.zeros((b, n + 1))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(0, len(starts), span):
            for dots in each(task, starts[k:k + span]):
                _fold(mu[:, 1:], dots)
        mu[:, 0] = mu0
        return _doubled(mu)


def quadratic_form(A, v, expansion, gamma0, traces=None):
    """gamma0 * v^T p_n(A / gamma0) v for a +-1 probe vector v.

    v may also be a (b, dim) block of probe rows; the result is then an
    array of b forms, each bit-identical to the form of its row alone. The
    argument matrix B is never formed: each t_j+1 = 2 B t_j - t_j-1 is
    built on the product A t_j, one row tile at a time, as
    2 (c A t_j - t_j) - t_j-1, by the tiled kernel, which only reads v and
    allocates its tile buffers alone. The
    constant term a_0 enters the result only through the closed form
    v^T (a_0/2) v = m a_0 / 2.

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

    def source(base, out):
        out[...] = block[:, base:base + out.shape[1]]
        return out

    mu = _tiled_moments(A, n, c, np.full(len(block), float(m)), source)
    # the error state is thread-local, so it is set here, on the worker
    with np.errstate(over="ignore", invalid="ignore"):
        if traces is not None:
            tr, frob = traces
            mu[:, 1] = c * tr - m
            if n >= 2:
                mu[:, 2] = 2.0 * (c * c * frob - 2.0 * c * tr + m) - m
        forms = gamma0 * (m * a[0] / 2.0 + _row_dots(mu[:, 1:], a[1:]))
    return forms if v.ndim == 2 else float(forms[0])
