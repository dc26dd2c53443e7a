"""Sparse symmetric storage, Matrix Market I/O, and the spectral bounds.

Gershgorin's bounds on the spectrum take one pass over the stored entries;
the Lanczos bound on lambda_max, for a matrix stored by column, takes
``LANCZOS_STEPS`` products and holds with a stated failure probability. The
bound keeps the run's orthonormal Krylov basis and its tridiagonal matrix
(``KrylovBasis``), from which the estimator bounds the entropy.

The estimator touches a matrix only through ``trace``,
``frobenius_squared``, ``block_width``, ``bandwidth``, ``matvec`` and, by
diagonal, ``product_rows``; the bandwidth tells it whether exact moments
from colour rows are within reach (see ``estimator``), and how far the
tiled kernel of ``clenshaw`` must look beyond a row tile. Everything in this
module exists to make its products cheap, deterministic, and safe to share
across threads. ``matvec`` takes one vector or a block of probe rows (the
estimator sends ``block_width`` rows at most); a block shares the per-call
cost of a product among its rows, and each row comes out bit-identical to
its single-vector product.

A matrix is stored one way, chosen once from its sparsity pattern. Two
layouts keep strips and need no gather: a matrix whose entries fill few
diagonals keeps one strip a diagonal, and one whose entries nearly fill dim
x dim keeps one strip a column, multiplied by a single ``np.einsum``. The
strips are the matrix's only copy of its entries: ``coo()``, ``nnz`` and
``to_dense()`` read them off the strips. Any other matrix keeps its entries
in storage order, gathers its products and sums them with ``np.bincount``.
All three add each row's products to 0.0 in ascending column order, so they
give the same bits. A builder that has a matrix's diagonals, as
``fem_matrix`` has, hands them over as strips, with no entries to sort or
scatter; they pass the constructor's checks and layout rule, and the matrix
is the one its entries would build.

A product by diagonal runs one row tile at a time: it fills rows lo..hi-1
of the result from the strips clipped to those rows (``product_rows``), and
hands the tile to the caller's ``finish`` while it is still in cache, so
that the recurrence around the product streams the matrix and its vectors
once a step. A tile of a block of ``block_width`` rows holds ``BLOCK_BYTES
// 4`` bytes, 2^15 rows of a single vector; a matrix of that many rows or
fewer is one tile. ``product_rows`` reads any window of the vector that
holds the rows' columns, so the tiled kernel of ``clenshaw`` runs each
product on a tile with its halo, with the bits of ``matvec``.
A diagonal that holds one value in every slot facing a column of the matrix,
as each of the tridiagonal matrix's three does, is stored as that value
once, and its product multiplies a stride-0 operand.

Entries come in any order: a matrix stored by diagonal or by column scatters
them to its strips and compares those with their mirror images, a chunk of
slots at a time; only one that gathers its products, or strips that fail a
check, sort them, by (row, col) and then by (col, row). Either way a matrix
is accepted or refused alike.

A build by column or by diagonal holds, beside the caller's entries (24 B
an entry as int64 rows and columns and float64 values) and the strips with
their mask (9 B a slot), one index array of 8 B an entry, the slot each
entry is scattered to, and the mirror check's temporaries of one chunk. So
reading a dense symmetric Matrix Market file peaks at about 41 B an entry,
when the parsed records, 24 B a line, are already freed (tracemalloc, dim
1000), and a general file at about 48, while its records are copied out.
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

# relative tolerance for |A_ij - A_ji| at construction time
SYMMETRY_RTOL = 1e-12

# bytes that one block product may hold: of gathered products (or of probe
# rows, if there are more of those) on the gather path, and of all the
# (b, dim) arrays of one form by diagonal or column; the block width follows
# from it, and so does the row tile of a product by diagonal, a quarter. On a
# 2-vCPU x86 guest (2 MiB L2 a core), fem(10^6) at b = 1 samples 8 probes
# on two threads in 0.41 s untiled, 0.34 s in tiles of 2^14 rows, 0.29 s
# of 2^15 and 0.28 s of 2^16 (medians of 6 benchmark runs). The tiled
# kernel of clenshaw keeps the three buffers of a tile within twice this
# and a tile within BLOCK_BYTES // 32 = 2^15 rows. On the same guest, in
# process, at n = 8 on two threads (medians of 9): fem(10^6)'s 9 colour
# rows in one group took 0.14 s, against 0.20 s in groups of 5 and 4 within
# 1 MiB, and 8 probe rows 0.15 s in tiles of 2^15 rows, against 0.38 s of
# 2^13 and 0.12 s of 2^16, whose buffers a row would take twice the memory
BLOCK_BYTES = 2**20

# largest fill, padded slots over stored entries, at which a matrix is also
# stored for a product without a gather: by diagonal (ndiag * dim slots) or
# by column (dim * dim slots), whichever has fewer, diagonals on a tie.
# Measured on a 2-vCPU x86 guest, per probe row, each path at its own block
# width. By diagonal the two break even near 1.3: banded matrices with random
# holes at dim 1000 take 13.6 us against 19.4 us gathered at fill 1.16, and
# 15.7 against 16.3 at fill 1.39; at dim 300, 9.2 against 10.6 at fill 1.18,
# and 9.3 against 8.8 at fill 1.44; fem(10^6), fill 1.0, takes 5.8 ms against
# 17.8 ms. By column, one einsum, the threshold is cautious: symmetric
# matrices with random holes break even near fill 11 at dims 300 and 1000
# (dim 1000: 0.46 ms against 0.59 ms at fill 10, 0.44 against 0.22 at fill
# 20) and above 15 at dim 64. The dense 1000 x 1000 matrix, fill 1.0, takes
# 0.44 ms against 8.2 ms, and spdc, fill 1.02, 1.4 us against 14 us.
DIA_FILL = 1.3

# largest dimension: the keys row * dim + col that order the entries fit an int64
_KEY_DIM_MAX = math.isqrt(np.iinfo(np.int64).max)

# entries write_matrix_market formats per write
_WRITE_CHUNK = 2**16

_BOUND_METHODS = ("gershgorin", "lanczos", "user")

# Lanczos steps of krylov_basis: at most this many products by the matrix,
# and a (steps, dim) basis
LANCZOS_STEPS = 64

# the constant of the Kuczynski-Wozniakowski bound on the Lanczos failure
# probability, 1.648 sqrt(m) exp(-sqrt(delta) (2k - 1))
_KW_CONSTANT = 1.648


class KrylovBasis(NamedTuple):
    """What a Lanczos run leaves: its basis and its tridiagonal matrix T.

    ``rows`` holds the orthonormal Krylov basis q_1..q_k as (k, dim) rows,
    ``alpha`` the diagonal of T, alpha_j = q_j^T A q_j, and ``beta`` its k - 1
    off-diagonal entries. ``rounding`` is 16 K u (G + sigma), the run's
    rounding allowance (see ``lanczos_upper_bound``).
    """

    rows: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray
    rounding: float


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; the message names the offending line."""


@dataclass(frozen=True)
class SpectralBound:
    """Upper bound on the largest eigenvalue, tagged with how it was obtained.

    ``lambda_min_lower`` is a lower bound on the smallest eigenvalue, where
    the method gives one, and ``failure`` the probability that the upper
    bound fails: 0 for a bound that always holds.
    """

    lambda_max_upper: float
    method: str
    lambda_min_lower: float = -math.inf
    failure: float = 0.0
    # the Lanczos run a bound of method "lanczos" came from
    krylov: KrylovBasis | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.lambda_max_upper >= 0.0:
            raise ValueError("spectral bound must be nonnegative")
        if self.method not in _BOUND_METHODS:
            raise ValueError(f"unknown bound method {self.method!r}")
        if not 0.0 <= self.failure < 1.0:
            raise ValueError(f"failure probability must lie in [0, 1), got {self.failure!r}")


class SymmetricSparseMatrix:
    """Real symmetric matrix with both triangles stored explicitly.

    Entries, in any order, are validated and frozen at construction, so
    instances can be shared across threads without locking. Strips take
    them as they come; the gather path, or a refused strip matrix, sorts
    them by the key row * dim + col (none if they arrive so), which must
    fit in an int64: dim is at most ``_KEY_DIM_MAX`` = 3037000499, and a
    larger dim is refused before anything is allocated. Entries must not
    repeat, and each must have a mirror that equals it within
    ``SYMMETRY_RTOL``; a matrix stored by diagonal or column checks this
    there, any other by a sort on (column, row). Positive semidefiniteness
    is the caller's contract and is not checked here; use the dense oracle
    to verify it for matrices of modest size.

    The matrix keeps either its entries or its strips, never both (see
    ``_Strips``). When the stored entries fill few diagonals, padded
    diagonal slots ndiag * dim at most ``DIA_FILL`` times nnz, it keeps one
    strip a diagonal, and the matrix-vector product adds one shifted
    diagonal at a time, a row tile at a time. When they nearly fill the
    matrix, with more than dim diagonals and dim * dim slots at most
    ``DIA_FILL`` times nnz, it keeps one strip a column, C[j, i] = A[i, j],
    and one ``np.einsum`` adds v[j] * C[j] for each j in turn. Otherwise it
    keeps the entries, and the product is one ordered pass over them. In
    each layout every row sums its products from 0.0 in ascending column
    order, so repeated products, and the three layouts, agree bit for bit.
    """

    __slots__ = ("dim", "_width", "_entries", "_layout", "_strips", "_diag")

    def __init__(self, dim, rows, cols, values):
        dim = _checked_dim(dim)
        rows = _indices(rows, "row")
        cols = _indices(cols, "column")
        values = np.ascontiguousarray(values, dtype=np.float64)
        if rows.ndim != 1 or rows.shape != cols.shape or rows.shape != values.shape:
            raise ValueError("rows, cols, values must be 1-D arrays of equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= dim):
            raise ValueError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= dim):
            raise ValueError("column index out of range")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix entries must be finite")

        # the caller's arrays are only read; strips and sorted entries are new
        strips, diag, symmetric = _strips(rows, cols, values, dim)
        if symmetric:
            self._keep(dim, diag, strips=strips)
            return
        # the gather path, or strips that a repeat or a mirror refused: the
        # sorted entries word the error of the first check they fail
        key = rows * dim + cols
        if np.all(key[1:] > key[:-1]):
            # sorted already, so free of repeats; copied, as a permutation
            # would be, so that the caller's arrays never become the matrix's
            del key
            rows, cols, values = rows.copy(), cols.copy(), values.copy()
        else:
            order = np.argsort(key, kind="stable")
            del key
            rows, cols, values = rows[order], cols[order], values[order]
            del order
            same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if same.any():
                k = int(np.flatnonzero(same)[0])
                raise ValueError(f"duplicate entry at ({rows[k]}, {cols[k]})")
        self._check_symmetry(rows, cols, values, dim)
        diag = np.zeros(dim)
        on_diag = rows == cols
        diag[rows[on_diag]] = values[on_diag]
        # np.take and np.bincount copy a read-only index array on every call,
        # so the indices matvec passes them, a width-1 layout's too, stay
        # writable, though nothing writes to them; coo() hands out read-only
        # views
        values.setflags(write=False)
        self._keep(dim, diag, entries=(rows, cols, values))

    @classmethod
    def _from_diagonals(cls, dim, offsets, data, held):
        """The matrix with A[i, i + offsets[k]] = data[k, i] where held[k, i].

        For builders that have a matrix's diagonals: no entries are sorted
        or scattered. ``offsets`` ascend, and ``data`` and ``held`` are
        (len(offsets), dim) arrays that the matrix takes over; ``data`` may
        be a read-only broadcast, such as one value a diagonal. ``held`` is
        False in every slot without an entry, columns outside the matrix
        included; in-range holes hold +0.0, and out-of-range slots are never
        read. The result is ``cls(dim, rows, cols, values)`` of the held
        entries, bit for bit, after the same checks. Where the constructor's
        layout rule, read at the call, stores those entries otherwise, or
        their mirrors disagree, the constructor builds the matrix, or words
        the error, from the entries read off the strips.
        """
        dim = _checked_dim(dim)
        if not all(np.isfinite(a[r0:r1]).all()
                   for a, (r0, r1) in zip(data, _in_range(offsets, dim))):
            raise ValueError("matrix entries must be finite")
        count = np.count_nonzero(held, axis=1)
        if _by_diagonal(dim, int(count.sum()), int(np.count_nonzero(count))):
            if not count.all():
                # a diagonal without entries is no strip
                data, held = data[count > 0], held[count > 0]
                offsets = tuple(d for d, n in zip(offsets, count) if n)
            strips, diag, symmetric = _frozen(data, held, offsets)
            if symmetric:
                mat = cls.__new__(cls)
                mat._keep(dim, diag, strips=strips)
                return mat
        return cls(dim, *_Strips(data, held, offsets).entries())

    def _keep(self, dim, diag, entries=None, strips=None):
        """Keep the entries, with the gather layout of their block width, or the strips."""
        if strips is None:
            width = max(1, BLOCK_BYTES // (8 * max(entries[0].size, dim)))
            layout = _block_layout(*entries, dim, width)
        else:
            # each (b, dim) array of a form takes an eighth of BLOCK_BYTES:
            # t_j-1 and t_j, the first of which t_j+1 overwrites, and a
            # product by column's result, where one by diagonal sums a tile
            # in a scratch; the three fit within half of it on each worker.
            # Wider blocks gain little per row (by column, dim 1000: 0.48 ms
            # at 16 rows, 0.50 ms at 26)
            width = max(1, BLOCK_BYTES // 8 // (8 * dim))
            layout = None
        diag.setflags(write=False)
        self.dim = dim
        self._width = width
        self._entries = entries
        self._layout = layout
        self._strips = strips
        self._diag = diag

    @staticmethod
    def _check_symmetry(rows, cols, values, dim):
        # sorting the entry list by (col, row) must reproduce the (row, col)
        # order with the roles swapped, otherwise some A_ij has no mirror
        mirror = np.argsort(cols * dim + rows, kind="stable")
        if not (np.array_equal(rows[mirror], cols) and np.array_equal(cols[mirror], rows)):
            miss = np.flatnonzero((rows[mirror] != cols) | (cols[mirror] != rows))
            k = int(miss[0])
            raise ValueError(
                f"sparsity pattern is not symmetric near entry ({rows[k]}, {cols[k]})"
            )
        vt = values[mirror]
        tol = SYMMETRY_RTOL * np.maximum(1.0, np.abs(values))
        bad = np.flatnonzero(np.abs(values - vt) > tol)
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"asymmetric values at ({rows[k]}, {cols[k]}): "
                f"{values[k]!r} vs {vt[k]!r}"
            )

    @property
    def nnz(self):
        if self._strips is None:
            return int(self._entries[0].size)
        return int(np.count_nonzero(self._strips.held))

    @property
    def block_width(self):
        """Probe rows one product should take at a time.

        On the gather path, as many as keep the gathered products and the
        probe rows each within ``BLOCK_BYTES``; otherwise as many as keep
        each (b, dim) array of one form within an eighth of it. At least
        one.
        """
        return self._width

    @property
    def by_column(self):
        """Whether the matrix is stored one strip a column, as dense ones are."""
        return self._strips is not None and self._strips.offsets is None

    @property
    def bandwidth(self):
        """max |offset| of the stored diagonals, for a matrix stored by
        diagonal; None for any other layout."""
        strips = self._strips
        if strips is None or strips.offsets is None:
            return None
        return max(map(abs, strips.offsets), default=0)

    def matvec(self, v, finish=None, out=None):
        """Return A @ v, or for a (b, dim) block v the block with rows A @ v[i].

        Each row adds its products A[i, j] * v[j] to 0.0 in storage order
        (columns ascending), so the result is identical across calls,
        processes, and thread counts, and each row of a block product equals
        the product of that row alone. A matrix stored by diagonal adds
        diagonal d, shifted by d, for each d in ascending order; one stored by
        column is one ``np.einsum("bj,ji->bi", v, C)``, with no BLAS, which
        adds v[..., j] * C[j] for each j in ascending order, whatever the
        strides of v. A hole adds a +-0 product, which leaves a sum that
        starts at +0.0 unchanged, so the bits are those of the ordered pass
        for any finite v. A gathered vector or block of ``block_width`` rows
        reads a layout kept since construction; a block of any other height
        is the stack of its rows' own products, so it costs what its rows do.

        ``finish(tile, lo, hi)``, if given, is called on rows lo..hi-1 of
        the result once their products are summed, and may change them in
        place, for row tiles that cover every row once in ascending order. A
        product by diagonal sums one tile of ``BLOCK_BYTES // 4`` bytes of
        ``block_width`` rows at a time in one tile-sized scratch, so the tile
        is still in cache when ``finish`` works on it, and then stores it; a
        product by column or gathered calls it once, on all rows. The bits of
        a row do not depend on the tile it lands in.

        ``out``, if given, is a float64 array of v's shape, apart from v,
        that receives the result, finished, and is returned. ``finish`` may
        read its rows lo..hi-1, which keep their old values until the call
        returns, so a recurrence can write each step over a vector it no
        longer needs.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
            raise ValueError(f"vector length {v.shape} does not match dimension {self.dim}")
        if out is not None and out.shape != v.shape:
            raise ValueError(f"out shape {out.shape} does not match the vector's {v.shape}")
        strips = self._strips
        if strips is None or strips.offsets is None:
            y = self._gathered(v) if strips is None else np.einsum(
                "bj,ji->bi" if v.ndim == 2 else "j,ji->i", v, strips.data)
            if finish is not None:
                finish(y, 0, self.dim)
            if out is None:
                return y
            out[...] = y
            return out
        dim = self.dim
        # a (block_width, height) tile of each array a product step touches
        # stays in a core's L2 cache
        height = max(1, BLOCK_BYTES // 4 // (8 * self._width))
        y = np.empty(v.shape) if out is None else out
        scratch = np.empty(v.shape[:-1] + (min(height, dim),))
        for lo in range(0, dim, height):
            hi = min(lo + height, dim)
            tile = scratch[..., :hi - lo]
            self.product_rows(v, lo, hi, tile)
            if finish is not None:
                finish(tile, lo, hi)
            y[..., lo:hi] = tile
        return y

    def product_rows(self, v, lo, hi, out, base=0):
        """Rows lo..hi-1 of A @ v into ``out``, for a matrix stored by diagonal.

        ``v`` holds entries base.. of a vector, or of each row of a block, so
        that v[..., k] is entry base + k; it must hold every entry that rows
        lo..hi-1 read, those within ``bandwidth`` of them. ``out``, of v's
        leading shape and hi - lo columns, is filled with 0.0, and each
        diagonal's products are added to it in ascending order of offset:
        the bits of ``matvec``'s rows lo..hi-1.
        """
        strips = self._strips
        out.fill(0.0)
        for a, d in zip(strips.data, strips.offsets):
            # the rows of diagonal d within lo..hi-1, and the columns they face
            r0, r1 = max(lo, -d), min(hi, self.dim - d)
            if r0 < r1:
                out[..., r0 - lo:r1 - lo] += a[r0:r1] * v[..., r0 + d - base:r1 + d - base]

    def _gathered(self, v):
        """The product of ``matvec`` on the gather path."""
        if v.ndim == 2 and v.shape[0] != self._width:
            # a block of any other height is the stack of its rows' products
            return np.array([self._gathered(row) for row in v]).reshape(v.shape)
        # products in storage order, the b products of entry k side by side:
        # product (k, j) = val[k] * v[j, col[k]] is added to bin
        # j * dim + row[k], so every bin sums its products in storage order
        # and the bins already form the (b, dim) result
        rows, cols, values = self._entries
        gather, bins, scale = self._layout if v.ndim == 2 else (cols, rows, values)
        # the indices were checked at construction, so "wrap" never wraps;
        # take gathers faster in this mode than in "raise" or by fancy indexing
        w = np.take(v.reshape(-1), gather, mode="wrap")
        w *= scale
        return np.bincount(bins, weights=w, minlength=v.size).reshape(v.shape)

    def trace(self):
        return float(self._diag.sum())

    def frobenius_squared(self):
        """||A||_F^2, the sum of the squares of the stored entries.

        Each row adds its squares to 0.0 in ascending column order, as
        ``matvec`` adds its products, so a hole's +0.0 changes no sum; a
        matrix stored by column does this in one ``np.einsum`` over its
        strips. The row sums are added a tile of ``BLOCK_BYTES // 32`` rows
        at a time, each tile by ``np.einsum`` and the tiles in turn, so the
        three layouts give the same bits. A matrix stored by diagonal reads
        only the in-range slots of its strips, and holds temporaries of one
        tile, not of the strips.
        """
        strips = self._strips
        if strips is None:
            rows, _, values = self._entries
        elif strips.offsets is None:
            # row i's squares column by column, one ascending sum a row
            squares = np.einsum("ji,ji->i", strips.data, strips.data)
        total = 0.0
        step = BLOCK_BYTES // 32
        for lo in range(0, self.dim, step):
            hi = min(lo + step, self.dim)
            if strips is None:
                s, e = np.searchsorted(rows, (lo, hi))
                sums = np.bincount(rows[s:e] - lo, weights=np.square(values[s:e]),
                                   minlength=hi - lo)
            elif strips.offsets is None:
                sums = squares[lo:hi]
            else:
                sums = np.zeros(hi - lo)
                for a, d in zip(strips.data, strips.offsets):
                    r0, r1 = max(lo, -d), min(hi, self.dim - d)
                    if r0 < r1:
                        sums[r0 - lo:r1 - lo] += np.square(a[r0:r1])
            total += float(np.einsum("i->", sums))
        return total

    def diagonal(self):
        return self._diag

    def coo(self):
        """Stored entries as read-only (rows, cols, values), row-major sorted.

        A matrix stored by diagonal or by column reads them off its strips
        on each call: the slots that hold an entry, row by row, and in each
        row strip by strip, which is in ascending columns.
        """
        if self._strips is None:
            entries = tuple(a.view() for a in self._entries)
        else:
            entries = self._strips.entries()
        for a in entries:
            a.setflags(write=False)
        return entries

    def to_dense(self):
        rows, cols, values = self.coo()
        out = np.zeros((self.dim, self.dim))
        out[rows, cols] = values
        return out

    @classmethod
    def from_dense(cls, arr, droptol=0.0):
        """Build from a dense symmetric array, dropping |a_ij| <= droptol * max|a|.

        The keep/drop mask is symmetrized so that a borderline entry never
        loses its mirror.
        """
        arr = np.asarray(arr, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("expected a square 2-D array")
        if droptol < 0:
            raise ValueError("droptol must be nonnegative")
        scale = np.abs(arr).max() if arr.size else 0.0
        if not np.isfinite(scale):
            # a nan or inf would make the drop mask drop every entry
            raise ValueError("matrix entries must be finite")
        thresh = droptol * scale
        mask = (np.abs(arr) > thresh) | (np.abs(arr.T) > thresh)
        rows, cols = np.nonzero(mask)
        return cls(arr.shape[0], rows, cols, arr[rows, cols])


def _checked_dim(dim):
    """``dim`` as an int, refused unless it lies in 1..``_KEY_DIM_MAX``."""
    dim = int(dim)
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    if dim > _KEY_DIM_MAX:
        raise ValueError(f"dimension must be at most {_KEY_DIM_MAX}, the largest whose "
                         "keys row * dim + col fit in an int64")
    return dim


class _Strips(NamedTuple):
    """A matrix stored by diagonal or by column: data[s, i] is row i's entry in strip s.

    By diagonal, strip s is the diagonal of offset offsets[s], offsets
    ascending, and data[s, i] = A[i, i + offsets[s]]; by column, offsets is
    None and data[s, i] = A[i, s], column s as stored. ``held`` marks the
    slots that hold an entry, so that a stored +-0.0 stays apart from a
    hole, which holds +0.0. Both arrays are (nstrips, dim) and read-only.

    A diagonal's slots whose column i + offsets[s] lies outside the matrix
    hold no entry and are never read. Where every diagonal holds one value,
    the same bits, in all its other slots, ``data`` is a broadcast of an
    (nstrips, 1) column, one value a diagonal with stride 0 along the rows,
    and its out-of-range slots hold that value too.
    """

    data: np.ndarray
    held: np.ndarray
    offsets: tuple | None

    def entries(self):
        """(rows, cols, values) of the held slots: row by row, and in each row
        strip by strip, which is in ascending columns."""
        rows, strip = np.nonzero(self.held.T)
        cols = strip if self.offsets is None else (
            rows + np.array(self.offsets, dtype=np.int64)[strip])
        return rows, cols, self.data[strip, rows]


def _strips(rows, cols, values, dim):
    """(strips, diagonal, symmetric) of a product without a gather; see ``_Strips``.

    Of the two layouts, the one with fewer padded slots, ndiag * dim or
    dim * dim, is taken if it has at most ``DIA_FILL`` times the stored
    entries, diagonals on a tie; otherwise the result is (None, None,
    False), and the matrix gathers its products.

    The entries, in any order, are scattered to their slots, and ``_frozen``
    checks and freezes the strips; a repeat, which leaves a slot short, fails.
    """
    if rows.size and dim > DIA_FILL * rows.size:
        # even one diagonal would be too empty
        return None, None, False
    shifted = cols - rows
    shifted += dim - 1
    index = np.bincount(shifted, minlength=2 * dim - 1)
    present = np.flatnonzero(index)
    if _by_diagonal(dim, rows.size, present.size):
        shape, offsets = (present.size, dim), tuple((present - (dim - 1)).tolist())
        # entry (i, i + d) goes to flat slot k * dim + i of the k-th diagonal
        index[present] = np.arange(present.size) * dim
        # each entry's slot is written over its shifted offset; every offset
        # is in range, and "wrap" unlike "raise" takes no buffered copy
        slot = np.take(index, shifted, out=shifted, mode="wrap")
        del shifted, index
    else:
        del index
        if dim * dim > DIA_FILL * rows.size:
            return None, None, False
        # strip j holds column j as stored: its mirror, row j, may differ
        # from it within SYMMETRY_RTOL
        shape, offsets = (dim, dim), None
        slot = np.multiply(cols, dim, out=shifted)
        del shifted
    slot += rows
    data = np.zeros(shape)
    held = np.zeros(shape, dtype=bool)
    data.reshape(-1)[slot] = values
    held.reshape(-1)[slot] = True
    del slot
    strips, diag, symmetric = _frozen(data, held, offsets)
    return strips, diag, symmetric and np.count_nonzero(held) == rows.size


def _by_diagonal(dim, nnz, ndiag):
    """Whether nnz entries on ndiag diagonals, no more than dim, fill them
    to within ``DIA_FILL`` and so are stored by diagonal."""
    return ndiag <= dim and ndiag * dim <= DIA_FILL * nnz


def _in_range(offsets, dim):
    """(r0, r1) of each diagonal: its rows r0..r1-1 face a column of the matrix."""
    return [(max(0, -d), min(dim, dim - d)) for d in offsets]


def _frozen(data, held, offsets):
    """(strips, diagonal, symmetric) of filled strips, made read-only.

    Symmetry is checked on the strips: the held mask must equal its mirror
    image, and so must the entries, within ``SYMMETRY_RTOL``; see
    ``_mirrors_agree``. Symmetric diagonals that each hold one value in
    every in-range slot keep it once (see ``_Strips``). The diagonal is read
    off the strips.
    """
    data.setflags(write=False)
    held.setflags(write=False)
    if offsets is None:
        return (_Strips(data, held, offsets), np.diagonal(data).copy(),
                _mirrors_agree(held, held.T, data, data.T))
    # A[i, i + d], slot i of diagonal d, faces A[i + d, i], slot i + d of
    # diagonal -d, which is as many diagonals from the last as d is from the
    # first
    dim = data.shape[1]
    symmetric = offsets == tuple(-d for d in reversed(offsets)) and all(
        _mirrors_agree(held[k, :dim - d], held[-1 - k, d:], data[k, :dim - d], data[-1 - k, d:])
        for k, d in enumerate(offsets) if d > 0)
    if symmetric:
        data = _stored_once(data, held, offsets)
    diag = data[offsets.index(0)] if 0 in offsets else np.zeros(dim)
    return _Strips(data, held, offsets), diag, symmetric


def _stored_once(data, held, offsets):
    """data as a read-only broadcast of one value a diagonal, if each holds
    that value, bit for bit, in every in-range slot; otherwise data."""
    if data.strides[1] == 0:
        # handed over as a broadcast, such as fem_matrix's: kept as it is
        return data
    column = np.empty((len(offsets), 1))
    for k, (r0, r1) in enumerate(_in_range(offsets, data.shape[1])):
        bits = data[k, r0:r1].view(np.uint64)
        if not (held[k, r0:r1].all() and np.all(bits == bits[0])):
            return data
        column[k] = data[k, r0]
    return np.broadcast_to(column, data.shape)


def _mirrors_agree(held, held_mirror, a, b):
    """Whether each slot and its mirror slot agree, in the entries they hold.

    Both must hold an entry or both a hole, and an entry a with mirror b
    must satisfy |a - b| <= SYMMETRY_RTOL * max(1, min(|a|, |b|)): the
    test of ``SymmetricSparseMatrix._check_symmetry``, applied to both
    entries of the pair. A hole holds 0.0, and passes against a hole.

    The arrays are compared a chunk of ``BLOCK_BYTES // 32`` slots at a
    time, the row tile of a single vector, in whole rows of a 2-D array, so
    the temporaries take about 26 B a slot of one chunk, not of the arrays;
    the first chunk that fails decides. Two stride-0 broadcasts, such as
    constant diagonals, hold one value in every slot, so their first slots
    decide for all the rest; their masks are compared in full.
    """
    if not any(a.strides + b.strides):
        a, b = a[:1], b[:1]
    step = max(1, BLOCK_BYTES // 32 // math.prod(held.shape[1:]))
    for lo in range(0, len(held), step):
        part = slice(lo, lo + step)
        if not np.array_equal(held[part], held_mirror[part]):
            return False
        x, y = a[part], b[part]
        tol = np.abs(x)
        np.minimum(tol, np.abs(y), out=tol)
        np.maximum(tol, 1.0, out=tol)
        tol *= SYMMETRY_RTOL
        diff = x - y
        np.abs(diff, out=diff)
        if np.any(diff > tol):
            return False
    return True


def _indices(x, name):
    """x as a contiguous int64 array, refusing entries that are not integers.

    Integer input is taken as it is; only input of another dtype, which the
    cast would truncate, is compared with its cast.
    """
    x = np.asarray(x)
    if x.dtype.kind in "iu":
        return np.ascontiguousarray(x, dtype=np.int64)
    # a nan or an infinity casts to some integer, with a warning, and then
    # fails the comparison
    with np.errstate(invalid="ignore"):
        out = np.ascontiguousarray(x, dtype=np.int64)
    if not np.array_equal(out, x):
        raise ValueError(f"{name} indices must be integers")
    return out


def _block_layout(rows, cols, values, dim, b):
    """Gather indices, bincount bins and scale factors of a width-b block product.

    Entry k's b products sit side by side at k * b + j: product j gathers
    flat probe index j * dim + col[k] and lands in bin j * dim + row[k].
    """
    if b == 1:
        return cols, rows, values
    offsets = np.arange(b) * dim
    return ((cols[:, None] + offsets).reshape(-1), (rows[:, None] + offsets).reshape(-1),
            np.repeat(values, b))


def gershgorin_upper_bound(A):
    """Largest eigenvalue bound max_i (a_ii + r_i), r_i = sum_{j != i} |a_ij|, clamped at 0.

    The same pass gives Gershgorin's bound on the smallest eigenvalue,
    min_i (a_ii - r_i), unclamped, as ``lambda_min_lower``. Cost is one pass
    over the stored entries, or over the strips of a matrix stored by
    diagonal or by column, in-range slots only. For a symmetric matrix both
    bounds hold.

    A matrix stored by diagonal is read a tile of ``BLOCK_BYTES // 32``
    rows at a time, as ``frobenius_squared`` reads it, so the pass holds
    temporaries of one tile, 0.8 MB traced, not 24 MB of (dim,) ones; a
    diagonal stored once is still read in every slot. Each row's sum, and so
    each bound, has the bits of the untiled pass, which took 8.1 ms on
    ``fem_matrix(10**6)`` against 2.7 ms tiled (medians of 21). An O(ndiag)
    pass once moved where glibc placed the sampling loop's (dim,) arrays
    (see CHANGES.md); with exact moments that loop holds none.
    """
    strips = A._strips
    if strips is not None and strips.offsets is not None:
        # the sums from 0.0 of each tile's rows, each diagonal added to the
        # rows it faces: the out-of-range slots of a diagonal stored once
        # hold its value
        upper, lower = -math.inf, math.inf
        step = BLOCK_BYTES // 32
        for lo in range(0, A.dim, step):
            hi = min(lo + step, A.dim)
            radius = np.zeros(hi - lo)
            for a, d in zip(strips.data, strips.offsets):
                r0, r1 = max(lo, -d), min(hi, A.dim - d)
                if r0 < r1:
                    radius[r0 - lo:r1 - lo] += np.abs(a[r0:r1])
            top, bottom = _gershgorin_ends(A.diagonal()[lo:hi], radius)
            upper, lower = max(upper, top), min(lower, bottom)
        return SpectralBound(max(upper, 0.0), "gershgorin", lambda_min_lower=lower)
    if strips is None:
        rows, _, vals = A.coo()
        radius = np.bincount(rows, weights=np.abs(vals), minlength=A.dim)
    else:
        # row i's entries strip by strip, in ascending columns as bincount
        # adds them; a hole adds +0.0, which changes no sum
        radius = np.abs(strips.data).sum(axis=0)
    upper, lower = _gershgorin_ends(A.diagonal(), radius)
    return SpectralBound(max(upper, 0.0), "gershgorin", lambda_min_lower=lower)


def _gershgorin_ends(diag, radius):
    """max_i (a_ii + r_i) and min_i (a_ii - r_i), r_i = radius_i - |a_ii|."""
    off = radius - np.abs(diag)
    return float(np.max(diag + off)), float(np.min(diag - off))


def krylov_basis(A, start, scale):
    """``LANCZOS_STEPS`` Lanczos steps on A from ``start``, as a ``KrylovBasis``.

    ``scale`` bounds ||A||, as G + sigma does in ``lanczos_upper_bound``. A
    breakdown, a residual beta <= K u scale / 2, ends the run early: the
    Krylov space is then invariant, and the basis holds fewer rows.

    Each step is one ``matvec`` of a single vector; the basis is
    reorthogonalized by classical Gram-Schmidt run twice (CGS2) over
    ``np.einsum`` contractions, never BLAS, so that it is orthonormal to
    working precision and the same at every BLAS thread count. The run
    costs K products and a (K, dim) basis, and makes no dense copy of A;
    the basis lives as long as the bound or the scaling that keeps it.
    """
    m, steps = A.dim, LANCZOS_STEPS
    tiny = steps * np.finfo(np.float64).eps / 2.0 * scale
    basis = np.empty((min(steps, m), m))
    q = np.asarray(start, dtype=np.float64)
    q = q / math.sqrt(np.einsum("i,i->", q, q))
    alpha, beta = [], []
    for j in range(len(basis)):
        basis[j] = q
        w = A.matvec(q)
        a = 0.0
        for _ in range(2):
            h = np.einsum("ji,i->j", basis[:j + 1], w)
            w -= np.einsum("ji,j->i", basis[:j + 1], h)
            a += float(h[j])
        alpha.append(a)
        b = math.sqrt(np.einsum("i,i->", w, w))
        if j + 1 == len(basis) or b <= tiny:
            break
        beta.append(b)
        q = w / b
    return KrylovBasis(basis[:len(alpha)], np.array(alpha), np.array(beta), 16.0 * tiny)


def lanczos_upper_bound(A, gershgorin, start, eps):
    """A bound on lambda_max from ``LANCZOS_STEPS`` Lanczos steps, failing with
    probability at most eps over a start vector uniform on the sphere.

    ``gershgorin`` is ``gershgorin_upper_bound(A)``: its upper end G and
    sigma = max(0, -its lower end), which makes A + sigma I PSD. ``start``
    is a Gaussian vector, so its direction is uniform on the sphere. For PSD
    B, k Lanczos steps from such a vector give a top Ritz value theta with
    P(theta <= (1 - delta) lambda_max(B)) <= 1.648 sqrt(m) exp(-sqrt(delta) (2k - 1))
    (Kuczynski and Wozniakowski, SIAM J. Matrix Anal. Appl. 13(4), 1992).
    Lanczos is shift-invariant, so theta + sigma is that Ritz value of
    B = A + sigma I, and with delta = (ln(1.648 sqrt(m) / eps) / (2K - 1))^2
    the result g = min(G, (theta + sigma) / (1 - delta) - sigma + r) bounds
    lambda_max(A) with probability at least 1 - eps. A breakdown (see
    ``krylov_basis``) ends the run early: every later step would give the
    same theta, and delta(K) still holds.

    r = 16 K u (G + sigma), u the unit roundoff, covers rounding. Both
    ||A|| and ||T|| are at most G + sigma. With full reorthogonalization the
    computed basis is orthonormal to working precision, and the computed T
    is the exact Lanczos matrix of a matrix within O(K u ||A||) of A, the
    breakdown residual included; by Weyl's theorem that moves lambda_max by
    no more, and ``eigvalsh`` of T errs by O(K u ||T||) more. r is far below
    the slack delta lambda_max that the bound keeps.

    theta is the top eigenvalue of the K x K tridiagonal T of one
    ``krylov_basis`` run, so the bound is the same at every BLAS thread
    count. Returns a ``SpectralBound`` of method "lanczos" and failure eps,
    which keeps the run as its ``krylov``, where g < G, otherwise
    ``gershgorin`` itself.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError(f"failure probability must lie in (0, 1), got {eps!r}")
    big = gershgorin.lambda_max_upper
    sigma = max(0.0, -gershgorin.lambda_min_lower)
    delta = (math.log(_KW_CONSTANT * math.sqrt(A.dim) / eps) / (2 * LANCZOS_STEPS - 1)) ** 2
    scale = big + sigma
    if not (delta < 1.0 and scale > 0.0):
        # no slack left to bound, or a zero matrix
        return gershgorin
    run = krylov_basis(A, start, scale)
    tri = np.diag(run.alpha) + np.diag(run.beta, 1) + np.diag(run.beta, -1)
    theta = float(np.linalg.eigvalsh(tri)[-1])
    bound = (theta + sigma) / (1.0 - delta) - sigma + run.rounding
    if not bound < big:
        return gershgorin
    return SpectralBound(max(bound, 0.0), "lanczos",
                         lambda_min_lower=gershgorin.lambda_min_lower, failure=eps,
                         krylov=run)


def write_matrix_market(A, path):
    """Write the lower triangle in coordinate real symmetric format.

    Values are printed with 17 significant digits so that read_matrix_market
    round-trips float64 exactly. Lines are formatted from Python ints and
    floats, a chunk of entries per write.
    """
    rows, cols, vals = A.coo()
    keep = rows >= cols
    rows, cols, vals = rows[keep] + 1, cols[keep] + 1, vals[keep]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{A.dim} {A.dim} {rows.size}\n")
        for s in range(0, rows.size, _WRITE_CHUNK):
            part = slice(s, s + _WRITE_CHUNK)
            fh.write("".join(map("%d %d %.17g\n".__mod__,
                                 zip(rows[part].tolist(), cols[part].tolist(),
                                     vals[part].tolist()))))


def _header_error(lineno, text):
    raise MatrixMarketError(f"line {lineno}: {text}")


def _open_text(path):
    return open(path, "r", encoding="ascii", errors="replace")


def _raise_at_first_bad_entry(path, nrows, nnz, symmetric, cause):
    """Raise the error of the first check that a Matrix Market file fails.

    Entry lines are the lines after the size line with anything but
    whitespace before their first '%', as np.loadtxt counts them. They are
    checked in file order, and each in this order: an entry beyond the
    declared count, the token count, the parse, a finite value, the index
    range, the lower triangle of a symmetric file, and a repeat of an
    earlier entry. Then a short entry count is reported at the file's last
    line, and then, in a general file, the first entry in file order whose
    mirror is missing or differs from it by more than ``SYMMETRY_RTOL``
    times max(1, |entry|). ``cause`` is reported if every check passes.
    """
    # entry (i, j) is keyed by the int i * (nrows + 1) + j. A symmetric file
    # needs only the keys; a general file's mirror check also needs each
    # entry's line and value, kept in flat arrays at the index its key maps
    # to. Traced, that is about 91 B a line of a symmetric file of 2 * 10^5
    # lines, and 148 of a general file of 5 * 10^4
    width = nrows + 1
    seen = set() if symmetric else {}
    linenos, values = array("q"), array("d")
    with _open_text(path) as fh:
        lines = ((lineno, raw) for lineno, raw in enumerate(fh, start=1)
                 if lineno > 1 and raw.partition("%")[0].strip())
        next(lines, None)
        for lineno, raw in lines:
            if len(seen) == nnz:
                _header_error(lineno, f"unexpected extra entry, header declared {nnz}")
            i, j, v = _parsed_entry(lineno, raw, nrows)
            if symmetric and i < j:
                _header_error(lineno, "symmetric files must store the lower triangle (row >= col)")
            key = i * width + j
            if key in seen:
                _header_error(lineno, f"duplicate entry for ({i}, {j})")
            if symmetric:
                seen.add(key)
            else:
                seen[key] = len(linenos)
                linenos.append(lineno)
                values.append(v)
        if len(seen) < nnz:
            fh.seek(0)
            _header_error(sum(1 for _ in fh), f"header declared {nnz} entries, found {len(seen)}")
    if not symmetric:
        _raise_at_first_bad_mirror(seen, width, linenos, values)
    raise MatrixMarketError(f"cannot read the entries: {cause}")


def _parsed_entry(lineno, raw, nrows):
    """(row, col, value) of an entry line, or the error of the first check it
    fails: the token count, the parse, a finite value and the index range."""
    body = raw.partition("%")[0]
    tok = body.split()
    if len(tok) != 3:
        _header_error(lineno, "entry must be 'row col value'")
    try:
        # np.loadtxt, unlike int() and float(), takes no digit separators
        if "_" in body:
            raise ValueError
        i, j, v = int(tok[0]), int(tok[1]), float(tok[2])
    except ValueError:
        _header_error(lineno, f"cannot parse entry {raw.strip()!r}")
    if not math.isfinite(v):
        _header_error(lineno, f"value must be finite in entry {raw.strip()!r}")
    if not (1 <= i <= nrows and 1 <= j <= nrows):
        _header_error(lineno, f"index ({i}, {j}) outside 1..{nrows}")
    return i, j, v


def _raise_at_first_bad_mirror(seen, width, linenos, values):
    """Raise the error of a general file's first entry, in file order, whose
    mirror is missing or differs from it by more than ``SYMMETRY_RTOL`` times
    max(1, |entry|), if there is one.

    ``seen`` maps each entry's key i * width + j to the index of its line and
    value in ``linenos`` and ``values``, in file order.
    """
    for key, k in seen.items():
        i, j = divmod(key, width)
        lineno, v = linenos[k], values[k]
        mirror = seen.get(j * width + i)
        if mirror is None:
            _header_error(lineno, f"entry ({i}, {j}) has no mirrored ({j}, {i}) entry")
        vm = values[mirror]
        if abs(v - vm) > SYMMETRY_RTOL * max(1.0, abs(v)):
            _header_error(lineno, f"entry ({i}, {j}) = {v!r} does not match "
                                  f"({j}, {i}) = {vm!r} from line {linenos[mirror]}")


def read_matrix_market(path):
    """Read a coordinate real matrix, symmetric or general symmetry.

    The file is a '%%MatrixMarket matrix coordinate real symmetric' (or
    'general') header, a 'rows cols nnz' size line and nnz 'row col value'
    entry lines. Fields are separated by any whitespace, indices are
    1-based, and numbers take Python's int and float syntax without '_'
    separators. Lines whose first non-blank character is '%' are comments,
    and so is the rest of an entry line from a '%' on. Symmetric files must
    store the lower triangle (row >= column); general files must contain
    both halves with matching values. Values must be finite.

    The entries are parsed in one np.loadtxt pass; the reader checks their
    count and triangle as arrays, and the matrix's constructor checks the
    rest, index range, repeats and mirrors among them. Any failure, a
    ``ValueError`` of which only the text is kept, is worded by a second,
    line-by-line reading of the file, so that the message names the
    offending line; no parsed array, and no traceback holding one, is alive
    during it.

    The parsed records take 24 B a line. They are freed before the
    constructor runs, once the entries are copied out of them, 24 B an
    entry: a symmetric file's lower triangle and its mirror, or a general
    file's lines as they come. A dense symmetric file then peaks at about
    41 B an entry, in the build (see the module notes), and a general file
    at about 48, while its records are copied.
    """
    with _open_text(path) as fh:
        first = fh.readline()
        if not first:
            _header_error(1, "empty file, expected a MatrixMarket header")

        header = first.split()
        if len(header) != 5 or header[0].lower() != "%%matrixmarket":
            _header_error(1, "expected '%%MatrixMarket matrix coordinate real <symmetry>'")
        obj, fmt, field, symmetry = (tok.lower() for tok in header[1:])
        if obj != "matrix" or fmt != "coordinate" or field != "real":
            _header_error(1, f"unsupported header '{obj} {fmt} {field}', "
                             "only 'matrix coordinate real' is accepted")
        if symmetry not in ("symmetric", "general"):
            _header_error(1, f"unsupported symmetry {symmetry!r}")

        lineno = 1
        size = None
        for lineno, raw in enumerate(iter(fh.readline, ""), start=2):
            stripped = raw.strip()
            if not stripped or stripped.startswith("%"):
                continue
            size = stripped.split()
            break
        if size is None:
            _header_error(lineno, "missing size line")
        if len(size) != 3:
            _header_error(lineno, "size line must be 'rows cols nnz'")
        try:
            nrows, ncols, nnz = (int(tok) for tok in size)
        except ValueError:
            _header_error(lineno, f"size line is not three integers: {' '.join(size)!r}")
        if nrows != ncols:
            _header_error(lineno, f"matrix must be square, got {nrows} x {ncols}")
        if nrows < 1 or nnz < 0:
            _header_error(lineno, "size line entries out of range")

        symmetric = symmetry == "symmetric"
        try:
            return _entries_matrix(fh, nrows, nnz, symmetric)
        except ValueError as exc:
            cause = str(exc)
    _raise_at_first_bad_entry(path, nrows, nnz, symmetric, cause)


def _entries_matrix(fh, nrows, nnz, symmetric):
    """The matrix of the entry lines left in fh; a ``ValueError`` if it cannot be built.

    The constructor gets contiguous int64 rows and columns and float64
    values, which it takes without a copy: a symmetric file's lower triangle
    followed by the mirror of its off-diagonal entries, or a general file's
    entries copied out of the records. The records are freed first, so the
    build never holds them. A wrong count or triangle, which np.loadtxt and
    the constructor let pass, raises "no line fails its checks".
    """
    with warnings.catch_warnings():
        # a file without entries is checked below, like any other
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        entries = np.loadtxt(fh, comments="%", ndmin=1, dtype=[
            ("i", np.int64), ("j", np.int64), ("v", np.float64)])
    i, j, v = entries["i"], entries["j"], entries["v"]
    if entries.size != nnz or (symmetric and (i < j).any()):
        raise ValueError("no line fails its checks")
    if symmetric:
        off = i != j
        i, j, v = (np.concatenate((i, j[off])), np.concatenate((j, i[off])),
                   np.concatenate((v, v[off])))
        del off
    else:
        i, j, v = i.copy(), j.copy(), v.copy()
    del entries
    i -= 1
    j -= 1
    return SymmetricSparseMatrix(nrows, i, j, v)
