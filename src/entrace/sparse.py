"""Sparse symmetric storage, Matrix Market I/O, and spectral upper bounds.

The estimator touches a matrix only through ``trace``, ``block_width`` and
``matvec``. Everything in this module exists to make its products cheap,
deterministic, and safe to share across threads. ``matvec`` takes one
vector or a block of probe rows (the estimator sends ``block_width`` rows
at most); a block shares the per-call cost of a product among its rows,
and each row comes out bit-identical to its single-vector product.

A product takes one of three layouts, chosen once from the sparsity
pattern. Two of them store the matrix a second time as strips, and multiply
it one strip at a time with no gather: a matrix whose entries fill few
diagonals is stored by diagonal, and one whose entries nearly fill
dim x dim is stored by column. Any other matrix gathers its products in
storage order and sums them with ``np.bincount``. All three add each row's
products to 0.0 in ascending column order, so they give the same bits.

A strip product runs one row tile at a time: it fills rows lo..hi-1 of the
result from the strips clipped to those rows, and hands the tile to the
caller's ``finish`` while it is still in cache, so that the recurrence
around the product streams the matrix and its vectors once a step. A tile
of a block of ``block_width`` rows holds ``BLOCK_BYTES // 4`` bytes, 2^15
rows of a single vector; a matrix of that many rows or fewer is one tile.

Symmetry is checked where the entries already are: a matrix stored as
strips compares its strips with their mirror images, and only a matrix
that gathers its products sorts its entries a second time, by (col, row).
Either way a matrix is accepted or refused, and an error worded, alike.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# relative tolerance for |A_ij - A_ji| at construction time
SYMMETRY_RTOL = 1e-12

# bytes that one block product may hold: of gathered products (or of probe
# rows, if there are more of those) on the gather path, and of all the
# (b, dim) arrays of one form on a strip path; the block width follows from
# it, and so does the row tile of a strip product, a quarter of it. On a
# 2-vCPU x86 guest (2 MiB L2 a core), fem(10^6) at b = 1 samples 8 probes
# on two threads in 0.41 s untiled, 0.34 s in tiles of 2^14 rows, 0.29 s
# of 2^15 and 0.28 s of 2^16 (medians of 6 benchmark runs)
BLOCK_BYTES = 2**20

# largest fill, padded strip slots over stored entries, at which a matrix is
# also stored as strips: by diagonal (ndiag * dim slots) or by column
# (dim * dim slots), whichever has fewer, diagonals on a tie. Measured on a
# 2-vCPU x86 guest, per probe row, each path at its own block width. By
# diagonal the two break even near 1.3: banded matrices with random holes at
# dim 1000 take 13.6 us against 19.4 us gathered at fill 1.16, and 15.7
# against 16.3 at fill 1.39; at dim 300, 9.2 against 10.6 at fill 1.18, and
# 9.3 against 8.8 at fill 1.44; fem(10^6), fill 1.0, takes 5.8 ms against
# 17.8 ms. By column the threshold is cautious: symmetric matrices with random
# holes still win at fill 1.7 on dim 64 (4.3 us against 5.1), 2.2 on dim 300
# and 4 on dim 1000. The dense 1000 x 1000 matrix, fill 1.0, takes 0.98 ms
# against 4.1 ms, and spdc, fill 1.02, 4.3 us against 7.9 us.
DIA_FILL = 1.3

# largest dimension: the keys row * dim + col that order the entries fit an int64
_KEY_DIM_MAX = math.isqrt(np.iinfo(np.int64).max)

# entries write_matrix_market formats per write
_WRITE_CHUNK = 2**16

_BOUND_METHODS = ("gershgorin", "power-iteration", "user-supplied")


class MatrixMarketError(ValueError):
    """Malformed Matrix Market input; the message names the offending line."""


@dataclass(frozen=True)
class SpectralBound:
    """Upper bound on the largest eigenvalue, tagged with how it was obtained."""

    lambda_max_upper: float
    method: str

    def __post_init__(self):
        if not self.lambda_max_upper >= 0.0:
            raise ValueError("spectral bound must be nonnegative")
        if self.method not in _BOUND_METHODS:
            raise ValueError(f"unknown bound method {self.method!r}")


class SymmetricSparseMatrix:
    """Real symmetric matrix with both triangles stored explicitly.

    Entries are validated, sorted by (row, column) with one stable sort on
    the fused key row * dim + col (none if they arrive so), and frozen at
    construction, so instances can be shared across threads without locking.
    The key must fit in an int64, so dim is at most ``_KEY_DIM_MAX`` =
    3037000499; a larger dim is refused before anything is allocated.
    Each entry must have a mirror that equals it within ``SYMMETRY_RTOL``;
    a matrix stored as strips checks this on its strips, any other by a
    sort on (column, row). Positive semidefiniteness is the caller's
    contract and is not checked here; use the dense oracle to verify it for
    matrices of modest size.

    When the stored entries fill few diagonals, padded diagonal slots
    ndiag * dim at most ``DIA_FILL`` times nnz, they are also kept as a
    read-only (ndiag, dim) array of diagonals, and the matrix-vector product
    adds one shifted diagonal at a time. When they nearly fill the matrix,
    with more than dim diagonals and dim * dim slots at most ``DIA_FILL``
    times nnz, they are kept as a read-only (dim, dim) array of columns
    instead, and the product adds column j times v[j] for each j in turn.
    Otherwise the product is one ordered pass over the stored entries. In
    each layout every row sums its products from 0.0 in ascending column
    order, so repeated products, and the three layouts, agree bit for bit.
    Strips are also kept cut into the row tiles that ``matvec`` fills one
    at a time; see ``_tiles``.
    """

    __slots__ = ("dim", "col", "val", "_row", "_col", "_width", "_layout", "_strips",
                 "_tiles", "_diag", "build_warnings")

    def __init__(self, dim, rows, cols, values):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if dim > _KEY_DIM_MAX:
            raise ValueError(f"dimension must be at most {_KEY_DIM_MAX}, the largest whose "
                             "keys row * dim + col fit in an int64")
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

        key = rows * dim + cols
        ordered = bool(np.all(key[1:] > key[:-1]))
        order = None if ordered else np.argsort(key, kind="stable")
        del key
        if not ordered:
            rows, cols, values = rows[order], cols[order], values[order]
            del order
            if rows.size > 1:
                same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
                if same.any():
                    k = int(np.flatnonzero(same)[0])
                    raise ValueError(f"duplicate entry at ({rows[k]}, {cols[k]})")

        # entries in storage order and free of repeats; ordered input is
        # still the caller's, and only read until it is copied below
        found = _strips(rows, cols, values, dim)
        if found is None or not found.symmetric:
            # the gather path's check, which also words the error of a
            # failed strip check
            self._check_symmetry(rows, cols, values, dim)
        if ordered:
            # copied, as the sort's permutation would copy them, so that the
            # caller's arrays never become the matrix's; last, once the
            # strips' scratch is freed
            rows, cols, values = rows.copy(), cols.copy(), values.copy()

        if found is None:
            strips = tiles = None
            diag = np.zeros(dim)
            on_diag = rows == cols
            diag[rows[on_diag]] = values[on_diag]
            width = max(1, BLOCK_BYTES // (8 * max(rows.size, dim)))
            layout = _block_layout(rows, cols, values, dim, width)
        else:
            strips, diag = found.strips, found.diagonal
            # a form holds five (b, dim) arrays, the probes, t_prev, t, t_next
            # and a product's temporary; at an eighth of BLOCK_BYTES each, the
            # five fit within it on each worker. Wider blocks gain little per
            # row (dim 1000: 0.98 ms at 16 rows, 0.94 ms at 26)
            width = max(1, BLOCK_BYTES // 8 // (8 * dim))
            # a (width, height) tile of each array a product step touches
            # stays in a core's L2 cache
            tiles = _tiles(strips, dim, max(1, BLOCK_BYTES // 4 // (8 * width)))
            layout = None

        # np.take and np.bincount copy a read-only index array on every call,
        # so the indices matvec passes them, a width-1 layout's too, stay
        # writable, though nothing writes to them; col is a read-only view
        for arr in (values, diag):
            arr.setflags(write=False)
        self.dim = dim
        self.col = cols.view()
        self.col.setflags(write=False)
        self.val = values
        self._row = rows
        self._col = cols
        self._width = width
        self._layout = layout
        self._strips = strips
        self._tiles = tiles
        self._diag = diag
        self.build_warnings = []

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
        return int(self.val.size)

    @property
    def block_width(self):
        """Probe rows one product should take at a time.

        On the gather path, as many as keep the gathered products and the
        probe rows each within ``BLOCK_BYTES``; stored as strips, as many as
        keep the five (b, dim) arrays of one form within it. At least one.
        """
        return self._width

    def matvec(self, v, finish=None):
        """Return A @ v, or for a (b, dim) block v the block with rows A @ v[i].

        Each row adds its products val[k] * v[col[k]] to 0.0 in storage order
        (columns ascending), so the result is identical across calls,
        processes, and thread counts, and each row of a block product equals
        the product of that row alone. A matrix stored by diagonal adds
        diagonal d, shifted by d, for each d in ascending order; one stored by
        column adds column j, as stored, times v[j] for each j in ascending
        order. A hole in a strip adds a +-0 product, which leaves a sum that
        starts at +0.0 unchanged, so the bits are those of the ordered pass
        for any finite v. A gathered vector or block of ``block_width`` rows
        reads a layout kept since construction; a narrower block is padded to
        that width with zero rows, and a taller one is cut into pieces of that
        width.

        ``finish(y, lo, hi)``, if given, is called in place on y[..., lo:hi]
        once its products are summed, for row tiles that cover every row once
        in ascending order. A strip product sums one tile of rows at a time,
        so the tile is still in cache when ``finish`` works on it; a gathered
        product calls it once, on all rows. The bits of a row do not depend
        on the tile it lands in.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
            raise ValueError(f"vector length {v.shape} does not match dimension {self.dim}")
        if self._tiles is None:
            y = self._gathered(v)
            if finish is not None:
                finish(y, 0, self.dim)
            return y
        y = np.empty(v.shape)
        for lo, hi, strips in self._tiles:
            tile = y[..., lo:hi]
            tile.fill(0.0)
            for rows, cols, a in strips:
                tile[..., rows] += a * v[..., cols]
            if finish is not None:
                finish(tile, lo, hi)
        return y

    def _gathered(self, v):
        """The product of ``matvec`` on the gather path."""
        b = height = 1 if v.ndim == 1 else v.shape[0]
        if b > self._width:
            return np.concatenate([self._gathered(v[k:k + self._width])
                                   for k in range(0, b, self._width)])
        # products in storage order, the b products of entry k side by side:
        # product (k, j) = val[k] * v[j, col[k]] is added to bin
        # j * dim + row[k], so every bin sums its products in storage order
        # and the bins already form the (b, dim) result
        if 1 < b < self._width:
            # gathered as a full block with zero rows below it: each row's bins
            # hold only its own products, so its bits are those of the row alone
            v = np.concatenate((v, np.zeros((self._width - b, self.dim))))
            b = self._width
        gather, bins, scale = self._layout if b == self._width else (self._col, self._row, self.val)
        # the indices were checked at construction, so "wrap" never wraps;
        # take gathers faster in this mode than in "raise" or by fancy indexing
        w = np.take(v.reshape(-1), gather, mode="wrap")
        w *= scale
        y = np.bincount(bins, weights=w, minlength=self.dim * b)
        return y if v.ndim == 1 else y.reshape(b, self.dim)[:height]

    def trace(self):
        return float(self._diag.sum())

    def diagonal(self):
        return self._diag

    def coo(self):
        """Stored entries as read-only (rows, cols, values), row-major sorted."""
        rows = self._row.view()
        rows.setflags(write=False)
        return rows, self.col, self.val

    def to_dense(self):
        out = np.zeros((self.dim, self.dim))
        out[self._row, self.col] = self.val
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
        thresh = droptol * scale
        mask = (np.abs(arr) > thresh) | (np.abs(arr.T) > thresh)
        rows, cols = np.nonzero(mask)
        return cls(arr.shape[0], rows, cols, arr[rows, cols])


class _Strips(NamedTuple):
    """A matrix stored as strips, as ``_strips`` finds it."""

    strips: tuple
    diagonal: np.ndarray
    symmetric: bool


def _strips(rows, cols, values, dim):
    """The strips of a product without a gather, or None; see ``_Strips``.

    A product adds entries * v[..., columns] to y[..., rows] for each
    (rows, columns, entries) strip in turn. Stored by diagonal, strip k is
    the k-th stored diagonal by ascending offset d, holding A[i, i + d].
    Stored by column, strip j is (:, j:j+1, A[:, j]). A missing entry is
    stored as 0.0. Of the two, the layout with fewer padded slots, ndiag *
    dim or dim * dim, is taken if it has at most ``DIA_FILL`` times the
    stored entries, diagonals on a tie; otherwise the result is None. The
    offsets are counted by one np.bincount over -(dim - 1)..dim - 1.

    The entries, in storage order, are only read. Symmetry is checked on the
    strips: a mask of the slots that hold an entry must equal its mirror
    image, and so must the entries, within ``SYMMETRY_RTOL``; see
    ``_mirrors_agree``. The diagonal is read off the strips.
    """
    if rows.size and dim > DIA_FILL * rows.size:
        # even one diagonal would be too empty
        return None
    shifted = cols - rows
    shifted += dim - 1
    index = np.bincount(shifted, minlength=2 * dim - 1)
    present = np.flatnonzero(index)
    if present.size > dim:
        del shifted, index
        return _column_strips(rows, cols, values, dim)
    if present.size * dim > DIA_FILL * rows.size:
        return None
    # entry (i, i + d) goes to flat slot k * dim + i of the k-th diagonal
    index[present] = np.arange(present.size) * dim
    slot = index[shifted]
    del shifted, index
    slot += rows
    data = np.zeros((present.size, dim))
    held = np.zeros(data.shape, dtype=bool)
    data.reshape(-1)[slot] = values
    held.reshape(-1)[slot] = True
    del slot
    data.setflags(write=False)
    offsets = (present - (dim - 1)).tolist()
    # A[i, i + d], slot i of diagonal d, faces A[i + d, i], slot i + d of
    # diagonal -d, which is as many diagonals from the last as d is from the
    # first
    symmetric = offsets == [-d for d in reversed(offsets)] and all(
        _mirrors_agree(held[k, :dim - d], held[-1 - k, d:], data[k, :dim - d], data[-1 - k, d:])
        for k, d in enumerate(offsets) if d > 0)
    out = []
    for a, d in zip(data, offsets):
        lo, hi = max(0, -d), dim - max(0, d)
        out.append((slice(lo, hi), slice(lo + d, hi + d), a[lo:hi]))
    diagonal = data[offsets.index(0)] if 0 in offsets else np.zeros(dim)
    return _Strips(tuple(out), diagonal, symmetric)


def _tiles(strips, dim, height):
    """The strips cut into tiles of ``height`` rows: a tuple of (lo, hi, strips).

    A tile's strips are the strips clipped to rows lo..hi-1, in the same
    order, with rows counted from lo, so they fill y[..., lo:hi] alone and
    add to each of its elements what the strips add. A diagonal keeps the
    columns that face its clipped rows, and a column, which covers every
    row, keeps its column; a diagonal that misses the rows is left out. A
    matrix of at most ``height`` rows is one tile, whose strips equal the
    strips as stored.
    """
    tiles = []
    for lo in range(0, dim, height):
        hi = min(lo + height, dim)
        tile = []
        for rows, cols, a in strips:
            if rows == slice(None):
                tile.append((rows, cols, a[lo:hi]))
                continue
            r0, r1 = max(rows.start, lo), min(rows.stop, hi)
            if r0 < r1:
                shift = cols.start - rows.start
                tile.append((slice(r0 - lo, r1 - lo), slice(r0 + shift, r1 + shift),
                             a[r0 - rows.start:r1 - rows.start]))
        tiles.append((lo, hi, tuple(tile)))
    return tuple(tiles)


def _column_strips(rows, cols, values, dim):
    """Column strips (:, j:j+1, A[:, j]), or None when dim * dim is too many slots."""
    if dim * dim > DIA_FILL * rows.size:
        return None
    # strip j must hold column j as stored: its mirror, row j, may differ
    # from it within SYMMETRY_RTOL
    slot = cols * dim + rows
    data = np.zeros((dim, dim))
    held = np.zeros((dim, dim), dtype=bool)
    data.reshape(-1)[slot] = values
    held.reshape(-1)[slot] = True
    del slot
    data.setflags(write=False)
    symmetric = _mirrors_agree(held, held.T, data, data.T)
    return _Strips(tuple((slice(None), slice(j, j + 1), a) for j, a in enumerate(data)),
                   np.diagonal(data).copy(), symmetric)


def _mirrors_agree(held, held_mirror, a, b):
    """Whether each slot and its mirror slot agree, in the entries they hold.

    Both must hold an entry or both a hole, and an entry a with mirror b
    must satisfy |a - b| <= SYMMETRY_RTOL * max(1, min(|a|, |b|)): the
    test of ``SymmetricSparseMatrix._check_symmetry``, applied to both
    entries of the pair. A hole holds 0.0, and passes against a hole.
    """
    if not np.array_equal(held, held_mirror):
        return False
    tol = np.abs(a)
    np.minimum(tol, np.abs(b), out=tol)
    np.maximum(tol, 1.0, out=tol)
    tol *= SYMMETRY_RTOL
    diff = a - b
    np.abs(diff, out=diff)
    return not np.any(diff > tol)


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
    """Largest eigenvalue bound max_i (a_ii + sum_{j != i} |a_ij|), clamped at 0.

    Cost is one pass over the stored entries; for a PSD matrix the bound is
    never below the true lambda_max.
    """
    rows, _, vals = A.coo()
    radius = np.bincount(rows, weights=np.abs(vals), minlength=A.dim)
    diag = A.diagonal()
    bound = float(np.max(diag + (radius - np.abs(diag)))) if A.dim else 0.0
    return SpectralBound(max(bound, 0.0), "gershgorin")


def power_iteration_bound(A, max_iters=1000, rel_tol=1e-8, safety=1.05, seed=0):
    """Estimate lambda_max by power iteration and inflate it by ``safety``.

    The Rayleigh quotient of the iterate approaches lambda_max from below for
    PSD input, so the multiplicative safety margin (default 5%) is what makes
    the result usable as an upper bound. Iteration stops when the quotient's
    relative change drops below ``rel_tol`` or after ``max_iters`` products.
    Norms and quotients are summed by ``np.einsum``, not BLAS, so the bound
    does not depend on the BLAS thread count.
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if safety < 1.0:
        raise ValueError("safety factor must be at least 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.dim)
    v /= np.sqrt(np.einsum("i,i->", v, v))
    rho_prev = None
    rho = 0.0
    for _ in range(max_iters):
        w = A.matvec(v)
        norm_w = np.sqrt(np.einsum("i,i->", w, w))
        if norm_w == 0.0:
            # v is in the kernel; for PSD A a random restart would land here
            # again only if A = 0
            return SpectralBound(0.0, "power-iteration")
        rho = float(np.einsum("i,i->", v, w))
        if rho_prev is not None and abs(rho - rho_prev) <= rel_tol * max(abs(rho), 1e-300):
            break
        rho_prev = rho
        v = w / norm_w
    return SpectralBound(safety * max(rho, 0.0), "power-iteration")


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
    # a symmetric file needs only the entries' keys; a general file's mirror
    # check also needs each entry's line and value
    seen = set() if symmetric else {}
    with _open_text(path) as fh:
        lines = ((lineno, raw) for lineno, raw in enumerate(fh, start=1)
                 if lineno > 1 and raw.partition("%")[0].strip())
        next(lines, None)
        for lineno, raw in lines:
            if len(seen) == nnz:
                _header_error(lineno, f"unexpected extra entry, header declared {nnz}")
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
            if symmetric and i < j:
                _header_error(lineno, "symmetric files must store the lower triangle (row >= col)")
            if (i, j) in seen:
                _header_error(lineno, f"duplicate entry for ({i}, {j})")
            if symmetric:
                seen.add((i, j))
            else:
                seen[i, j] = lineno, v
        if len(seen) < nnz:
            fh.seek(0)
            _header_error(sum(1 for _ in fh), f"header declared {nnz} entries, found {len(seen)}")
    if not symmetric:
        for (i, j), (lineno, v) in seen.items():
            if (j, i) not in seen:
                _header_error(lineno, f"entry ({i}, {j}) has no mirrored ({j}, {i}) entry")
            mirror_line, vm = seen[j, i]
            if abs(v - vm) > SYMMETRY_RTOL * max(1.0, abs(v)):
                _header_error(lineno, f"entry ({i}, {j}) = {v!r} does not match "
                                      f"({j}, {i}) = {vm!r} from line {mirror_line}")
    raise MatrixMarketError(f"cannot read the entries: {cause}")


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
    rest, index range, repeats and mirrors among them. Any failure is worded
    by a second, line-by-line reading of the file, so that the message
    names the offending line.
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
        matrix = _entries_matrix(fh, nrows, nnz, symmetric)
    if isinstance(matrix, str):
        _raise_at_first_bad_entry(path, nrows, nnz, symmetric, matrix)
    return matrix


def _entries_matrix(fh, nrows, nnz, symmetric):
    """The matrix of the entry lines left in fh, or why it cannot be built.

    The reason is returned as a string, so that no parsed array, and no
    traceback holding one, stays alive while the file is scanned again.
    """
    try:
        with warnings.catch_warnings():
            # a file without entries is checked below, like any other
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            entries = np.loadtxt(fh, comments="%", ndmin=1, dtype=[
                ("i", np.int64), ("j", np.int64), ("v", np.float64)])
    except ValueError as exc:
        return str(exc)
    i, j, v = entries["i"], entries["j"], entries["v"]
    if entries.size != nnz or (symmetric and (i < j).any()):
        return "no line fails its checks"
    if symmetric:
        off = i != j
        i, j, v = (np.concatenate((i, j[off])), np.concatenate((j, i[off])),
                   np.concatenate((v, v[off])))
    i -= 1
    j -= 1
    try:
        return SymmetricSparseMatrix(nrows, i, j, v)
    except ValueError as exc:
        return str(exc)
