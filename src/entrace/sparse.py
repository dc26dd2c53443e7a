"""Sparse symmetric storage, Matrix Market I/O, and spectral upper bounds.

The estimator touches a matrix only through ``matvec`` and ``trace``.
Everything in this module exists to make those two operations cheap,
deterministic, and safe to share across threads. ``matvec`` takes one
vector or a block of probe rows; a block shares the per-call cost of a
product among its rows, and each row comes out bit-identical to its
single-vector product.

A product takes one of two paths, chosen once from the sparsity pattern.
A matrix whose entries fill few diagonals is also stored by diagonal and
multiplied one shifted diagonal at a time; any other matrix gathers its
products in storage order and sums them with ``np.bincount``. Both paths add
each row's products to 0.0 in ascending column order, so they give the same
bits.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

# relative tolerance for |A_ij - A_ji| at construction time
SYMMETRY_RTOL = 1e-12

# bytes of gathered products (or of probe rows, if there are more of those)
# that one block product may hold; the block width follows from it
BLOCK_BYTES = 2**20

# largest fill, padded diagonal slots ndiag * dim over stored entries, at
# which a matrix is also stored by diagonal and multiplied that way. Set from
# the measured crossover of the two paths on banded matrices with random
# holes, at the block width, on a 2-vCPU x86 guest: at dim 1000 the diagonal
# path takes 0.94 of the gather time at fill 1.18 and 1.09-1.37 at fill 1.41,
# so the two break even near 1.3. From dim 3000 up it wins at every fill
# measured, up to 1.8 (0.2-0.7 of the time; fem(10^6), fill 1.0: 5.8 ms
# against 17.8 ms). Below dim 1000 a call per diagonal costs more than the
# products: dim 300 with 21 diagonals breaks even near fill 1.1, and the
# 64 x 64 spdc matrix (fill 1.74) takes 2.3 times as long by diagonal.
DIA_FILL = 1.3

# largest dimension whose keys row * dim + col all fit in an int64
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


class BlockWork(NamedTuple):
    """Scratch for one caller's products of b-row blocks; see ``workspace``."""

    rows: int
    layout: tuple | None
    buffer: np.ndarray | None


class SymmetricSparseMatrix:
    """Real symmetric matrix in CSR form with both triangles stored explicitly.

    Entries are validated, sorted by (row, column), and frozen at
    construction, so instances can be shared across threads without locking.
    Positive semidefiniteness is the caller's contract and is not checked
    here; use the dense oracle to verify it for matrices of modest size.

    When the stored entries fill few diagonals, padded diagonal slots
    ndiag * dim at most ``DIA_FILL`` times nnz, they are also kept as a
    read-only (ndiag, dim) array of diagonals, and the matrix-vector product
    adds one shifted diagonal at a time. Otherwise the product is one ordered
    pass over the stored entries. Either way every row sums its products from
    0.0 in ascending column order, so repeated products, and the two paths,
    agree bit for bit.
    """

    __slots__ = ("dim", "indptr", "col", "val", "_row", "_width", "_layout", "_diagonals",
                 "_diag", "build_warnings")

    def __init__(self, dim, rows, cols, values):
        dim = int(dim)
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        cols = np.ascontiguousarray(cols, dtype=np.int64)
        values = np.ascontiguousarray(values, dtype=np.float64)
        if rows.ndim != 1 or rows.shape != cols.shape or rows.shape != values.shape:
            raise ValueError("rows, cols, values must be 1-D arrays of equal length")
        if rows.size and (rows.min() < 0 or rows.max() >= dim):
            raise ValueError("row index out of range")
        if cols.size and (cols.min() < 0 or cols.max() >= dim):
            raise ValueError("column index out of range")
        if not np.all(np.isfinite(values)):
            raise ValueError("matrix entries must be finite")

        key = rows * dim + cols if dim <= _KEY_DIM_MAX else None
        if key is not None and np.all(key[1:] > key[:-1]):
            # already in storage order, and free of repeats; copied, as the
            # sort's permutation would copy them, so that the caller's
            # arrays never become the matrix's
            rows, cols, values = rows.copy(), cols.copy(), values.copy()
        else:
            order = np.lexsort((cols, rows))
            rows, cols, values = rows[order], cols[order], values[order]
            if rows.size > 1:
                same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
                if same.any():
                    k = int(np.flatnonzero(same)[0])
                    raise ValueError(f"duplicate entry at ({rows[k]}, {cols[k]})")
        del key
        self._check_symmetry(rows, cols, values)

        counts = np.bincount(rows, minlength=dim) if rows.size else np.zeros(dim, np.int64)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        diag = np.zeros(dim)
        on_diag = rows == cols
        diag[rows[on_diag]] = values[on_diag]

        width = max(1, BLOCK_BYTES // (8 * max(rows.size, dim)))
        diagonals = _diagonals(rows, cols, values, dim)
        layout = None if diagonals is not None else _block_layout(rows, cols, values, dim, width)

        # the row indices and the block layout stay writable, though nothing
        # writes to them: np.bincount and np.take copy a read-only index
        # array on every call
        for arr in (indptr, cols, values, diag):
            arr.setflags(write=False)
        self.dim = dim
        self.indptr = indptr
        self.col = cols
        self.val = values
        self._row = rows
        self._width = width
        self._layout = layout
        self._diagonals = diagonals
        self._diag = diag
        self.build_warnings = []

    @staticmethod
    def _check_symmetry(rows, cols, values):
        # sorting the entry list by (col, row) must reproduce the (row, col)
        # order with the roles swapped, otherwise some A_ij has no mirror
        mirror = np.lexsort((rows, cols))
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

        As many as keep the gathered products and the probe rows each within
        ``BLOCK_BYTES``, and at least one.
        """
        return self._width

    def workspace(self, b):
        """Scratch for products of b-row blocks, to pass to ``matvec`` as ``work``.

        A caller that runs many products on blocks of one height makes it
        once. It holds the block layout, so a block narrower than
        ``block_width`` builds its layout once rather than once per product,
        and a buffer for the gathered products, which spares the allocator a
        fresh nnz * b array, and its page faults, per product. It belongs to
        the caller: the matrix keeps no reference to it, and two threads must
        not share one. A product by diagonal needs neither.
        """
        b = int(b)
        if self._diagonals is not None:
            return BlockWork(b, None, None)
        layout = (self._layout if b == self._width
                  else _block_layout(self._row, self.col, self.val, self.dim, b))
        # a single probe is gathered faster by fancy indexing, which cannot
        # fill a given array
        return BlockWork(b, layout, np.empty(self.nnz * b) if b > 1 else None)

    def matvec(self, v, work=None):
        """Return A @ v, or for a (b, dim) block v the block with rows A @ v[i].

        Each row adds its products val[k] * v[col[k]] to 0.0 in storage order
        (columns ascending), so the result is identical across calls,
        processes, and thread counts, and each row of a block product equals
        the product of that row alone. A matrix stored by diagonal adds
        diagonal d, shifted by d, for each d in ascending order; a hole in a
        diagonal adds a +-0 product, which leaves a sum that starts at +0.0
        unchanged, so the bits are those of the ordered pass for any finite
        v. ``work`` is scratch from ``workspace(b)``.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
            raise ValueError(f"vector length {v.shape} does not match dimension {self.dim}")
        b = 1 if v.ndim == 1 else v.shape[0]
        if work is None:
            work = self.workspace(b)
        elif work.rows != b:
            raise ValueError(f"workspace is for blocks of {work.rows} rows, got {b}")
        if self._diagonals is not None:
            y = np.zeros(v.shape)
            for rows, cols, a in self._diagonals:
                y[..., rows] += a * v[..., cols]
            return y
        # products in storage order, the b products of entry k side by side:
        # product (k, j) = val[k] * v[j, col[k]] is added to bin
        # j * dim + row[k], so every bin sums its products in storage order
        # and the bins already form the (b, dim) result
        gather, bins, scale = work.layout
        x = v.reshape(-1)
        if work.buffer is None:
            w = x[gather]
        else:
            # the indices were checked at construction: "wrap" never wraps,
            # it only spares take a buffer of its own
            w = np.take(x, gather, out=work.buffer, mode="wrap")
        w *= scale
        return np.bincount(bins, weights=w, minlength=self.dim * b).reshape(v.shape)

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


def _diagonals(rows, cols, values, dim):
    """(rows, columns, entries) slices of each stored diagonal, by ascending offset.

    Diagonal d holds A[i, i + d]; a missing entry on it is stored as 0.0.
    None when the padded slots, ndiag * dim, exceed ``DIA_FILL`` times the
    stored entries. The offsets are counted by one np.bincount over
    -(dim - 1)..dim - 1.
    """
    if rows.size and dim > DIA_FILL * rows.size:
        # even one diagonal would be too empty
        return None
    shifted = cols - rows
    shifted += dim - 1
    index = np.bincount(shifted, minlength=2 * dim - 1)
    present = np.flatnonzero(index)
    if present.size * dim > DIA_FILL * rows.size:
        return None
    # entry (i, i + d) goes to flat slot k * dim + i of the k-th diagonal
    index[present] = np.arange(present.size) * dim
    slot = index[shifted]
    slot += rows
    data = np.zeros((present.size, dim))
    data.reshape(-1)[slot] = values
    data.setflags(write=False)
    out = []
    for a, d in zip(data, (present - (dim - 1)).tolist()):
        lo, hi = max(0, -d), dim - max(0, d)
        out.append((slice(lo, hi), slice(lo + d, hi + d), a[lo:hi]))
    return tuple(out)


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


def _numbered_entry_lines(path):
    """Yield (line number, text) of each entry line of a Matrix Market file.

    A line counts if anything but whitespace precedes its first '%', as
    np.loadtxt counts it; the first such line after the header is the size
    line, and is skipped.
    """
    with _open_text(path) as fh:
        lines = ((lineno, raw) for lineno, raw in enumerate(fh, start=1)
                 if lineno > 1 and raw.partition("%")[0].strip())
        next(lines, None)
        yield from lines


def _entry_line(path, k):
    """Line number of entry k (from 0), found by reading the file again."""
    return next(itertools.islice(_numbered_entry_lines(path), k, None))[0]


def _raise_at_first_bad_entry(path, nrows, nnz, symmetric, cause):
    """Raise the error of the first entry line that fails a line check.

    The checks run in file order, and on each line in this order: an entry
    beyond the declared count, the token count, the parse, the index range,
    the lower triangle of a symmetric file, and a repeat of an earlier
    entry. ``cause`` is reported if every line passes.
    """
    seen = set()
    for k, (lineno, raw) in enumerate(_numbered_entry_lines(path)):
        if k == nnz:
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
        if not (1 <= i <= nrows and 1 <= j <= nrows):
            _header_error(lineno, f"index ({i}, {j}) outside 1..{nrows}")
        if symmetric and i < j:
            _header_error(lineno, "symmetric files must store the lower triangle (row >= col)")
        if (i, j) in seen:
            _header_error(lineno, f"duplicate entry for ({i}, {j})")
        seen.add((i, j))
    raise MatrixMarketError(f"cannot read the entries: {cause}")


def _mirror_index(i, j):
    """Index of the entry (j_k, i_k) for each entry k, or -1 where there is none.

    Entries and the mirrors they want are sorted together by (row, col) with
    the entries first, so a mirror that exists sorts just before its query.
    Entries must not repeat.
    """
    n = i.size
    rows, cols = np.concatenate((i, j)), np.concatenate((j, i))
    query = np.arange(2 * n) >= n
    order = np.lexsort((query, cols, rows))
    rows, cols, query = rows[order], cols[order], query[order]
    pos = np.flatnonzero(query[1:]) + 1
    hit = ~query[pos - 1] & (rows[pos - 1] == rows[pos]) & (cols[pos - 1] == cols[pos])
    mirror = np.full(n, -1, dtype=np.int64)
    mirror[order[pos] - n] = np.where(hit, order[pos - 1], -1)
    return mirror


def read_matrix_market(path):
    """Read a coordinate real matrix, symmetric or general symmetry.

    The file is a '%%MatrixMarket matrix coordinate real symmetric' (or
    'general') header, a 'rows cols nnz' size line and nnz 'row col value'
    entry lines. Fields are separated by any whitespace, indices are
    1-based, and numbers take Python's int and float syntax without '_'
    separators. Lines
    whose first non-blank character is '%' are comments, and so is the rest
    of an entry line from a '%' on. Symmetric files must store the lower
    triangle (row >= column); general files must contain both halves with
    matching values. Any malformed or inconsistent line is reported by
    number.

    The entries are parsed in one np.loadtxt pass and checked as arrays; a
    line number is only looked up, by reading the file again, to report an
    error.
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
            with warnings.catch_warnings():
                # a file without entries is checked below, like any other
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                entries = np.loadtxt(fh, comments="%", ndmin=1, dtype=[
                    ("i", np.int64), ("j", np.int64), ("v", np.float64)])
        except ValueError as exc:
            _raise_at_first_bad_entry(path, nrows, nnz, symmetric, exc)

    n = min(entries.size, nnz)
    i, j, v = entries["i"][:n], entries["j"][:n], entries["v"][:n]
    order = np.lexsort((j, i))
    if (entries.size > nnz
            or ((i < 1) | (i > nrows) | (j < 1) | (j > nrows)).any()
            or (symmetric and (i < j).any())
            or ((np.diff(i[order]) == 0) & (np.diff(j[order]) == 0)).any()):
        _raise_at_first_bad_entry(path, nrows, nnz, symmetric, "no line fails its checks")
    if n != nnz:
        with _open_text(path) as fh:
            last = sum(1 for _ in fh)
        _header_error(last, f"header declared {nnz} entries, found {n}")

    off = i != j
    if symmetric:
        return SymmetricSparseMatrix(nrows, np.concatenate((i, j[off])) - 1,
                                     np.concatenate((j, i[off])) - 1,
                                     np.concatenate((v, v[off])))
    mirror = _mirror_index(i, j)
    vm = v[mirror]
    bad = off & ((mirror < 0)
                 | (np.abs(v - vm) > SYMMETRY_RTOL * np.maximum(1.0, np.abs(v))))
    if bad.any():
        k = int(np.argmax(bad))
        ik, jk = int(i[k]), int(j[k])
        if mirror[k] < 0:
            _header_error(_entry_line(path, k),
                          f"entry ({ik}, {jk}) has no mirrored ({jk}, {ik}) entry")
        _header_error(_entry_line(path, k),
                      f"entry ({ik}, {jk}) = {float(v[k])!r} does not match "
                      f"({jk}, {ik}) = {float(vm[k])!r} "
                      f"from line {_entry_line(path, int(mirror[k]))}")
    return SymmetricSparseMatrix(nrows, i - 1, j - 1, v)
