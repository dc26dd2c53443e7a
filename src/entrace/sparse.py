"""Sparse symmetric storage, Matrix Market I/O, and spectral upper bounds.

The estimator touches a matrix only through ``matvec`` and ``trace``.
Everything in this module exists to make those two operations cheap,
deterministic, and safe to share across threads. ``matvec`` takes one
vector or a block of probe rows; a block shares the per-call cost of a
product among its rows, and each row comes out bit-identical to its
single-vector product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# relative tolerance for |A_ij - A_ji| at construction time
SYMMETRY_RTOL = 1e-12

# bytes of gathered products (or of probe rows, if there are more of those)
# that one block product may hold; the block width follows from it
BLOCK_BYTES = 2**20

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
    """Real symmetric matrix in CSR form with both triangles stored explicitly.

    Entries are validated, sorted by (row, column), and frozen at
    construction, so instances can be shared across threads without locking.
    Positive semidefiniteness is the caller's contract and is not checked
    here; use the dense oracle to verify it for matrices of modest size.

    The matrix-vector product is a single ordered pass over the stored
    entries, which makes repeated products bit-for-bit reproducible.
    """

    __slots__ = ("dim", "indptr", "col", "val", "_row", "_width", "_layout", "_diag",
                 "build_warnings")

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

        order = np.lexsort((cols, rows))
        rows, cols, values = rows[order], cols[order], values[order]
        if rows.size > 1:
            same = (np.diff(rows) == 0) & (np.diff(cols) == 0)
            if same.any():
                k = int(np.flatnonzero(same)[0])
                raise ValueError(f"duplicate entry at ({rows[k]}, {cols[k]})")
        self._check_symmetry(rows, cols, values)

        counts = np.bincount(rows, minlength=dim) if rows.size else np.zeros(dim, np.int64)
        indptr = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        diag = np.zeros(dim)
        on_diag = rows == cols
        diag[rows[on_diag]] = values[on_diag]

        width = max(1, BLOCK_BYTES // (8 * max(rows.size, dim)))
        layout = _block_layout(rows, cols, values, dim, width)

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

    def matvec(self, v, work=None):
        """Return A @ v, or for a (b, dim) block v the block with rows A @ v[i].

        The products val[k] * v[col[k]] are accumulated strictly in storage
        order (row-major, columns ascending), so the result is identical
        across calls, processes, and thread counts, and each row of a block
        product equals the product of that row alone. ``work``, a float64
        array of nnz * b entries, receives the products; a caller that
        passes the same one to every product of a block spares the
        allocator a fresh nnz * b array, and its page faults, per product.
        """
        v = np.asarray(v, dtype=np.float64)
        if v.ndim not in (1, 2) or v.shape[-1] != self.dim:
            raise ValueError(f"vector length {v.shape} does not match dimension {self.dim}")
        b = 1 if v.ndim == 1 else v.shape[0]
        gather, bins, scale = (self._layout if b == self._width
                               else _block_layout(self._row, self.col, self.val, self.dim, b))
        # products in storage order, the b products of entry k side by side:
        # product (k, j) = val[k] * v[j, col[k]] is added to bin
        # j * dim + row[k], so every bin sums its products in storage order
        # and the bins already form the (b, dim) result
        x = v.reshape(-1)
        if work is None:
            # fancy indexing gathers faster than take, but cannot fill a given array
            w = x[gather]
        else:
            # the indices were checked at construction: "wrap" never wraps,
            # it only spares take a buffer of its own
            w = np.take(x, gather, out=work, mode="wrap")
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
    """
    if max_iters < 1:
        raise ValueError("max_iters must be at least 1")
    if rel_tol <= 0:
        raise ValueError("rel_tol must be positive")
    if safety < 1.0:
        raise ValueError("safety factor must be at least 1")
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(A.dim)
    v /= np.linalg.norm(v)
    rho_prev = None
    rho = 0.0
    for _ in range(max_iters):
        w = A.matvec(v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            # v is in the kernel; for PSD A a random restart would land here
            # again only if A = 0
            return SpectralBound(0.0, "power-iteration")
        rho = float(v @ w)
        if rho_prev is not None and abs(rho - rho_prev) <= rel_tol * max(abs(rho), 1e-300):
            break
        rho_prev = rho
        v = w / norm_w
    return SpectralBound(safety * max(rho, 0.0), "power-iteration")


def write_matrix_market(A, path):
    """Write the lower triangle in coordinate real symmetric format.

    Values are printed with 17 significant digits so that read_matrix_market
    round-trips float64 exactly.
    """
    rows, cols, vals = A.coo()
    keep = rows >= cols
    with open(path, "w", encoding="ascii") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{A.dim} {A.dim} {int(keep.sum())}\n")
        for i, j, v in zip(rows[keep], cols[keep], vals[keep]):
            fh.write(f"{i + 1} {j + 1} {v:.17g}\n")


def _header_error(lineno, text):
    raise MatrixMarketError(f"line {lineno}: {text}")


def read_matrix_market(path):
    """Read a coordinate real matrix, symmetric or general symmetry.

    Symmetric files must store the lower triangle (row >= column); general
    files must contain both halves with matching values. Any malformed or
    inconsistent line is reported by number.
    """
    with open(path, "r", encoding="ascii", errors="replace") as fh:
        lines = fh.readlines()
    if not lines:
        _header_error(1, "empty file, expected a MatrixMarket header")

    header = lines[0].split()
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
    for lineno, raw in enumerate(lines[1:], start=2):
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

    entries = {}
    seen = 0
    for entry_lineno, raw in enumerate(lines[lineno:], start=lineno + 1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("%"):
            continue
        if seen == nnz:
            _header_error(entry_lineno, f"unexpected extra entry, header declared {nnz}")
        tok = stripped.split()
        if len(tok) != 3:
            _header_error(entry_lineno, "entry must be 'row col value'")
        try:
            i, j, v = int(tok[0]), int(tok[1]), float(tok[2])
        except ValueError:
            _header_error(entry_lineno, f"cannot parse entry {stripped!r}")
        if not (1 <= i <= nrows and 1 <= j <= nrows):
            _header_error(entry_lineno,
                          f"index ({i}, {j}) outside 1..{nrows}")
        if symmetry == "symmetric" and i < j:
            _header_error(entry_lineno,
                          "symmetric files must store the lower triangle (row >= col)")
        if (i, j) in entries:
            _header_error(entry_lineno, f"duplicate entry for ({i}, {j})")
        entries[(i, j)] = (v, entry_lineno)
        seen += 1
    if seen != nnz:
        _header_error(len(lines), f"header declared {nnz} entries, found {seen}")

    if symmetry == "general":
        for (i, j), (v, ln) in entries.items():
            if i == j:
                continue
            mirror = entries.get((j, i))
            if mirror is None:
                _header_error(ln, f"entry ({i}, {j}) has no mirrored ({j}, {i}) entry")
            vm = mirror[0]
            if abs(v - vm) > SYMMETRY_RTOL * max(1.0, abs(v)):
                _header_error(ln, f"entry ({i}, {j}) = {v!r} does not match "
                                  f"({j}, {i}) = {vm!r} from line {mirror[1]}")

    rows, cols, vals = [], [], []
    for (i, j), (v, _) in entries.items():
        rows.append(i - 1)
        cols.append(j - 1)
        vals.append(v)
        if symmetry == "symmetric" and i != j:
            rows.append(j - 1)
            cols.append(i - 1)
            vals.append(v)
    return SymmetricSparseMatrix(nrows, rows, cols, vals)
