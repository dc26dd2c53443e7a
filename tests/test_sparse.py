"""Sparse storage, matvec, spectral bounds, and Matrix Market round-trips."""

import functools
import math
import random
import tracemalloc
import warnings

import numpy as np
import pytest

from entrace.chebyshev import coefficients
from entrace.clenshaw import quadratic_form
from entrace.estimator import RademacherSampler
from entrace.generators import SpdcParams, fem_matrix, random_psd, spdc_density_matrix
from entrace.sparse import (
    BLOCK_BYTES,
    DIA_FILL,
    SYMMETRY_RTOL,
    MatrixMarketError,
    LANCZOS_STEPS,
    SpectralBound,
    SymmetricSparseMatrix,
    gershgorin_upper_bound,
    krylov_basis,
    lanczos_upper_bound,
    read_matrix_market,
    write_matrix_market,
    _raise_at_first_bad_entry,
    _strips,
)
from support import layout, random_symmetric, symmetry_error, wide_band


def tridiag(m):
    rows = list(range(m)) + list(range(m - 1)) + list(range(1, m))
    cols = list(range(m)) + list(range(1, m)) + list(range(m - 1))
    vals = [2.0] * m + [-1.0] * (2 * (m - 1))
    return SymmetricSparseMatrix(m, rows, cols, vals)


def banded(m, half, seed, holes=0.2):
    """Symmetric matrix on diagonals -half..half with random holes off the main one.

    A few of the kept off-diagonal pairs store an explicit 0.0 or -0.0.
    """
    rng = np.random.default_rng(seed)
    rows, cols = [np.arange(m)], [np.arange(m)]
    for d in range(1, half + 1):
        i = np.arange(m - d)
        i = i[rng.uniform(size=i.size) >= holes]
        rows += [i + d, i]
        cols += [i, i + d]
    vals = [rng.normal(size=m)]
    for r in rows[1::2]:
        v = rng.normal(size=r.size)
        v[rng.uniform(size=v.size) < 0.05] = rng.choice([0.0, -0.0])
        vals += [v, v]
    return SymmetricSparseMatrix(m, np.concatenate(rows), np.concatenate(cols),
                                 np.concatenate(vals))


def holed(m, seed):
    """Full symmetric matrix without a few mirrored pairs; four pairs store +-0.0."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(m, m))
    a = (a + a.T) / 2.0
    i, j = np.triu_indices(m, 1)
    pick = rng.permutation(i.size)
    zero, hole = pick[:4], pick[4:4 + m]
    a[i[zero], j[zero]] = a[j[zero], i[zero]] = [0.0, -0.0, -0.0, 0.0]
    keep = np.ones((m, m), dtype=bool)
    keep[i[hole], j[hole]] = keep[j[hole], i[hole]] = False
    rows, cols = np.nonzero(keep)
    return SymmetricSparseMatrix(m, rows, cols, a[rows, cols])


def signed_zeros():
    """Banded matrix whose row 0 stores only a -0.0 and has a hole at (0, 1)."""
    i = np.arange(1, 5)
    return SymmetricSparseMatrix(
        6, np.concatenate((np.arange(6), i, i + 1)), np.concatenate((np.arange(6), i + 1, i)),
        [-0.0, 1.0, 2.0, 3.0, 4.0, 5.0] + [0.5, -0.0, 0.25, 0.3] * 2)


def ordered_pass(mat, v):
    """The product as one bincount over the stored entries in storage order."""
    rows, cols, vals = mat.coo()
    return np.array([np.bincount(rows, weights=vals * x[cols], minlength=mat.dim)
                     for x in np.atleast_2d(v)]).reshape(np.shape(v))


class TestConstruction:
    def test_round_trips_dense(self):
        mat, a = random_symmetric(9, 0)
        np.testing.assert_array_equal(mat.to_dense(), a)

    def test_trace_and_diagonal(self):
        mat = tridiag(5)
        assert mat.trace() == 10.0
        np.testing.assert_array_equal(mat.diagonal(), np.full(5, 2.0))

    def test_nnz_counts_stored_entries(self):
        assert tridiag(4).nnz == 4 + 2 * 3

    def test_rejects_asymmetric_values(self):
        with pytest.raises(ValueError, match="symmetr"):
            SymmetricSparseMatrix(2, [0, 1], [1, 0], [1.0, 2.0])

    def test_rejects_asymmetric_pattern(self):
        with pytest.raises(ValueError, match="symmetr"):
            SymmetricSparseMatrix(3, [0], [1], [1.0])

    def test_rejects_duplicate_entries(self):
        with pytest.raises(ValueError, match="duplicate"):
            SymmetricSparseMatrix(2, [0, 0], [0, 0], [1.0, 1.0])

    def test_rejects_out_of_range_indices(self):
        with pytest.raises(ValueError):
            SymmetricSparseMatrix(2, [0, 2], [0, 2], [1.0, 1.0])

    @pytest.mark.parametrize("rows, cols, name", [
        ([1.5], [1.7], "row"), ([1.0], [1.7], "column"), ([1.0], [math.nan], "column"),
        ([math.inf], [1], "row")])
    def test_rejects_fractional_indices(self, rows, cols, name):
        # the int64 cast would truncate (1.5, 1.7) to (1, 1)
        with pytest.raises(ValueError, match=f"^{name} indices must be integers$"):
            SymmetricSparseMatrix(3, rows, cols, [1.0])

    def test_accepts_integral_float_indices(self):
        mat = SymmetricSparseMatrix(3, [1.0, 0.0], [0.0, 1.0], [2.0, 2.0])
        np.testing.assert_array_equal(mat.coo()[0], [0, 1])

    def test_rejects_non_finite_values(self):
        with pytest.raises(ValueError):
            SymmetricSparseMatrix(1, [0], [0], [math.nan])
        with pytest.raises(ValueError):
            SymmetricSparseMatrix(1, [0], [0], [math.inf])

    def test_accepts_tiny_symmetric_mismatch(self):
        # within the documented relative tolerance for stored pairs
        eps = 1e-13
        mat = SymmetricSparseMatrix(2, [0, 1], [1, 0], [1.0, 1.0 + eps])
        assert mat.dim == 2

    def test_arrays_are_read_only(self):
        # the entries and the diagonal a gathered matrix keeps; a strip
        # matrix's are checked in TestDiagonalPath
        mat, _ = random_symmetric(9, 0)
        assert layout(mat) == "gather"
        for a in (*mat.coo(), mat.diagonal()):
            with pytest.raises(ValueError):
                a[0] = 1

    @pytest.mark.parametrize("entries", [([0], [0], [1.0]), ([], [], [])],
                             ids=["one-entry", "empty"])
    def test_refuses_dimensions_beyond_the_key(self, entries):
        # the keys row * dim + col that order the entries fit an int64 up to
        # dim 3037000499; above it the matrix is refused before anything is
        # allocated
        with pytest.raises(ValueError, match="^dimension must be at most 3037000499"):
            SymmetricSparseMatrix(3037000500, *entries)

    @pytest.mark.parametrize("build", [
        lambda: fem_matrix(10**5), lambda: random_psd(300, 0, np.linspace(0.0, 1.0, 300))],
        ids=["diagonals", "columns"])
    def test_strip_matrices_keep_no_entries(self, build):
        # traced bytes a strip matrix keeps once built: its (nstrips, dim)
        # strips, their held mask and its diagonal, and a few Python
        # objects; a copy of the entries beside them takes 24 B an entry
        build()  # numpy's lazily allocated state, once
        tracemalloc.start()
        try:
            mat = build()
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        rows, cols, _ = mat.coo()
        strips = np.unique(cols - rows).size if layout(mat) == "diagonals" else mat.dim
        assert kept <= (8 + 1) * strips * mat.dim + 8 * mat.dim + 2**14

    @pytest.mark.parametrize("build, path", [
        (lambda: fem_matrix(500), "diagonals"),
        (lambda: random_psd(60, 0, np.linspace(0.0, 1.0, 60)), "columns"),
        (lambda: random_symmetric(60, 0)[0], "gather")], ids=["diagonals", "columns", "gather"])
    def test_ordered_and_shuffled_entries_build_the_same_matrix(self, build, path):
        mat = build()
        rows, cols, vals = mat.coo()
        v = np.random.default_rng(5).normal(size=(2, mat.dim))
        built = []
        for order in (np.arange(rows.size), np.random.default_rng(4).permutation(rows.size)):
            got = SymmetricSparseMatrix(mat.dim, rows[order], cols[order], vals[order])
            built.append(([a.tobytes() for a in got.coo()], layout(got),
                          got.diagonal().tobytes(), got.block_width, got.matvec(v).tobytes()))
        assert built[0] == built[1] and built[0][1] == path

    @pytest.mark.parametrize("build", [
        lambda: fem_matrix(500), lambda: random_psd(60, 0, np.linspace(0.0, 1.0, 60))],
        ids=["diagonals", "columns"])
    def test_shuffled_repeat_on_strips_is_a_duplicate(self, build):
        # two entries repeated with other values, so that their mirrors
        # disagree as well: the strips are refused, and the repeat first in
        # (row, col) order is named before any asymmetry
        mat = build()
        rows, cols, vals = mat.coo()
        repeat = [rows.size - 3, rows.size // 2]
        want = rf"^duplicate entry at \({rows[repeat[1]]}, {cols[repeat[1]]}\)$"
        rows, cols = np.append(rows, rows[repeat]), np.append(cols, cols[repeat])
        vals = np.append(vals, vals[repeat] + 1.0)
        order = np.random.default_rng(6).permutation(rows.size)
        rows, cols, vals = rows[order], cols[order], vals[order]
        strips, _, symmetric = _strips(rows, cols, vals, mat.dim)
        assert strips is not None and not symmetric
        with pytest.raises(ValueError, match=want):
            SymmetricSparseMatrix(mat.dim, rows, cols, vals)

    def test_ordered_input_is_copied(self):
        # the caller's arrays stay the caller's, writable and not the
        # matrix's: strips are new arrays, and so are the entries that the
        # gather path's sort permutes
        rows, cols = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
        vals = np.array([2.0, -1.0, -1.0, 2.0])
        mat = SymmetricSparseMatrix(2, rows, cols, vals)
        vals[0] = 99.0
        rows[1] = 1
        assert vals.flags.writeable and cols.flags.writeable
        np.testing.assert_array_equal(mat.to_dense(), [[2.0, -1.0], [-1.0, 2.0]])

    def test_ordered_looking_repeat_is_a_duplicate(self):
        with pytest.raises(ValueError, match=r"^duplicate entry at \(1, 2\)$"):
            SymmetricSparseMatrix(3, [0, 1, 1, 2], [0, 2, 2, 1], [1.0, 1.0, 1.0, 1.0])

    def test_from_dense_droptol(self):
        a = np.array([[1.0, 1e-15], [1e-15, 1.0]])
        mat = SymmetricSparseMatrix.from_dense(a, droptol=1e-12)
        assert mat.nnz == 2

    def test_from_dense_droptol_keeps_symmetry(self):
        # one of the mirrored pair above threshold keeps both entries
        a = np.array([[1.0, 0.5], [0.5, 2.0]])
        a[0, 1] = 0.5
        a[1, 0] = 0.5 + 1e-13
        mat = SymmetricSparseMatrix.from_dense(a, droptol=0.0)
        assert mat.nnz == 4

    def test_from_dense_refuses_nan(self):
        # max|a| is nan, and no entry compares above a nan threshold
        a = np.array([[1.0, np.nan], [np.nan, 1.0]])
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            SymmetricSparseMatrix.from_dense(a, droptol=1e-12)

    def test_from_dense_refuses_inf(self):
        # an inf makes the threshold 0 * inf = nan, which would drop every entry
        a = np.array([[np.inf, 0.5], [0.5, 1.0]])
        with pytest.raises(ValueError, match="^matrix entries must be finite$"):
            SymmetricSparseMatrix.from_dense(a)


class TestMatvec:
    def test_matches_dense_products(self):
        for seed in range(5):
            mat, a = random_symmetric(30, seed)
            v = np.random.default_rng(100 + seed).normal(size=30)
            np.testing.assert_allclose(mat.matvec(v), a @ v, rtol=1e-13, atol=1e-13)

    def test_matvec_is_bit_reproducible(self):
        mat, _ = random_symmetric(50, 3)
        v = np.random.default_rng(7).normal(size=50)
        first = mat.matvec(v)
        for _ in range(5):
            np.testing.assert_array_equal(mat.matvec(v), first)

    def test_zero_matrix(self):
        mat = SymmetricSparseMatrix(3, [], [], [])
        np.testing.assert_array_equal(mat.matvec(np.ones(3)), np.zeros(3))
        np.testing.assert_array_equal(mat.matvec(np.ones((2, 3))), np.zeros((2, 3)))
        assert mat.trace() == 0.0

    @pytest.mark.parametrize("mat", [random_symmetric(50, 3)[0], tridiag(8000),
                                     tridiag(30000)], ids=["dense-ish", "width-2", "width-1"])
    def test_block_rows_match_single_products(self, mat):
        # at b = 1 and 2, at the full block width, for a partial block and
        # for blocks taller than the width, every row of a block product is
        # bit-identical to that row's own product
        width = mat.block_width
        block = np.random.default_rng(8).normal(size=(max(2, 2 * width), mat.dim))
        single = np.array([mat.matvec(v) for v in block])
        for b in sorted({1, 2, width, max(1, width - 1), width + 1, 2 * width}):
            got = mat.matvec(block[:b])
            assert got.shape == (b, mat.dim) and got.flags.c_contiguous
            np.testing.assert_array_equal(got, single[:b])

    def test_tall_block_matches_single_products(self):
        # a gathered block taller than the width is the stack of its rows' products
        mat, _ = random_symmetric(50, 3)
        block = np.random.default_rng(9).normal(size=(2 * mat.block_width + 1, mat.dim))
        got = mat.matvec(block)
        assert got.shape == block.shape
        np.testing.assert_array_equal(got, np.array([mat.matvec(v) for v in block]))

    def test_short_gathered_block_costs_its_rows(self, monkeypatch):
        # a 2-row block is not padded to the block width: no bincount sums
        # more than the products of its two rows
        mat, _ = random_symmetric(600, 2, density=0.02)
        assert layout(mat) == "gather" and mat.block_width >= 3
        block = np.random.default_rng(10).normal(size=(2, mat.dim))
        single = np.array([mat.matvec(v) for v in block])
        bincount = np.bincount
        weights = []

        def counting(x, *args, **kwargs):
            weights.append(x.size)
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(np, "bincount", counting)
        got = mat.matvec(block)
        assert weights and max(weights) <= 2 * mat.nnz
        assert got.tobytes() == single.tobytes()

    @pytest.mark.parametrize("build, kind", [
        (lambda: banded(29, 2, 0, holes=0.0), "diagonals"), (lambda: holed(30, 4), "columns"),
        (lambda: random_symmetric(50, 3)[0], "gather")], ids=["diagonals", "columns", "gather"])
    def test_empty_block(self, build, kind):
        mat = build()
        assert layout(mat) == kind
        got = mat.matvec(np.empty((0, mat.dim)))
        assert got.shape == (0, mat.dim) and got.dtype == np.float64

    def test_block_width_from_entries_and_dimension(self):
        # gathered: about 1 MiB of gathered products, and of probe rows when
        # rows outnumber the stored entries
        mat, _ = random_symmetric(50, 3)
        assert layout(mat) == "gather" and mat.block_width == 2**17 // mat.nnz
        assert SymmetricSparseMatrix(50000, [0], [0], [1.0]).block_width == 2
        assert SymmetricSparseMatrix(10**6, [0], [0], [1.0]).block_width == 1
        # stored as strips: 128 KiB of each of a form's (b, dim) arrays,
        # whatever the stored entries
        assert tridiag(8000).block_width == 2
        assert tridiag(30000).block_width == 1
        assert SymmetricSparseMatrix(4, [], [], []).block_width == 2**14 // 4
        spdc = spdc_density_matrix(SpdcParams())
        assert layout(spdc) == "columns" and spdc.block_width == 256
        dense = random_psd(1000, 0, np.linspace(0.0, 1.0, 1000))
        assert layout(dense) == "columns" and dense.block_width == 16

    @pytest.mark.parametrize("mat", [random_symmetric(50, 3)[0],
                                     SymmetricSparseMatrix(10**6, [0], [0], [1.0])],
                             ids=["gathered", "gathered-width-1"])
    def test_gather_indices_are_writable(self, mat, monkeypatch):
        # np.take and np.bincount copy a read-only index array on every call,
        # so matvec passes them writable ones; those of coo() stay read-only
        take, bincount = np.take, np.bincount
        writable = []

        def checked_take(a, indices, *args, **kwargs):
            writable.append(indices.flags.writeable)
            return take(a, indices, *args, **kwargs)

        def checked_bincount(x, *args, **kwargs):
            writable.append(x.flags.writeable)
            return bincount(x, *args, **kwargs)

        monkeypatch.setattr(np, "take", checked_take)
        monkeypatch.setattr(np, "bincount", checked_bincount)
        for shape in ((mat.dim,), (1, mat.dim), (2, mat.dim), (mat.block_width, mat.dim)):
            mat.matvec(np.ones(shape))
        assert writable and all(writable)
        with pytest.raises(ValueError):
            mat.coo()[1][0] = 1

    def test_rejects_bad_shapes(self):
        mat = tridiag(4)
        for bad in (np.ones(5), np.ones((2, 5)), np.ones((1, 2, 4))):
            with pytest.raises(ValueError):
                mat.matvec(bad)


class TestDiagonalPath:
    @pytest.mark.parametrize("mat", [
        fem_matrix(1), fem_matrix(3), fem_matrix(1000),
        banded(300, 3, 0), banded(2000, 5, 1), banded(50, 2, 2, holes=0.1),
        SymmetricSparseMatrix(40, np.arange(40), np.arange(40),
                              np.random.default_rng(3).normal(size=40)),
        SymmetricSparseMatrix(1, [0], [0], [0.7]),
        SymmetricSparseMatrix(5, [], [], []),
        spdc_density_matrix(SpdcParams()),
        random_psd(200, 3, np.random.default_rng(3).uniform(0.0, 1.0, 200)),
        holed(30, 4),
        # the mirrors differ by 1e-13, so a strip that took row j for column
        # j would change the bits
        SymmetricSparseMatrix.from_dense([[1.0, 0.5], [0.5 + 1e-13, 2.0]]),
    ], ids=["fem-1", "fem-3", "fem-1000", "banded-300", "banded-2000", "banded-50",
            "diagonal-only", "dim-1", "nnz-0", "columns-spdc", "columns-random-200",
            "columns-holed", "columns-mirrors"])
    def test_products_equal_the_ordered_pass(self, mat):
        # bit for bit, for a vector, a full block and a partial block, by
        # diagonal and by column
        assert layout(mat) != "gather"
        width = mat.block_width
        rng = np.random.default_rng(mat.dim)
        for shape in {(mat.dim,), (width, mat.dim), (max(1, width - 1), mat.dim)}:
            v = rng.normal(size=shape)
            want = ordered_pass(mat, v)
            assert mat.matvec(v).tobytes() == want.tobytes()

    @pytest.mark.parametrize("dim", [9000, 20000])
    def test_column_einsum_is_the_ordered_pass_beyond_one_piece(self, dim):
        # the einsum of a product by column on a thin C whose columns are
        # longer than einsum's 8192-entry piece, which a (dim, dim) matrix
        # would need 512 MB for: C-ordered, Fortran-ordered and strided
        # blocks, and a lone row, all add v[..., j] * C[j] for ascending j
        rng = np.random.default_rng(dim)
        C = rng.normal(size=(dim, 3))
        wide = rng.normal(size=(4, 2 * dim))
        for v in (np.ascontiguousarray(wide[:, :dim]), np.asfortranarray(wide[:, :dim]),
                  wide[:, ::2]):
            want = np.zeros((4, 3))
            for j in range(dim):
                want += v[:, j:j + 1] * C[j]
            assert np.einsum("bj,ji->bi", v, C).tobytes() == want.tobytes()
            assert np.einsum("j,ji->i", v[1], C).tobytes() == want[1].tobytes()

    def test_holes_and_signed_zeros_give_the_ordered_pass(self):
        # row 0 stores only a -0.0 and has a hole at (0, 1): its sum is +0.0
        # on both paths
        mat = signed_zeros()
        assert layout(mat) == "diagonals"
        v = np.array([1.0, -2.0, 0.0, 0.1, -0.0, 3.0])
        assert mat.matvec(v)[0].tobytes() == np.float64(0.0).tobytes()
        assert mat.matvec(v).tobytes() == ordered_pass(mat, v).tobytes()

    def test_diagonals_are_read_only(self):
        # the main diagonal, a view of a diagonal strip, and the entries of
        # coo(), by diagonal and by column
        fem, full = fem_matrix(4), holed(10, 0)
        assert layout(fem) == "diagonals" and layout(full) == "columns"
        for mat in (fem, full):
            for entries in (mat.diagonal(), *mat.coo()):
                with pytest.raises(ValueError):
                    entries[0] = 1

    @pytest.mark.parametrize("build", [
        lambda: fem_matrix(1), lambda: fem_matrix(2),
        lambda: fem_matrix(1000), lambda: banded(300, 3, 0), signed_zeros,
        lambda: spdc_density_matrix(SpdcParams()),
        lambda: random_psd(200, 3, np.random.default_rng(3).uniform(0.0, 1.0, 200)),
        lambda: holed(30, 4),
    ], ids=["fem-1", "fem-2", "fem-1000", "banded-300", "signed-zeros", "columns-spdc",
            "columns-random-200", "columns-holed"])
    def test_strips_answer_as_the_gather_path(self, monkeypatch, tmp_path, build):
        # the same entries built again with the strips turned off: whatever
        # a strip matrix reads off its strips, the gathered one reads off the
        # entries it keeps, byte for byte
        import entrace.sparse as sparse

        strips = build()
        monkeypatch.setattr(sparse, "DIA_FILL", 0.0)
        gathered = build()
        assert layout(strips) != "gather" and layout(gathered) == "gather"
        assert strips.nnz == gathered.nnz
        for a, b in zip(strips.coo(), gathered.coo()):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert strips.to_dense().tobytes() == gathered.to_dense().tobytes()
        assert strips.diagonal().tobytes() == gathered.diagonal().tobytes()
        files = []
        for mat in (strips, gathered):
            files.append(tmp_path / f"{len(files)}.mtx")
            write_matrix_market(mat, files[-1])
        assert files[0].read_bytes() == files[1].read_bytes()
        for end in ("lambda_max_upper", "lambda_min_lower"):
            assert (getattr(gershgorin_upper_bound(strips), end).hex()
                    == getattr(gershgorin_upper_bound(gathered), end).hex())

    def test_path_follows_the_fill(self):
        # fill is the fewer padded slots, ndiag * dim or dim * dim, over nnz:
        # by diagonal 1.0 on fem, by column 1.02 on spdc and 1.0 on a dense
        # matrix; about 2 on both layouts for a scattered one
        assert layout(fem_matrix(10**5)) == "diagonals"
        assert layout(spdc_density_matrix(SpdcParams())) == "columns"
        assert layout(random_psd(1000, 0, np.linspace(0.0, 1.0, 1000))) == "columns"
        assert layout(random_symmetric(50, 3)[0]) == "gather"
        # five diagonals of dim 10: 44 entries when full (fill 1.14), too
        # few once three pairs leave the outer ones (38 entries, fill 1.32)
        full = banded(10, 2, 5, holes=0.0)
        assert full.nnz == 44 and layout(full) == "diagonals"
        rows, cols, vals = full.coo()
        outer = np.abs(rows - cols) == 2
        drop = outer & (np.minimum(rows, cols) < 3)
        sparse = SymmetricSparseMatrix(10, rows[~drop], cols[~drop], vals[~drop])
        assert sparse.nnz == 38 and 50 > DIA_FILL * 38 and layout(sparse) == "gather"
        # a full 10 x 10 matrix keeps its columns with 78 of its 100 slots
        # stored (fill 1.28), and loses them at 76 (fill 1.32)
        dense = np.arange(1.0, 101.0).reshape(10, 10)
        dense += dense.T
        i, j = np.triu_indices(10, 1)
        for pairs, want in ((11, "columns"), (12, "gather")):
            a = dense.copy()
            a[i[:pairs], j[:pairs]] = a[j[:pairs], i[:pairs]] = 0.0
            mat = SymmetricSparseMatrix.from_dense(a)
            assert mat.nnz == 100 - 2 * pairs and layout(mat) == want


class TestTiles:
    """Strip products run one row tile at a time; the bits stay the ordered pass's."""

    # tiles of 8 rows at block width 1, the width of every strip matrix of
    # more than 4 rows at this budget
    SMALL = 2**8
    TILE = 8

    @staticmethod
    def tiled(monkeypatch, build, budget=SMALL):
        # the budget sets the block width at construction and the tile
        # height of each product, so it holds for the rest of the test
        import entrace.sparse as sparse

        monkeypatch.setattr(sparse, "BLOCK_BYTES", budget)
        return build()

    @staticmethod
    def check(mat, seed):
        # a vector and blocks of 1 to 3 rows: a matrix of several tiles has
        # block width 1, and a strip product takes a taller block whole
        rng = np.random.default_rng(seed)
        for shape in ((mat.dim,), (1, mat.dim), (2, mat.dim), (3, mat.dim)):
            v = rng.normal(size=shape)
            seen = []

            def finish(y, lo, hi):
                assert y.shape == shape[:-1] + (hi - lo,)
                seen.append((lo, hi))

            got = mat.matvec(v, finish=finish)
            assert got.tobytes() == ordered_pass(mat, v).tobytes()
            assert [k for lo, hi in seen for k in range(lo, hi)] == list(range(mat.dim))
        return seen

    @pytest.mark.parametrize("dim", [1, TILE - 1, TILE, TILE + 1, 3 * TILE + 5])
    def test_diagonals_at_tile_boundaries(self, monkeypatch, dim):
        mat = self.tiled(monkeypatch, lambda: banded(dim, 2, dim, holes=0.0))
        assert layout(mat) == "diagonals" and mat.block_width == (1 if dim > 4 else 4)
        seen = self.check(mat, dim)
        assert seen == [(lo, min(lo + self.TILE, dim)) for lo in range(0, dim, self.TILE)]

    def test_offsets_wider_than_a_tile(self, monkeypatch):
        # diagonals 0 and +-12 over tiles of 8 rows: a tile's rows read
        # columns of other tiles, and the outer diagonals miss some tiles
        mat = self.tiled(monkeypatch, lambda: wide_band(100, 12))
        assert layout(mat) == "diagonals"
        seen = self.check(mat, 100)
        assert seen == [(lo, min(lo + self.TILE, 100)) for lo in range(0, 100, self.TILE)]

    @pytest.mark.parametrize("build", [lambda: holed(30, 4), lambda: random_psd(
        21, 3, np.random.default_rng(3).uniform(0.0, 1.0, 21))], ids=["holed", "random-psd"])
    def test_columns_finish_once_under_a_small_budget(self, monkeypatch, build):
        # a budget that cuts a diagonal matrix of this size into tiles
        # leaves a column product one einsum, finished once on all rows
        mat = self.tiled(monkeypatch, build)
        assert layout(mat) == "columns" and mat.block_width == 1
        assert self.check(mat, mat.dim) == [(0, mat.dim)]

    def test_one_row_tiles(self, monkeypatch):
        # a budget of 32 bytes leaves a tile one row
        mat = self.tiled(monkeypatch, lambda: banded(12, 3, 0, holes=0.0), budget=32)
        assert self.check(mat, 12) == [(k, k + 1) for k in range(12)]

    def test_tile_height_follows_the_budget(self):
        # a (block_width, rows) tile of BLOCK_BYTES // 4 bytes: 2^15 rows at
        # width 1, and tridiag(2^15) is one tile; the SPDC matrix and a dense
        # 1000-row one are stored by column, which is never cut into tiles
        def tiles(mat):
            seen = []
            mat.matvec(np.zeros(mat.dim), finish=lambda y, lo, hi: seen.append((lo, hi)))
            return seen

        fem = fem_matrix(10**5)
        assert fem.block_width == 1
        assert tiles(fem) == [
            (0, 2**15), (2**15, 2**16), (2**16, 3 * 2**15), (3 * 2**15, 10**5)]
        assert tiles(tridiag(2**15)) == [(0, 2**15)]
        for mat in (spdc_density_matrix(SpdcParams()),
                    random_psd(1000, 0, np.linspace(0.0, 1.0, 1000))):
            assert layout(mat) == "columns" and tiles(mat) == [(0, mat.dim)]

    def test_gathered_product_finishes_once(self):
        mat, _ = random_symmetric(50, 3)
        v = np.random.default_rng(4).normal(size=(2, 50))
        seen = []

        def finish(y, lo, hi):
            seen.append((y.shape, lo, hi))
            y *= 2.0

        got = mat.matvec(v, finish=finish)
        assert seen == [((2, 50), 0, 50)]
        assert got.tobytes() == (2.0 * mat.matvec(v)).tobytes()

    @pytest.mark.parametrize("build", [
        lambda: banded(29, 2, 0, holes=0.0), lambda: wide_band(100, 12),
        lambda: holed(30, 4), lambda: random_symmetric(50, 3)[0]],
        ids=["diagonals", "offsets-12", "columns", "gather"])
    def test_out_keeps_its_rows_until_finished(self, monkeypatch, build):
        # finish reads out's old rows of its tile, as a recurrence reads
        # t_j-1 before t_j+1 is written over it; out receives the finished
        # product, with the bits of one written to a new array
        mat = self.tiled(monkeypatch, build)
        rng = np.random.default_rng(mat.dim)
        for shape in ((mat.dim,), (2, mat.dim)):
            v, old = rng.normal(size=shape), rng.normal(size=shape)

            def finish(y, lo, hi):
                assert out[..., lo:hi].tobytes() == old[..., lo:hi].tobytes()
                y -= out[..., lo:hi]

            out = old.copy()
            assert mat.matvec(v, finish=finish, out=out) is out
            assert out.tobytes() == (mat.matvec(v) - old).tobytes()
            with pytest.raises(ValueError, match="out shape"):
                mat.matvec(v, out=np.empty(shape[:-1] + (mat.dim + 1,)))


def toeplitz(m, band):
    """Symmetric band with band[d] on diagonals d and -d, built from its entries."""
    rows, cols, vals = [np.arange(m)], [np.arange(m)], [np.full(m, band[0])]
    for d, x in enumerate(band[1:], start=1):
        i = np.arange(m - d)
        rows += [i, i + d]
        cols += [i + d, i]
        vals += [np.full(m - d, x)] * 2
    return np.concatenate(rows), np.concatenate(cols), np.concatenate(vals)


def stored_once(mat):
    """Whether a matrix is stored by diagonal, each diagonal as one value."""
    strips = mat._strips
    return (layout(mat) == "diagonals" and strips.data.shape == (len(strips.offsets), mat.dim)
            and strips.data.strides[1] == 0 and not strips.data.flags.writeable)


BAND = (2.5, -0.75, 0.25)


def broken_band(how):
    """toeplitz(40, BAND) with one pair changed: a hole in diagonal +-1 or a
    differing value there, or, on diagonals +-2 of stored +0.0, a hole, which
    holds +0.0 as well, or a stored -0.0."""
    band = (2.5, -0.75, 0.0) if how in ("zero-hole", "signed-zero") else BAND
    rows, cols, vals = toeplitz(40, band)
    pair = (np.minimum(rows, cols) == 17) & (np.abs(rows - cols) == (2 if band[2] == 0 else 1))
    if how.endswith("hole"):
        rows, cols, vals = rows[~pair], cols[~pair], vals[~pair]
    else:
        vals[pair] = -0.0 if how == "signed-zero" else -0.5
    return SymmetricSparseMatrix(40, rows, cols, vals)


class TestConstantDiagonals:
    """A diagonal of one value in every in-range slot is stored as that value once."""

    @staticmethod
    def written_and_read(tmp_path, mat):
        write_matrix_market(mat, tmp_path / "a.mtx")
        return read_matrix_market(tmp_path / "a.mtx")

    def test_constant_bands_are_stored_once(self, tmp_path):
        # generated, built from entries in any order, or read from a file
        for m in (3, 4, 1000):
            fem = fem_matrix(m)
            rows, cols, vals = toeplitz(m, (2.0, -1.0))
            order = np.random.default_rng(m).permutation(rows.size)
            for mat in (fem, SymmetricSparseMatrix(m, rows[order], cols[order], vals[order]),
                        self.written_and_read(tmp_path, fem)):
                assert stored_once(mat)
                assert mat.diagonal().tobytes() == np.full(m, 2.0).tobytes()
        assert stored_once(SymmetricSparseMatrix(300, *toeplitz(300, BAND)))
        assert layout(fem_matrix(2)) == "columns"

    @pytest.mark.parametrize("how", ["hole", "zero-hole", "value", "signed-zero"])
    def test_one_break_keeps_full_strips(self, tmp_path, how):
        for mat in (broken_band(how), self.written_and_read(tmp_path, broken_band(how))):
            assert layout(mat) == "diagonals" and mat._strips.data.strides[1] == 8

    @pytest.mark.parametrize("build", [
        lambda: fem_matrix(1000), lambda: fem_matrix(3),
        lambda: SymmetricSparseMatrix(300, *toeplitz(300, BAND)),
        # inexact sums, on rows that face 4 to 7 diagonals
        lambda: SymmetricSparseMatrix(50, *toeplitz(50, (2.3, -0.1, 0.7, 0.2))),
        *(functools.partial(broken_band, how)
          for how in ("hole", "zero-hole", "value", "signed-zero"))],
        ids=["fem-1000", "fem-3", "band-300", "band-50-inexact", "hole", "zero-hole", "value",
             "signed-zero"])
    def test_answers_as_full_strips(self, monkeypatch, build):
        # products equal the ordered pass byte for byte, and so does all
        # that a matrix of the same entries answers with every strip filled
        import entrace.sparse as sparse

        mat = build()
        rng = np.random.default_rng(mat.dim)
        blocks = [rng.normal(size=shape) for shape in
                  ((mat.dim,), (mat.block_width, mat.dim), (max(1, mat.block_width - 1), mat.dim))]
        for v in blocks:
            assert mat.matvec(v).tobytes() == ordered_pass(mat, v).tobytes()
        monkeypatch.setattr(sparse, "_stored_once", lambda data, held, offsets: data)
        full = SymmetricSparseMatrix(mat.dim, *mat.coo())
        assert layout(full) == "diagonals" and full._strips.data.strides[1] == 8
        for a, b in zip(mat.coo(), full.coo()):
            assert a.tobytes() == b.tobytes()
        assert mat.diagonal().tobytes() == full.diagonal().tobytes()
        assert mat.trace().hex() == full.trace().hex()
        # broadcast strips give the bits of full ones, at both ends
        for end in ("lambda_max_upper", "lambda_min_lower"):
            assert (getattr(gershgorin_upper_bound(mat), end).hex()
                    == getattr(gershgorin_upper_bound(full), end).hex())
        for v in blocks:
            assert mat.matvec(v).tobytes() == full.matvec(v).tobytes()
        gamma0 = 1.075 * gershgorin_upper_bound(mat).lambda_max_upper
        probes = np.sign(rng.normal(size=(3, mat.dim)))
        for n in (1, 8, 9):
            exp = coefficients(n, 1.0)
            assert (quadratic_form(mat, probes, exp, gamma0).tobytes()
                    == quadratic_form(full, probes, exp, gamma0).tobytes())

    @pytest.mark.parametrize("m, band, fill", [
        (1000, (2.0, -1.0), None), (9, (2.5, -0.75, 0.25), None),
        (40, (-3.5, 0.5, -0.125, 1.75), None), (17, (0.0, -1.5), None),
        # diagonals +-3 alone, stored by diagonal under a looser fill: no
        # row faces both, so an out-of-range slot would double every radius
        (5, (0.0, 0.0, 0.0, 1.25), 3.0), (6, (0.0, 0.0, 0.0, -0.5), 3.0)])
    def test_gershgorin_equals_the_dense_bound(self, monkeypatch, m, band, fill):
        # exact binary fractions, so that every row's sum is exact in any order
        import entrace.sparse as sparse

        if fill is not None:
            monkeypatch.setattr(sparse, "DIA_FILL", fill)
        rows, cols, vals = toeplitz(m, band)
        keep = vals != 0.0
        mat = SymmetricSparseMatrix(m, rows[keep], cols[keep], vals[keep])
        assert stored_once(mat)
        dense = np.zeros((m, m))
        for d, x in enumerate(band):
            dense += x * (np.eye(m, k=d) + (np.eye(m, k=-d) if d else 0.0))
        diag = np.diagonal(dense)
        radius = np.abs(dense).sum(axis=1) - np.abs(diag)
        bound = gershgorin_upper_bound(mat)
        assert bound.lambda_max_upper == max(0.0, float(np.max(diag + radius)))
        assert bound.lambda_min_lower == float(np.min(diag - radius))


class TestSymmetryCheck:
    """Strip layouts check symmetry on their strips, and agree with the sort.

    So does a matrix handed over by diagonal, whatever layout it then takes.
    """

    @staticmethod
    def entries(rng, kind):
        """Entries of a symmetric matrix meant for one layout, in storage order."""
        if kind == "diagonals":
            m = int(rng.integers(20, 41))
            i, j = np.indices((m, m))
            mask = np.abs(i - j) <= rng.integers(1, 4)
        elif kind == "columns":
            m = int(rng.integers(5, 21))
            mask = np.ones((m, m), dtype=bool)
        else:
            m = int(rng.integers(10, 31))
            mask = rng.uniform(size=(m, m)) < 0.3
        holes = np.triu(rng.uniform(size=(m, m)) < (0.0 if kind == "gather" else 0.05), 1)
        mask = (mask | mask.T) & ~(holes | holes.T)
        np.fill_diagonal(mask, True)
        a = rng.normal(size=(m, m)) * rng.choice([1e-3, 1.0, 100.0])
        zeros = np.triu(rng.uniform(size=(m, m)) < 0.03, 1)
        a[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
        a = np.triu(a) + np.triu(a, 1).T
        rows, cols = np.nonzero(mask)
        return m, rows, cols, a[rows, cols]

    @staticmethod
    def perturb(rng, how, m, rows, cols, vals):
        """The entries with one change made to an off-diagonal pair, re-sorted."""
        off = np.flatnonzero(rows != cols)
        k = int(rng.choice(off))
        if how == "missing":
            keep = np.arange(rows.size) != k
            return rows[keep], cols[keep], vals[keep]
        vals = vals.copy()
        if how == "value":
            # just inside or just outside the tolerance, the entry made
            # larger or smaller than its mirror
            step = rng.choice([-1.0, 1.0]) * rng.choice([0.5, 1 - 1e-3, 1 + 1e-3, 2.0])
            v = vals[k]
            vals[k] = v * (1.0 + step * SYMMETRY_RTOL) if abs(v) >= 1.0 else v + step * SYMMETRY_RTOL
        elif how == "zero":
            # a stored +-0.0 facing a hole
            free = np.ones((m, m), dtype=bool)
            free[rows, cols] = False
            i, j = np.nonzero(free)
            if i.size:
                h = int(rng.integers(i.size))
                rows, cols = np.append(rows, i[h]), np.append(cols, j[h])
                vals = np.append(vals, rng.choice([0.0, -0.0]))
        order = np.lexsort((cols, rows))
        return rows[order], cols[order], vals[order]

    @staticmethod
    def route(m, rows, cols, vals):
        strips, _, symmetric = _strips(rows, cols, vals, m)
        if strips is None:
            return "gather", None
        return ("columns" if strips.offsets is None else "diagonals"), symmetric

    @staticmethod
    def by_diagonal(m, rows, cols, vals):
        """The matrix of the entries, handed over as each diagonal they touch."""
        offsets, k = np.unique(cols - rows, return_inverse=True)
        data = np.zeros((offsets.size, m))
        held = np.zeros((offsets.size, m), dtype=bool)
        data[k, rows] = vals
        held[k, rows] = True
        return SymmetricSparseMatrix._from_diagonals(m, tuple(offsets.tolist()), data, held)

    @staticmethod
    def stored(mat):
        v = np.random.default_rng(mat.dim).normal(size=(2, mat.dim))
        return ([a.tobytes() for a in mat.coo()], layout(mat), mat.matvec(v).tobytes(),
                mat.diagonal().tobytes(), mat.block_width)

    def test_strip_checks_agree_with_the_sort(self):
        rng = np.random.default_rng(8)
        seen = set()
        for case in range(300):
            kind = ("diagonals", "columns", "gather")[case % 3]
            how = ("none", "missing", "value", "zero")[case // 3 % 4]
            m, rows, cols, vals = self.entries(rng, kind)
            if how != "none":
                rows, cols, vals = self.perturb(rng, how, m, rows, cols, vals)
            want = symmetry_error(rows, cols, vals)
            path, symmetric = self.route(m, rows, cols, vals)
            if symmetric is not None:
                assert symmetric == (want is None)
            seen.add((path, how, want is None))
            shuffle = rng.permutation(rows.size)
            builds = []
            for order in (np.arange(rows.size), shuffle):
                args = (m, rows[order], cols[order], vals[order])
                if want is None:
                    builds.append(self.stored(SymmetricSparseMatrix(*args)))
                else:
                    with pytest.raises(ValueError) as err:
                        SymmetricSparseMatrix(*args)
                    assert str(err.value) == want
            # by diagonal, checked on the strips or, for the layouts of the
            # other kinds, handed to the constructor
            if want is None:
                builds.append(self.stored(self.by_diagonal(m, rows, cols, vals)))
                assert builds[0] == builds[1] == builds[2]
            else:
                with pytest.raises(ValueError) as err:
                    self.by_diagonal(m, rows, cols, vals)
                assert str(err.value) == want
        for path in ("diagonals", "columns", "gather"):
            assert {(path, "none", True), (path, "missing", False), (path, "value", True),
                    (path, "value", False), (path, "zero", False)} <= seen

    def test_diagonals_must_be_finite(self):
        # checked before the layout or the mirrors, as the constructor does
        for bad in (np.nan, np.inf):
            data = np.array([[0.0, 1.0], [2.0, 2.0], [1.0, 0.0]])
            data[1, 0] = bad
            held = np.array([[False, True], [True, True], [True, False]])
            with pytest.raises(ValueError, match="^matrix entries must be finite$"):
                SymmetricSparseMatrix._from_diagonals(2, (-1, 0, 1), data, held)

    @pytest.mark.parametrize("dim, message", [
        (0, "^dimension must be at least 1$"),
        (3037000500, "^dimension must be at most 3037000499"),
    ])
    def test_diagonals_check_the_dimension(self, dim, message):
        # as the constructor does, before any strip is read; the read-only
        # broadcasts allocate nothing
        data = np.broadcast_to(1.0, (1, dim))
        held = np.broadcast_to(True, (1, dim))
        with pytest.raises(ValueError, match=message):
            SymmetricSparseMatrix._from_diagonals(dim, (0,), data, held)

    def test_the_smaller_entry_sets_the_tolerance(self):
        # a - b, 5000 ulps of 1.0, is above SYMMETRY_RTOL * b but not above
        # SYMMETRY_RTOL * a: a pair that only the smaller entry's test refuses
        ulp = 2.0**-52
        b = 5000 * ulp / SYMMETRY_RTOL - 1000 * ulp
        a = b + 5000 * ulp
        assert SYMMETRY_RTOL * b < a - b <= SYMMETRY_RTOL * a
        tridiagonal = 2.0 * np.eye(12) - np.eye(12, k=1) - np.eye(12, k=-1)
        for dense, path in ((tridiagonal, "diagonals"), (np.full((4, 4), 0.5), "columns"),
                            (random_symmetric(20, 0)[1], "gather")):
            dense = dense.copy()
            dense[1, 2], dense[2, 1] = a, b
            rows, cols = np.nonzero(dense)
            vals = dense[rows, cols]
            assert self.route(dense.shape[0], rows, cols, vals) in ((path, False), (path, None))
            want = symmetry_error(rows, cols, vals)
            assert want.startswith("asymmetric values at (2, 1): ")
            with pytest.raises(ValueError) as err:
                SymmetricSparseMatrix(dense.shape[0], rows, cols, vals)
            assert str(err.value) == want

    @pytest.mark.parametrize("step, refused", [(0.0, False), (0.5, False), (3.0, True)])
    def test_constant_diagonal_pairs_compare_one_value(self, step, refused):
        # diagonals -1 and 1 handed over as one value each, stride-0
        # broadcasts, whose mirror check reads one slot of each: a pair
        # within SYMMETRY_RTOL builds the matrix of its entries, and one
        # beyond it is refused as the constructor words it
        m = 50
        upper = -1.0 - step * SYMMETRY_RTOL
        data = np.broadcast_to(np.array([[-1.0], [2.0], [upper]]), (3, m))
        held = np.ones((3, m), dtype=bool)
        held[0, 0] = held[2, -1] = False
        dense = 2.0 * np.eye(m) - np.eye(m, k=-1) + upper * np.eye(m, k=1)
        rows, cols = np.nonzero(dense)
        vals = dense[rows, cols]
        want = symmetry_error(rows, cols, vals)
        if refused:
            assert want.startswith("asymmetric values at (0, 1): ")
            with pytest.raises(ValueError) as err:
                SymmetricSparseMatrix._from_diagonals(m, (-1, 0, 1), data, held)
            assert str(err.value) == want
        else:
            assert want is None
            mat = SymmetricSparseMatrix._from_diagonals(m, (-1, 0, 1), data, held)
            assert stored_once(mat)
            assert self.stored(mat) == self.stored(SymmetricSparseMatrix(m, rows, cols, vals))

    @pytest.mark.parametrize("how", ["value", "missing", "zero"])
    @pytest.mark.parametrize("kind", ["diagonals", "columns"])
    def test_refusals_past_the_first_chunk(self, kind, how):
        # mirrors are compared BLOCK_BYTES // 32 slots at a time, in whole
        # rows of a (dim, dim) array: a pair whose two slots both lie past
        # the first chunk, on a diagonal longer than a chunk or in columns
        # whose dim does not divide the chunk, is refused as the sorted
        # entries word it, whether built from entries or handed over by
        # diagonal. A stored 0.0 facing a hole differs only in the masks
        chunk = BLOCK_BYTES // 32
        rng = np.random.default_rng(4)
        if kind == "diagonals":
            m = chunk + 100
            i = np.arange(m - 1)
            rows = np.concatenate((np.arange(m), i, i + 1))
            cols = np.concatenate((np.arange(m), i + 1, i))
            band = rng.normal(size=m - 1)
            vals = np.concatenate((rng.normal(size=m), band, band))
            # entry (chunk, chunk + 1), slot chunk of diagonal 1, and its mirror
            k, mirror = m + chunk, 2 * m - 1 + chunk
        else:
            m = 300
            height = chunk // m
            assert chunk % m and m % height
            a = rng.normal(size=(m, m))
            rows, cols = (x.reshape(-1) for x in np.indices((m, m)))
            vals = (a + a.T)[rows, cols]
            # entry (height, height + 1): strip height + 1, slot height, and
            # its mirror, strip height, slot height + 1, both in rows of the
            # second chunk
            k, mirror = height * m + height + 1, (height + 1) * m + height
        assert (rows[k], cols[k]) == (rows[mirror], cols[mirror])[::-1]
        if how == "value":
            vals[k] += 1e-9
        else:
            if how == "zero":
                vals[k] = 0.0
            rows, cols, vals = (np.delete(x, mirror) for x in (rows, cols, vals))
        assert self.route(m, rows, cols, vals) == (kind, False)
        want = symmetry_error(rows, cols, vals)
        assert want is not None
        for build in (SymmetricSparseMatrix, self.by_diagonal):
            with pytest.raises(ValueError) as err:
                build(m, rows, cols, vals)
            assert str(err.value) == want

    def test_build_peak_memory_per_entry(self):
        # traced peak while fem(2 * 10^5) is built from ordered entries; the
        # matrix it keeps is 9 B an entry: three diagonals and their held
        # mask, and the slots they are scattered to take 8, about 17 in all.
        # A second index array beside the slots takes the peak to 21, and a
        # mirror sort, or a copy of the entries kept beside the strips, above 48
        dim = 2 * 10**5
        rows, cols, vals = (a.copy() for a in fem_matrix(dim).coo())
        tracemalloc.start()
        try:
            SymmetricSparseMatrix(dim, rows, cols, vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / rows.size < 20

    def test_reader_order_peak_memory_per_entry(self):
        # traced peak while a dense 300-row matrix is built from the lower
        # triangle, row by row, and then its mirror, as read_matrix_market
        # hands over a symmetric file. The strips and their held mask take 9 B
        # an entry and the slots they are scattered to 8, about 19 in all; a
        # second index array beside the slots, or the mirror check's (dim,
        # dim) temporaries, take the peak to 26, and a sort's key, permutation
        # and permuted copies above 48
        a = np.random.default_rng(7).normal(size=(300, 300))
        i, j = np.tril_indices(300)
        off = i != j
        rows, cols = np.concatenate((i, j[off])), np.concatenate((j, i[off]))
        vals = (a + a.T)[rows, cols]
        SymmetricSparseMatrix(300, rows, cols, vals)  # numpy's lazily allocated state, once
        tracemalloc.start()
        try:
            mat = SymmetricSparseMatrix(300, rows, cols, vals)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert layout(mat) == "columns"
        assert peak / rows.size < 22


class TestFrobenius:
    """||A||_F^2 gives the same bits by diagonal, by column and gathered."""

    @staticmethod
    def stored(monkeypatch, build, how):
        # the layout rule forced: by diagonal, however many diagonals there
        # are, by column, or gathered
        import entrace.sparse as sparse

        with monkeypatch.context() as patch:
            patch.setattr(sparse, "DIA_FILL", 0.0 if how == "gather" else 1e9)
            if how != "gather":
                patch.setattr(sparse, "_by_diagonal", lambda *_: how == "diagonals")
            mat = build()
        assert layout(mat) == how
        return mat

    @pytest.mark.parametrize("budget", [None, 2**8], ids=["one-tile", "tiles-of-8"])
    @pytest.mark.parametrize("build", [
        lambda: fem_matrix(1000), lambda: fem_matrix(3), lambda: banded(300, 3, 0),
        lambda: holed(30, 4), signed_zeros, lambda: spdc_density_matrix(SpdcParams()),
        lambda: random_psd(200, 3, np.random.default_rng(3).uniform(0.0, 1.0, 200)),
    ], ids=["fem-1000", "fem-3", "banded-300", "holed", "signed-zeros", "spdc", "random-200"])
    def test_layouts_give_the_same_bits(self, monkeypatch, build, budget):
        # holes, stored +-0.0, fem's broadcast diagonals, and row tiles of 8
        # rows under a small budget
        import entrace.sparse as sparse

        if budget is not None:
            monkeypatch.setattr(sparse, "BLOCK_BYTES", budget)
        mats = {how: self.stored(monkeypatch, build, how)
                for how in ("diagonals", "columns", "gather")}
        got = {how: mat.frobenius_squared().hex() for how, mat in mats.items()}
        assert len(set(got.values())) == 1, got
        values = build().coo()[2]
        assert mats["gather"].frobenius_squared() == pytest.approx(
            math.fsum(values * values), rel=1e-14)

    def test_tridiagonal_value(self):
        # by column at m = 2, and otherwise by broadcast diagonals
        for m in (1, 2, 3, 1000):
            mat = fem_matrix(m)
            assert stored_once(mat) == (m != 2)
            assert mat.frobenius_squared() == 6.0 * m - 2.0
        assert SymmetricSparseMatrix(4, [], [], []).frobenius_squared() == 0.0

    @pytest.mark.parametrize("dim", [2, 9000, 20000])
    def test_column_squares_are_ordered_sums(self, dim):
        # the einsum of a matrix stored by column adds C[j, i]^2 to row i's
        # sum for ascending j, also past einsum's 8192-entry piece; a thin C
        # stands in for the (dim, dim) strips
        rng = np.random.default_rng(dim)
        C = rng.normal(size=(dim, 3)) * 10.0 ** rng.uniform(-5.0, 5.0, size=(dim, 1))
        want = np.zeros(3)
        for j in range(dim):
            want += C[j] * C[j]
        assert np.einsum("ji,ji->i", C, C).tobytes() == want.tobytes()

    def test_peak_memory_on_a_million_rows(self):
        # temporaries of one tile of 2^15 rows, not of the 10^6-row strips
        mat = fem_matrix(10**6)
        mat.frobenius_squared()  # numpy's lazily allocated state, once
        tracemalloc.start()
        try:
            value = mat.frobenius_squared()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 6.0 * 10**6 - 2.0
        assert peak < 2**20


class TestSpectralBounds:
    def test_gershgorin_dominates_lambda_max(self):
        for seed in range(8):
            mat, a = random_symmetric(25, seed)
            a = a @ a.T  # make it PSD
            mat = SymmetricSparseMatrix.from_dense(a)
            bound = gershgorin_upper_bound(mat)
            lam_max = float(np.linalg.eigvalsh(a)[-1])
            assert bound.lambda_max_upper >= lam_max - 1e-10 * abs(lam_max)
            assert bound.method == "gershgorin"

    def test_gershgorin_tridiagonal_value(self):
        assert gershgorin_upper_bound(tridiag(50)).lambda_max_upper == 4.0

    def test_gershgorin_never_negative(self):
        mat = SymmetricSparseMatrix(2, [0, 1], [0, 1], [-3.0, -1.0])
        assert gershgorin_upper_bound(mat).lambda_max_upper == 0.0

    @pytest.mark.parametrize("dim", [2**15 - 1, 2**15, 2**15 + 1, 70000])
    def test_gershgorin_tiles_give_the_gathered_bits(self, monkeypatch, dim):
        # a matrix stored by diagonal is read a tile of 2^15 rows at a time;
        # with holes and random values every row's sum rounds, and both
        # bounds keep the bits of the same entries gathered
        import entrace.sparse as sparse

        strips = banded(dim, 3, dim)
        monkeypatch.setattr(sparse, "DIA_FILL", 0.0)
        gathered = SymmetricSparseMatrix(dim, *strips.coo())
        assert layout(strips) == "diagonals" and layout(gathered) == "gather"
        for end in ("lambda_max_upper", "lambda_min_lower"):
            assert (getattr(gershgorin_upper_bound(strips), end).hex()
                    == getattr(gershgorin_upper_bound(gathered), end).hex())

    def test_gershgorin_peak_memory_on_a_million_rows(self):
        # temporaries of one tile of 2^15 rows, as frobenius_squared holds;
        # the untiled pass held 24 MB of (dim,) temporaries here
        mat = fem_matrix(10**6)
        want = gershgorin_upper_bound(mat)  # numpy's lazily allocated state, once
        tracemalloc.start()
        try:
            bound = gershgorin_upper_bound(mat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (bound.lambda_max_upper, bound.lambda_min_lower) == (4.0, 0.0)
        assert bound == want
        assert peak < 2**20

    def test_spectral_bound_validation(self):
        with pytest.raises(ValueError):
            SpectralBound(-1.0, "gershgorin")
        with pytest.raises(ValueError):
            SpectralBound(1.0, "made-up")
        for failure in (-0.1, 1.0, math.nan):
            with pytest.raises(ValueError):
                SpectralBound(1.0, "lanczos", failure=failure)


def lanczos_case(name):
    """A matrix stored by column that the Lanczos bound is checked on, dim 120 > K."""
    m = 120
    rng = np.random.default_rng(11)
    if name == "indefinite":
        a = rng.normal(size=(m, m))
        return SymmetricSparseMatrix.from_dense((a + a.T) / 2.0)
    if name == "spdc":
        return spdc_density_matrix(SpdcParams())
    spectrum = {
        "uniform": lambda: rng.uniform(0.0, 1.0, m),
        "clustered-top": lambda: np.concatenate((1.0 - 1e-4 * rng.uniform(size=8),
                                                 rng.uniform(0.0, 0.5, m - 8))),
        "rank-deficient": lambda: np.concatenate((rng.uniform(0.0, 1.0, 12), np.zeros(m - 12))),
        # the spectrum on which a power-iteration guess fell below lambda_max
        "rotated-gap": lambda: np.concatenate(([1.0], np.full(m - 1, 0.95))),
    }[name]()
    return random_psd(m, 5, spectrum)


class TestLanczosBound:
    EPS = 0.05 / 1000

    @pytest.mark.parametrize("name", ["uniform", "clustered-top", "rank-deficient",
                                      "rotated-gap", "indefinite", "spdc"])
    def test_bound_holds_over_seeds(self, name):
        # no violation over 200 start vectors, never above Gershgorin, and
        # tighter than it on each of these matrices
        mat = lanczos_case(name)
        assert layout(mat) == "columns"
        lam_max = float(np.linalg.eigvalsh(mat.to_dense())[-1])
        gershgorin = gershgorin_upper_bound(mat)
        for seed in range(200):
            start = RademacherSampler(seed).start_vector(mat.dim)
            bound = lanczos_upper_bound(mat, gershgorin, start, self.EPS)
            assert lam_max <= bound.lambda_max_upper < gershgorin.lambda_max_upper, seed
            assert bound.method == "lanczos" and bound.failure == self.EPS
            assert bound.lambda_min_lower == gershgorin.lambda_min_lower

    def test_shift_and_slack(self):
        # on a PSD matrix whose Gershgorin discs reach below 0, the bound
        # is (theta + sigma) / (1 - delta) - sigma + r, with theta, the top
        # Ritz value, within rounding of lambda_max after K steps
        mat = lanczos_case("uniform")
        gershgorin = gershgorin_upper_bound(mat)
        sigma = -gershgorin.lambda_min_lower
        assert sigma > 0.0
        lam_max = float(np.linalg.eigvalsh(mat.to_dense())[-1])
        delta = (math.log(1.648 * math.sqrt(mat.dim) / self.EPS) / (2 * LANCZOS_STEPS - 1)) ** 2
        bound = lanczos_upper_bound(mat, gershgorin, RademacherSampler(0).start_vector(mat.dim),
                                    self.EPS)
        assert bound.lambda_max_upper == pytest.approx((lam_max + sigma) / (1.0 - delta) - sigma,
                                                       rel=1e-12)

    def test_breakdown_stops_early(self, monkeypatch):
        # a multiple of the identity has a one-dimensional Krylov space: one
        # product, and then the residual is zero
        mat = SymmetricSparseMatrix.from_dense(2.0 * np.eye(100))
        calls = []
        monkeypatch.setattr(SymmetricSparseMatrix, "matvec",
                            lambda self, v, _real=SymmetricSparseMatrix.matvec:
                            calls.append(1) or _real(self, v))
        gershgorin = gershgorin_upper_bound(mat)
        assert gershgorin.lambda_min_lower == 2.0
        bound = lanczos_upper_bound(mat, gershgorin, RademacherSampler(0).start_vector(100),
                                    self.EPS)
        assert len(calls) == 1
        # theta = 2 exactly, which delta's slack puts above Gershgorin's exact 2
        assert bound is gershgorin

    @pytest.mark.parametrize("name", ["uniform", "rank-deficient", "spdc"])
    def test_bound_keeps_its_run(self, name):
        # the bound and the basis come from one run: its rows are
        # orthonormal, alpha is the diagonal of Q A Q^T and beta the
        # off-diagonal, and a second run from the same start is the same
        # bits; the rank-12 matrix and the spdc state break down early
        mat = lanczos_case(name)
        gershgorin = gershgorin_upper_bound(mat)
        start = RademacherSampler(0).start_vector(mat.dim)
        bound = lanczos_upper_bound(mat, gershgorin, start, self.EPS)
        run = bound.krylov
        assert gershgorin.krylov is None and bound.method == "lanczos"
        q = run.rows
        assert (len(q) == LANCZOS_STEPS) == (name == "uniform")
        assert len(run.alpha) == len(q) and len(run.beta) == len(q) - 1
        np.testing.assert_allclose(q @ q.T, np.eye(len(q)), atol=1e-13)
        projected = q @ mat.to_dense() @ q.T
        scale = gershgorin.lambda_max_upper - gershgorin.lambda_min_lower
        np.testing.assert_allclose(run.alpha, np.diag(projected), atol=1e-13 * scale)
        np.testing.assert_allclose(run.beta, np.diag(projected, 1), atol=1e-12 * scale)
        again = krylov_basis(mat, start, scale)
        assert np.array_equal(again.rows, q) and np.array_equal(again.alpha, run.alpha)
        assert run.rounding == 16.0 * LANCZOS_STEPS * np.finfo(float).eps / 2.0 * scale

    def test_no_slack_or_zero_matrix_keeps_gershgorin(self):
        zero = SymmetricSparseMatrix(3, [0], [0], [0.0])
        bound = gershgorin_upper_bound(zero)
        start = RademacherSampler(0).start_vector(3)
        assert lanczos_upper_bound(zero, bound, start, 0.01) is bound
        mat = lanczos_case("uniform")
        # a failure probability so small that delta reaches 1
        bound = gershgorin_upper_bound(mat)
        start = RademacherSampler(0).start_vector(mat.dim)
        assert lanczos_upper_bound(mat, bound, start, 1e-300) is bound
        for eps in (0.0, 1.0, -1e-3):
            with pytest.raises(ValueError):
                lanczos_upper_bound(mat, bound, start, eps)


# One malformed file per error kind: (symmetry, size line, entry lines, the
# 1-based position of the failing line among the entry lines, message).
# Comment and blank lines are placed before every entry line, so each
# reported line number counts them.
_MALFORMED = {
    "two-tokens": ("symmetric", "2 2 2", ["1 1 1.0", "2 1"], 2,
                   "entry must be 'row col value'"),
    "float-index": ("symmetric", "2 2 2", ["1 1 1.0", "1.5 1 1.0"], 2,
                    "cannot parse entry '1.5 1 1.0'"),
    "bad-value": ("symmetric", "2 2 1", ["1 1 x"], 1, "cannot parse entry '1 1 x'"),
    "out-of-range": ("symmetric", "2 2 2", ["1 1 1.0", "3 1 1.0"], 2,
                     "index (3, 1) outside 1..2"),
    "upper-triangle": ("symmetric", "2 2 2", ["1 1 1.0", "1 2 1.0"], 2,
                       "symmetric files must store the lower triangle (row >= col)"),
    "duplicate": ("symmetric", "2 2 3", ["2 1 1.0", "1 1 1.0", "2 1 1.0"], 3,
                  "duplicate entry for (2, 1)"),
    "extra": ("symmetric", "2 2 1", ["1 1 1.0", "2 2 1.0"], 2,
              "unexpected extra entry, header declared 1"),
    "beyond-int64": ("symmetric", "2 2 2", ["1 1 1.0", "99999999999999999999 1 1.0"], 2,
                     "index (99999999999999999999, 1) outside 1..2"),
    "missing-mirror": ("general", "2 2 3", ["1 1 1.0", "2 1 1.0", "2 2 1.0"], 2,
                       "entry (2, 1) has no mirrored (1, 2) entry"),
    "mirror-mismatch": ("general", "2 2 2", ["2 1 1.0", "1 2 2.0"], 1,
                        "entry (2, 1) = 1.0 does not match (1, 2) = 2.0 from line 10"),
    "non-finite-symmetric": ("symmetric", "2 2 2", ["1 1 1.0", "2 2 inf"], 2,
                             "value must be finite in entry '2 2 inf'"),
    "non-finite-general": ("general", "2 2 3", ["2 1 1.0", "1 2 1.0", "2 2 nan % x"], 3,
                           "value must be finite in entry '2 2 nan % x'"),
    # a failing line beats a short count, and a short count, reported at the
    # file's last line, beats a mirror error
    "duplicate-and-short": ("symmetric", "2 2 4", ["1 1 1.0", "1 1 2.0"], 2,
                            "duplicate entry for (1, 1)"),
    "short-and-mismatch": ("general", "2 2 3", ["2 1 1.0", "1 2 2.0"], 2,
                           "header declared 3 entries, found 2"),
}


def _write_malformed(tmp_path, symmetry, size, entries):
    lines = [f"%%MatrixMarket matrix coordinate real {symmetry}", "% about", "", size]
    for entry in entries:
        lines += ["% note", "   ", entry]
    path = tmp_path / "bad.mtx"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestMatrixMarket:
    def test_round_trip_exact(self, tmp_path):
        mat, _ = random_symmetric(17, 11)
        path = tmp_path / "m.mtx"
        write_matrix_market(mat, path)
        back = read_matrix_market(path)
        assert back.dim == mat.dim
        np.testing.assert_array_equal(back.to_dense(), mat.to_dense())

    def test_writes_lower_triangle_only(self, tmp_path):
        mat = tridiag(3)
        path = tmp_path / "t.mtx"
        write_matrix_market(mat, path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("%%MatrixMarket matrix coordinate real symmetric")
        entries = [tuple(map(int, ln.split()[:2])) for ln in lines[2:]]
        assert all(i >= j for i, j in entries)
        assert len(entries) == 3 + 2  # diagonal + one off-diagonal band

    def test_writes_the_per_line_format(self, tmp_path):
        # byte for byte the text of one f-string per entry
        mat = SymmetricSparseMatrix(
            4, [0, 1, 1, 2, 2, 3, 3, 0], [0, 1, 2, 1, 3, 2, 0, 3],
            [1.0 / 3.0, -0.0, 5e-324, 5e-324, 1.7976931348623157e308,
             1.7976931348623157e308, 0.1, 0.1])
        for m in (mat, random_psd(60, 2, np.linspace(0.0, 3.0, 60))):
            rows, cols, vals = m.coo()
            keep = rows >= cols
            want = "%%MatrixMarket matrix coordinate real symmetric\n"
            want += f"{m.dim} {m.dim} {int(keep.sum())}\n"
            for i, j, v in zip(rows[keep], cols[keep], vals[keep]):
                want += f"{i + 1} {j + 1} {v:.17g}\n"
            path = tmp_path / "w.mtx"
            write_matrix_market(m, path)
            assert path.read_bytes() == want.encode("ascii")

    def test_read_general_format_with_mirror_pairs(self, tmp_path):
        text = (
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 2.0\n1 2 -1.0\n2 1 -1.0\n"
        )
        path = tmp_path / "g.mtx"
        path.write_text(text)
        mat = read_matrix_market(path)
        np.testing.assert_array_equal(mat.to_dense(), [[2.0, -1.0], [-1.0, 0.0]])

    def test_read_general_missing_mirror_is_error(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 2 -1.0\n"
        path = tmp_path / "g.mtx"
        path.write_text(text)
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_read_symmetric_upper_entry_is_error(self, tmp_path):
        text = "%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 2 -1.0\n"
        path = tmp_path / "s.mtx"
        path.write_text(text)
        with pytest.raises(MatrixMarketError, match="line 3"):
            read_matrix_market(path)

    def test_error_messages_carry_line_numbers(self, tmp_path):
        path = tmp_path / "bad.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 1\n1 1\n")
        with pytest.raises(MatrixMarketError, match="line 3"):
            read_matrix_market(path)

    def test_rejects_rectangular(self, tmp_path):
        path = tmp_path / "rect.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 3 0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_rejects_duplicate_entries(self, tmp_path):
        path = tmp_path / "dup.mtx"
        path.write_text(
            "%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n1 1 2.0\n"
        )
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_rejects_wrong_entry_count(self, tmp_path):
        path = tmp_path / "count.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n2 2 2\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError):
            read_matrix_market(path)

    def test_full_precision_survives(self, tmp_path):
        val = 1.0 / 3.0 + 1e-16
        mat = SymmetricSparseMatrix(1, [0], [0], [val])
        path = tmp_path / "p.mtx"
        write_matrix_market(mat, path)
        assert read_matrix_market(path).coo()[2][0] == val

    def test_inline_comment_after_an_entry(self, tmp_path):
        path = tmp_path / "inline.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "2 2 2\n1 1 2.0 % diagonal\n2 1 -1.0%off\n")
        np.testing.assert_array_equal(read_matrix_market(path).to_dense(),
                                      [[2.0, -1.0], [-1.0, 0.0]])

    def test_rejects_digit_separators(self, tmp_path):
        path = tmp_path / "sep.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n1 1 1\n1 1 1_0.5\n")
        with pytest.raises(MatrixMarketError, match=r"^line 3: cannot parse entry '1 1 1_0.5'$"):
            read_matrix_market(path)

    @pytest.mark.parametrize("kind", sorted(_MALFORMED))
    def test_names_the_line(self, tmp_path, kind):
        symmetry, size, entries, bad, message = _MALFORMED[kind]
        path = _write_malformed(tmp_path, symmetry, size, entries)
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(path)
        assert str(err.value) == f"line {4 + 3 * bad}: {message}"

    def test_short_count_names_the_last_line(self, tmp_path):
        path = _write_malformed(tmp_path, "symmetric", "2 2 3", ["1 1 1.0", "2 2 1.0"])
        with path.open("a") as fh:
            fh.write("% trailing\n\n")
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(path)
        assert str(err.value) == "line 12: header declared 3 entries, found 2"

    def test_earlier_line_wins(self, tmp_path):
        # a duplicate comes before a line that cannot be parsed at all
        path = _write_malformed(tmp_path, "symmetric", "2 2 3", ["1 1 1.0", "1 1 2.0", "x"])
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(path)
        assert str(err.value) == "line 10: duplicate entry for (1, 1)"

    def test_mirror_error_names_the_smaller_entry(self, tmp_path):
        # a pair that only the smaller entry's test refuses, as in
        # TestSymmetryCheck; the larger entry comes first in the file
        ulp = 2.0**-52
        b = 5000 * ulp / SYMMETRY_RTOL - 1000 * ulp
        a = b + 5000 * ulp
        path = _write_malformed(tmp_path, "general", "2 2 2", [f"2 1 {a!r}", f"1 2 {b!r}"])
        with pytest.raises(MatrixMarketError) as err:
            read_matrix_market(path)
        assert str(err.value) == (f"line 10: entry (1, 2) = {b!r} does not match "
                                  f"(2, 1) = {a!r} from line 7")

    def test_array_checks_agree_with_the_line_scan(self, tmp_path):
        # the line-by-line scan is the reference: the reader refuses a file
        # exactly when the scan does, and with the same message
        rng = random.Random(5)
        tokens = ["1", "2", "3", "0", "-1", "1.5", "x", "2.5", "1e0", "99999999999999999999",
                  "inf", "nan"]
        path = tmp_path / "r.mtx"

        def message(read):
            try:
                read()
            except MatrixMarketError as exc:
                return str(exc)
            return None

        for symmetry in ("symmetric", "general"):
            # every error a file of this symmetry can have
            kinds = ["'row col value'", "cannot parse", "must be finite", "outside",
                     "duplicate", "unexpected extra", "header declared"]
            kinds += (["lower triangle"] if symmetry == "symmetric"
                      else ["no mirrored", "does not match"])
            found = set()
            for _ in range(300):
                entries = [" ".join(rng.choice(tokens)
                                    for _ in range(rng.choice((2, 3, 3, 3, 4))))
                           if rng.random() < 0.2 else
                           f"{rng.randint(1, 3)} {rng.randint(1, 3)} {rng.choice(tokens)}"
                           for _ in range(rng.randint(0, 6))]
                if symmetry == "general":
                    # most entries get a mirror, some of them with another value
                    entries += [f"{e.split()[1]} {e.split()[0]} "
                                f"{e.split()[2] if rng.random() < 0.7 else rng.choice(tokens)}"
                                for e in entries if len(e.split()) == 3 and rng.random() < 0.8]
                    rng.shuffle(entries)
                nnz = max(0, len(entries) + rng.choice((-1, 0, 0, 1)))
                path.write_text("\n".join([f"%%MatrixMarket matrix coordinate real {symmetry}",
                                           f"3 3 {nnz}", *entries]) + "\n")
                scanned = message(lambda: _raise_at_first_bad_entry(
                    path, 3, nnz, symmetry == "symmetric", "none"))
                read = message(lambda: read_matrix_market(path))
                assert read == (None if scanned == "cannot read the entries: none" else scanned)
                found.add(read and next((kind for kind in kinds if kind in read), read))
            # each kind occurs, and so do files that read
            assert found == {None, *kinds}

    def test_refused_symmetric_file_peak_memory_per_line(self, tmp_path):
        # traced peak of reading a symmetric file whose last line repeats an
        # entry: the line scan keeps one int key per entry, about 91 B a line
        # once the refused matrix's arrays are released; a (row, col) tuple
        # a key takes it to about 155, and those arrays kept alive beside
        # the keys add about 75
        n = 2 * 10**5
        path = tmp_path / "repeat.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real symmetric\n{n} {n} {n}\n"
                        + "".join(f"{k} {k} 1.5\n" for k in range(1, n))
                        + f"{n - 3} {n - 3} 2.5\n")
        tracemalloc.start()
        try:
            with pytest.raises(MatrixMarketError,
                               match=rf"^line {n + 2}: duplicate entry for \({n - 3}, {n - 3}\)$"):
                read_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 112

    def test_refused_general_file_peak_memory_per_line(self, tmp_path):
        # traced peak of reading a general file whose last line has no
        # mirror: the line scan keeps an int key and an index per entry, and
        # the entry's line and value in flat arrays, about 148 B a line; a
        # (row, col) key and a (line, value) tuple per entry take it to 270
        n = 5 * 10**4
        path = tmp_path / "unmirrored.mtx"
        path.write_text(f"%%MatrixMarket matrix coordinate real general\n{n} {n} {n}\n"
                        + "".join(f"{k} {k} 1.5\n" for k in range(1, n)) + "2 1 0.5\n")
        tracemalloc.start()
        try:
            with pytest.raises(MatrixMarketError,
                               match=rf"^line {n + 2}: entry \(2, 1\) has no mirrored \(1, 2\) entry$"):
                read_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 176

    def test_read_peak_memory_per_entry(self, tmp_path):
        # traced peak of reading a dense symmetric file: the lower triangle
        # and then its mirror as rows, columns and values, 24 B an entry,
        # beside the strips and their held mask, 9 B, and the slots they are
        # scattered to, 8 B, about 43 in all. The loadtxt records kept beside
        # them, a second index array or the mirror check's (dim, dim)
        # temporaries take the peak to about 63
        dim = 300
        path = tmp_path / "dense.mtx"
        write_matrix_market(random_psd(dim, 0, np.linspace(0.0, 1.0, dim)), path)
        read_matrix_market(path)  # numpy's lazily allocated state, once
        tracemalloc.start()
        try:
            mat = read_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert layout(mat) == "columns"
        assert peak / mat.nnz < 48

    def test_refuses_dimensions_beyond_the_key(self, tmp_path):
        path = tmp_path / "huge.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        "3037000500 3037000500 1\n1 1 1.0\n")
        with pytest.raises(MatrixMarketError, match="^cannot read the entries: "
                                                    "dimension must be at most 3037000499"):
            read_matrix_market(path)

    def test_tabs_crlf_and_no_final_newline(self, tmp_path):
        path = tmp_path / "crlf.mtx"
        path.write_bytes(b"%%MatrixMarket matrix coordinate real symmetric\r\n"
                         b"% c\r\n2\t2\t3\r\n1\t1\t2.0\r\n2 \t1\t-1.0\r\n2\t2\t3.5")
        np.testing.assert_array_equal(read_matrix_market(path).to_dense(),
                                      [[2.0, -1.0], [-1.0, 3.5]])

    def test_no_entries_reads_without_warning(self, tmp_path):
        path = tmp_path / "empty.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n3 3 0\n% none\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mat = read_matrix_market(path)
        assert mat.dim == 3 and mat.nnz == 0

    def test_shuffled_entries_with_comments_read_back_exactly(self, tmp_path):
        mat = random_psd(200, 3, np.linspace(0.0, 2.0, 200))
        path = tmp_path / "psd.mtx"
        write_matrix_market(mat, path)
        header, size, *entries = path.read_text().splitlines()
        rng = random.Random(0)
        rng.shuffle(entries)
        for k in range(0, len(entries), 97):
            entries.insert(k, "% inserted")
        path.write_text("\n".join([header, "% before the size line", size, *entries]) + "\n")
        back = read_matrix_market(path)
        for a, b in zip(back.coo(), mat.coo()):
            assert a.tobytes() == b.tobytes()

    def test_general_file_reads_back_exactly(self, tmp_path):
        # both triangles, shuffled, at 17 significant digits
        mat = random_psd(120, 4, np.linspace(0.0, 2.0, 120))
        rows, cols, vals = mat.coo()
        order = np.random.default_rng(1).permutation(mat.nnz)
        path = tmp_path / "general.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real general\n"
                        f"{mat.dim} {mat.dim} {mat.nnz}\n"
                        + "".join(f"{rows[k] + 1} {cols[k] + 1} {vals[k]:.17g}\n"
                                  for k in order.tolist()))
        back = read_matrix_market(path)
        for a, b in zip(back.coo(), mat.coo()):
            assert a.tobytes() == b.tobytes()

    def test_values_equal_python_float(self, tmp_path):
        tokens = ["0.1", "-2.5e-300", "1.7976931348623157e308", "4.9e-324", "-0",
                  "123456789.123456789", "3.3333333333333335", ".5", "7.", "1E+22"]
        path = tmp_path / "diag.mtx"
        path.write_text("%%MatrixMarket matrix coordinate real symmetric\n"
                        f"{len(tokens)} {len(tokens)} {len(tokens)}\n"
                        + "".join(f"{k + 1} {k + 1} {tok}\n" for k, tok in enumerate(tokens)))
        assert read_matrix_market(path).coo()[2].tobytes() == np.array(
            [float(tok) for tok in tokens]).tobytes()
