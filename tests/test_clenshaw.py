"""Forward Chebyshev moments for probe quadratic forms."""

import functools
import math
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import entrace
from entrace.chebyshev import coefficients, evaluate_scalar
from entrace.clenshaw import SpectrumEscape, _moments, quadratic_form
from entrace.generators import SpdcParams, fem_matrix, random_psd, spdc_density_matrix
from entrace.sparse import SymmetricSparseMatrix, gershgorin_upper_bound
from support import dense_quadratic_form, layout, scattered_psd, wide_band


def signs(m, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=m) * 2.0 - 1.0


class TestAgainstDenseOracle:
    def test_random_psd_matrices(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            m = int(rng.integers(2, 40))
            n = int(rng.integers(1, 25))
            spectrum = rng.uniform(0.0, 1.0, size=m)
            A = random_psd(m, 1000 + trial, spectrum)
            gamma0 = max(1.0, float(spectrum.max()))
            exp = coefficients(n, 1.0)
            v = signs(m, 2000 + trial)
            got = quadratic_form(A, v, exp, gamma0)
            ref = dense_quadratic_form(A, v, exp, gamma0)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_diagonal_matrix(self):
        d = np.array([0.0, 0.3, 0.7, 1.0])
        A = SymmetricSparseMatrix.from_dense(np.diag(d))
        exp = coefficients(6, 1.0)
        v = np.array([1.0, -1.0, 1.0, -1.0])
        # diagonal case: form = gamma0 sum_i p_n(d_i / gamma0)
        expect = float(np.sum(evaluate_scalar(exp, d)))
        assert quadratic_form(A, v, exp, 1.0) == pytest.approx(expect, rel=1e-13)

    def test_scaled_identity(self):
        m, c, gamma0 = 12, 2.5, 4.0
        A = SymmetricSparseMatrix.from_dense(c * np.eye(m))
        for n in (1, 2, 7):
            exp = coefficients(n, 1.0)
            got = quadratic_form(A, signs(m, 3), exp, gamma0)
            assert got == pytest.approx(m * gamma0 * evaluate_scalar(exp, c / gamma0),
                                        rel=1e-13)

    def test_degree_one(self):
        A = random_psd(8, 5, np.linspace(0.1, 0.9, 8))
        exp = coefficients(1, 1.0)
        v = signs(8, 6)
        got = quadratic_form(A, v, exp, 1.0)
        assert got == pytest.approx(dense_quadratic_form(A, v, exp, 1.0), rel=1e-12)


class TestCost:
    def test_matvecs_per_form(self, monkeypatch):
        # the doubling identities need T_j(B) v only up to j = ceil(n/2)
        A = random_psd(10, 4, np.linspace(0.0, 1.0, 10))
        calls = []
        inner = SymmetricSparseMatrix.matvec

        def counting(self, x, **kwargs):
            calls.append(1)
            return inner(self, x, **kwargs)

        monkeypatch.setattr(SymmetricSparseMatrix, "matvec", counting)
        for n in range(1, 10):
            calls.clear()
            quadratic_form(A, signs(10, n), coefficients(n, 1.0), 1.0)
            assert len(calls) == (n + 1) // 2

    def test_blocks_up_to_the_width_build_no_layout(self, monkeypatch):
        # on the gather path, every product of a full block reuses the layout
        # built with the matrix, and a partial block gathers row by row
        import entrace.sparse as sparse

        A = scattered_psd(280, 3)
        assert A.block_width == 3 and layout(A) == "gather"
        exp = coefficients(9, 1.0)
        gamma0 = gershgorin_upper_bound(A).lambda_max_upper
        probes = np.array([signs(280, seed) for seed in (7, 8, 9)])
        single = np.array([quadratic_form(A, v, exp, gamma0) for v in probes])
        calls = []
        inner = sparse._block_layout

        def counting(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(sparse, "_block_layout", counting)
        for b in (3, 2):
            forms = quadratic_form(A, probes[:b], exp, gamma0)
            assert forms.tobytes() == single[:b].tobytes()
        assert calls == []


class TestMemory:
    def test_form_peak_memory_per_row(self):
        # traced peak of one form on a fem(2 * 10^5) row at n = 8: the two
        # vectors that take t_j in turn, 16 B a row, and a tile's scratch and
        # temporary. A new product vector each step, beside t_j-1 and t_j,
        # takes it to 25 B a row
        dim = 2 * 10**5
        A, v, exp = fem_matrix(dim), signs(dim, 0), coefficients(8, 1.0)
        want = quadratic_form(A, v, exp, 4.3)  # numpy's lazily allocated state, once
        tracemalloc.start()
        try:
            got = quadratic_form(A, v, exp, 4.3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak / dim < 21

    @pytest.mark.parametrize("build", [
        functools.partial(fem_matrix, 1000), functools.partial(wide_band, 100, 12),
        functools.partial(random_psd, 30, 2, np.linspace(0.0, 1.0, 30)),
        functools.partial(scattered_psd, 60, 1)], ids=["fem", "offsets-12", "columns", "gather"])
    def test_probes_stay_as_given(self, build):
        # without a work array the form copies the caller's block, and
        # writes t_2 over the copy
        A = build()
        gamma0 = 1.075 * gershgorin_upper_bound(A).lambda_max_upper
        probes = np.array([signs(A.dim, 90 + i) for i in range(3)])
        given = probes.copy()
        for n in (1, 2, 3, 4, 9):
            quadratic_form(A, probes, coefficients(n, 1.0), gamma0)
            quadratic_form(A, probes[1], coefficients(n, 1.0), gamma0)
            assert probes.tobytes() == given.tobytes() and probes.flags.writeable


class TestWorkspace:
    """A form in the caller's arrays: t_1 in ``work``, t_2 over the probe rows."""

    BUILDS = [functools.partial(fem_matrix, 10**5),
              functools.partial(random_psd, 30, 2, np.linspace(0.0, 1.0, 30)),
              functools.partial(scattered_psd, 60, 1)]
    IDS = ["fem-tiles", "columns", "gather"]

    @staticmethod
    def case(build):
        A = build()
        gamma0 = 1.075 * gershgorin_upper_bound(A).lambda_max_upper
        return A, gamma0, np.array([signs(A.dim, 30 + i) for i in range(3)])

    @pytest.mark.parametrize("build", BUILDS, ids=IDS)
    def test_work_gives_the_same_forms(self, build):
        A, gamma0, probes = self.case(build)
        if layout(A) == "diagonals":
            tiles = []
            A.matvec(np.zeros(A.dim), finish=lambda y, lo, hi: tiles.append(lo))
            assert len(tiles) > 1
        for traces in (None, (A.trace(), A.frobenius_squared())):
            for n in (1, 2, 3, 9):
                exp = coefficients(n, 1.0)
                want = quadratic_form(A, probes, exp, gamma0, traces)
                got = quadratic_form(A, probes.copy(), exp, gamma0, traces,
                                     work=np.empty(probes.shape))
                assert got.tobytes() == want.tobytes()
                one = quadratic_form(A, probes[1].copy(), exp, gamma0, traces,
                                     work=np.empty(A.dim))
                assert one == want[1]

    @pytest.mark.parametrize("build", BUILDS, ids=IDS)
    def test_shorter_block_reads_no_stale_rows(self, build):
        # a workspace that served a full block serves the short last block
        # of a batch as slices; its rows beyond the slice hold nan, which a
        # form that read them would carry
        A, gamma0, probes = self.case(build)
        exp = coefficients(9, 1.0)
        space, work = np.empty(probes.shape), np.empty(probes.shape)
        space[...] = probes
        full = quadratic_form(A, space, exp, gamma0, work=work)
        assert full.tobytes() == quadratic_form(A, probes, exp, gamma0).tobytes()
        space[1:] = np.nan
        work[1:] = np.nan
        space[:1] = probes[2:]
        short = quadratic_form(A, space[:1], exp, gamma0, work=work[:1])
        assert short.tobytes() == full[2:].tobytes()

    def test_rejects_a_work_array_that_does_not_fit(self):
        A, v, exp = fem_matrix(20), np.ones((2, 20)), coefficients(4, 1.0)
        for work in (np.empty((1, 20)), np.empty((2, 20), dtype=np.float32), v, v[::-1]):
            with pytest.raises(ValueError, match="work must be"):
                quadratic_form(A, v, exp, 4.3, work=work)


class TestTiles:
    """Each step finishes its product one row tile at a time, with the same bits."""

    @pytest.mark.parametrize("build", [
        *(functools.partial(fem_matrix, dim) for dim in (1, 7, 8, 9, 29)),
        functools.partial(wide_band, 100, 12),
        functools.partial(random_psd, 21, 3, np.random.default_rng(3).uniform(0.0, 1.0, 21)),
    ], ids=["fem-1", "fem-7", "fem-8", "fem-9", "fem-29", "offsets-12", "columns-21"])
    def test_forms_match_one_tile(self, monkeypatch, build):
        # tiles of 8 rows at block width 1 against the whole matrix as one
        # tile; a matrix stored by column is never tiled, but its block width
        # drops to 1 as well
        import entrace.sparse as sparse

        def tiles(mat):
            seen = []
            mat.matvec(np.zeros(mat.dim), finish=lambda y, lo, hi: seen.append((lo, hi)))
            return len(seen)

        whole = build()
        assert tiles(whole) == 1
        gamma0 = 1.075 * gershgorin_upper_bound(whole).lambda_max_upper
        probes = np.array([signs(whole.dim, 70 + i) for i in range(3)])
        forms = {(n, b): quadratic_form(whole, probes[:b], coefficients(n, 1.0), gamma0)
                 for n in (1, 2, 9) for b in (1, 2, 3)}
        # the budget sets the block width at construction and the tile
        # height of each product
        monkeypatch.setattr(sparse, "BLOCK_BYTES", 2**8)
        tiled = build()
        assert tiled.block_width == (1 if whole.dim > 4 else 4)
        assert tiles(tiled) == (1 if layout(whole) == "columns" else -(-whole.dim // 8))
        for (n, b), want in forms.items():
            got = quadratic_form(tiled, probes[:b], coefficients(n, 1.0), gamma0)
            assert got.tobytes() == want.tobytes()


class TestDeterminism:
    def test_same_probe_twice_identical(self):
        A = random_psd(15, 9, np.linspace(0.0, 1.0, 15))
        exp = coefficients(8, 1.0)
        v = signs(15, 1)
        assert quadratic_form(A, v, exp, 1.0) == quadratic_form(A, v, exp, 1.0)

    @pytest.mark.parametrize("A", [
        fem_matrix(60),
        # rows longer than one einsum buffer
        fem_matrix(20000),
        spdc_density_matrix(SpdcParams()),
        random_psd(200, 1, np.random.default_rng(1).uniform(0.0, 1.0, 200)),
        # scattered entries: the gather path, width 3
        scattered_psd(280, 3),
    ], ids=["fem-60", "fem-20000", "spdc", "random-200", "gathered-280"])
    def test_block_forms_match_single_forms(self, A):
        width = A.block_width
        # a widened bound, so that no moment is a sum of dyadic rationals,
        # which any summation order gets exactly
        gamma0 = 1.075 * gershgorin_upper_bound(A).lambda_max_upper
        probes = np.array([signs(A.dim, 50 + i) for i in range(min(2 * width + 1, 65))])
        # sampled moments, and mu_1 and mu_2 at their exact means
        for kind in ("sampled", "traces"):
            for n in (1, 8, 9, 14):
                exp = coefficients(n, 1.0)
                extra = {"sampled": {}, "traces": {"traces": (A.trace(), A.frobenius_squared())}
                         }[kind]
                form = functools.partial(quadratic_form, A, expansion=exp, gamma0=gamma0,
                                         **extra)
                single = np.array([form(v) for v in probes])
                for b in sorted({2, 3, 7, width}):
                    blocks = [form(probes[s:s + b]) for s in range(0, len(probes), b)]
                    np.testing.assert_array_equal(np.concatenate(blocks), single,
                                                  err_msg=f"{n} {b} {kind}")

    def test_sampled_form_is_pinned(self):
        # without traces every moment is sampled, bit for bit as pinned here;
        # on fem(50) at gamma0 = 4 each moment is an exact integer, so only
        # the contraction with the coefficients rounds
        probes = np.array([signs(50, 0), signs(50, 1)])
        forms = quadratic_form(fem_matrix(50), probes, coefficients(5, 1.0), 4.0)
        assert forms.tolist() == [-34.56209450057945, -45.57833661193638]

    def test_form_does_not_depend_on_blas_threads(self):
        # a threaded BLAS dot product splits its sum by thread count, so no
        # moment may be reduced through BLAS
        dense = random_psd(200, 1, np.random.default_rng(1).uniform(0.0, 1.0, 200))
        assert layout(dense) == "columns" and dense.block_width == 81
        code = (
            "from entrace.chebyshev import coefficients\n"
            "from entrace.clenshaw import quadratic_form\n"
            "from entrace.estimator import RademacherSampler\n"
            "from entrace.generators import fem_matrix\n"
            "A = fem_matrix(50000)\n"
            "v = RademacherSampler(0).sample_vector(A.dim, 1)\n"
            "print(float(quadratic_form(A, v, coefficients(8, 1.0), 4.3)).hex())\n"
            "# a block of 3 on fem(20000), which is stored by diagonal\n"
            "A = fem_matrix(20000)\n"
            "v = [RademacherSampler(0).sample_vector(A.dim, k) for k in (1, 2, 3)]\n"
            "print([float(f).hex() for f in quadratic_form(A, v, coefficients(9, 1.0), 4.3)])\n"
            "# a block of 81 on random_psd(200), which is stored by column\n"
            "import numpy as np\n"
            "from entrace.generators import random_psd\n"
            "A = random_psd(200, 1, np.random.default_rng(1).uniform(0.0, 1.0, 200))\n"
            "v = RademacherSampler(0).sample_vector(A.dim, 1, 81)\n"
            "print([float(f).hex() for f in quadratic_form(A, v, coefficients(9, 1.0), 1.3)])\n"
        )
        src = str(Path(entrace.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        forms = []
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=path, OPENBLAS_NUM_THREADS=threads,
                       OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads)
            run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                                 text=True, timeout=120)
            assert run.returncode == 0, run.stderr
            forms.append(run.stdout)
        assert forms[0] == forms[1]


class TestRealRows:
    """The moment kernel on real rows, given their mu_0."""

    def test_moments_match_dense_chebyshev(self):
        # mu_k = v^T T_k(B) v, against a dense recurrence, with the given
        # mu_0 = ||v||^2
        A = random_psd(30, 2, np.random.default_rng(2).uniform(0.0, 1.0, 30))
        n, c = 9, 2.0 / 1.1
        block = np.random.default_rng(3).standard_normal((4, 30))
        B = c * A.to_dense() - np.eye(30)
        t = [np.eye(30), B]
        for _ in range(n - 1):
            t.append(2.0 * B @ t[-1] - t[-2])
        want = np.array([[v @ tk @ v for tk in t] for v in block])
        got = _moments(A, block.copy(), n, c, np.empty_like(block),
                       mu0=np.einsum("ij,ij->i", block, block))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_plus_minus_one_rows_take_m_exactly(self):
        # given mu_0 = m, the moments are those of the rows' summed norms,
        # m exactly, bit for bit
        A = spdc_density_matrix(SpdcParams())
        block = np.array([signs(A.dim, s) for s in range(5)])
        c = 2.0 / (1.1 * A.trace())
        given = _moments(A, block.copy(), 8, c, np.empty_like(block), mu0=A.dim)
        summed = _moments(A, block.copy(), 8, c, np.empty_like(block),
                          mu0=np.einsum("ij,ij->i", block, block))
        np.testing.assert_array_equal(given, summed)

    def test_escape_is_read_against_the_row_norm(self):
        # a row of norm 3 along the eigenvalue 1.5 of diag(0.5, 1.5, 0.2),
        # where B = 2A - I is 2: mu_2 = T_2(2) ||v||^2 = 7 ||v||^2
        A = SymmetricSparseMatrix.from_dense(np.diag([0.5, 1.5, 0.2]))
        row = np.array([[0.0, 3.0, 0.0]])
        with pytest.raises(SpectrumEscape, match=r"^probe moment \|mu_2\| = 7 m "):
            _moments(A, row.copy(), 2, 2.0, np.empty_like(row), mu0=9.0)


class TestSpectrumEscape:
    """|mu_k| <= m while the spectrum lies inside [0, x0 * gamma0]."""

    @staticmethod
    def lambda_max(A):
        return float(np.linalg.eigvalsh(A.to_dense())[-1])

    @pytest.mark.parametrize("A", [
        fem_matrix(200),
        spdc_density_matrix(SpdcParams()),
        random_psd(100, 0, np.linspace(0.0, 1.0, 100)),
    ], ids=["fem-200", "spdc", "random-100"])
    def test_spectrum_at_the_bound_passes(self, A):
        # gamma0 = lambda_max puts an eigenvalue of B at 1, where the
        # recurrence's rounding grows fastest
        probes = np.array([signs(A.dim, 30 + i) for i in range(4)])
        for n in (1, 14, 100, 400):
            forms = quadratic_form(A, probes, coefficients(n, 1.0), self.lambda_max(A))
            assert np.all(np.isfinite(forms))

    @pytest.mark.parametrize("A, n", [
        (fem_matrix(200), 8), (spdc_density_matrix(SpdcParams()), 14),
        (random_psd(100, 0, np.linspace(0.0, 1.0, 100)), 14),
    ], ids=["fem-200", "spdc", "random-100"])
    def test_escape_names_its_moment(self, A, n):
        # gamma0 = 0.9 lambda_max: four probes show it by degree n
        probes = np.array([signs(A.dim, 30 + i) for i in range(4)])
        exp = coefficients(n, 1.0)
        gamma0 = 0.9 * self.lambda_max(A)
        with pytest.raises(SpectrumEscape) as err:
            quadratic_form(A, probes, exp, gamma0)
        k, ratio = (float(x) for x in re.fullmatch(
            r"probe moment \|mu_(\d+)\| = (\S+) m exceeds mu_0 = m", str(err.value)).groups())
        assert 1 <= k <= n and ratio > 1.0
        # the first refused row names the moment, so a lone probe gives the
        # same message if it is the block's first escape
        for v in probes:
            try:
                assert math.isfinite(quadratic_form(A, v, exp, gamma0))
            except SpectrumEscape as lone:
                assert str(lone) == str(err.value)
                break
        else:
            pytest.fail("no lone probe escaped")

    def test_nan_moments_are_left_to_the_caller(self):
        # moments that overflow into nan make a non-finite form, not a refusal
        form = quadratic_form(fem_matrix(10), signs(10, 0), coefficients(30, 1.0), 1e-30)
        assert not math.isfinite(form)


class TestValidation:
    def test_rejects_non_sign_vectors(self):
        A = random_psd(4, 0, np.ones(4))
        exp = coefficients(2, 1.0)
        with pytest.raises(ValueError):
            quadratic_form(A, np.array([1.0, 1.0, 1.0, 0.5]), exp, 1.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, 2.0, -2.0])
    def test_rejects_each_entry_that_is_not_a_sign(self, bad):
        # in a lone vector and in any row of a block
        A = fem_matrix(6)
        exp = coefficients(2, 1.0)
        probes = np.array([signs(6, 1), signs(6, 2)])
        for row in (None, 0, 1):
            v = probes[0].copy() if row is None else probes.copy()
            v[..., 3] = bad
            if row is not None:
                v[1 - row, 3] = 1.0
            with pytest.raises(ValueError, match=r"^probe vector entries must be \+-1$"):
                quadratic_form(A, v, exp, 4.3)

    def test_rejects_nonpositive_gamma(self):
        A = random_psd(4, 0, np.ones(4))
        exp = coefficients(2, 1.0)
        with pytest.raises(ValueError):
            quadratic_form(A, signs(4, 0), exp, 0.0)

    def test_rejects_degree_zero(self):
        A = random_psd(4, 0, np.ones(4))
        exp = coefficients(0, 1.0)
        with pytest.raises(ValueError):
            quadratic_form(A, signs(4, 0), exp, 1.0)

    def test_rejects_dimension_mismatch(self):
        A = random_psd(4, 0, np.ones(4))
        exp = coefficients(2, 1.0)
        with pytest.raises(ValueError):
            quadratic_form(A, signs(5, 0), exp, 1.0)
