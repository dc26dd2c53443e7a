"""Forward Chebyshev moments for probe quadratic forms."""

import functools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import entrace
from entrace.chebyshev import coefficients, evaluate_scalar
from entrace.clenshaw import quadratic_form
from entrace.generators import SpdcParams, fem_matrix, random_psd, spdc_density_matrix
from entrace.sparse import SymmetricSparseMatrix, gershgorin_upper_bound
from support import dense_quadratic_form, random_symmetric, wide_band


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
        # built with the matrix, and a partial block is padded to a full one
        import entrace.sparse as sparse

        A, _ = random_symmetric(280, 3)
        assert A.block_width == 3 and A._strips is None
        exp = coefficients(9, 1.0)
        probes = np.array([signs(280, seed) for seed in (7, 8, 9)])
        single = np.array([quadratic_form(A, v, exp, 1.3) for v in probes])
        calls = []
        inner = sparse._block_layout

        def counting(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(sparse, "_block_layout", counting)
        for b in (3, 2):
            forms = quadratic_form(A, probes[:b], exp, 1.3)
            assert forms.tobytes() == single[:b].tobytes()
        assert calls == []


class TestTiles:
    """Each step finishes its product one row tile at a time, with the same bits."""

    @pytest.mark.parametrize("build", [
        *(functools.partial(fem_matrix, dim) for dim in (1, 7, 8, 9, 29)),
        functools.partial(wide_band, 100, 12),
        functools.partial(random_psd, 21, 3, np.random.default_rng(3).uniform(0.0, 1.0, 21)),
    ], ids=["fem-1", "fem-7", "fem-8", "fem-9", "fem-29", "offsets-12", "columns-21"])
    def test_forms_match_one_tile(self, monkeypatch, build):
        # tiles of 8 rows at block width 1 against the whole matrix as one tile
        import entrace.sparse as sparse

        whole = build()
        assert len(whole._tiles) == 1
        with monkeypatch.context() as patch:
            patch.setattr(sparse, "BLOCK_BYTES", 2**8)
            tiled = build()
        assert len(tiled._tiles) == -(-whole.dim // 8)
        gamma0 = 1.075 * gershgorin_upper_bound(whole).lambda_max_upper
        probes = np.array([signs(whole.dim, 70 + i) for i in range(3)])
        for n in (1, 2, 9):
            exp = coefficients(n, 1.0)
            for b in (1, 2, 3):
                want = quadratic_form(whole, probes[:b], exp, gamma0)
                assert quadratic_form(tiled, probes[:b], exp, gamma0).tobytes() == want.tobytes()


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
        random_symmetric(280, 3)[0],
    ], ids=["fem-60", "fem-20000", "spdc", "random-200", "gathered-280"])
    def test_block_forms_match_single_forms(self, A):
        width = A.block_width
        # a widened bound, so that no moment is a sum of dyadic rationals,
        # which any summation order gets exactly
        gamma0 = 1.075 * gershgorin_upper_bound(A).lambda_max_upper
        probes = np.array([signs(A.dim, 50 + i) for i in range(min(2 * width + 1, 65))])
        for n in (1, 8, 9, 14):
            exp = coefficients(n, 1.0)
            single = np.array([quadratic_form(A, v, exp, gamma0) for v in probes])
            for b in sorted({2, 3, 7, width}):
                blocks = [quadratic_form(A, probes[s:s + b], exp, gamma0)
                          for s in range(0, len(probes), b)]
                np.testing.assert_array_equal(np.concatenate(blocks), single, err_msg=f"{n} {b}")

    def test_form_does_not_depend_on_blas_threads(self):
        # a threaded BLAS dot product splits its sum by thread count, so no
        # moment may be reduced through BLAS
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


class TestValidation:
    def test_rejects_non_sign_vectors(self):
        A = random_psd(4, 0, np.ones(4))
        exp = coefficients(2, 1.0)
        with pytest.raises(ValueError):
            quadratic_form(A, np.array([1.0, 1.0, 1.0, 0.5]), exp, 1.0)

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
