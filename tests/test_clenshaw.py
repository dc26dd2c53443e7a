"""Forward Chebyshev moments for probe quadratic forms."""

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
from support import dense_quadratic_form


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

    def test_partial_block_builds_its_layout_once(self, monkeypatch):
        # a block narrower than the block width needs a layout of its own,
        # built once per form and not once per product
        import entrace.sparse as sparse

        A = random_psd(200, 3, np.random.default_rng(3).uniform(0.0, 1.0, 200))
        assert A.block_width == 3
        exp = coefficients(9, 1.0)
        probes = np.array([signs(200, 7), signs(200, 8)])
        single = [quadratic_form(A, v, exp, 1.3) for v in probes]
        calls = []
        inner = sparse._block_layout

        def counting(*args):
            calls.append(1)
            return inner(*args)

        monkeypatch.setattr(sparse, "_block_layout", counting)
        forms = quadratic_form(A, probes, exp, 1.3)
        assert len(calls) <= 1
        assert forms.tobytes() == np.array(single).tobytes()


class TestDeterminism:
    def test_same_probe_twice_identical(self):
        A = random_psd(15, 9, np.linspace(0.0, 1.0, 15))
        exp = coefficients(8, 1.0)
        v = signs(15, 1)
        assert quadratic_form(A, v, exp, 1.0) == quadratic_form(A, v, exp, 1.0)

    @pytest.mark.parametrize("A", [
        fem_matrix(60),
        # rows longer than one einsum buffer, at block width 2
        fem_matrix(20000),
        spdc_density_matrix(SpdcParams()),
        random_psd(200, 1, np.random.default_rng(1).uniform(0.0, 1.0, 200)),
    ], ids=["fem-60", "fem-20000", "spdc", "random-200"])
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
            "# a block of 3 on the width-2 fem(20000), which is stored by diagonal\n"
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
