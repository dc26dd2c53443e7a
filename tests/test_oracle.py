"""Dense ground-truth route: eigendecomposition and exact entropies."""

import inspect
import math

import numpy as np
import pytest

from entrace.generators import fem_matrix, random_psd
from entrace.oracle import (
    DENSE_CAP,
    Spectrum,
    dense_spectrum,
    exact_entropy,
    fem_exact_entropy,
)
from entrace.sparse import SymmetricSparseMatrix


class TestJacobiRoute:
    def test_two_by_two_exact(self):
        A = SymmetricSparseMatrix.from_dense(np.array([[2.0, -1.0], [-1.0, 2.0]]))
        lam = dense_spectrum(A).eigenvalues
        np.testing.assert_allclose(lam, [1.0, 3.0], rtol=1e-14)

    def test_diagonal_matrix_sorted(self):
        d = np.array([3.0, 1.0, 2.0, 0.0])
        A = SymmetricSparseMatrix.from_dense(np.diag(d))
        np.testing.assert_allclose(dense_spectrum(A).eigenvalues, np.sort(d), atol=1e-15)

    def test_eigenvalue_sum_is_trace(self):
        for m, seed in ((10, 0), (50, 1), (120, 2)):
            A = random_psd(m, seed, np.random.default_rng(seed).uniform(0.0, 2.0, m))
            lam = dense_spectrum(A).eigenvalues
            assert float(np.sum(lam)) == pytest.approx(A.trace(), rel=1e-8)

    def test_matches_numpy_eigenvalues(self):
        A = random_psd(60, 3, np.random.default_rng(3).uniform(0.0, 1.0, 60))
        lam = dense_spectrum(A).eigenvalues
        ref = np.linalg.eigvalsh(A.to_dense())
        np.testing.assert_allclose(lam, ref, atol=1e-11)

    def test_recovers_constructed_spectrum(self):
        # random_psd rotates diag(spectrum), so its eigenvalues are known
        # without any eigensolver
        spectrum = np.random.default_rng(3).uniform(0.0, 1.0, 60)
        lam = dense_spectrum(random_psd(60, 3, spectrum)).eigenvalues
        np.testing.assert_allclose(lam, np.sort(spectrum), rtol=0.0, atol=1e-13)

    def test_cap_refuses_large(self):
        # DENSE_CAP is the one limit: no parameter lifts it
        A = SymmetricSparseMatrix(DENSE_CAP + 1, [], [], [])
        with pytest.raises(ValueError, match="stochastic estimator"):
            dense_spectrum(A)
        assert list(inspect.signature(dense_spectrum).parameters) == ["A"]


class TestExactEntropy:
    def test_uniform_spectrum_gives_log_m(self):
        m = 16
        lam = np.full(m, 1.0 / m)
        assert exact_entropy(Spectrum(eigenvalues=lam)) == pytest.approx(math.log(m),
                                                                         abs=1e-13)

    def test_pure_state_zero(self):
        value = exact_entropy(Spectrum(eigenvalues=np.array([0.0, 0.0, 1.0])))
        # +0.0, not the -0.0 that negating a zero sum gives
        assert value == 0.0 and math.copysign(1.0, value) == 1.0

    def test_clamps_rounding_negatives(self):
        lam = np.array([-1e-12, 0.5, 1.0])
        assert exact_entropy(Spectrum(eigenvalues=lam)) == pytest.approx(
            -(0.5 * math.log(0.5)), rel=1e-13)

    def test_rejects_truly_negative(self):
        with pytest.raises(ValueError, match="not PSD"):
            exact_entropy(Spectrum(eigenvalues=np.array([-1e-3, 1.0])))

    def test_spectrum_must_be_sorted(self):
        with pytest.raises(ValueError):
            Spectrum(eigenvalues=np.array([2.0, 1.0]))


class TestFemClosedForm:
    def test_matches_explicit_eigenvalues_m10(self):
        m = 10
        i = np.arange(1, m + 1)
        lam = 4.0 * np.sin(i * math.pi / (2 * m + 2)) ** 2
        expect = float(-np.sum(lam * np.log(lam)))
        assert fem_exact_entropy(m) == pytest.approx(expect, abs=1e-10)

    def test_matches_dense_route(self):
        for m in (2, 10, 50, 200):
            A = fem_matrix(m)
            dense = exact_entropy(dense_spectrum(A))
            assert dense == pytest.approx(fem_exact_entropy(m), rel=1e-8), m

    def test_small_values(self):
        # m = 1: single eigenvalue 4 sin^2(pi/4) = 2
        assert fem_exact_entropy(1) == pytest.approx(-2.0 * math.log(2.0), rel=1e-14)

    def test_validation(self):
        with pytest.raises(ValueError):
            fem_exact_entropy(0)
