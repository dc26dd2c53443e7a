"""Closed-form expansion of x*log(x): coefficients, evaluation, bounds."""

import math

import numpy as np
import pytest

from entrace.chebyshev import (
    ChebyshevExpansion,
    INV_E,
    coefficients,
    entropy_function,
    evaluate_scalar,
    spread_function,
    truncation_error_bound,
)
from support import coeff_quadrature, poly_eval_cosine


class TestEntropyFunction:
    def test_known_values(self):
        assert entropy_function(0.0) == 0.0
        assert entropy_function(1.0) == 0.0
        assert entropy_function(math.e) == math.e
        assert abs(entropy_function(INV_E) + INV_E) < 1e-15

    def test_vectorized(self):
        x = np.array([0.0, 0.5, 1.0, 2.0])
        out = entropy_function(x)
        np.testing.assert_allclose(out, [0.0, 0.5 * math.log(0.5), 0.0, 2.0 * math.log(2.0)])

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            entropy_function(-1e-9)


class TestCoefficients:
    def test_closed_form_x0_4(self):
        # at x0 = 4 the leading logs vanish and everything is rational
        exp = coefficients(3, 4.0)
        np.testing.assert_allclose(exp.coeffs, [4.0, 3.0, 2.0 / 3.0, -1.0 / 6.0], rtol=1e-15)

    def test_against_quadrature(self):
        for x0 in (0.5, 1.0, 3.0):
            exp = coefficients(12, x0)
            for k in range(13):
                ref = coeff_quadrature(k, x0)
                assert abs(exp.coeffs[k] - ref) < 1e-10, (x0, k)

    def test_linear_in_x0(self):
        # every coefficient carries x0 as a pure prefactor except the log terms
        a1 = coefficients(8, 1.0).coeffs
        a2 = coefficients(8, 2.0).coeffs
        # k >= 2 terms have no log, so they scale exactly
        np.testing.assert_allclose(a2[2:], 2.0 * a1[2:], rtol=1e-15)

    def test_sign_alternation_beyond_one(self):
        a = coefficients(10, 1.0).coeffs
        for k in range(2, 11):
            assert math.copysign(1.0, a[k]) == (-1.0) ** k

    def test_validation(self):
        with pytest.raises(ValueError):
            coefficients(-1, 1.0)
        with pytest.raises(ValueError):
            coefficients(3, 0.0)
        with pytest.raises(ValueError):
            ChebyshevExpansion(3, 1.0, np.zeros(3))  # wrong length


class TestEvaluation:
    def test_matches_cosine_series(self):
        exp = coefficients(9, 3.0)
        x = np.linspace(0.0, 3.0, 501)
        np.testing.assert_allclose(evaluate_scalar(exp, x), poly_eval_cosine(exp, x),
                                   rtol=0, atol=1e-12)

    def test_within_truncation_bound(self):
        for n in (1, 2, 5, 20):
            for x0 in (0.5, 1.0, 3.0):
                exp = coefficients(n, x0)
                x = np.linspace(0.0, x0, 2001)
                err = np.max(np.abs(evaluate_scalar(exp, x) - entropy_function(x)))
                assert err <= truncation_error_bound(n, x0) + 1e-12

    def test_domain_enforced(self):
        exp = coefficients(3, 1.0)
        with pytest.raises(ValueError):
            evaluate_scalar(exp, -0.1)
        with pytest.raises(ValueError):
            evaluate_scalar(exp, 1.1)

    def test_endpoint_values(self):
        exp = coefficients(4, 2.0)
        # scalar in, scalar out
        assert isinstance(evaluate_scalar(exp, 1.0), float)


class TestTruncationBound:
    def test_formula(self):
        assert truncation_error_bound(2, 1.0) == 1.0 / 12.0
        assert truncation_error_bound(3, 4.0) == 4.0 / 24.0

    def test_monotone_in_degree(self):
        vals = [truncation_error_bound(n, 1.0) for n in range(1, 30)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_nearly_attained(self):
        # the bound is attained at x = 0, which the grid includes
        n, x0 = 6, 1.0
        exp = coefficients(n, x0)
        x = np.linspace(0.0, x0, 200001)
        err = np.max(np.abs(evaluate_scalar(exp, x) - entropy_function(x)))
        assert err > 0.9 * truncation_error_bound(n, x0)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 14, 32])
    @pytest.mark.parametrize("x0", [0.37, 1.0, 4.0])
    def test_attained_at_zero(self, n, x0):
        # p_n(0) - L(0) = -x0 / (2 n (n+1)) exactly; the right endpoint
        # stays well inside the bound
        exp = coefficients(n, x0)
        bound = truncation_error_bound(n, x0)
        assert evaluate_scalar(exp, 0.0) == pytest.approx(-bound, rel=1e-12)
        assert abs(evaluate_scalar(exp, x0) - entropy_function(x0)) < 0.6 * bound


class TestSpread:
    def test_value_at_one(self):
        assert abs(spread_function(1.0) - INV_E) < 1e-15

    def test_regimes(self):
        # below 1/e the function is monotone there, so the width is -log(x0)
        assert abs(spread_function(0.1) - (-math.log(0.1))) < 1e-12
        # above 1, both the interior minimum and the right endpoint contribute
        x0 = 2.0
        expected = (entropy_function(2.0) + INV_E) / 2.0
        assert abs(spread_function(x0) - expected) < 1e-15
