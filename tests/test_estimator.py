"""Probe sampling, Hoeffding bookkeeping, and the entropy estimators."""

import dataclasses
import functools
import json
import math
import os
import pathlib
import tracemalloc

import numpy as np
import pytest

from entrace.chebyshev import (
    coefficients,
    entropy_function,
    evaluate_scalar,
    truncation_error_bound,
)
from entrace.cli import BOUND_FAILURE_SHARE, RunConfig, _scaling
from entrace.clenshaw import SpectrumEscape, quadratic_form
from entrace.estimator import (
    RademacherSampler,
    ScalingParams,
    colour_count,
    core_count,
    entropy_with_normalization,
    error_tolerance,
    estimate_adaptive,
    estimate_fixed,
    lanczos_interval,
    radau_bounds,
    sample_count,
)
from entrace.generators import SpdcParams, fem_matrix, random_psd, spdc_density_matrix
from entrace.oracle import dense_spectrum, exact_entropy, fem_exact_entropy
from entrace.sparse import (
    SpectralBound,
    SymmetricSparseMatrix,
    gershgorin_upper_bound,
    lanczos_upper_bound,
)
from support import (all_sign_vectors, dense_poly_trace, dominant_band, indefinite, layout,
                     scattered_psd, wide_band)


def identity(m, c=1.0):
    return SymmetricSparseMatrix.from_dense(c * np.eye(m))


class TestSampler:
    def test_entries_are_signs(self):
        s = RademacherSampler(3)
        for i in (1, 2, 17):
            v = s.sample_vector(40, i)
            assert set(np.unique(v)) <= {-1.0, 1.0}

    def test_deterministic_per_index(self):
        s = RademacherSampler(9)
        np.testing.assert_array_equal(s.sample_vector(64, 5), s.sample_vector(64, 5))
        t = RademacherSampler(9)
        np.testing.assert_array_equal(s.sample_vector(64, 5), t.sample_vector(64, 5))

    def test_distinct_indices_differ(self):
        s = RademacherSampler(0)
        assert not np.array_equal(s.sample_vector(64, 1), s.sample_vector(64, 2))

    def test_pinned_stream(self):
        # regression pin: the (seed, index, m) -> vector map is part of the
        # reproducibility contract, so a silent change of stream must fail.
        # Row 3 at m = 300 reads counter steps 4 and 5 of the Philox stream
        s = RademacherSampler(0)
        np.testing.assert_array_equal(
            s.sample_vector(8, 1), [1.0, -1.0, -1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
        np.testing.assert_array_equal(
            s.sample_vector(8, 2), [-1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0, 1.0])
        np.testing.assert_array_equal(
            s.sample_vector(300, 3)[-8:], [-1.0, 1.0, 1.0, -1.0, 1.0, 1.0, 1.0, -1.0])

    def test_start_vector_is_pinned_and_gaussian(self):
        # the Lanczos start vector: Box-Muller pairs from the seed sequence's
        # first child, pinned bit for bit, a prefix of any longer vector,
        # and standard normal in its first two moments
        v = RademacherSampler(0).start_vector(5)
        assert [x.hex() for x in v] == [
            "0x1.93517e4f5be7cp+0", "0x1.138fd698b7640p-2", "0x1.c014fa233960dp-2",
            "-0x1.d4e12951a3396p-1", "0x1.23b9f6ef1493cp-3"]
        w = RademacherSampler(0).start_vector(10001)
        assert w.shape == (10001,) and w[:5].tobytes() == v.tobytes()
        assert abs(w.mean()) < 0.03 and abs(w.var() - 1.0) < 0.05
        assert not np.array_equal(RademacherSampler(1).start_vector(5), v)

    @pytest.mark.parametrize("m", [1, 63, 64, 65, 256, 257, 1000])
    def test_block_split_does_not_change_rows(self, m):
        s = RademacherSampler(4)
        whole = s.sample_vector(m, 3, 10)
        assert whole.shape == (10, m)
        np.testing.assert_array_equal(
            whole, np.concatenate([s.sample_vector(m, 3, 4), s.sample_vector(m, 7, 6)]))
        for k, row in enumerate(whole):
            np.testing.assert_array_equal(s.sample_vector(m, 3 + k), row)
        np.testing.assert_array_equal(s.sample_vector(m, 5, 1), whole[2:3])

    @pytest.mark.parametrize("m", [1, 257])
    def test_out_receives_the_rows(self, m):
        s = RademacherSampler(4)
        space = np.full((5, m), np.nan)
        got = s.sample_vector(m, 3, 4, out=space[:4])
        assert got.base is space and got.tobytes() == s.sample_vector(m, 3, 4).tobytes()
        assert np.isnan(space[4]).all()
        assert s.sample_vector(m, 6, out=space[4]).tobytes() == s.sample_vector(m, 6).tobytes()
        assert space[4].tobytes() == s.sample_vector(m, 6).tobytes()
        with pytest.raises(ValueError, match="out shape"):
            s.sample_vector(m, 3, 4, out=space)

    def test_seed_beyond_the_key_size(self):
        v = RademacherSampler(2**128 + 5).sample_vector(70, 1, 2)
        assert v.shape == (2, 70) and set(np.unique(v)) <= {-1.0, 1.0}
        assert not np.array_equal(v, RademacherSampler(5).sample_vector(70, 1, 2))

    def test_mean_form_matches_dense_trace(self):
        A = random_psd(12, 3, np.linspace(0.0, 1.0, 12))
        exp = coefficients(6, 1.0)
        forms = quadratic_form(A, RademacherSampler(11).sample_vector(12, 1, 2000), exp, 1.1)
        stderr = float(np.std(forms)) / math.sqrt(forms.size)
        assert abs(float(np.mean(forms)) - dense_poly_trace(A, exp, 1.1)) < 4.0 * stderr

    def test_empirical_mean_near_zero(self):
        s = RademacherSampler(1)
        total = 0.0
        for i in range(1, 1001):
            total += float(np.sum(s.sample_vector(1000, i)))
        assert abs(total / (1000 * 1000)) < 0.01

    @pytest.mark.parametrize("seed", [0, 7, 2**70])
    def test_stream_is_keyed_by_the_seed_sequence(self, seed):
        # the key is the seed sequence's first two 64-bit words, so rows are
        # those of a stream given that key explicitly
        key = np.random.SeedSequence(seed).generate_state(2, np.uint64)
        stream = np.random.Philox(key=key)
        stream.advance(2 * 4)
        bits = np.unpackbits(stream.random_raw(3 * 4 * 4).astype("<u8").view(np.uint8)
                             .reshape(3, -1), axis=1, count=1000, bitorder="little")
        got = RademacherSampler(seed).sample_vector(1000, 3, 3)
        assert got.tobytes() == (2.0 * bits - 1.0).tobytes()

    def test_threads_share_one_sampler(self):
        # eight threads on two cores draw interleaved rows of one sampler,
        # and each row is the one a lone caller draws
        from concurrent.futures import ThreadPoolExecutor

        s = RademacherSampler(12)
        want = [RademacherSampler(12).sample_vector(300, i) for i in range(1, 401)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            rows = list(pool.map(lambda i: s.sample_vector(300, i), range(1, 401), timeout=60))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(rows, want))

    def test_seed_validation(self):
        with pytest.raises(ValueError):
            RademacherSampler(-1)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            RademacherSampler(0).sample_vector(4, 1, 0)


class TestSampleCount:
    def test_floor_delta_gives_eight(self):
        # zero realized spread: delta at its floor, p = 0.95
        m, n, x0, gamma0 = 10, 3, 1.0, 4.0
        delta = m * x0 * gamma0 / (n * (n + 1))
        assert sample_count(delta, n, 0.95, m, x0, gamma0) == 8
        assert sample_count(delta, n, 0.5, m, x0, gamma0) == 3

    def test_quadratic_in_delta(self):
        # p chosen so log(2/(1-p)) = 2 and the pre-ceiling value is integral
        p = 1.0 - 2.0 * math.exp(-2.0)
        assert sample_count(1.0, 1, p, 2, 1.0, 1.0) == 4
        assert sample_count(2.0, 1, p, 2, 1.0, 1.0) == 16

    def test_minimum_one(self):
        assert sample_count(0.0, 3, 0.95, 10, 1.0, 1.0) == 1

    def test_least_count_whose_hoeffding_half_meets_the_floor(self):
        # at any scale, also where (m x0 gamma0)^2 would underflow or overflow
        rng = np.random.default_rng(12)
        for _ in range(2000):
            n, m = int(rng.integers(1, 60)), int(rng.integers(1, 10**6))
            x0, gamma0 = rng.uniform(0.1, 5.0), 10.0 ** rng.uniform(-150.0, 150.0)
            p = rng.uniform(0.01, 0.999)
            # a scaling that may fail, with half of 1 - p at most
            fail = (1.0 - p) * rng.uniform(0.0, 0.5)
            floor = truncation_error_bound(n, m * x0 * gamma0)
            delta = floor * 10.0 ** rng.uniform(0.0, 2.0)
            want = sample_count(delta, n, p, m, x0, gamma0, fail)
            assert (error_tolerance(delta, n, want, p, m, x0, gamma0, fail)
                    <= 2.0 * floor * (1 + 1e-12))
            if want > 1:
                assert error_tolerance(delta, n, want - 1, p, m, x0, gamma0, fail) > 2.0 * floor

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_count(1.0, 3, 1.0, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            sample_count(-1.0, 3, 0.5, 10, 1.0, 1.0)
        with pytest.raises(ValueError):
            sample_count(1.0, 0, 0.5, 10, 1.0, 1.0)


    @pytest.mark.parametrize("delta", [1e200, math.inf, math.nan])
    def test_count_beyond_float_range_names_the_interval(self, delta):
        # a range that no spectrum inside [0, x0 gamma0] gives: a ValueError,
        # not an OverflowError
        with pytest.raises(ValueError, match=r"not inside \[0, x0 \* gamma0\] = \[0, 2\.5\]"):
            sample_count(delta, 8, 0.95, 10, 0.5, 5.0)


class TestErrorTolerance:
    def test_reference_case(self):
        # delta=12, n=2, N=21, p=0.95, m=10, x0=1, gamma0=4:
        # first addend 40/12, second 12 sqrt(log(40)/42)
        tau = error_tolerance(12.0, 2, 21, 0.95, 10, 1.0, 4.0)
        expect = 40.0 / 12.0 + 12.0 * math.sqrt(math.log(40.0) / 42.0)
        assert tau == pytest.approx(expect, rel=1e-14)
        assert tau == pytest.approx(6.8900, abs=5e-4)

    def test_large_sample_limit(self):
        tau = error_tolerance(12.0, 2, 10 ** 14, 0.95, 10, 1.0, 4.0)
        assert tau == pytest.approx(40.0 / 12.0, rel=1e-6)

    def test_addends_balance_at_preceiling_count(self):
        # with N at the exact (un-ceiled) Eq-level count, both addends equal
        delta, n, p, m, x0, gamma0 = 7.3, 4, 0.9, 12, 1.0, 2.5
        pre = (2.0 * (n * (n + 1)) ** 2 * delta ** 2 * math.log(2.0 / (1.0 - p))
               / (m * x0 * gamma0) ** 2)
        floor = m * x0 * gamma0 / (2.0 * n * (n + 1))
        tau = error_tolerance(delta, n, pre, p, m, x0, gamma0)
        assert tau == pytest.approx(2.0 * floor, rel=1e-13)

    def test_failure_is_charged_to_the_confidence(self):
        # the Hoeffding term at (1 - p) - failure, so that with the scaling's
        # failure probability tau holds with probability p; no failure
        # leaves the bits of the plain term
        floor = 40.0 / 12.0
        for fail in (0.0, 5e-5, 0.025):
            tau = error_tolerance(12.0, 2, 21, 0.95, 10, 1.0, 4.0, fail)
            expect = floor + 12.0 * math.sqrt(math.log(2.0 / ((1.0 - 0.95) - fail)) / 42.0)
            assert tau == expect
            assert sample_count(12.0, 2, 0.95, 10, 1.0, 4.0, fail) == math.ceil(
                (12.0 / floor) ** 2 * math.log(2.0 / ((1.0 - 0.95) - fail)) / 2.0)
        assert (error_tolerance(12.0, 2, 21, 0.95, 10, 1.0, 4.0, 0.0)
                == error_tolerance(12.0, 2, 21, 0.95, 10, 1.0, 4.0))
        for fail in (-1e-3, 0.06, 0.5, math.nan):
            with pytest.raises(ValueError, match="failure probability"):
                error_tolerance(12.0, 2, 21, 0.95, 10, 1.0, 4.0, fail)
            with pytest.raises(ValueError, match="failure probability"):
                sample_count(12.0, 2, 0.95, 10, 1.0, 4.0, fail)

    def test_validation(self):
        with pytest.raises(ValueError):
            error_tolerance(1.0, 2, 0, 0.95, 10, 1.0, 4.0)
        with pytest.raises(ValueError):
            error_tolerance(1.0, 2, 5, 0.0, 10, 1.0, 4.0)


class TestScalingParams:
    def test_from_bound(self):
        sp = ScalingParams.from_bound(gershgorin_upper_bound(fem_matrix(10)))
        assert sp.x0 == 1.0 and sp.gamma0 == 4.0 and sp.provenance == "gershgorin"

    def test_from_bound_rejects_zero(self):
        A = SymmetricSparseMatrix(2, [], [], [])
        with pytest.raises(ValueError):
            ScalingParams.from_bound(gershgorin_upper_bound(A))

    def test_for_matrix(self):
        fem = fem_matrix(10)
        bound = gershgorin_upper_bound(fem)
        assert ScalingParams.for_matrix(bound, fem.trace()) == ScalingParams.from_bound(bound)
        # normalized: the bound of A / tr(A)
        sp = ScalingParams.for_matrix(bound, 20.0, normalize=True)
        assert sp == ScalingParams(x0=1.0, gamma0=4.0 / 20.0, provenance="gershgorin")
        user = ScalingParams.for_matrix(SpectralBound(3.0, "user"), 1.0)
        assert user.provenance == "user" and user.gamma0 == 3.0
        # a bound that may fail hands its failure probability on
        lanczos = ScalingParams.for_matrix(SpectralBound(2.0, "lanczos", failure=5e-5), 4.0,
                                           normalize=True)
        assert lanczos == ScalingParams(x0=1.0, gamma0=0.5, provenance="lanczos", failure=5e-5)
        assert bound.failure == 0.0 and sp.failure == 0.0

    def test_for_matrix_zero_bound(self):
        # a zero matrix gets gamma0 = 1, which its estimate never reads; a
        # zero bound with a nonzero trace, or a negative trace to normalize
        # by, is a matrix that is not PSD
        zero = SpectralBound(0.0, "gershgorin")
        for normalize in (False, True):
            sp = ScalingParams.for_matrix(zero, 0.0, normalize=normalize)
            assert sp == ScalingParams(x0=1.0, gamma0=1.0, provenance="gershgorin")
        for bound, trace, normalize in ((zero, 1.0, False), (zero, -1.0, True),
                                        (SpectralBound(1.0, "gershgorin"), -2.0, True)):
            with pytest.raises(ValueError, match="^spectral bound is zero but the trace is "
                                                 "not; matrix is not PSD$"):
                ScalingParams.for_matrix(bound, trace, normalize=normalize)

    def test_validation(self):
        with pytest.raises(ValueError):
            ScalingParams(x0=0.0, gamma0=1.0, provenance="user")
        with pytest.raises(ValueError):
            ScalingParams(x0=1.0, gamma0=1.0, provenance="unknown")
        with pytest.raises(ValueError):
            ScalingParams(x0=1.0, gamma0=1.0, provenance="lanczos", failure=1.0)


class TestIntervalSplit:
    """A run depends on x0 only through x0 * gamma0, which is why the CLI
    has no --x0 and fixes x0 = 1."""

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("family", ["fem", "random"])
    def test_x0_moves_no_estimate(self, family, normalize):
        if family == "fem":
            A = fem_matrix(1000)
        else:
            A = random_psd(200, 1, np.random.default_rng(1).uniform(0.0, 1.0, 200))
        # without its bound, so that fem samples, as the scalings at other x0 do
        base = dataclasses.replace(ScalingParams.for_matrix(
            gershgorin_upper_bound(A), A.trace(), normalize=normalize), bound=None)

        def runs(sp):
            return (estimate_adaptive(A, 6, 0.95, sp, RademacherSampler(1),
                                      normalize=normalize),
                    estimate_fixed(A, 6, 16, sp, RademacherSampler(1), normalize=normalize))

        want = runs(base)
        for x0 in (0.5, 3.0, 7.0):
            sp = ScalingParams(x0, base.gamma0 / x0, base.provenance)
            for got, ref in zip(runs(sp), want):
                assert got.samples_used == ref.samples_used, x0
                assert got.value == pytest.approx(ref.value, rel=1e-12, abs=0.0), x0
                assert got.tau == pytest.approx(ref.tau, rel=1e-12, abs=0.0), x0


class TestEstimateFixed:
    def test_identity_matrix(self):
        m, n = 9, 3
        A = identity(m)
        sp = ScalingParams(x0=1.0, gamma0=1.0, provenance="user")
        est = estimate_fixed(A, n, 5, sp, RademacherSampler(0))
        # every probe form equals m p_n(1); entropy of I is 0
        assert est.value == pytest.approx(-m * evaluate_scalar(coefficients(n, 1.0), 1.0),
                                          rel=1e-12)
        assert abs(est.value) <= m * truncation_error_bound(n, 1.0) + 1e-12
        assert est.xi_min == pytest.approx(est.xi_max, rel=1e-13)

    def test_maximally_mixed_state(self):
        m, n = 16, 6
        A = identity(m, 1.0 / m)
        sp = ScalingParams(x0=1.0, gamma0=1.0 / m, provenance="user")
        est = estimate_fixed(A, n, 3, sp, RademacherSampler(1))
        assert est.value == pytest.approx(math.log(m), abs=truncation_error_bound(n, 1.0)
                                          + 1e-12)

    def test_mean_over_seeds_hits_reference_row(self):
        # tridiagonal m=10 at degree 2, 21 probes: the averaged estimate over
        # 100 seeds lands within 1.5% of the exact -19.232
        A = fem_matrix(10)
        # Gershgorin's gamma0 as a user scaling, which samples
        sp = ScalingParams(1.0, 4.0, "user")
        vals = [estimate_fixed(A, 2, 21, sp, RademacherSampler(s)).value
                for s in range(100)]
        mean = sum(vals) / len(vals)
        exact = fem_exact_entropy(10)
        assert abs(mean - exact) / abs(exact) < 0.015

    def test_metadata_invariants(self):
        A = fem_matrix(30)
        sp = ScalingParams(1.0, 4.0, "user")
        est = estimate_fixed(A, 3, 12, sp, RademacherSampler(5))
        m, n = 30, 3
        floor = m * sp.x0 * sp.gamma0 / (n * (n + 1))
        assert est.delta >= floor
        assert est.tau >= floor / 2.0
        assert est.xi_min <= est.xi_max
        assert est.samples_used == 12
        assert est.trace == A.trace()
        assert not est.capped and not est.zero_trace

    def test_zero_matrix_short_circuit(self):
        A = SymmetricSparseMatrix(6, [], [], [])
        sp = ScalingParams(x0=1.0, gamma0=1.0, provenance="user")
        est = estimate_fixed(A, 3, 10, sp, RademacherSampler(0))
        assert est.value == 0.0 and est.samples_used == 0 and est.zero_trace

    def test_determinism_bitwise(self):
        A = fem_matrix(40)
        sp = ScalingParams(1.0, 4.0, "user")
        a = estimate_fixed(A, 4, 9, sp, RademacherSampler(2))
        b = estimate_fixed(A, 4, 9, sp, RademacherSampler(2))
        assert a == b
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    def test_thread_count_does_not_change_bits(self):
        # gathered at width 3: 16 probes make six blocks, the last of them
        # partial; on the width-2 fem(8000), stored by diagonal, eight full
        # blocks and a partial one, with a bound widened so that no moment is
        # exact; stored by column at width 81, two full blocks and a partial
        # one
        A = scattered_psd(280, 3)
        assert A.block_width == 3 and layout(A) == "gather"
        fem = fem_matrix(8000)
        assert fem.block_width == 2 and layout(fem) == "diagonals"
        dense = random_psd(200, 3, np.random.default_rng(3).uniform(0.0, 1.0, 200))
        assert dense.block_width == 81 and layout(dense) == "columns"
        for A, num, sp in ((A, 16, ScalingParams.from_bound(gershgorin_upper_bound(A))),
                           (fem, 17, ScalingParams(x0=1.0, gamma0=4.3)),
                           (dense, 170, ScalingParams.from_bound(gershgorin_upper_bound(dense)))):
            serial = estimate_fixed(A, 3, num, sp, RademacherSampler(3), threads=1)
            for k in (2, 4):
                assert estimate_fixed(A, 3, num, sp, RademacherSampler(3), threads=k) == serial

    @pytest.mark.parametrize("threads, most", [(1, 2.0), (2, 4.0)])
    def test_peak_memory_per_worker(self, threads, most):
        # traced peak of a run on fem(2 * 10^5), at block width 1, in vectors
        # of 8 m bytes: each worker's probe array, reused for every block,
        # its bits and sign check, and the tiled kernel's buffers of one tile
        # of 2^15 rows, 1.7 and 3.3 in all. A work array for t_1 beside each
        # probe array, as forms on whole vectors once held, took it to 2.3
        # and 4.7
        m = 2 * 10**5
        A, sp = fem_matrix(m), ScalingParams(x0=1.0, gamma0=4.3)
        assert A.block_width == 1
        want = estimate_fixed(A, 8, 8, sp, RademacherSampler(0), threads=threads)
        tracemalloc.start()
        try:
            got = estimate_fixed(A, 8, 8, sp, RademacherSampler(0), threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak / (8 * m) <= most

    @pytest.mark.parametrize("threads, most", [(1, 4.5), (2, 9.0)])
    def test_peak_memory_per_worker_by_column(self, threads, most):
        # traced peak of a run on a dense matrix stored by column, at block
        # width 16, in (b, dim) arrays: each worker's probe array and the
        # tiled kernel's one tile of all rows, three buffers, 4.1 and 8.3 in
        # all. Forms on whole vectors, with a work array beside each probe
        # array, took 3.1 and 6.2
        m = 1000
        A = random_psd(m, 0, np.linspace(0.0, 1.0, m))
        sp = ScalingParams(x0=1.0, gamma0=1.1)
        assert layout(A) == "columns" and A.block_width == 16
        want = estimate_fixed(A, 8, 64, sp, RademacherSampler(0), threads=threads)
        tracemalloc.start()
        try:
            got = estimate_fixed(A, 8, 64, sp, RademacherSampler(0), threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak / (8 * A.block_width * m) <= most

    @pytest.mark.parametrize("threads", [1, 2])
    def test_adaptive_run_holds_one_set_of_workspaces(self, threads):
        # the workspaces belong to the run, not to a batch: an adaptive run
        # on fem(2 * 10^5) that draws its probes in several batches peaks no
        # higher, traced, than a fixed run of the same count in one batch.
        # Each run at this worker count equals the one-worker run, which is
        # the one traced: two workers' transients overlap by chance, and
        # their peaks with them
        m = 2 * 10**5
        A, sp = fem_matrix(m), ScalingParams(x0=1.0, gamma0=4.3)
        peaks = []
        for run in (lambda workers: estimate_adaptive(A, 8, 0.95, sp, RademacherSampler(0),
                                                      threads=workers),
                    lambda workers: estimate_fixed(A, 8, count, sp, RademacherSampler(0),
                                                   threads=workers)):
            want = run(1)
            count = want.samples_used
            assert run(threads) == want
            tracemalloc.start()
            try:
                run(1)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert count > 2
        # within a hundredth of a vector of 8 m bytes: the loop's own objects
        assert peaks[0] <= peaks[1] + 8 * m / 100

    def test_pool_workers_bounded(self, monkeypatch):
        # an absurd thread count never reaches the pool: workers are capped by
        # the blocks in the batch and the core count, and the fake pool
        # starts no thread
        import entrace.estimator as estimator

        seen = []

        class RecordingPool:
            def __init__(self, max_workers):
                seen.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(estimator, "ThreadPoolExecutor", RecordingPool)
        monkeypatch.setattr(estimator, "core_count", lambda: 4)
        A = scattered_psd(280, 3)
        assert A.block_width == 3
        sp = ScalingParams.from_bound(gershgorin_upper_bound(A))
        serial = estimate_fixed(A, 3, 16, sp, RademacherSampler(3), threads=1)
        assert seen == []
        # six blocks, four cores
        assert estimate_fixed(A, 3, 16, sp, RademacherSampler(3), threads=10**6) == serial
        # three blocks
        estimate_fixed(A, 3, 7, sp, RademacherSampler(3), threads=10**6)
        # one block runs without a pool
        estimate_fixed(A, 3, 3, sp, RademacherSampler(3), threads=10**6)
        assert seen == [4, 3]

    def test_memory_does_not_grow_with_the_sample_count(self, monkeypatch):
        # a batch covers BATCH_BLOCKS blocks at most, so a run holds as many
        # forms and pool futures whatever its count: on fem(20000), at block
        # width 1, one batch of every block took 1.7 KB a sample more. The
        # cap moves no bit, fixed or adaptive
        import entrace.estimator as estimator

        A = fem_matrix(20000)
        sp = ScalingParams(1.0, 4.0, "user")
        assert A.block_width == 1
        want = [estimate_fixed(A, 2, num, sp, RademacherSampler(0), threads=2)
                for num in (500, 2000)]
        adaptive = estimate_adaptive(A, 6, 0.95, sp, RademacherSampler(0), threads=2)
        # one block a batch
        monkeypatch.setattr(estimator, "BATCH_BLOCKS", 1)
        assert estimate_adaptive(A, 6, 0.95, sp, RademacherSampler(0), threads=2) == adaptive
        assert adaptive.samples_used > 2
        monkeypatch.setattr(estimator, "BATCH_BLOCKS", 64)
        peaks = []
        for num, est in zip((500, 2000), want):
            tracemalloc.start()
            try:
                assert estimate_fixed(A, 2, num, sp, RademacherSampler(0), threads=2) == est
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # within 1 % of the 1.7 KB a sample that the 1500 more would take
        assert peaks[1] <= peaks[0] + 1500 * 17

    def test_forms_a_batch_holds_are_capped(self, monkeypatch):
        # fem(10) takes 1 638 probe rows a block, so 1024 blocks were 1.7
        # million forms held as floats, and the previous batch stayed held
        # while the next was drawn: at the parent 5.8 MiB traced at N = 10^5
        # and 18.9 at 4 10^5. A batch now holds BATCH_FORMS forms at most,
        # here cut to 4096 so that a short run spans several batches; a user
        # scaling, so that fem samples. The cap moves no bit
        import entrace.estimator as estimator

        A, sp = fem_matrix(10), ScalingParams(1.0, 4.0, "user")
        counts = (10**4, 4 * 10**4)
        want = [estimate_fixed(A, 3, num, sp, RademacherSampler(0), threads=2)
                for num in counts]
        monkeypatch.setattr(estimator, "BATCH_FORMS", 4096)
        peaks = []
        for num, est in zip(counts, want):
            assert estimate_fixed(A, 3, num, sp, RademacherSampler(0), threads=2) == est
            # traced on one worker: two workers' transients overlap by
            # chance, and their peaks with them
            tracemalloc.start()
            try:
                assert estimate_fixed(A, 3, num, sp, RademacherSampler(0), threads=1) == est
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # 30 000 more forms would take about 1.5 MB held as one batch
        assert peaks[1] <= peaks[0] + 2**18


class TestEstimateAdaptive:
    def test_scaled_identity_uses_eight_samples(self):
        A = identity(20, 0.7)
        sp = ScalingParams(x0=1.0, gamma0=0.7, provenance="user")
        est = estimate_adaptive(A, 4, 0.95, sp, RademacherSampler(0))
        assert est.samples_used == 8
        assert not est.capped

    def test_monotone_sample_requirement(self):
        # replay the loop: the recomputed requirement never decreases
        A = fem_matrix(50)
        sp = ScalingParams(1.0, 4.0, "user")
        n, p = 3, 0.95
        sampler = RademacherSampler(0)
        est = estimate_adaptive(A, n, p, sp, sampler)
        exp = coefficients(n, sp.x0)
        floor = 50 * sp.x0 * sp.gamma0 / (n * (n + 1))
        traces = (A.trace(), A.frobenius_squared())
        xi_min, xi_max = math.inf, -math.inf
        requirement = 1
        for i in range(1, est.samples_used + 1):
            xi = quadratic_form(A, sampler.sample_vector(50, i), exp, sp.gamma0, traces)
            xi_min, xi_max = min(xi_min, xi), max(xi_max, xi)
            want = sample_count((xi_max - xi_min) + floor, n, p, 50, sp.x0, sp.gamma0)
            assert max(want, requirement) >= requirement
            requirement = max(want, requirement)
        assert requirement == est.samples_used

    def test_cap_reported_honestly(self):
        # degree 8 would take 38 samples
        A = fem_matrix(100)
        sp = ScalingParams(1.0, 4.0, "user")
        est = estimate_adaptive(A, 8, 0.95, sp, RademacherSampler(0), n_max=10)
        assert est.capped and est.samples_used == 10
        # tau recomputed with the actual sample count, not the wish
        assert est.tau == pytest.approx(
            error_tolerance(est.delta, 8, 10, 0.95, 100, sp.x0, sp.gamma0), rel=1e-14)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_fixed_run_at_adaptive_count_is_bit_identical(self, normalize):
        # a fixed run is the adaptive loop with its count frozen, so at the
        # adaptive run's final N both reduce the same forms in the same order
        m = 40
        A = random_psd(m, 5, np.random.default_rng(5).uniform(0.0, 1.0, m))
        bound = gershgorin_upper_bound(A).lambda_max_upper
        if normalize:
            bound /= A.trace()
        sp = ScalingParams(x0=1.0, gamma0=bound, provenance="user")
        adaptive = estimate_adaptive(A, 5, 0.9, sp, RademacherSampler(7),
                                     normalize=normalize, threads=2)
        assert adaptive.samples_used > 8
        fixed = estimate_fixed(A, 5, adaptive.samples_used, sp, RademacherSampler(7),
                               p=0.9, normalize=normalize)
        for field in ("value", "tau", "delta", "xi_min", "xi_max"):
            assert getattr(fixed, field) == getattr(adaptive, field), field

    def test_rejects_tiny_cap(self):
        A = fem_matrix(10)
        sp = ScalingParams.from_bound(gershgorin_upper_bound(A))
        with pytest.raises(ValueError):
            estimate_adaptive(A, 3, 0.95, sp, RademacherSampler(0), n_max=7)

    def test_determinism_across_threads(self):
        A = fem_matrix(80)
        sp = ScalingParams(1.0, 4.0, "user")
        serial = estimate_adaptive(A, 3, 0.95, sp, RademacherSampler(1), threads=1)
        threaded = estimate_adaptive(A, 3, 0.95, sp, RademacherSampler(1), threads=4)
        assert serial == threaded

    def test_hoeffding_coverage(self):
        # over 200 seeded runs the tau radius must cover the truth at a rate
        # no worse than p - 0.05
        A = fem_matrix(100)
        sp = ScalingParams(1.0, 4.0, "user")
        exact = fem_exact_entropy(100)
        hits = 0
        for seed in range(200):
            est = estimate_adaptive(A, 3, 0.95, sp, RademacherSampler(seed))
            hits += abs(est.value - exact) < est.tau
        assert hits / 200 >= 0.90

    def test_scaling_identity_consistency(self):
        # same entropy whichever valid gamma0 is used, once the polynomial
        # truncation term is below 1e-6; estimates agree within summed radii
        m = 4
        spectrum = np.array([0.02, 0.09, 0.15, 0.2])
        A = random_psd(m, 11, spectrum)
        lam_max = float(spectrum.max())
        n = 2000
        assert m * 1.0 * (10 * lam_max) / (2 * n * (n + 1)) < 1e-6
        results = []
        for mult in (1.0, 2.0, 10.0):
            sp = ScalingParams(x0=1.0, gamma0=mult * lam_max, provenance="user")
            results.append(estimate_adaptive(A, n, 0.95, sp, RademacherSampler(0),
                                             n_max=8))
        for i in range(len(results)):
            for j in range(i + 1, len(results)):
                gap = abs(results[i].value - results[j].value)
                assert gap <= results[i].tau + results[j].tau
        # oracle side: the identity is exact for every scaling
        exact = -float(np.sum(entropy_function(spectrum)))
        for mult in (1.0, 2.0, 10.0):
            g = mult * lam_max
            via_scaled = -g * float(np.sum(entropy_function(spectrum / g))) \
                - math.log(g) * float(np.sum(spectrum))
            assert via_scaled == pytest.approx(exact, rel=1e-12, abs=1e-12)


class TestNormalization:
    def test_scaled_identity_gives_log_m(self):
        m = 12
        for c in (0.3, 1.0, 7.0):
            A = identity(m, c)
            # scaling describes the normalized state A / tr(A) = I/m
            sp = ScalingParams(x0=1.0, gamma0=1.0 / m, provenance="user")
            est = entropy_with_normalization(A, 5, 0.95, sp, RademacherSampler(0))
            assert est.value == pytest.approx(math.log(m),
                                              abs=truncation_error_bound(5, 1.0) + 1e-12)
            assert est.normalized

    def test_rank_one_state_is_pure(self):
        m = 10
        spectrum = np.zeros(m)
        spectrum[-1] = 3.0
        A = random_psd(m, 4, spectrum)
        sp = ScalingParams(x0=1.0, gamma0=1.0, provenance="user")
        est = entropy_with_normalization(A, 8, 0.95, sp, RademacherSampler(0))
        assert abs(est.value) <= est.tau

    def test_zero_trace_is_error(self):
        A = SymmetricSparseMatrix(4, [], [], [])
        sp = ScalingParams(x0=1.0, gamma0=1.0, provenance="user")
        with pytest.raises(ValueError, match="zero trace"):
            entropy_with_normalization(A, 3, 0.95, sp, RademacherSampler(0))
        with pytest.raises(ValueError, match="zero trace"):
            estimate_fixed(A, 3, 5, sp, RademacherSampler(0), normalize=True)

    def test_matches_explicitly_normalized_matrix(self):
        m = 14
        A = random_psd(m, 6, np.random.default_rng(6).uniform(0.1, 1.0, m))
        tr = A.trace()
        B = SymmetricSparseMatrix.from_dense(A.to_dense() / tr)
        sp = ScalingParams(x0=1.0, gamma0=1.0, provenance="user")
        a = entropy_with_normalization(A, 6, 0.95, sp, RademacherSampler(2))
        b = estimate_adaptive(B, 6, 0.95, sp, RademacherSampler(2))
        assert a.value == pytest.approx(b.value, rel=1e-10)
        assert a.samples_used == b.samples_used


class TestBruteForceExpectation:
    def test_mean_probe_form_is_poly_trace(self):
        # averaging the probe form over every sign vector gives the exact
        # polynomial trace; checked against the dense eigenvalue route
        m, n = 8, 5
        A = random_psd(m, 3, np.random.default_rng(3).uniform(0.0, 1.0, m))
        gamma0 = 1.0
        exp = coefficients(n, 1.0)
        total = sum(quadratic_form(A, v, exp, gamma0) for v in all_sign_vectors(m))
        mean = total / 2 ** m
        assert mean == pytest.approx(dense_poly_trace(A, exp, gamma0), rel=1e-9)


class TestExactMoments:
    """Forms take mu_1 and mu_2 at their exact means, and stay unbiased."""

    @pytest.mark.parametrize("normalize", [False, True])
    def test_mean_probe_form_is_poly_trace(self, normalize):
        # the twin of TestBruteForceExpectation: every sign vector, the form
        # with the exact moments, and under normalize the widened gamma0 and
        # the division by the trace that the estimator applies
        m, n = 8, 5
        A = random_psd(m, 3, np.random.default_rng(3).uniform(0.0, 1.0, m))
        scale = A.trace() if normalize else 1.0
        gamma0 = 1.0
        exp = coefficients(n, 1.0)
        probes = np.array(list(all_sign_vectors(m)))
        traces = (A.trace(), A.frobenius_squared())
        forms = quadratic_form(A, probes, exp, gamma0 * scale, traces) / scale
        state = SymmetricSparseMatrix.from_dense(A.to_dense() / scale)
        assert math.fsum(forms) / 2 ** m == pytest.approx(
            dense_poly_trace(state, exp, gamma0), rel=1e-9)
        # the sampled terms of degree 3 and up still spread, less than all of them
        sampled = quadratic_form(A, probes, exp, gamma0 * scale) / scale
        assert 0.0 < np.ptp(forms) < np.ptp(sampled)

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("n", [1, 2])
    def test_low_degrees_give_one_form(self, n, normalize):
        # at n <= 2 no sampled moment enters a form: every probe, in any
        # block, gives the polynomial trace, and the adaptive loop stops at
        # N = 8
        m = 30
        A = random_psd(m, 4, np.random.default_rng(4).uniform(0.0, 1.0, m))
        sp = ScalingParams.for_matrix(gershgorin_upper_bound(A), A.trace(),
                                      normalize=normalize)
        gamma0 = sp.gamma0 * (A.trace() if normalize else 1.0)
        exp = coefficients(n, 1.0)
        traces = (A.trace(), A.frobenius_squared())
        sampler = RademacherSampler(2)
        forms = np.concatenate([quadratic_form(A, sampler.sample_vector(m, 1, 40), exp,
                                               gamma0, traces),
                                [quadratic_form(A, sampler.sample_vector(m, 41), exp,
                                                gamma0, traces)]])
        assert len({x.hex() for x in forms.tolist()}) == 1
        assert forms[0] == pytest.approx(dense_poly_trace(A, exp, gamma0), rel=1e-12)
        est = estimate_adaptive(A, n, 0.95, sp, RademacherSampler(0), normalize=normalize)
        assert est.samples_used == 8 and not est.capped
        assert est.xi_min == est.xi_max

    def test_escape_check_reads_the_sampled_moments(self):
        # A = 0.75 J / 8 + I / 2 has eigenvalues 1.25, on the all-ones
        # vector, and 1/2: at gamma0 = 1, B = 2A - I has 1.5 and 0. The
        # all-ones probe has mu_1 = 12 and mu_2 = 28, beyond m = 8, while the
        # exact means tr T_1(B) = 1.5 and tr T_2(B) = -3.5 are within it
        m = 8
        A = SymmetricSparseMatrix.from_dense(0.75 * np.ones((m, m)) / m + 0.5 * np.eye(m))
        traces = (A.trace(), A.frobenius_squared())
        with pytest.raises(SpectrumEscape, match=r"^probe moment \|mu_2\| = 3\.5 m "):
            quadratic_form(A, np.ones(m), coefficients(2, 1.0), 1.0, traces)


class TestMomentRoute:
    """A matrix stored by diagonal with a certain scaling takes exact moments
    from colour rows, and reports an interval that holds with certainty."""

    @pytest.mark.parametrize("m", [1, 3, 10, 50, 10**3, 10**5])
    def test_interval_holds_fem_truth(self, m):
        truth = fem_exact_entropy(m)
        A = fem_matrix(m)
        sp = ScalingParams.from_bound(gershgorin_upper_bound(A))
        for n in (1, 2, 3, 8, 17, 32, 64):
            est = estimate_fixed(A, n, 8, sp, RademacherSampler(0))
            lo, hi = est.interval
            assert lo <= truth <= hi, (m, n)
            assert lo <= est.value <= hi and abs(est.value - truth) <= est.tau, (m, n)
            assert est.tau == pytest.approx(max(est.value - lo, hi - est.value), rel=1e-15)
            # never wider than the floor, with its rounding allowance
            assert est.tau <= 2.0 * truncation_error_bound(n, 4.0 * m) * (1.0 + 1e-9), (m, n)
            assert est.samples_used == min(n + 1, m)
            assert (est.delta, est.xi_min, est.xi_max) == (0.0, 0.0, 0.0)

    def test_fem_1e6_at_the_benchmark_command(self):
        # n = 8, 8 samples asked: 9 colour rows, and an interval about an
        # eighth of the sampled tau of 54 700 (the benchmark's fem-1e6)
        m = 10**6
        A = fem_matrix(m)
        sp = ScalingParams.from_bound(gershgorin_upper_bound(A))
        assert colour_count(A, 8, sp) == 9
        est = estimate_fixed(A, 8, 8, sp, RademacherSampler(0), threads=2)
        truth = fem_exact_entropy(m)
        lo, hi = est.interval
        assert lo <= truth <= hi
        assert est.samples_used == 9
        assert lo == pytest.approx(-2006666.0, abs=1.0) and hi == pytest.approx(-1994985.8, abs=1.0)
        assert abs(est.value - truth) < 0.02 and est.tau < 6700.0

    @pytest.mark.parametrize("normalize", [False, True])
    @pytest.mark.parametrize("half, seed", [(2, 0), (3, 1), (2, 2)])
    def test_banded_matrices_with_holes(self, half, seed, normalize):
        # the holes leave slots of the strips empty, so the held mask and the
        # colouring of a wider band both matter; checked against LAPACK
        A, a = dominant_band(300, half, seed)
        assert layout(A) == "diagonals" and A.bandwidth == half
        assert not A._strips.held.all()
        lam = np.linalg.eigvalsh(a / (np.trace(a) if normalize else 1.0))
        truth = -float(np.sum(entropy_function(lam)))
        sp = ScalingParams.for_matrix(gershgorin_upper_bound(A), A.trace(), normalize=normalize)
        for n in (2, 5, 8, 16):
            est = estimate_fixed(A, n, 8, sp, RademacherSampler(0), normalize=normalize)
            assert est.samples_used == n * half + 1
            lo, hi = est.interval
            assert lo <= truth <= hi, (n, lo, truth, hi)
            assert abs(est.value - truth) <= est.tau
        # adaptive runs take the same route and numbers
        adaptive = estimate_adaptive(A, 16, 0.95, sp, RademacherSampler(0), normalize=normalize)
        assert (adaptive.value, adaptive.tau, adaptive.interval) == (est.value, est.tau,
                                                                   est.interval)
        assert adaptive.estimator == "adaptive"

    def test_a_measure_of_few_points(self):
        # fem(3) has three eigenvalues: past three free nodes no rule forms,
        # and the rules below pin the entropy to the rounding allowance,
        # which grows with n^2
        A = fem_matrix(3)
        sp = ScalingParams.from_bound(gershgorin_upper_bound(A))
        truth = fem_exact_entropy(3)
        for n, width in ((6, 1e-10), (8, 1e-10), (64, 1e-8)):
            est = estimate_fixed(A, n, 8, sp, RademacherSampler(0))
            lo, hi = est.interval
            assert lo <= truth <= hi and hi - lo < width

    def test_radau_bounds_of_a_known_measure(self):
        # five points with weights: the bounds hold the integral and close
        # on it once a rule has five free nodes; a rule's own error widens
        # them but never breaks them
        y = np.array([-0.9, -0.3, 0.1, 0.5, 0.95])
        w = np.array([0.1, 0.3, 0.2, 0.25, 0.15])
        unit = 1.7
        integral = float(np.dot(w, entropy_function(unit * (y + 1.0))))
        for n in (2, 4, 7, 10, 12, 20):
            nu = np.array([np.dot(w, np.cos(k * np.arccos(y))) for k in range(n + 1)])
            lo, hi = radau_bounds(nu, 1e-15, unit, 1.0)
            assert lo <= integral <= hi, n
            if n >= 10:
                assert hi - lo < 1e-9
        # moments known only to 1e-6 widen the bounds, which still hold
        lo, hi = radau_bounds(nu + 1e-6 * np.cos(np.arange(21.0)), 2e-6, unit, 1.0)
        assert lo <= integral <= hi and hi - lo < 1e-2
        # no rule at n = 1: no bound
        assert radau_bounds(nu[:2], 0.0, unit, 1.0) == (-math.inf, math.inf)

    @pytest.mark.parametrize("case", ["user", "lanczos", "gathered", "indefinite-disc",
                                      "wide-colouring"])
    def test_route_declines(self, case):
        # these runs sample, with the numbers of the scaling without its
        # bound, and their reports have no route or interval
        n = 4
        if case == "user":
            A, sp = fem_matrix(200), ScalingParams(1.0, 4.0, "user")
        elif case == "lanczos":
            # a bound that may fail, whatever its lambda_min
            A = fem_matrix(200)
            sp = ScalingParams.from_bound(SpectralBound(4.0, "lanczos", lambda_min_lower=0.0,
                                                        failure=1e-4))
        elif case == "gathered":
            A = scattered_psd(280, 3)
            assert layout(A) == "gather"
            sp = ScalingParams.from_bound(gershgorin_upper_bound(A))
        elif case == "indefinite-disc":
            # the square of fem, PSD, but Gershgorin's discs reach -4
            fem = fem_matrix(200).to_dense()
            A = SymmetricSparseMatrix.from_dense(fem @ fem)
            assert layout(A) == "diagonals"
            bound = gershgorin_upper_bound(A)
            assert bound.lambda_min_lower < 0.0
            sp = ScalingParams.from_bound(bound)
        else:
            # n beta + 1 colours past DEFAULT_N_MAX
            A = wide_band(30000, 2500)
            sp = ScalingParams.from_bound(gershgorin_upper_bound(A))
        assert colour_count(A, n, sp) is None
        est = estimate_fixed(A, n, 6, sp, RademacherSampler(0))
        assert est.interval is None and est.samples_used == 6
        assert "route" not in est.to_dict()["method"]
        assert est == estimate_fixed(A, n, 6, dataclasses.replace(sp, bound=None),
                                     RademacherSampler(0))

    def test_scaling_below_its_bound_declines(self):
        # a scaling that keeps its bound but no longer covers it proves nothing
        A = fem_matrix(100)
        sp = dataclasses.replace(ScalingParams.from_bound(gershgorin_upper_bound(A)),
                                 gamma0=4.5)
        assert colour_count(A, 3, sp) == 4
        assert colour_count(A, 3, dataclasses.replace(sp, gamma0=3.9)) is None

    def test_report_keys(self):
        A = fem_matrix(10)
        sp = ScalingParams.from_bound(gershgorin_upper_bound(A))
        d = estimate_adaptive(A, 2, 0.95, sp, RademacherSampler(0)).to_dict()
        assert list(d["method"].keys()) == ["estimator", "stream", "bound", "route", "interval",
                                            "normalized", "zero_trace", "xi_min", "xi_max"]
        assert d["method"]["route"] == "moments" and d["samples"] == 3
        assert (d["delta"], d["method"]["xi_min"], d["method"]["xi_max"]) == (0.0, 0.0, 0.0)
        assert all(type(x) is float for x in d["method"]["interval"])
        json.dumps(d)

    def test_no_block_of_all_rows(self, monkeypatch):
        # no colour row is ever a (dim,) vector: t_0 is built a row tile at
        # a time, for as many rows as one tile's buffers hold. On fem(50000)
        # at n = 16, 17 rows in groups of 10 and 7, tiles of one piece of
        # 8192 rows with a halo of 8 rows a side
        import entrace.estimator as estimator

        shapes = []
        real = estimator._colour_tile

        def recording(colours, r, base, out):
            shapes.append((len(colours), out.shape))
            return real(colours, r, base, out)

        monkeypatch.setattr(estimator, "_colour_tile", recording)
        A = fem_matrix(50000)
        est = estimate_fixed(A, 16, 8, ScalingParams.from_bound(gershgorin_upper_bound(A)),
                             RademacherSampler(0), threads=2)
        assert est.samples_used == 17
        assert sorted({rows for rows, _ in shapes}) == [7, 10]
        assert all(shape[0] == rows and shape[1] <= 8192 + 16 for rows, shape in shapes)
        assert len(shapes) == 2 * -(-50000 // 8192)

    def test_peak_memory_does_not_grow_with_the_dimension(self):
        # one worker's tile buffers and the tiles' inner products: 2.4 MB
        # traced at m = 10^5 and 10^6 alike, where whole colour rows and
        # the work arrays of forms on whole vectors took 16.5 MB at 10^6. The tiles' sums grow with
        # m, 576 B a tile of 8192 rows
        peaks = []
        for m in (10**5, 10**6):
            A = fem_matrix(m)
            sp = ScalingParams.from_bound(gershgorin_upper_bound(A))
            want = estimate_fixed(A, 8, 8, sp, RademacherSampler(0), threads=1)
            assert want.route == "moments" and want.samples_used == 9
            assert estimate_fixed(A, 8, 8, sp, RademacherSampler(0), threads=2) == want
            tracemalloc.start()
            try:
                assert estimate_fixed(A, 8, 8, sp, RademacherSampler(0), threads=1) == want
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 2**22
        assert peaks[1] <= peaks[0] + 2**17


def lanczos_scaling(A, seed, normalize):
    """The scaling a command takes on A at this probe seed: a Lanczos bound."""
    sampler = RademacherSampler(seed)
    sp = _scaling(A, RunConfig("entropy", normalize=normalize), sampler)
    assert sp.provenance == "lanczos"
    return sp, sampler


def spdc_from_config(tmp_path, text):
    path = tmp_path / "spdc.cfg"
    path.write_text(text)
    return spdc_density_matrix(SpdcParams.from_config(path))


def decaying(m, ratio, seed):
    """A random_psd stored by column with the spectrum ratio^i, i < m."""
    spectrum = ratio ** np.arange(m, dtype=np.float64)
    return random_psd(m, seed, spectrum), spectrum


def rank_plus_floor(m, rank, seed):
    """A random_psd stored by column: ``rank`` eigenvalues in [0.2, 1) and
    m - rank of 1e-9."""
    spectrum = np.full(m, 1e-9)
    spectrum[:rank] = np.random.default_rng(seed).uniform(0.2, 1.0, rank)
    return random_psd(m, seed, spectrum), spectrum


def dense_entropy(spectrum):
    lam = spectrum[spectrum > 0.0]
    return -math.fsum(lam * np.log(lam))


class TestLanczosInterval:
    """The certain interval of the scaling's Lanczos run, and the routes it answers."""

    @pytest.mark.parametrize("case", ["spdc-default", "spdc-300-2mm", "spdc-128-short",
                                      "decay-0.7", "rank-5-plus-floor"])
    def test_interval_holds_the_dense_truth(self, case, tmp_path):
        # 200 start vectors each, raw and normalized. The truth is numpy's
        # eigvalsh, whose eigenvalues err by about 1e-16 ||A|| each, so by
        # about 1e-13 of the state's entropy or less, far inside intervals
        # 1e-10 to 1e-6 of it wide
        if case.startswith("spdc"):
            text = {"spdc-default": "",
                    "spdc-300-2mm": "grid_points = 300\ncrystal_length = 2e-3\n",
                    "spdc-128-short": "grid_points = 128\ntau_p = 5e-14\n"}[case]
            A = spdc_from_config(tmp_path, text)
            spectrum = np.linalg.eigvalsh(A.to_dense())
        elif case == "decay-0.7":
            A, spectrum = decaying(300, 0.7, 1)
        else:
            A, spectrum = rank_plus_floor(300, 5, 5)
        assert layout(A) == "columns"
        t = A.trace()
        truth = {False: dense_entropy(spectrum), True: dense_entropy(spectrum / t)}
        for seed in range(200):
            sampler = RademacherSampler(seed)
            bound = lanczos_upper_bound(A, gershgorin_upper_bound(A), sampler.start_vector(A.dim),
                                        BOUND_FAILURE_SHARE * 0.05)
            for normalize in (False, True):
                sp = ScalingParams.for_matrix(bound, t, normalize=normalize)
                est = estimate_adaptive(A, 8, 0.95, sp, sampler, normalize=normalize)
                assert est.route == "lanczos" and est.samples_used == 0, (seed, normalize)
                lo, hi = est.interval
                assert lo <= truth[normalize] <= hi, (seed, normalize, lo, hi)
                assert est.tau <= 1e-5 * max(1.0, abs(est.value))

    @pytest.mark.parametrize("seed, entropy, tau", [
        (0, 70.05981020670463, 3.7709188184194247),
        (1, 70.29573282966543, 3.9783289520259055),
    ], ids=["seed-0", "seed-1"])
    def test_full_spectrum_keeps_its_sampled_answer(self, seed, entropy, tau):
        # random_psd(300) of a uniform spectrum: 64 Krylov rows hold a few
        # percent of its trace, so the interval is far wider than tau, and
        # the estimate is the sampled one, pinned, with no route
        A, n, num, normalize, _ = random_by_column(300)
        sampler = RademacherSampler(seed)
        sp = _scaling(A, RunConfig("entropy", degree=n), sampler)
        lo, hi = lanczos_interval(sp.bound.krylov, A.trace())
        est = estimate_fixed(A, n, num, sp, sampler)
        assert A.trace() * (hi - lo) / 2.0 > 10.0 * tau
        assert (est.value, est.tau, est.route, est.interval) == (entropy, tau, None, None)
        assert est == estimate_fixed(A, n, num, dataclasses.replace(sp, bound=None), sampler)
        assert "route" not in est.to_dict()["method"]

    def test_adaptive_run_at_the_floor_draws_no_probe(self, monkeypatch):
        # normalized spdc: the interval is about 2e-10 wide, far below the
        # floor, so the run answers at once, and never draws
        import entrace.estimator as estimator

        def no_draw(*args, **kwargs):
            raise AssertionError("a probe was drawn")

        monkeypatch.setattr(estimator, "quadratic_form", no_draw)
        A, n, _, _, truth = normalized_spdc()
        sp, sampler = lanczos_scaling(A, 0, True)
        est = estimate_adaptive(A, n, 0.95, sp, sampler, normalize=True)
        lo, hi = est.interval
        assert (est.samples_used, est.route, est.delta, est.xi_min, est.xi_max) == (
            0, "lanczos", 0.0, 0.0, 0.0)
        assert est.value == (lo + hi) / 2.0 and lo <= truth <= hi
        assert est.tau < 1e-9 < truncation_error_bound(n, A.dim * sp.gamma0)

    def test_fixed_run_draws_and_answers_from_the_interval(self):
        # the same interval answers a fixed run, which still draws the N
        # probes it asks for and reports their spread
        A, n, num, _, truth = normalized_spdc()
        sp, sampler = lanczos_scaling(A, 0, True)
        est = estimate_fixed(A, n, num, sp, sampler, normalize=True)
        adaptive = estimate_adaptive(A, n, 0.95, sp, sampler, normalize=True)
        assert (est.value, est.tau, est.interval, est.route) == (
            adaptive.value, adaptive.tau, adaptive.interval, "lanczos")
        no_run = estimate_fixed(A, n, num, dataclasses.replace(sp, bound=None), sampler,
                                normalize=True)
        assert (est.samples_used, est.delta, est.xi_min, est.xi_max) == (
            num, no_run.delta, no_run.xi_min, no_run.xi_max)
        assert est.tau < 1e-9 < no_run.tau and abs(est.value - truth) <= est.tau

    def test_a_lanczos_scaling_answers_as_the_command_does(self):
        # a library run on the scaling of a Lanczos bound gives the pinned
        # report's numbers bit for bit; the estimate keeps no run
        A = spdc_density_matrix(SpdcParams())
        sampler = RademacherSampler(0)
        lanczos_bound = lanczos_upper_bound(A, gershgorin_upper_bound(A),
                                            sampler.start_vector(A.dim),
                                            BOUND_FAILURE_SHARE * 0.05)
        est = estimate_fixed(A, 14, 400, ScalingParams.for_matrix(
            lanczos_bound, A.trace(), normalize=True), sampler, normalize=True)
        pinned = json.loads((pathlib.Path(__file__).parent / "data"
                             / "entropy-spdc-normalize-threads-2.json").read_text())
        assert (est.value, est.tau, list(est.interval), est.route) == (
            pinned["entropy"], pinned["tau"], pinned["method"]["interval"],
            pinned["method"]["route"])
        assert est.scaling.bound is None

    def test_escape_is_worded_with_the_state_interval(self):
        # a gamma0 below the spectrum: the interval reads no gamma0, but the
        # probes a fixed run still draws refuse it
        A = spdc_density_matrix(SpdcParams())
        sp, sampler = lanczos_scaling(A, 0, True)
        sp = dataclasses.replace(sp, gamma0=0.1)
        with pytest.raises(ValueError, match=r"exceeds mu_0 = m: the spectrum is not inside "
                                             r"\[0, x0 \* gamma0\] = \[0, 0\.1\]"):
            estimate_fixed(A, 14, 10, sp, sampler, normalize=True)

    @pytest.mark.parametrize("normalize", [False, True])
    def test_indefinite_matrix_is_refused(self, normalize):
        # one eigenvalue at -0.1 lambda_max: every Lanczos row is kept, the
        # Ritz values are the eigenvalues, and the least proves A is not PSD
        A = indefinite(40, 1)
        assert layout(A) == "columns"
        sp, sampler = lanczos_scaling(A, 0, normalize)
        with pytest.raises(ValueError, match=r"^a Ritz value of the Lanczos run is -0\.0\d+ tr "
                                             r"A, below zero: the spectrum is not inside"):
            estimate_fixed(A, 8, 10, sp, sampler, normalize=normalize)

    def test_negative_residual_trace_is_refused(self):
        # a run whose diagonal holds more than the trace leaves a negative
        # trace off its rows, which no PSD matrix gives
        A, _ = decaying(100, 0.7, 0)
        sp, _ = lanczos_scaling(A, 0, False)
        run = sp.bound.krylov
        with pytest.raises(SpectrumEscape, match=r"tr A off its first 1 rows, below zero"):
            lanczos_interval(run._replace(alpha=run.alpha + A.trace()), A.trace())


def normalized_spdc():
    A = spdc_density_matrix(SpdcParams())
    state = SymmetricSparseMatrix.from_dense(A.to_dense() / A.trace())
    return A, 14, 400, True, exact_entropy(dense_spectrum(state))


def random_by_column(m):
    spectrum = np.random.default_rng(0).uniform(0.0, 1.0, m)
    A = random_psd(m, 0, spectrum)
    assert layout(A) == "columns"
    return A, 8, 30, False, -float(np.sum(entropy_function(spectrum)))


def fem_2000():
    return fem_matrix(2000), 8, 8, False, fem_exact_entropy(2000)


class TestCoverage:
    """tau covers the truth on at least 93 of 100 seeds, acceptance criterion 1's rate.

    Each seed's run takes the scaling a command takes: the Lanczos bound,
    from that seed's start vector, on a matrix stored by column, and
    Gershgorin's on fem.
    """

    @pytest.mark.parametrize("case, bound", [
        (normalized_spdc, "lanczos"), (functools.partial(random_by_column, 200), "lanczos"),
        (functools.partial(random_by_column, 300), "lanczos"), (fem_2000, "gershgorin")],
        ids=["spdc-normalized", "random-200-columns", "random-300-columns", "fem-2000"])
    def test_tau_covers_the_truth(self, case, bound):
        A, n, num, normalize, truth = case()
        covered = 0
        for seed in range(100):
            sampler = RademacherSampler(seed)
            sp = _scaling(A, RunConfig("entropy", normalize=normalize, degree=n), sampler)
            assert sp.provenance == bound
            est = estimate_fixed(A, n, num, sp, sampler, normalize=normalize)
            covered += abs(est.value - truth) < est.tau
        assert covered >= 93, covered


class TestCoreCount:
    def test_reads_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert core_count() == 1

    def test_falls_back_to_the_cpu_count(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert core_count() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert core_count() == 1


class TestJsonShape:
    def test_stable_key_order(self):
        A = fem_matrix(10)
        sp = ScalingParams(1.0, 4.0, "user")
        d = estimate_adaptive(A, 2, 0.95, sp, RademacherSampler(0)).to_dict()
        assert list(d.keys()) == ["entropy", "tau", "confidence", "samples", "degree",
                                  "delta", "gamma0", "x0", "trace", "seed", "capped",
                                  "method"]
        assert list(d["method"].keys()) == ["estimator", "stream", "bound", "normalized",
                                            "zero_trace", "xi_min", "xi_max"]
        json.dumps(d)  # everything serializable
        # a run answered by its Lanczos run's interval reports the route
        A = spdc_density_matrix(SpdcParams())
        sp = _scaling(A, RunConfig("entropy", normalize=True), RademacherSampler(0))
        d = estimate_fixed(A, 3, 4, sp, RademacherSampler(0), normalize=True).to_dict()
        assert list(d["method"].keys()) == ["estimator", "stream", "bound", "route", "interval",
                                            "normalized", "zero_trace", "xi_min", "xi_max"]
        assert d["method"]["route"] == "lanczos" and d["samples"] == 4
        assert all(type(x) is float for x in d["method"]["interval"])
        json.dumps(d)
