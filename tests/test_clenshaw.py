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
from entrace.clenshaw import SpectrumEscape, _tiled_moments, quadratic_form
from entrace.generators import SpdcParams, fem_matrix, random_psd, spdc_density_matrix
from entrace.sparse import SymmetricSparseMatrix, gershgorin_upper_bound
from entrace.estimator import RademacherSampler, ScalingParams, estimate_fixed
from support import dense_quadratic_form, dominant_strips, layout, scattered_psd, wide_band


def signs(m, seed):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 2, size=m) * 2.0 - 1.0


def moments(A, block, n, c, mu0):
    """The (b, n + 1) moments of the real rows of ``block`` by the tiled
    kernel, given their b values of mu_0."""
    def source(base, out):
        out[...] = block[:, base:base + out.shape[1]]
        return out

    moments, = _tiled_moments(A, n, c, [(mu0, source)])
    return moments


def recorded_tiles(monkeypatch):
    """The (lo, hi) row tiles that the tiled kernel runs from here on."""
    import entrace.clenshaw as clenshaw

    tiles = []
    real = clenshaw._tile_dots

    def recording(A, n, c, lo, hi, source, space):
        tiles.append((lo, hi))
        return real(A, n, c, lo, hi, source, space)

    monkeypatch.setattr(clenshaw, "_tile_dots", recording)
    return tiles


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
        # the doubling identities need T_j(B) v only up to j = ceil(n/2); a
        # matrix stored by column is one tile, one product of all rows a step
        A = random_psd(10, 4, np.linspace(0.0, 1.0, 10))
        calls = []
        inner = SymmetricSparseMatrix.product_rows

        def counting(self, *args):
            calls.append(1)
            return inner(self, *args)

        monkeypatch.setattr(SymmetricSparseMatrix, "product_rows", counting)
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
        # traced peak of one form on a fem(2 * 10^5) row at n = 8: the tiled
        # kernel's three buffers of one tile of 2^15 rows and a product's
        # temporary, 5.3 B a row, where a form on (dim,) vectors, two that
        # took t_j in turn, a product's scratch and temporary, took 18.6
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
        assert peak / dim < 7

    @pytest.mark.parametrize("build", [
        functools.partial(fem_matrix, 1000), functools.partial(wide_band, 100, 12),
        functools.partial(random_psd, 30, 2, np.linspace(0.0, 1.0, 30)),
        functools.partial(scattered_psd, 60, 1)], ids=["fem", "offsets-12", "columns", "gather"])
    def test_probes_stay_as_given(self, build):
        # the kernel copies the caller's rows into its buffers a tile at a
        # time, and never writes them
        A = build()
        gamma0 = 1.075 * gershgorin_upper_bound(A).lambda_max_upper
        probes = np.array([signs(A.dim, 90 + i) for i in range(3)])
        given = probes.copy()
        for n in (1, 2, 3, 4, 9):
            quadratic_form(A, probes, coefficients(n, 1.0), gamma0)
            quadratic_form(A, probes[1], coefficients(n, 1.0), gamma0)
            assert probes.tobytes() == given.tobytes() and probes.flags.writeable


class TestWorkspace:
    """A form on a slice of the caller's probe array reads only the slice."""

    BUILDS = [functools.partial(fem_matrix, 10**5),
              functools.partial(random_psd, 30, 2, np.linspace(0.0, 1.0, 30)),
              functools.partial(scattered_psd, 60, 1)]
    IDS = ["fem-tiles", "columns", "gather"]

    @pytest.mark.parametrize("build", BUILDS, ids=IDS)
    def test_shorter_block_reads_no_stale_rows(self, build):
        # the array's rows beyond the slice hold nan, which a form that read
        # them would carry
        A = build()
        gamma0 = 1.075 * gershgorin_upper_bound(A).lambda_max_upper
        probes = np.array([signs(A.dim, 30 + i) for i in range(3)])
        exp = coefficients(9, 1.0)
        space = probes.copy()
        full = quadratic_form(A, space, exp, gamma0)
        space[1:] = np.nan
        space[:1] = probes[2:]
        short = quadratic_form(A, space[:1], exp, gamma0)
        assert short.tobytes() == full[2:].tobytes()


    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("build", BUILDS, ids=IDS)
    def test_blocks_of_one_call_share_the_tile_space(self, build, threads):
        # blocks of 3, 1 and 2 rows in one kernel call reuse each worker's
        # tile space, sized for the largest; each block's moments have the
        # bits of that block alone
        from entrace.estimator import _in_order

        A = build()
        c = 2.0 / (1.075 * gershgorin_upper_bound(A).lambda_max_upper)
        probes = np.array([signs(A.dim, 40 + i) for i in range(6)])
        parts = (probes[:3], probes[3:4], probes[4:])

        def copied(rows):
            def source(base, out):
                out[...] = rows[:, base:base + out.shape[1]]
                return out
            return source

        mu0 = [np.full(len(rows), float(A.dim)) for rows in parts]
        together = list(_tiled_moments(A, 9, c, [(m0, copied(rows)) for m0, rows in
                                                 zip(mu0, parts)],
                                       functools.partial(_in_order, threads)))
        alone = [moments(A, rows, 9, c, m0) for m0, rows in zip(mu0, parts)]
        assert [mu.tobytes() for mu in together] == [mu.tobytes() for mu in alone]

class TestTiles:
    """A matrix shorter than one piece is one tile under any budget."""

    @pytest.mark.parametrize("build", [
        *(functools.partial(fem_matrix, dim) for dim in (1, 7, 8, 9, 29)),
        functools.partial(wide_band, 100, 12),
        functools.partial(random_psd, 21, 3, np.random.default_rng(3).uniform(0.0, 1.0, 21)),
    ], ids=["fem-1", "fem-7", "fem-8", "fem-9", "fem-29", "offsets-12", "columns-21"])
    def test_forms_match_one_tile(self, monkeypatch, build):
        # tiles start at multiples of 8192 rows, so a budget that drops the
        # block width to 1 leaves each form one tile of all rows, with the
        # bits of the default budget's
        import entrace.sparse as sparse

        whole = build()
        gamma0 = 1.075 * gershgorin_upper_bound(whole).lambda_max_upper
        probes = np.array([signs(whole.dim, 70 + i) for i in range(3)])
        forms = {(n, b): quadratic_form(whole, probes[:b], coefficients(n, 1.0), gamma0)
                 for n in (1, 2, 9) for b in (1, 2, 3)}
        # the budget sets the block width at construction and the tiles of
        # each form
        monkeypatch.setattr(sparse, "BLOCK_BYTES", 2**8)
        tiled = build()
        assert tiled.block_width == (1 if whole.dim > 4 else 4)
        tiles = recorded_tiles(monkeypatch)
        for (n, b), want in forms.items():
            got = quadratic_form(tiled, probes[:b], coefficients(n, 1.0), gamma0)
            assert got.tobytes() == want.tobytes()
        assert set(tiles) == {(0, whole.dim)}


def gathered(monkeypatch, A):
    """A's entries stored for the gather path, whose products share no code
    with a product by diagonal or by column, and which runs one tile of all
    rows."""
    import entrace.sparse as sparse

    with monkeypatch.context() as patch:
        patch.setattr(sparse, "DIA_FILL", 0.0)
        G = SymmetricSparseMatrix(A.dim, *A.coo())
    assert layout(A) != "gather" and layout(G) == "gather"
    return G


class TestTiledKernel:
    """The moments of a matrix stored by diagonal come a row tile at a time,
    with the bits of the same entries gathered, in one tile."""

    @pytest.mark.parametrize("build", [
        *(functools.partial(fem_matrix, dim) for dim in (8191, 8192, 8193, 16385, 70000)),
        functools.partial(dominant_strips, 20000, 3, 5)],
        ids=["fem-8191", "fem-8192", "fem-8193", "fem-16385", "fem-70000", "holes-20000"])
    @pytest.mark.parametrize("budget", [2**20, 2**18], ids=["budget", "quarter"])
    def test_forms_match_the_gather_path(self, monkeypatch, build, budget):
        # at the default budget a single row's tiles are 2^15 rows and three
        # rows' are one piece; at a quarter of it, one piece, and a block of
        # three rows does not fit and runs in the least tiles, one piece
        import entrace.sparse as sparse

        A = build()
        G = gathered(monkeypatch, A)
        gamma0 = 1.075 * gershgorin_upper_bound(A).lambda_max_upper
        probes = np.array([signs(A.dim, 80 + i) for i in range(3)])
        traces = (A.trace(), A.frobenius_squared())
        want = {(n, b, t): quadratic_form(G, probes[:b], coefficients(n, 1.0), gamma0,
                                          traces if t else None)
                for n in (1, 2, 3, 8, 9, 14) for b in (1, 2, 3) for t in (False, True)}
        monkeypatch.setattr(sparse, "BLOCK_BYTES", budget)
        tiles = recorded_tiles(monkeypatch)
        for (n, b, t), form in want.items():
            got = quadratic_form(A, probes[:b], coefficients(n, 1.0), gamma0,
                                 traces if t else None)
            assert got.tobytes() == form.tobytes(), (n, b, t)
        if A.dim > 2**15 or (budget < 2**20 and A.dim > 8192):
            assert len({lo for lo, _ in tiles}) > 1
            assert all(lo % 8192 == 0 for lo, _ in tiles)

    def test_halo_wider_than_the_budget_runs_in_the_least_tiles(self, monkeypatch):
        # diagonals +-20000: at n = 3 a halo of 40000 rows a side leaves no
        # tile of one row within the budget, and at n = 1 no tile of two, so
        # those forms run in the least tiles, whole pieces at least twice the
        # halo, whose buffers exceed the budget; one row at n = 1 fits in
        # tiles of that height too
        import entrace.clenshaw as clenshaw

        A = wide_band(200000, 20000)
        assert clenshaw.tile_rows(A, 3) == 0 and clenshaw.tile_rows(A, 1) == 1
        G = gathered(monkeypatch, A)
        gamma0 = 1.075 * gershgorin_upper_bound(A).lambda_max_upper
        probes = np.array([signs(A.dim, 90 + i) for i in range(2)])
        for n, b in ((3, 1), (3, 2), (1, 2), (1, 1)):
            want = quadratic_form(G, probes[:b], coefficients(n, 1.0), gamma0)
            with monkeypatch.context() as patch:
                tiles = recorded_tiles(patch)
                got = quadratic_form(A, probes[:b], coefficients(n, 1.0), gamma0)
            assert got.tobytes() == want.tobytes()
            least = clenshaw._least_height(A, n)
            assert least == {3: 81920, 1: 40960}[n]
            assert tiles == [(lo, min(lo + least, A.dim)) for lo in range(0, A.dim, least)]

    @pytest.mark.parametrize("half", [1, 2, 3])
    @pytest.mark.parametrize("threads", [1, 2])
    def test_colour_moments_match_the_gather_path(self, monkeypatch, half, threads):
        # the moments route builds each colour row a tile at a time; its
        # moments equal those of the whole indicator rows on the gathered
        # matrix, in one tile, at either worker count
        import entrace.estimator as estimator

        A = dominant_strips(20000, half, half)
        G = gathered(monkeypatch, A)
        sp = ScalingParams.from_bound(gershgorin_upper_bound(A))
        seen = []
        real = estimator._tiled_moments

        def recording(*args):
            moments = list(real(*args))
            seen.extend(moments)
            return moments

        monkeypatch.setattr(estimator, "_tiled_moments", recording)
        tiles = recorded_tiles(monkeypatch)
        for n in (1, 2, 3, 8, 9, 14):
            seen.clear()
            est = estimate_fixed(A, n, 4, sp, RademacherSampler(0), threads=threads)
            r = est.samples_used
            assert est.route == "moments" and r == n * half + 1
            rows = np.zeros((r, A.dim))
            for k in range(r):
                rows[k, k::r] = 1.0
            c = 2.0 / sp.gamma0
            want = moments(G, rows, n, c, (A.dim - np.arange(r) + r - 1) // r)
            assert np.concatenate(seen).tobytes() == want.tobytes()
        assert len({lo for lo, _ in tiles}) > 1


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
    """The tiled kernel on real rows, given their mu_0."""

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
        got = moments(A, block, n, c, np.einsum("ij,ij->i", block, block))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_plus_minus_one_rows_take_m_exactly(self, monkeypatch):
        # given mu_0 = m, the moments by column are those of the rows'
        # summed norms, m exactly, on the same entries gathered, bit for bit
        A = spdc_density_matrix(SpdcParams())
        G = gathered(monkeypatch, A)
        block = np.array([signs(A.dim, s) for s in range(5)])
        c = 2.0 / (1.1 * A.trace())
        given = moments(A, block, 8, c, np.full(5, float(A.dim)))
        summed = moments(G, block, 8, c, np.einsum("ij,ij->i", block, block))
        assert given.tobytes() == summed.tobytes()

    def test_escape_is_read_against_the_row_norm(self):
        # a row of norm 3 along the eigenvalue 1.5 of diag(0.5, 1.5, 0.2),
        # where B = 2A - I is 2: mu_2 = T_2(2) ||v||^2 = 7 ||v||^2
        A = SymmetricSparseMatrix.from_dense(np.diag([0.5, 1.5, 0.2]))
        row = np.array([[0.0, 3.0, 0.0]])
        with pytest.raises(SpectrumEscape, match=r"^probe moment \|mu_2\| = 7 m "):
            moments(A, row, 2, 2.0, np.array([9.0]))


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
