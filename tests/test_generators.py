"""Matrix builders: second-difference chain, photon-pair toy model, random PSD."""

import math
import tracemalloc

import numpy as np
import pytest

from entrace.generators import (
    Dispersion,
    SpdcParams,
    fem_matrix,
    joint_spectral_amplitude,
    random_psd,
    spdc_density_matrix,
    spdc_warnings,
)
from entrace.oracle import DENSE_CAP, dense_spectrum, exact_entropy
from entrace.sparse import SymmetricSparseMatrix
from support import layout


class TestFemMatrix:
    def test_structure(self):
        A = fem_matrix(4)
        expect = np.array([
            [2.0, -1.0, 0.0, 0.0],
            [-1.0, 2.0, -1.0, 0.0],
            [0.0, -1.0, 2.0, -1.0],
            [0.0, 0.0, -1.0, 2.0],
        ])
        np.testing.assert_array_equal(A.to_dense(), expect)

    def test_sizes(self):
        assert fem_matrix(1).to_dense() == np.array([[2.0]])
        assert fem_matrix(300).nnz == 300 + 2 * 299
        with pytest.raises(ValueError):
            fem_matrix(0)

    def test_positive_definite(self):
        lam = dense_spectrum(fem_matrix(40)).eigenvalues
        assert lam[0] > 0.0
        assert lam[-1] < 4.0

    @pytest.mark.parametrize("m", [*range(1, 13), 1000, 10**5])
    def test_diagonals_build_the_matrix_of_the_entries(self, m):
        # handed over by diagonal, fem(m) is the matrix its 3m - 2 entries
        # build, here unordered: one diagonal at m = 1 and by column at m = 2
        i = np.arange(m)
        rows = np.concatenate((i, i[:-1], i[1:]))
        cols = np.concatenate((i, i[1:], i[:-1]))
        vals = np.concatenate((np.full(m, 2.0), np.full(2 * (m - 1), -1.0)))
        got, want = fem_matrix(m), SymmetricSparseMatrix(m, rows, cols, vals)

        def same(a, b):
            return (a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
                    and not a.flags.writeable)

        assert layout(got) == layout(want) == ("columns" if m == 2 else "diagonals")
        assert got._strips.offsets == want._strips.offsets
        assert same(got._strips.data, want._strips.data)
        assert same(got._strips.held, want._strips.held)
        assert same(got.diagonal(), want.diagonal())
        assert got.block_width == want.block_width
        assert got.nnz == want.nnz == 3 * m - 2
        for a, b in zip(got.coo(), want.coo()):
            assert same(a, b)

    def test_build_peak_memory_per_row(self):
        # traced peak while fem(2 * 10^5) is built: the held mask of its
        # three diagonals, 3 B a row, and about 1 B a row of the mirror
        # check, which compares the masks a chunk at a time and, the
        # diagonals being one value each, one slot of each. Mirror
        # temporaries as long as the diagonals take the peak to 20 B a row,
        # and a list of its 3m - 2 entries, sorted and scattered by the
        # constructor, to about 144
        dim = 2 * 10**5
        fem_matrix(dim)  # numpy's lazily allocated state, once
        tracemalloc.start()
        try:
            fem_matrix(dim)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / dim < 6


class TestDispersion:
    def test_polynomial_form(self):
        d = Dispersion(2.0, 3.0, 4.0, 10.0)
        # beta0 + beta1 (w - ref) + beta2 (w - ref)^2
        assert d.propagation_constant(12.0) == pytest.approx(2.0 + 6.0 + 16.0, rel=1e-15)
        assert d.propagation_constant(10.0) == 2.0


class TestSpdcMatrix:
    def test_default_shape_and_psd(self):
        A = spdc_density_matrix(SpdcParams())
        assert A.dim == 64
        # warnings belong to the run, not to the matrix
        assert not hasattr(A, "build_warnings")
        assert spdc_warnings(SpdcParams()) == []
        lam = dense_spectrum(A).eigenvalues
        assert lam[0] >= -1e-9 * lam[-1]
        assert exact_entropy(dense_spectrum(A)) != 0.0

    def test_amplitude_scaling_is_quadratic(self):
        base = spdc_density_matrix(SpdcParams())
        tripled = spdc_density_matrix(SpdcParams(amplitude_scale=3.0))
        assert base.dim == tripled.dim
        a, b = base.to_dense(), tripled.to_dense()
        mask = a != 0.0
        np.testing.assert_array_equal(mask, b != 0.0)
        np.testing.assert_allclose(b[mask] / a[mask], 9.0, rtol=1e-12)

    def test_separable_mode_is_rank_one(self):
        A = spdc_density_matrix(SpdcParams(separable_test_mode=True))
        lam = dense_spectrum(A).eigenvalues
        assert lam[-2] <= 1e-10 * lam[-1]

    def test_bandwidth_shrinks_with_pulse_duration(self):
        # a longer pump pulse narrows the energy-conservation ridge, so the
        # matrix concentrates toward the diagonal; checked on a unit-scale
        # toy grid with phase matching off
        widths = []
        for tau_p in (1.0, 2.0, 4.0):
            params = SpdcParams(
                tau_p=tau_p, omega_cp=4.0, crystal_length=0.0,
                idler=Dispersion(0.0, 0.0, 0.0, 2.0),
                signal=Dispersion(0.0, 0.0, 0.0, 2.0),
                pump=Dispersion(0.0, 0.0, 0.0, 4.0),
                omega_min=-16.0, omega_max=20.0, grid_points=64, droptol=1e-8,
            )
            A = spdc_density_matrix(params)
            row, col, _ = A.coo()
            widths.append(int(np.max(np.abs(row - col))))
        assert widths[0] > widths[1] > widths[2]

    def test_under_resolved_pump_warns(self):
        params = SpdcParams(tau_p=2e-13)
        (warning,) = spdc_warnings(params)
        assert warning.startswith("pump envelope under-resolved: 6.18 grid points")
        # the matrix is built all the same
        assert spdc_density_matrix(params).dim == params.grid_points

    def test_amplitude_grid_shape(self):
        f = joint_spectral_amplitude(SpdcParams(grid_points=10))
        assert f.shape == (10, 10)
        assert np.all(np.isfinite(f))


class TestSpdcConfig:
    def test_round_trip_keys(self, tmp_path):
        text = (
            "# toy overrides\n"
            "tau_p = 2e-13\n"
            "grid_points = 32\n"
            "separable_test_mode = true\n"
            "idler_beta2 = 1.5e-25  # trailing comment\n"
            "pump_beta1 = 7e-12\n"
        )
        path = tmp_path / "spdc.cfg"
        path.write_text(text)
        params = SpdcParams.from_config(path)
        assert params.tau_p == 2e-13
        assert params.grid_points == 32
        assert params.separable_test_mode is True
        assert params.idler.beta2 == 1.5e-25
        assert params.pump.beta1 == 7e-12
        # untouched fields keep their defaults
        assert params.poling_period == SpdcParams().poling_period

    def test_unknown_key_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        # an unknown key, and values that do not parse as their field's type
        for line, message in [("whatever = 3", "unknown key 'whatever'"),
                              ("grid_points = 2.5", "int key grid_points got '2.5'"),
                              ("tau_p = fast", "float key tau_p got 'fast'"),
                              ("pump_beta1 = x", "float key pump_beta1 got 'x'"),
                              ("separable_test_mode = yes",
                               "bool key separable_test_mode got 'yes'")]:
            path.write_text(f"tau_p = 1e-13\n{line}\n")
            with pytest.raises(ValueError) as exc:
                SpdcParams.from_config(path)
            assert str(exc.value) == f"{path}:2: {message}"

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("just words\n")
        with pytest.raises(ValueError, match=r"bad\.cfg:1"):
            SpdcParams.from_config(path)

    def test_validation(self):
        with pytest.raises(ValueError):
            SpdcParams(tau_p=0.0)
        with pytest.raises(ValueError):
            SpdcParams(crystal_length=-1.0)
        with pytest.raises(ValueError):
            SpdcParams(omega_min=2.0, omega_max=1.0)
        with pytest.raises(ValueError):
            SpdcParams(grid_points=1)
        # the builder forms grid_points^2 arrays and an O(grid_points^3) product
        with pytest.raises(ValueError, match=f"got {DENSE_CAP + 1}$"):
            SpdcParams(grid_points=DENSE_CAP + 1)


class TestRandomPsd:
    def test_constant_spectrum_is_exact_identity_multiple(self):
        A = random_psd(9, 0, np.full(9, 2.5))
        np.testing.assert_array_equal(A.to_dense(), 2.5 * np.eye(9))

    def test_zero_spectrum_is_exact_zero(self):
        A = random_psd(5, 3, np.zeros(5))
        assert A.nnz == 0

    def test_spectrum_preserved(self):
        spectrum = np.random.default_rng(8).uniform(0.0, 1.0, 30)
        A = random_psd(30, 8, spectrum)
        lam = np.linalg.eigvalsh(A.to_dense())
        np.testing.assert_allclose(lam, np.sort(spectrum), atol=1e-12)

    def test_seeded_reproducibility(self):
        s = np.linspace(0.1, 1.0, 12)
        a = random_psd(12, 5, s).to_dense()
        b = random_psd(12, 5, s).to_dense()
        np.testing.assert_array_equal(a, b)
        c = random_psd(12, 6, s).to_dense()
        assert not np.array_equal(a, c)

    def test_validation(self):
        with pytest.raises(ValueError):
            random_psd(3, 0, np.array([1.0, -0.1, 0.5]))
        with pytest.raises(ValueError):
            random_psd(3, 0, np.ones(4))
        with pytest.raises(ValueError):
            random_psd(2001, 0, np.ones(2001))
