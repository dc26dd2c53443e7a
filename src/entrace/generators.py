"""Builders for test and experiment matrices.

Three families: the (2, -1) second-difference matrix whose entropy is known
in closed form, single-photon reduced density matrices of spontaneous
parametric down-conversion (SPDC) on a frequency grid, and random PSD
matrices with a prescribed spectrum. All are deterministic in their inputs.

The SPDC and random builders materialize a dense m x m intermediate, so they
are desk-scale tools; the estimator itself has no such limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .sparse import SymmetricSparseMatrix

_LOG2 = math.log(2.0)


def fem_matrix(m):
    """Tridiagonal matrix with 2 on the diagonal and -1 off it.

    The 1-D second-difference (stiffness) matrix; PSD with eigenvalues
    4 sin^2(i pi / (2m + 2)), all in (0, 4). It is handed over as its three
    diagonals, one value each, so no entry list is built or sorted and no
    diagonal is filled; the matrix is the one its 3m - 2 entries would
    build, stored by column at m = 2.
    """
    m = int(m)
    if m < 1:
        raise ValueError("dimension must be at least 1")
    data = np.broadcast_to(np.array([[-1.0], [2.0], [-1.0]]), (3, m))
    # diagonal -1 has no entry in row 0, and diagonal 1 none in row m - 1
    held = np.ones((3, m), dtype=bool)
    held[0, 0] = held[2, -1] = False
    return SymmetricSparseMatrix._from_diagonals(m, (-1, 0, 1), data, held)


@dataclass(frozen=True)
class Dispersion:
    """Quadratic propagation-constant model for one photon.

    k(w) = beta0 + beta1 * (w - omega_ref) + beta2 * (w - omega_ref)^2,
    with beta0 in 1/m, beta1 in s/m, beta2 in s^2/m, omega_ref in rad/s.
    """

    beta0: float
    beta1: float
    beta2: float
    omega_ref: float

    def propagation_constant(self, omega):
        d = np.asarray(omega, dtype=np.float64) - self.omega_ref
        return self.beta0 + self.beta1 * d + self.beta2 * d * d


@dataclass(frozen=True)
class SpdcParams:
    """Physical and numerical parameters of the SPDC density-matrix builder.

    SI units throughout: times in seconds, angular frequencies in rad/s,
    lengths in meters. ``tau_p`` is the pump pulse duration entering the
    Gaussian envelope exp(-(wi + ws - omega_cp)^2 tau_p^2 / (8 log 2));
    ``omega_cp`` is the pump carrier frequency; ``crystal_length`` and
    ``poling_period`` control the sinc phase-matching factor (a length of 0
    turns phase matching off). The frequency grid for both photons is
    ``grid_points`` uniform samples of [omega_min, omega_max].

    ``separable_test_mode`` replaces the joint amplitude with an exactly
    separable product of Gaussians, making the density matrix rank one.
    ``amplitude_scale`` multiplies the amplitude; the matrix scales with its
    square. Entries below ``droptol`` * max|A| are dropped symmetrically.
    """

    tau_p: float = 1.0e-13
    omega_cp: float = 2.4e15
    crystal_length: float = 1.0e-3
    poling_period: float = 9.014e-6
    # toy quadratic dispersion: beta2 sized so the phase mismatch sweeps
    # roughly pi across the grid, beta1 mismatch tilts the ridge
    idler: Dispersion = field(default_factory=lambda: Dispersion(0.0, 0.0, 3.0e-25, 1.2e15))
    signal: Dispersion = field(default_factory=lambda: Dispersion(0.0, 0.0, 3.0e-25, 1.2e15))
    pump: Dispersion = field(
        default_factory=lambda: Dispersion(2.0 * math.pi / 9.014e-6, 6.0e-12, 0.0, 2.4e15)
    )
    omega_min: float = 1.2e15 - 1.0e14
    omega_max: float = 1.2e15 + 1.0e14
    grid_points: int = 64
    separable_test_mode: bool = False
    amplitude_scale: float = 1.0
    droptol: float = 1e-12

    def __post_init__(self):
        if not self.tau_p > 0.0:
            raise ValueError("tau_p must be positive")
        if self.crystal_length < 0.0:
            raise ValueError("crystal_length must be nonnegative")
        if not self.poling_period > 0.0:
            raise ValueError("poling_period must be positive")
        if self.grid_points < 2:
            raise ValueError("grid needs at least 2 points")
        if not self.omega_max > self.omega_min:
            raise ValueError("omega_max must exceed omega_min")
        if self.droptol < 0.0:
            raise ValueError("droptol must be nonnegative")

    def grid(self):
        return np.linspace(self.omega_min, self.omega_max, self.grid_points)

    def grid_step(self):
        return (self.omega_max - self.omega_min) / (self.grid_points - 1)

    @classmethod
    def from_config(cls, path):
        """Read parameters from a flat key=value file ('#' starts a comment).

        Scalar keys match the field names; dispersion models use
        '<photon>_beta0' etc. with photon in {idler, signal, pump}. Unknown
        keys are an error, missing keys keep their defaults.
        """
        scalars = {}
        dispersions = {"idler": {}, "signal": {}, "pump": {}}
        scalar_fields = {
            f.name for f in fields(cls) if f.name not in ("idler", "signal", "pump")
        }
        with open(path, "r", encoding="ascii") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, text = line.partition("=")
                key = key.strip()
                text = text.strip()
                photon, _, attr = key.partition("_")
                if photon in dispersions and attr in ("beta0", "beta1", "beta2", "omega_ref"):
                    dispersions[photon][attr] = float(text)
                elif key in ("grid_points",):
                    scalars[key] = int(text)
                elif key in ("separable_test_mode",):
                    if text.lower() not in ("true", "false", "0", "1"):
                        raise ValueError(f"{path}:{lineno}: boolean key {key} got {text!r}")
                    scalars[key] = text.lower() in ("true", "1")
                elif key in scalar_fields:
                    scalars[key] = float(text)
                else:
                    raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        params = cls(**scalars) if scalars else cls()
        for photon, overrides in dispersions.items():
            if overrides:
                params = replace(
                    params, **{photon: replace(getattr(params, photon), **overrides)}
                )
        return params


def _sinc(x):
    # sin(x)/x with the removable singularity filled; np.sinc is the
    # normalized variant, hence the pi rescale
    return np.sinc(np.asarray(x) / math.pi)


def joint_spectral_amplitude(params):
    """The m x m joint amplitude f(w_a, w_b) on the grid (dense)."""
    w = params.grid()
    wi = w[:, None]
    ws = w[None, :]
    if params.separable_test_mode:
        wc = params.omega_cp / 2.0
        gauss = np.exp(
            -((wi - wc) ** 2 + (ws - wc) ** 2) * params.tau_p**2 / (8.0 * _LOG2)
        )
        return params.amplitude_scale * gauss
    pump_env = np.exp(-((wi + ws - params.omega_cp) ** 2) * params.tau_p**2 / (8.0 * _LOG2))
    delta_k = (
        params.idler.propagation_constant(wi)
        + params.signal.propagation_constant(ws)
        - params.pump.propagation_constant(wi + ws)
        + 2.0 * math.pi / params.poling_period
    )
    phase = _sinc(delta_k * params.crystal_length / 2.0)
    return params.amplitude_scale * pump_env * phase


def spdc_density_matrix(params):
    """Single-photon reduced density matrix A(w_a, w_b) of the SPDC state.

    A is the Gram-type contraction sum_c f(w_a, w_c) f(w_b, w_c) dw over the
    partner photon's grid, hence symmetric PSD by construction. A pump
    envelope too narrow for the grid is built all the same; see
    ``spdc_warnings``.
    """
    f = joint_spectral_amplitude(params)
    a = f @ f.T
    a = (a + a.T) / 2.0
    a *= params.grid_step()
    return SymmetricSparseMatrix.from_dense(a, droptol=params.droptol)


def spdc_warnings(params):
    """Warnings on a parameter set that ``spdc_density_matrix`` still builds:
    a pump envelope narrower than eight grid steps is under-resolved."""
    fwhm = 2.0 * math.sqrt(8.0) * _LOG2 / params.tau_p
    points_across = fwhm / params.grid_step()
    if points_across < 8.0:
        return [f"pump envelope under-resolved: {points_across:.2f} grid points across "
                "its full width at half maximum, want at least 8"]
    return []


def random_psd(m, seed, spectrum):
    """Random symmetric PSD matrix with the given spectrum, reproducibly.

    Starts from diag(spectrum) and applies 4m seeded random plane rotations.
    The two-sided updates use increment form (new = old + correction), so a
    constant spectrum yields exactly that multiple of the identity and zero
    blocks stay exactly zero; general spectra are preserved to rounding.
    """
    m = int(m)
    if m < 1:
        raise ValueError("dimension must be at least 1")
    if m > 2000:
        raise ValueError("random_psd is a desk-scale dense builder, dimension capped at 2000")
    spectrum = np.asarray(spectrum, dtype=np.float64)
    if spectrum.shape != (m,):
        raise ValueError("spectrum must have exactly m entries")
    if np.any(spectrum < 0.0):
        raise ValueError("PSD spectrum entries must be nonnegative")

    a = np.diag(spectrum).copy()
    rng = np.random.default_rng(seed)
    idx = np.arange(m)
    for _ in range(4 * m if m > 1 else 0):
        i, j = rng.choice(m, size=2, replace=False)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        c = math.cos(angle)
        s = math.sin(angle)
        mask = (idx != i) & (idx != j)
        ai = a[i, mask].copy()
        aj = a[j, mask].copy()
        new_i = c * ai - s * aj
        new_j = s * ai + c * aj
        a[i, mask] = new_i
        a[mask, i] = new_i
        a[j, mask] = new_j
        a[mask, j] = new_j
        aii, ajj, aij = a[i, i], a[j, j], a[i, j]
        a[i, i] = aii + s * s * (ajj - aii) - 2.0 * c * s * aij
        a[j, j] = ajj + s * s * (aii - ajj) + 2.0 * c * s * aij
        off = aij * (1.0 - 2.0 * s * s) + c * s * (aii - ajj)
        a[i, j] = off
        a[j, i] = off
    return SymmetricSparseMatrix.from_dense(a, droptol=0.0)
