"""Rademacher-probe entropy estimation with Hoeffding-style confidence radii.

The estimate of -tr(L(A)) is a Monte Carlo average of quadratic forms
xi_i = gamma0 * w_i^T p_n(A / gamma0) w_i over +-1 probe vectors w_i, shifted
by the scaling identity term log(gamma0) * tr(A). Because each probe form is
confined to a computable envelope, a Hoeffding argument yields both the
number of samples needed for a target confidence and an a-posteriori radius
tau such that |estimate - E(A)| <= tau with probability at least p.

Every probe is a pure function of (seed, sample index, dimension): probe i
of length m is the bits of its own counter range of one Philox stream keyed
by the seed. A block of probes is drawn in one call, and runs are
reproducible regardless of thread count, probe block width or early
stopping.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .chebyshev import coefficients, truncation_error_bound
from .clenshaw import quadratic_form
from .sparse import SpectralBound

DEFAULT_N_MAX = 10_000
# the least adaptive cap: the zero-spread count ceil(2 log 40) at p = 0.95
MIN_N_MAX = 8
# bits in one Philox4x64 counter step
_STEP_BITS = 256


@dataclass(frozen=True)
class RademacherSampler:
    """Reproducible stream of +-1 probe vectors, drawn a block at a time.

    The seed keys one counter-based Philox4x64 stream, whose every counter
    step gives 256 bits. Row i (1-based) of length m takes the bits of
    counter steps (i-1)s .. is-1, with s = ceil(m / 256), least significant
    bit first, and bit b gives entry 2b - 1. A row is thus a pure function of
    (seed, i, m): any block of the stream can be drawn in any order, on any
    thread, with identical rows.
    """

    seed: int
    _key: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        # the seed sequence hashes a seed of any size into the 128-bit key
        key = np.random.SeedSequence(self.seed).generate_state(2, np.uint64)
        object.__setattr__(self, "_key", key)

    def sample_vector(self, m, index, count=None):
        """Probe row ``index`` (1-based) of length m, entries +-1.

        With ``count`` the (count, m) block of rows index .. index+count-1.
        """
        if m < 1:
            raise ValueError("dimension must be at least 1")
        if index < 1:
            raise ValueError("sample index is 1-based")
        rows = 1 if count is None else count
        if rows < 1:
            raise ValueError("count must be at least 1")
        steps = (m + _STEP_BITS - 1) // _STEP_BITS
        stream = np.random.Philox(key=self._key)
        stream.advance((index - 1) * steps)
        # little-endian words, so the bits do not depend on the byte order
        words = stream.random_raw(rows * 4 * steps).astype("<u8", copy=False)
        # the float block is allocated before the bit array: in that order a
        # two-thread run on fem:10^6 peaks 2.7 MiB lower in RSS
        block = np.empty((rows, m))
        bits = np.unpackbits(words.view(np.uint8).reshape(rows, -1), axis=1, count=m,
                             bitorder="little")
        np.multiply(bits, 2.0, out=block)
        block -= 1.0
        return block[0] if count is None else block


@dataclass(frozen=True)
class ScalingParams:
    """Spectral rescaling sigma(A) subseteq [0, x0 * gamma0].

    x0 is the approximation interval of the Chebyshev series and gamma0 the
    matrix prefactor in the identity
    E(A) = -gamma0 tr(L(A / gamma0)) - log(gamma0) tr(A).
    """

    x0: float
    gamma0: float
    provenance: str = "user"

    def __post_init__(self):
        if not self.x0 > 0.0:
            raise ValueError("x0 must be positive")
        if not self.gamma0 > 0.0:
            raise ValueError("gamma0 must be positive")
        if self.provenance not in ("gershgorin", "power-iteration", "user"):
            raise ValueError(f"unknown provenance {self.provenance!r}")

    @classmethod
    def from_bound(cls, bound: SpectralBound, x0=1.0):
        """Split an eigenvalue upper bound into (x0, gamma0) with x0*gamma0 = bound.

        x0 = 1 minimizes the sample-count constant; see spread_function.
        """
        if not bound.lambda_max_upper > 0.0:
            raise ValueError(
                "spectral bound must be positive to derive a scaling; "
                "a bound of zero means the matrix is zero and its entropy is 0"
            )
        # the bound is positive, so any nonzero trace leaves it as it is
        return cls.for_matrix(bound, bound.lambda_max_upper, x0)

    @classmethod
    def for_matrix(cls, bound: SpectralBound, trace, x0=1.0, normalize=False):
        """Scaling for a run on a matrix with this eigenvalue bound and trace.

        With normalize the scaling describes the state A / tr(A), so the
        bound is divided by a nonzero trace. A bound that is not positive
        (zero, or negative after division by a negative trace) means a
        matrix that is not PSD, unless the trace is zero too; the estimate is
        then 0 and never reads gamma0, which is set to 1.
        """
        lam = bound.lambda_max_upper
        if normalize and trace != 0.0:
            lam = lam / trace
        if lam <= 0.0 and trace != 0.0:
            raise ValueError("spectral bound is zero but the trace is not; matrix is not PSD")
        return cls(x0=float(x0), gamma0=lam / float(x0) if lam > 0.0 else 1.0,
                   provenance=_provenance(bound))


def _provenance(bound):
    return "user" if bound.method == "user-supplied" else bound.method


@dataclass(frozen=True)
class EntropyEstimate:
    """Result of a sampling run, with enough metadata to audit or replay it.

    ``value`` estimates the entropy -tr(A log A) in nats; |value - truth| <=
    ``tau`` with probability at least ``confidence`` (over the probe draw,
    conditional on the scaling bound actually containing the spectrum).
    """

    value: float
    tau: float
    confidence: float
    samples_used: int
    degree: int
    delta: float
    xi_min: float
    xi_max: float
    trace: float
    scaling: ScalingParams
    seed: int
    capped: bool
    normalized: bool = False
    zero_trace: bool = False
    estimator: str = "adaptive"

    def to_dict(self):
        """JSON-ready dict with a stable key order."""
        return {
            "entropy": self.value,
            "tau": self.tau,
            "confidence": self.confidence,
            "samples": self.samples_used,
            "degree": self.degree,
            "delta": self.delta,
            "gamma0": self.scaling.gamma0,
            "x0": self.scaling.x0,
            "trace": self.trace,
            "seed": self.seed,
            "capped": self.capped,
            "method": {
                "estimator": self.estimator,
                "stream": "philox",
                "bound": self.scaling.provenance,
                "normalized": self.normalized,
                "zero_trace": self.zero_trace,
                "xi_min": self.xi_min,
                "xi_max": self.xi_max,
            },
        }


def sample_count(delta, n, p, m, x0, gamma0):
    """Samples needed so the confidence radius hits the truncation floor.

    N = ceil( (delta / floor)^2 log(2 / (1-p)) / 2 ), at least 1, the count
    at which the Hoeffding half of tau meets floor =
    truncation_error_bound(n, m x0 gamma0). delta is the Hoeffding range of
    a single probe form, including the polynomial-error widening. A count
    too large for a float means forms that no spectrum inside
    [0, x0 gamma0] gives, and raises ValueError.
    """
    _check_hoeffding_args(n, p, m, x0, gamma0)
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    floor = truncation_error_bound(n, m * x0 * gamma0)
    try:
        return max(1, math.ceil((delta / floor) ** 2 * math.log(2.0 / (1.0 - p)) / 2.0))
    except (OverflowError, ValueError):
        # a count beyond float range, or of a nan delta
        raise _escaped(f"the probe forms spread over delta = {delta!r}", x0, gamma0) from None


def error_tolerance(delta, n, num_samples, p, m, x0, gamma0):
    """A-posteriori radius tau: truncation floor plus the Hoeffding deviation.

    tau = floor + delta * sqrt(log(2/(1-p)) / (2 N)), with floor =
    truncation_error_bound(n, m x0 gamma0) = m x0 gamma0 / (2 n (n+1)).
    """
    _check_hoeffding_args(n, p, m, x0, gamma0)
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if num_samples < 1:
        raise ValueError("need at least one sample")
    floor = truncation_error_bound(n, m * x0 * gamma0)
    return floor + delta * math.sqrt(math.log(2.0 / (1.0 - p)) / (2.0 * num_samples))


def _escaped(what, x0, gamma0):
    """The error of probe forms that only an escaped spectrum can give."""
    return ValueError(f"{what}: the spectrum is not inside [0, x0 * gamma0] = "
                      f"[0, {x0 * gamma0!r}]")


def _check_hoeffding_args(n, p, m, x0, gamma0):
    if n < 1:
        raise ValueError("degree must be at least 1")
    if not 0.0 < p < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    if m < 1:
        raise ValueError("dimension must be at least 1")
    if not (x0 > 0.0 and gamma0 > 0.0):
        raise ValueError("x0 and gamma0 must be positive")


def _xi_batch(A, expansion, gamma0, sampler, first, last, threads):
    """Probe forms xi_first..xi_last in index order.

    The probes are cut into blocks of ``A.block_width`` rows; each block is
    drawn in one sampler call and shares its matrix-vector products. With
    threads it is a deterministic map over blocks: sample i never depends on
    any other sample or on the block it lands in, and the reduction below
    consumes results in index order, so the outcome is independent of the
    worker count. The pool never holds more workers than there are blocks in
    the batch or cores to run them.
    """
    starts = range(first, last + 1, A.block_width)

    def block(start):
        count = min(A.block_width, last + 1 - start)
        return quadratic_form(A, sampler.sample_vector(A.dim, start, count), expansion, gamma0)

    workers = min(threads, len(starts), os.cpu_count() or 1)
    if workers <= 1:
        forms = [block(s) for s in starts]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            forms = list(pool.map(block, starts))
    return np.concatenate(forms).tolist()


def _estimate(A, n, p, scaling, sampler, normalize, threads, needed, n_max):
    """The sampling loop behind estimate_fixed and estimate_adaptive.

    Consumes probe forms in index order until ``needed`` samples are drawn.
    With ``n_max=None`` the count stays frozen; otherwise it is re-derived
    from the running extreme probe forms after every sample and capped at
    ``n_max``.

    With normalize=True the estimated state is A / tr(A) (the entropy of a
    density matrix handed in unnormalized) and ``scaling`` must be valid for
    that state: x0 * gamma0 >= lambda_max(A) / tr(A). The stored entries are
    never rescaled; the Chebyshev moments consume A with the widened
    parameter gamma0 * tr(A), because (A/t) / gamma0 = A / (gamma0 t), and
    each probe form is divided by tr(A) afterwards. All Hoeffding quantities
    use the state's own (x0, gamma0) unchanged.
    """
    m = A.dim
    _check_hoeffding_args(n, p, m, scaling.x0, scaling.gamma0)
    tr = A.trace()
    if normalize and tr == 0.0:
        raise ValueError("cannot normalize a matrix with zero trace")
    result = functools.partial(EntropyEstimate, confidence=p, degree=n, scaling=scaling,
                               seed=sampler.seed, normalized=normalize,
                               estimator="fixed" if n_max is None else "adaptive")
    if tr == 0.0:
        return result(value=0.0, tau=0.0, samples_used=0, delta=0.0, xi_min=0.0,
                      xi_max=0.0, trace=0.0, capped=False, zero_trace=True)

    norm_scale = tr if normalize else 1.0
    expansion = coefficients(n, scaling.x0)
    floor_width = 2.0 * truncation_error_bound(n, m * scaling.x0 * scaling.gamma0)
    xi_min = math.inf
    xi_max = -math.inf
    xi_sum = 0.0
    drawn = 0
    capped = False
    while drawn < needed:
        batch = _xi_batch(A, expansion, scaling.gamma0 * norm_scale, sampler,
                          drawn + 1, needed, threads)
        if not all(map(math.isfinite, batch)):
            raise _escaped("a probe form is not finite", scaling.x0, scaling.gamma0)
        for xi_raw in batch:
            drawn += 1
            xi = xi_raw / norm_scale
            xi_sum += xi
            if xi < xi_min:
                xi_min = xi
            if xi > xi_max:
                xi_max = xi
            delta = (xi_max - xi_min) + floor_width
            if n_max is not None:
                want = sample_count(delta, n, p, m, scaling.x0, scaling.gamma0)
                if want > n_max:
                    capped = True
                # the requirement is nondecreasing in delta, so never below drawn
                needed = min(n_max, max(want, needed))

    trace_eff = 1.0 if normalize else tr
    value = -xi_sum / needed - math.log(scaling.gamma0) * trace_eff
    tau = error_tolerance(delta, n, needed, p, m, scaling.x0, scaling.gamma0)
    return result(value=value, tau=tau, samples_used=needed, delta=delta, xi_min=xi_min,
                  xi_max=xi_max, trace=tr, capped=capped)


def estimate_fixed(A, n, num_samples, scaling, sampler, p=0.95, normalize=False, threads=1):
    """Entropy estimate from a fixed number of probe samples.

    delta and tau are computed a posteriori from the realized extreme probe
    forms, so tau is a valid radius for the estimate actually produced, at
    confidence p. Use estimate_adaptive to choose N instead.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    return _estimate(A, n, p, scaling, sampler, normalize, threads,
                     needed=num_samples, n_max=None)


def estimate_adaptive(A, n, p, scaling, sampler, n_max=DEFAULT_N_MAX,
                      normalize=False, threads=1):
    """Entropy estimate with the sample count chosen while sampling.

    Starts from N = 1 and, after every sample, re-derives the required count
    from the running extreme probe forms; the requirement only grows, so the
    loop ends with exactly N samples consumed. If the requirement exceeds
    ``n_max`` the run is truncated there and flagged ``capped`` (tau still
    honestly reflects the smaller N).

    Determinism: sample i depends only on (seed, i, m), and the count update
    consumes samples in index order even when a batch was computed in
    parallel, so the result is identical for any ``threads``.
    """
    if n_max < MIN_N_MAX:
        raise ValueError(f"n_max below {MIN_N_MAX} cannot cover the zero-spread sample count")
    return _estimate(A, n, p, scaling, sampler, normalize, threads, needed=1, n_max=n_max)


def entropy_with_normalization(A, n, p, scaling, sampler, n_max=DEFAULT_N_MAX, threads=1):
    """Adaptive estimate of the entropy of the normalized state A / tr(A).

    ``scaling`` must be valid for the normalized matrix, i.e.
    x0 * gamma0 >= lambda_max(A) / tr(A); divide a bound on A by its trace to
    get one. A zero trace is an error since no normalizable state exists.
    """
    return estimate_adaptive(A, n, p, scaling, sampler, n_max=n_max,
                             normalize=True, threads=threads)
