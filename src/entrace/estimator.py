"""Rademacher-probe entropy estimation with Hoeffding-style confidence radii.

The estimate of -tr(L(A)) is a Monte Carlo average of quadratic forms
xi_i = gamma0 * w_i^T p_n(A / gamma0) w_i over +-1 probe vectors w_i, shifted
by the scaling identity term log(gamma0) * tr(A). Because each probe form is
confined to a computable envelope, a Hoeffding argument yields both the
number of samples needed for a target confidence and an a-posteriori radius
tau such that |estimate - E(A)| <= tau with probability at least p.

Each form takes its degree-1 and degree-2 Chebyshev moments at their exact
means, from tr(A) and ||A||_F^2, which a run computes once before it
samples (see ``clenshaw``). The mean of a form is unchanged, so the
estimate stays unbiased, but the forms spread less: the realized range
that delta and tau read is narrower, and an adaptive run stops sooner, at
no extra matrix-vector product. At n <= 2 every form is the same number.

Where gamma0 comes from a Lanczos run, the scaling keeps it, and the run
picks the leading rows of its basis that deflate each probe instead
(``deflation_basis``): the trace on the rows' span is computed once, and
each form samples only the rest, less a control variate of known mean (see
``clenshaw``). On a low-rank state the rest barely varies, so the forms
spread over far less than the floor, at the same matrix-vector products a
probe. The forms carry the exact part, so the sampling loop, delta and tau
read them as any other.

A run allocates its workspaces once: each worker's probe array, into which
its blocks are drawn and projected, and its work array, which holds t_1.

gamma0 may come from a bound that fails with a stated probability, the
Lanczos bound's eps (``ScalingParams.failure``); the Hoeffding term is
then taken at (1 - p) - eps, so that by a union bound tau still holds
with probability at least p.

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
from dataclasses import dataclass, field, replace

import numpy as np

from .chebyshev import coefficients, truncation_error_bound
from .clenshaw import SpectrumEscape, deflated_part, quadratic_form
from .sparse import _BOUND_METHODS, BLOCK_BYTES, KrylovBasis, SpectralBound

DEFAULT_N_MAX = 10_000
# the least adaptive cap: the zero-spread count ceil(2 log 40) at p = 0.95
MIN_N_MAX = 8
# bits in one Philox4x64 counter step
_STEP_BITS = 256
# probe blocks one batch covers at most, so that a run holds as many forms
# and pool futures whatever its sample count
BATCH_BLOCKS = 1024


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
    _seq: np.random.SeedSequence = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        # the seed sequence hashes a seed of any size into the 128-bit key
        object.__setattr__(self, "_seq", np.random.SeedSequence(self.seed))

    def sample_vector(self, m, index, count=None, out=None):
        """Probe row ``index`` (1-based) of length m, entries +-1.

        With ``count`` the (count, m) block of rows index .. index+count-1.
        ``out``, a float64 array of the result's shape, receives the rows,
        with the same bits, and is returned.
        """
        if m < 1:
            raise ValueError("dimension must be at least 1")
        if index < 1:
            raise ValueError("sample index is 1-based")
        rows = 1 if count is None else count
        if rows < 1:
            raise ValueError("count must be at least 1")
        shape = (m,) if count is None else (rows, m)
        if out is None:
            out = np.empty(shape)
        elif out.shape != shape:
            raise ValueError(f"out shape {out.shape} does not match the rows' {shape}")
        steps = (m + _STEP_BITS - 1) // _STEP_BITS
        # keyed by the seed sequence's first two 64-bit words, with no draw
        # of OS entropy, which Philox(key=...) makes and then discards
        stream = np.random.Philox(self._seq)
        stream.advance((index - 1) * steps)
        # little-endian words, so the bits do not depend on the byte order
        words = stream.random_raw(rows * 4 * steps).astype("<u8", copy=False)
        bits = np.unpackbits(words.view(np.uint8).reshape(rows, -1), axis=1, count=m,
                             bitorder="little")
        np.multiply(bits.reshape(shape), 2.0, out=out)
        out -= 1.0
        return out

    def start_vector(self, m):
        """A Gaussian vector of length m, the start of the Lanczos bound.

        It comes from its own Philox stream, keyed by the seed sequence's
        first child, so the probe rows keep their bits. Each pair of raw
        words gives two entries by the Box-Muller transform, through
        ``math``'s log, cos and sin, so that neither numpy's version nor its
        SIMD loops change the vector.
        """
        child = np.random.SeedSequence(self.seed, spawn_key=(0,))
        words = np.random.Philox(child).random_raw(2 * ((m + 1) // 2))
        # 53-bit uniforms u in [0, 1), exact in float64
        u = ((words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53).tolist()
        out = []
        for a, b in zip(u[0::2], u[1::2]):
            r = math.sqrt(-2.0 * math.log(1.0 - a))
            out += (r * math.cos(2.0 * math.pi * b), r * math.sin(2.0 * math.pi * b))
        return np.array(out[:m])


@dataclass(frozen=True)
class ScalingParams:
    """Spectral rescaling sigma(A) subseteq [0, x0 * gamma0].

    x0 is the approximation interval of the Chebyshev series and gamma0 the
    matrix prefactor in the identity
    E(A) = -gamma0 tr(L(A / gamma0)) - log(gamma0) tr(A). A run depends on x0
    only through x0 * gamma0 (log x0 enters a_0 and a_1, and mu_1 is exact),
    so the constructors take x0 = 1, where spread_function is least.
    ``failure`` is the probability that x0 * gamma0 does not bound the
    spectrum, that of the bound it came from; tau's Hoeffding term is taken
    at (1 - p) - failure, so that tau holds with probability at least p.
    ``krylov`` is the Lanczos run of a bound of method "lanczos", whose
    basis deflates the probes (see ``deflation_basis``).
    """

    x0: float
    gamma0: float
    provenance: str = "user"
    failure: float = 0.0
    krylov: KrylovBasis | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.x0 > 0.0:
            raise ValueError("x0 must be positive")
        if not self.gamma0 > 0.0:
            raise ValueError("gamma0 must be positive")
        if self.provenance not in _BOUND_METHODS:
            raise ValueError(f"unknown provenance {self.provenance!r}")
        if not 0.0 <= self.failure < 1.0:
            raise ValueError(f"failure probability must lie in [0, 1), got {self.failure!r}")

    @classmethod
    def from_bound(cls, bound: SpectralBound):
        """The scaling x0 = 1, gamma0 = the eigenvalue upper bound."""
        if not bound.lambda_max_upper > 0.0:
            raise ValueError(
                "spectral bound must be positive to derive a scaling; "
                "a bound of zero means the matrix is zero and its entropy is 0"
            )
        return cls(x0=1.0, gamma0=bound.lambda_max_upper, provenance=bound.method,
                   failure=bound.failure, krylov=bound.krylov)

    @classmethod
    def for_matrix(cls, bound: SpectralBound, trace, normalize=False):
        """Scaling x0 = 1 for a run on a matrix with this eigenvalue bound and trace.

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
        return cls(x0=1.0, gamma0=lam if lam > 0.0 else 1.0,
                   provenance=bound.method, failure=bound.failure, krylov=bound.krylov)


def deflation_basis(scaling, n, trace, normalize=False):
    """The leading rows of the scaling's Lanczos run that deflate each probe.

    ``scaling.krylov`` is a ``KrylovBasis`` of A, or None, and ``trace`` is
    tr A. The rows q_1..q_k are kept for the least k with

        2 L m (|r_k| + r) / s <= floor / 4,

    where r_k = tr A - (alpha_1 + ... + alpha_k), the trace A keeps off the
    span of the rows, is exact from the run and costs no product; r is the
    run's rounding allowance; s is tr A under ``normalize`` and 1 otherwise;
    floor = truncation_error_bound(n, m x0 gamma0); and L = 2 n^2 (|a_0| / 2
    + sum_k |a_k|) / x0 bounds |p_n'| on [0, x0] by Markov's inequality. No
    such k: no rows, a (0, m) view, and the probes are not deflated. No
    run, or a trace that is not positive: None.

    The rule bounds the spread of the deflated forms: for PSD A, P A P is
    PSD with trace r_k, so x = P w has x^T A x <= m r_k, and |p_n(x) -
    p_n(0)| <= L x on [0, x0]; each form thus lies within L m r_k / s of the
    exact part and its constant, and the forms spread over a quarter of the
    floor at most, against the widening's two floors. The basis comes from
    the start vector, not the probes, so any k leaves the forms unbiased.
    """
    krylov = scaling.krylov
    if krylov is None or not trace > 0.0:
        return None
    m = krylov.rows.shape[1]
    a = coefficients(n, scaling.x0).coeffs
    slope = 2.0 * n * n * (abs(a[0]) / 2.0 + float(np.abs(a[1:]).sum())) / scaling.x0
    floor = truncation_error_bound(n, m * scaling.x0 * scaling.gamma0)
    residual = np.abs(trace - np.cumsum(krylov.alpha)) + krylov.rounding
    fits = np.flatnonzero(2.0 * slope * m * residual / (trace if normalize else 1.0)
                          <= floor / 4.0)
    return krylov.rows[:fits[0] + 1 if fits.size else 0]


@dataclass(frozen=True)
class EntropyEstimate:
    """Result of a sampling run, with enough metadata to audit or replay it.

    ``value`` estimates the entropy -tr(A log A) in nats; |value - truth| <=
    ``tau`` with probability at least ``confidence`` over the probe draw and,
    for a Lanczos bound, its start vector. A scaling that cannot fail,
    Gershgorin's or ``--gamma0``, must contain the spectrum.
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
    # rows that deflated the probes; None where the scaling kept no basis
    deflation: int | None = None

    def to_dict(self):
        """JSON-ready dict with a stable key order.

        ``method.deflation`` is there only for a run whose scaling kept a
        Lanczos run, even where the rule keeps no row of it.
        """
        method = {"estimator": self.estimator, "stream": "philox",
                  "bound": self.scaling.provenance}
        if self.deflation is not None:
            method["deflation"] = self.deflation
        method.update(normalized=self.normalized, zero_trace=self.zero_trace,
                      xi_min=self.xi_min, xi_max=self.xi_max)
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
            "method": method,
        }


def sample_count(delta, n, p, m, x0, gamma0, failure=0.0):
    """Samples needed so the confidence radius hits the truncation floor.

    N = ceil( (delta / floor)^2 log(2 / ((1-p) - failure)) / 2 ), at least
    1, the count at which the Hoeffding half of tau meets floor =
    truncation_error_bound(n, m x0 gamma0); ``failure`` is the scaling's
    (see ``ScalingParams``). delta is the Hoeffding range of a single probe
    form, including the polynomial-error widening. A count too large for a
    float means forms that no spectrum inside [0, x0 gamma0] gives, and
    raises ValueError.
    """
    _check_hoeffding_args(n, p, m, x0, gamma0, failure)
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    floor = truncation_error_bound(n, m * x0 * gamma0)
    try:
        return max(1, math.ceil((delta / floor) ** 2 * _log_term(p, failure) / 2.0))
    except (OverflowError, ValueError):
        # a count beyond float range, or of a nan delta
        raise _escaped(f"the probe forms spread over delta = {delta!r}", x0, gamma0) from None


def error_tolerance(delta, n, num_samples, p, m, x0, gamma0, failure=0.0):
    """A-posteriori radius tau: truncation floor plus the Hoeffding deviation.

    tau = floor + delta * sqrt(log(2/((1-p) - failure)) / (2 N)), with floor =
    truncation_error_bound(n, m x0 gamma0) = m x0 gamma0 / (2 n (n+1)). By a
    union bound with the scaling's ``failure``, tau holds with probability
    at least p.
    """
    _check_hoeffding_args(n, p, m, x0, gamma0, failure)
    if delta < 0.0:
        raise ValueError("delta must be nonnegative")
    if num_samples < 1:
        raise ValueError("need at least one sample")
    floor = truncation_error_bound(n, m * x0 * gamma0)
    return floor + delta * math.sqrt(_log_term(p, failure) / (2.0 * num_samples))


def _log_term(p, failure):
    """log(2 / ((1 - p) - failure)), Hoeffding's at the probes' share of 1 - p."""
    return math.log(2.0 / ((1.0 - p) - failure))


def _escaped(what, x0, gamma0):
    """The error of probe forms that only an escaped spectrum can give."""
    return ValueError(f"{what}: the spectrum is not inside [0, x0 * gamma0] = "
                      f"[0, {x0 * gamma0!r}]")


def _check_hoeffding_args(n, p, m, x0, gamma0, failure):
    if n < 1:
        raise ValueError("degree must be at least 1")
    if not 0.0 < p < 1.0:
        raise ValueError("confidence must lie strictly between 0 and 1")
    if not 0.0 <= failure < 1.0 - p:
        raise ValueError(f"the scaling's failure probability {failure!r} leaves the probes "
                         f"none of 1 - p = {1.0 - p!r}")
    if m < 1:
        raise ValueError("dimension must be at least 1")
    if not (x0 > 0.0 and gamma0 > 0.0):
        raise ValueError("x0 and gamma0 must be positive")


def core_count():
    """Cores this process may run on: its CPU affinity mask, or
    ``os.cpu_count()`` where the platform has no ``os.sched_getaffinity``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _xi_batch(A, sampler, first, last, threads, form, free, height):
    """Probe forms xi_first..xi_last in index order.

    The probes are cut into blocks of at most ``height`` rows; each
    block is drawn in one sampler call, and ``form(A, probes, work=work)``
    gives its forms, sharing its matrix-vector products. With threads it is
    a deterministic map over blocks: sample i never depends on any other
    sample or on the block it lands in, and the reduction below consumes
    results in index order, so the outcome is independent of the worker
    count. The pool never holds more workers than there are blocks in the
    batch or cores to run them.

    A block runs in a workspace from ``free``, the run's list of them: a
    probe array and a work array of ``height`` rows, sliced to the block's.
    Its probes are drawn into the first, and its form projects them there,
    if it deflates, and holds t_1 in the second (see ``quadratic_form``). A
    block takes a free workspace, or makes one if none is free, and frees it
    when its forms are done, so a run makes one workspace a worker at most,
    in whatever order the pool runs the blocks.
    """
    width = min(height, last + 1 - first)
    starts = range(first, last + 1, width)

    def block(start):
        count = min(width, last + 1 - start)
        # list.pop and list.append are atomic across threads
        try:
            probes, work = free.pop()
        except IndexError:
            probes, work = np.empty((height, A.dim)), np.empty((height, A.dim))
        try:
            return form(A, sampler.sample_vector(A.dim, start, count, out=probes[:count]),
                        work=work[:count])
        finally:
            free.append((probes, work))

    workers = min(threads, len(starts), core_count())
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

    Where ``deflation_basis`` keeps k rows Q of the scaling's Lanczos run,
    each form is the deflated one of ``quadratic_form``, which carries the
    exact part gamma0 tr(Q p_n Q^T) and the control variate's constant: the
    loop, delta, tau and the widening read it as any form. The estimate's
    scaling keeps no run, so the basis lives only as long as the run does.
    """
    m = A.dim
    _check_hoeffding_args(n, p, m, scaling.x0, scaling.gamma0, scaling.failure)
    tr = A.trace()
    if normalize and tr == 0.0:
        raise ValueError("cannot normalize a matrix with zero trace")
    result = functools.partial(EntropyEstimate, confidence=p, degree=n, seed=sampler.seed,
                               scaling=replace(scaling, krylov=None), normalized=normalize,
                               estimator="fixed" if n_max is None else "adaptive")
    if tr == 0.0:
        return result(value=0.0, tau=0.0, samples_used=0, delta=0.0, xi_min=0.0,
                      xi_max=0.0, trace=0.0, capped=False, zero_trace=True)

    norm_scale = tr if normalize else 1.0
    gamma0 = scaling.gamma0 * norm_scale
    expansion = coefficients(n, scaling.x0)
    rows = deflation_basis(scaling, n, tr, normalize)
    k = None if rows is None else len(rows)
    if k:
        try:
            constant = deflated_part(A, rows, expansion, gamma0)
        except SpectrumEscape as exc:
            raise _escaped(str(exc), scaling.x0, scaling.gamma0) from None
        # every moment sampled: the exact means of mu_1 and mu_2 are the
        # whole probe's, not its projection's
        form = functools.partial(quadratic_form, expansion=expansion, gamma0=gamma0,
                                 deflation=(rows, constant))
    else:
        # the exact means of mu_1 and mu_2 for every probe
        form = functools.partial(quadratic_form, expansion=expansion, gamma0=gamma0,
                                 traces=(tr, A.frobenius_squared()))
    # the run's workspaces, of the rows of its largest block, whose (b, n + 1)
    # moments stay within BLOCK_BYTES
    free = []
    height = max(1, min(A.block_width, BLOCK_BYTES // (8 * (n + 1)),
                        needed if n_max is None else n_max))
    floor_width = 2.0 * truncation_error_bound(n, m * scaling.x0 * scaling.gamma0)
    xi_min = math.inf
    xi_max = -math.inf
    xi_sum = 0.0
    drawn = 0
    capped = False
    while drawn < needed:
        try:
            batch = _xi_batch(A, sampler, drawn + 1, min(needed, drawn + BATCH_BLOCKS * height),
                              threads, form, free, height)
        except SpectrumEscape as exc:
            # worded with the state's interval, as every escape is
            raise _escaped(str(exc), scaling.x0, scaling.gamma0) from None
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
                want = sample_count(delta, n, p, m, scaling.x0, scaling.gamma0,
                                    scaling.failure)
                if want > n_max:
                    capped = True
                # the requirement is nondecreasing in delta, so never below drawn
                needed = min(n_max, max(want, needed))

    trace_eff = 1.0 if normalize else tr
    value = -xi_sum / needed - math.log(scaling.gamma0) * trace_eff
    tau = error_tolerance(delta, n, needed, p, m, scaling.x0, scaling.gamma0,
                          scaling.failure)
    return result(value=value, tau=tau, samples_used=needed, delta=delta, xi_min=xi_min,
                  xi_max=xi_max, trace=tr, capped=capped, deflation=k)


def estimate_fixed(A, n, num_samples, scaling, sampler, p=0.95, normalize=False, threads=1):
    """Entropy estimate from a fixed number of probe samples.

    delta and tau are computed a posteriori from the realized extreme probe
    forms, so tau is a valid radius for the estimate actually produced, at
    confidence p. Use estimate_adaptive to choose N instead. A scaling that
    keeps a Lanczos run, as ``ScalingParams.for_matrix`` of a Lanczos bound
    does, deflates every probe with the rows ``deflation_basis`` keeps of
    it; the estimate records k, 0 for no rows.
    """
    if num_samples < 1:
        raise ValueError("need at least one sample")
    return _estimate(A, n, p, scaling, sampler, normalize, threads, num_samples, n_max=None)


def estimate_adaptive(A, n, p, scaling, sampler, n_max=DEFAULT_N_MAX, normalize=False, threads=1):
    """Entropy estimate with the sample count chosen while sampling.

    Starts from N = 1 and, after every sample, re-derives the required count
    from the running extreme probe forms; the requirement only grows, so the
    loop ends with exactly N samples consumed. If the requirement exceeds
    ``n_max`` the run is truncated there and flagged ``capped`` (tau still
    honestly reflects the smaller N).

    Determinism: sample i depends only on (seed, i, m), and the count update
    consumes samples in index order even when a batch was computed in
    parallel, so the result is identical for any ``threads``. Deflation is
    as in ``estimate_fixed``.
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
