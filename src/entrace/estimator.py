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
bounds the entropy with certainty from that run alone, at no product
(``lanczos_interval``): pinching above and the Fannes-Audenaert inequality
below. A run answers from the narrower of that interval and its sampled
one; an adaptive run whose interval is at most the floor, which no sampled
tau beats, draws no probe.

A run allocates its workspaces once: each worker's probe array, into which
its blocks are drawn, and, where the forms take the whole-vector path (see
``clenshaw``), its work array, which holds t_1.

On a matrix stored by diagonal whose scaling is certain, a bound that
cannot fail and puts the spectrum in [0, x0 * gamma0], a run draws no probe
(``colour_count``). Its n beta + 1 colour rows give every tr T_k(B), k <= n,
exactly, through the tiled kernel, whose row tiles map over the pool, and
no row is ever a (dim,) vector; the run reports an
interval that holds with certainty: two Gauss-Radau rules on those moments,
met with the polynomial's trace plus and minus the floor, each end widened
by a rounding allowance derived from the arithmetic (``_exact_estimate``).

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

from .chebyshev import coefficients, entropy_function, truncation_error_bound
from .clenshaw import SpectrumEscape, _tiled_moments, quadratic_form, tile_rows
from .sparse import _BOUND_METHODS, BLOCK_BYTES, LANCZOS_STEPS, SpectralBound

DEFAULT_N_MAX = 10_000
# the least adaptive cap: the zero-spread count ceil(2 log 40) at p = 0.95
MIN_N_MAX = 8
# bits in one Philox4x64 counter step
_STEP_BITS = 256
# probe blocks one batch covers at most, so that a run holds as many forms
# and pool futures whatever its sample count
BATCH_BLOCKS = 1024
# forms one batch holds at most, as floats, so that a run on a matrix of
# wide blocks holds no more: 2^16 forms are about 2.5 MiB as a list
BATCH_FORMS = 2**16
# unit roundoff of float64
_UNIT = np.finfo(np.float64).eps / 2.0
# free nodes of the largest Gauss-Radau rule, so moments up to degree 64
# at most enter the rules: the rules of a run cost O(N^4), 30 ms at 32
RADAU_NODES = 32


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
    ``bound`` is the ``SpectralBound`` the scaling came from, None for a
    user scaling. A Lanczos bound's run (``bound.krylov``) bounds the
    entropy with certainty (see ``lanczos_interval``), and a bound that
    cannot fail and puts the whole spectrum in [0, x0 * gamma0] lets a
    matrix stored by diagonal take exact moments instead (see
    ``colour_count``).
    """

    x0: float
    gamma0: float
    provenance: str = "user"
    failure: float = 0.0
    bound: SpectralBound | None = field(default=None, compare=False, repr=False)

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
                   failure=bound.failure, bound=bound)

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
                   provenance=bound.method, failure=bound.failure, bound=bound)


def colour_count(A, n, scaling, normalize=False):
    """r = min(n beta + 1, m), the colour rows of exact moments, or None.

    A run takes exact moments, and draws no probe, where every condition
    below holds; otherwise it samples:

    - A is stored by diagonal, of half-bandwidth beta = ``A.bandwidth``;
    - the scaling came from a bound (``scaling.bound``) that cannot fail
      and proves the spectrum inside [0, x0 * gamma0]: ``failure`` 0,
      ``lambda_min_lower`` >= 0, and x0 * gamma0 at or above its
      ``lambda_max_upper``, divided by tr A under ``normalize``;
    - r is at most ``DEFAULT_N_MAX``, so that no degree or bandwidth starts
      unbounded work.

    A user scaling (``--gamma0``) proves nothing of lambda_min, and a
    Lanczos bound may fail, so neither takes the route; nor does a matrix
    stored by column or one that gathers its products.
    """
    beta, bound = A.bandwidth, scaling.bound
    if beta is None or bound is None or bound.failure != 0.0 \
            or not bound.lambda_min_lower >= 0.0:
        return None
    top = bound.lambda_max_upper
    if normalize:
        # as ScalingParams.for_matrix divides it
        tr = A.trace()
        top = top / tr if tr > 0.0 else math.inf
    if not scaling.x0 * scaling.gamma0 >= top:
        return None
    r = min(n * beta + 1, A.dim)
    return r if r <= DEFAULT_N_MAX else None


def _colour_tile(colours, r, base, out):
    """Entries base.. of the colour rows ``colours`` into ``out``: colour k's
    row is the indicator of {i : i = k mod r}."""
    out.fill(0.0)
    for row, colour in zip(out, colours):
        row[(colour - base) % r::r] = 1.0
    return out


def _gamma(k):
    """gamma_k = k u / (1 - k u): k roundings, each of relative size u at most."""
    return k * _UNIT / (1.0 - k * _UNIT)


def _moment_rounding(n, width, m, r):
    """D with |S_k - tr T_k(B)| <= m D for the summed moments S_k, k <= n.

    Each product step t_j+1 = 2 (c A t_j - t_j) - t_j-1 sums ``width``
    products a row and rounds four more times, so it errs by e_j with
    ||e_j|| <= 14 gamma_(width + 3) ||v|| (c |A| has norm 2 at most, and
    each computed t_j is within ||v|| of its exact norm, which is at most
    ||v||). The error of t_k is sum_j U_(k-1-j)(B) e_j, and ||U_i(B)|| <= i + 1,
    so ||t_k - T_k(B) v|| <= k (k + 1) / 2 * 14 gamma ||v||. A moment is
    twice an inner product of t_j's, j <= J = ceil(n / 2), each summed over
    m entries (gamma_m), less mu_0, which is exact, or mu_1. Per row of norm
    ||v||: ||v||^2 ((4 J (J + 1) + 1) 14 gamma_(width + 3) + 10 gamma_m +
    10 u). The rows' norms sum to m, and their moments are summed in turn
    (gamma_r).
    """
    j = (n + 1) // 2
    row = (4 * j * (j + 1) + 1) * 14.0 * _gamma(width + 3) + 10.0 * _gamma(m) + 10.0 * _UNIT
    return row + _gamma(r) * (1.0 + row)


def _jacobi(nu, count):
    """alpha_0..alpha_(count-1) and beta_0..beta_count of the measure with
    Chebyshev moments nu_k = int T_k, k <= 2 count.

    Gautschi's modified Chebyshev algorithm (SIAM J. Sci. Stat. Comput.
    3(3), 1982) on the moments of the monic Chebyshev polynomials, 2^(1-k)
    nu_k, whose recurrence has a_k = 0, b_1 = 1/2 and b_k = 1/4. The
    coefficients of a shorter rule are a prefix of these. Where the measure
    has fewer support points than a step needs, the step's beta is zero or
    not a number, and so are those after it.
    """
    size = 2 * count + 1
    sig = np.asarray(nu[:size], dtype=np.float64) * 2.0 ** (1 - np.arange(size))
    sig[0] = nu[0]
    b = np.full(size, 0.25)
    b[1:2] = 0.5
    alpha, beta = np.zeros(count), np.zeros(count + 1)
    beta[0] = sig[0]
    prev = np.zeros(size)
    with np.errstate(all="ignore"):
        if count:
            alpha[0] = sig[1] / sig[0]
        for k in range(1, count + 1):
            ls = np.arange(k, size - k)
            new = np.zeros(size)
            new[ls] = (sig[ls + 1] - alpha[k - 1] * sig[ls] - beta[k - 1] * prev[ls]
                       + b[ls] * sig[ls - 1])
            beta[k] = new[k] / sig[k - 1]
            if k < count:
                alpha[k] = new[k + 1] / new[k] - sig[k] / sig[k - 1]
            prev, sig = sig, new
    return alpha, beta


def _radau_side(nu, nu_err, unit, alpha, beta, a):
    """(Q, slack) of the Gauss-Radau rule with len(alpha) free nodes and one at a.

    g(y) = f(unit (y + 1)), f(x) = x log x. For a = -1, int g dmu <= Q +
    slack; for a at or above the top of the support, int g dmu >= Q - slack.
    None where the rule cannot be formed or a free node is not above -1.

    The rule is Golub-Welsch on the Jacobi matrix whose last diagonal entry
    puts a node at a (Golub, SIAM Rev. 15(2), 1973). Let H be the Hermite
    interpolant of g, of degree 2N, at a once and at the other computed
    nodes x_i twice. Then g - H = g[a, x_1, x_1, ..., y] (y - a) prod (y -
    x_i)^2, and g's derivative of order 2N + 1 is negative for y > -1, so
    g <= H on the support for a = -1 and g >= H for a above it, whatever
    the nodes. int H dmu = Q + sum_k h_k (nu_k - nu'_k), where nu'_k =
    sum_i w_i T_k(x_i) are the rule's own moments. So the slack is ||h||_1
    (max_k |nu_k - nu'_k| + nu_err), with h's Chebyshev coefficients from a
    solve whose error its residual bounds, plus the rounding of Q itself:
    Gautschi's, ``eigh``'s and the solve's errors widen the bound but
    cannot break it.
    """
    count = len(alpha)
    ratio = a - alpha[0]
    for k in range(1, count):
        ratio = (a - alpha[k]) - beta[k] / ratio
    last = a - beta[count] / ratio
    if not (np.isfinite(beta).all() and np.all(beta[1:] >= 0.0)
            and np.isfinite(alpha).all() and math.isfinite(last)):
        return None
    off = np.sqrt(beta[1:count + 1])
    nodes, vectors = np.linalg.eigh(np.diag(np.append(alpha, last)) + np.diag(off, 1)
                                    + np.diag(off, -1))
    weights = beta[0] * vectors[0] ** 2
    fixed = int(np.abs(nodes - a).argmin())
    nodes[fixed] = a
    free = np.arange(count + 1) != fixed
    if not nodes[free].min() > -1.0:
        return None
    x = unit * (nodes + 1.0)
    logs = np.log(x)
    g = np.where(x > 0.0, x * logs, 0.0)
    slope = unit * (logs[free] + 1.0)
    if not (np.isfinite(g).all() and np.isfinite(slope).all()):
        return None
    # T_k and U_k at the nodes, k <= 2N; T_k' = k U_(k-1)
    size = 2 * count + 1
    cheb, second = np.empty((size, count + 1)), np.empty((size, count + 1))
    cheb[0], cheb[1] = 1.0, nodes
    second[0], second[1] = 1.0, 2.0 * nodes
    for k in range(2, size):
        cheb[k] = 2.0 * nodes * cheb[k - 1] - cheb[k - 2]
        second[k] = 2.0 * nodes * second[k - 1] - second[k - 2]
    slopes = np.zeros((size, count + 1))
    slopes[1:] = np.arange(1, size)[:, None] * second[:-1]
    system = np.concatenate((cheb.T, slopes.T[free]))
    values = np.concatenate((g, slope))
    try:
        inverse = np.linalg.inv(system)
    except np.linalg.LinAlgError:
        return None
    h = np.einsum("kj,j->k", inverse, values)
    # ||h - h~||_1 <= ||system^-1||_1 ||values - system h~||_1, and
    # ||system^-1||_1 <= ||inverse||_1 / (1 - ||I - inverse system||_1),
    # each product's own rounding bounded by gamma_(size + 1) of its
    # absolute values
    grow = _gamma(size + 1)
    absolute = np.abs(system)
    residual = (np.abs(values - np.einsum("jk,k->j", system, h)).sum()
                + grow * (np.einsum("jk,k->j", absolute, np.abs(h)) + np.abs(values)).sum())
    left = np.abs(np.eye(size) - np.einsum("ij,jk->ik", inverse, system)) + grow * np.einsum(
        "ij,jk->ik", np.abs(inverse), absolute)
    theta = left.sum(axis=0).max()
    if not theta < 1.0:
        return None
    h_norm = (np.abs(h).sum() + np.abs(inverse).sum(axis=0).max() / (1.0 - theta) * residual)
    # the rule's moments, each T_k within 3 k (k + 1) u of its value, and
    # |T_k| within twice the computed one's
    mass = np.abs(weights).sum()
    own = np.einsum("ki,i->k", cheb, weights)
    mismatch = (np.abs(own - nu[:size]).max() + (3 * (size - 1) * size + count + 2) * _UNIT
                * mass * 2.0 * max(1.0, np.abs(cheb).max()))
    q = float(np.einsum("i,i->", weights, g))
    # each g_i within 6 u (|g_i| + x_i) of f at the node, and the sum
    rounding = (count + 8) * _UNIT * float(np.einsum("i,i->", np.abs(weights), np.abs(g) + x))
    slack = (1.0 + _gamma(2 * size)) * h_norm * (mismatch + nu_err) + rounding
    return (q, slack) if math.isfinite(slack) else None


def radau_bounds(nu, nu_err, unit, top):
    """(lo, hi) with lo <= int f(unit (y + 1)) dmu(y) <= hi, f(x) = x log x.

    ``nu`` holds the moments nu_k = int T_k dmu, k <= n, of a probability
    measure on [-1, top], top >= -1, each within ``nu_err``. Every
    Gauss-Radau rule with N = 1 .. min(floor(n / 2), ``RADAU_NODES``) free
    nodes, with its fixed node at -1 for hi and at ``top`` for lo, gives a
    bound (see ``_radau_side``); the bounds are intersected. A rule that
    cannot be formed, as past the support points of a measure with N or
    fewer, gives none, and with no rule the bounds are infinite.
    """
    count = min((len(nu) - 1) // 2, RADAU_NODES)
    lo, hi = -math.inf, math.inf
    alpha, beta = _jacobi(nu, count)
    # an overflow or a division by zero in a rule ends in a number that is
    # not finite, and the rule is refused
    with np.errstate(all="ignore"):
        for k in range(1, count + 1):
            upper = _radau_side(nu, nu_err, unit, alpha[:k], beta[:k + 1], -1.0)
            lower = _radau_side(nu, nu_err, unit, alpha[:k], beta[:k + 1], top)
            if upper is not None:
                hi = min(hi, upper[0] + upper[1])
            if lower is not None:
                lo = max(lo, lower[0] - lower[1])
    return lo, hi


def lanczos_interval(krylov, trace):
    """(lo, hi) with lo <= S(A / t) <= hi for PSD A of trace t, from its Lanczos run.

    ``krylov`` is a ``KrylovBasis`` of K steps on A, of dimension m. In units
    of the state A / t after k steps, S_T is the entropy of T_k's Ritz
    values, rho = r_k / t with r_k = t - (alpha_1 + ... + alpha_k) the trace
    A keeps off the rows, exact from the run, and T = beta_k / t. The
    pinching of A onto the rows and their complement is majorized by A
    (Bhatia, Matrix Analysis, Springer 1997, ch. II) and lies 2 beta_k from
    it in trace norm, so by Schur concavity above and the Fannes-Audenaert
    inequality (Audenaert, J. Phys. A 40(28), 8127, 2007) below

        S_T - rho log rho - T log(m - 1) - h(T) <= S(A / t)
                                                <= S_T + rho log((m - k) / rho),

    h the binary entropy. The width rho log(m - k) + T log(m - 1) + h(T)
    involves no Ritz value, so k is the index where it is least and one
    ``eigvalsh`` of T_k gives the centre. beta_k is known for k < K, and at
    k = K only after a breakdown, below its threshold, or at K = m, where
    both terms vanish.

    Rounding: as ``lanczos_upper_bound`` takes it, the run is within r =
    ``krylov.rounding`` of an exact one on A with orthonormal rows, and
    ``eigvalsh`` errs by r more. By Weyl's theorem each Ritz value moves by
    2 r, so with t's own rounding each x log x moves by delta log(e /
    delta) at most, above its modulus of continuity on [0, 1]; r_k moves by
    k r, and the off-diagonal block, of rank k, by k r in trace norm. rho
    and T are taken at the worse ends of their allowances, and each end is
    widened by the rest and by its sums' rounding. A Ritz value or an r_k
    below zero by more than its allowance proves A is not PSD, and raises
    ``SpectrumEscape``. None where t is not positive or no k gives a finite
    width.
    """
    alpha, steps = krylov.alpha, len(krylov.alpha)
    m, t, r = krylov.rows.shape[1], float(trace), krylov.rounding
    if not t > 0.0:
        return None
    g = _gamma(m + steps + 4)
    delta = (2.0 * r / t + g) * (1.0 + 3.0 * g)
    if not delta < 1.0 / math.e:
        return None
    omega = delta * math.log(math.e / delta)
    k = np.arange(1, steps + 1)
    rest = m - k
    rho = (t - np.cumsum(alpha)) / t
    rho_err = ((k * r + g * (t + np.cumsum(np.abs(alpha)))) / t + g) * (1.0 + 3.0 * g)
    negative = np.flatnonzero(rho + rho_err < 0.0)
    if negative.size:
        i = negative[0]
        raise SpectrumEscape(f"the Lanczos run leaves {rho[i]:.6g} tr A off its first "
                             f"{i + 1} rows, below zero")
    # beta_K: the breakdown threshold where the run stopped early, none
    # where it stopped at LANCZOS_STEPS, and 0 at m rows
    last = r if steps < min(LANCZOS_STEPS, m) else 0.0 if steps == m else math.inf
    dist = (np.append(krylov.beta, last) * (1.0 + g) + k * r) / t * (1.0 + 3.0 * g)
    # T log(m - 1) + h(T) rises up to T = 1 - 1/m, where Fannes-Audenaert stops
    holds = dist <= 1.0 - 1.0 / m
    dist = np.where(holds, dist, 0.0)
    fannes = np.where(holds, dist * math.log(max(m - 1, 1)) - entropy_function(dist)
                      - entropy_function(1.0 - dist), math.inf)
    # rho log((m - k) / rho) rises up to rho = (m - k) / e; -rho log rho is
    # concave, so least at an end
    hi_rho, lo_rho = np.clip(rho + rho_err, 0.0, 1.0), np.clip(rho - rho_err, 0.0, 1.0)
    top = np.minimum(hi_rho, rest / math.e)
    with np.errstate(divide="ignore", invalid="ignore"):
        upper = np.where(top > 0.0, top * np.log(rest / top), 0.0)
    lower = np.minimum(-entropy_function(lo_rho), -entropy_function(hi_rho))
    full = rest == 0
    upper[full] = lower[full] = fannes[full] = 0.0
    width = 2.0 * k * omega + upper - lower + fannes
    j = int(np.argmin(width))
    if not math.isfinite(width[j]):
        return None
    size = j + 1
    off = krylov.beta[:j]
    ritz = np.linalg.eigvalsh(np.diag(alpha[:size]) + np.diag(off, 1) + np.diag(off, -1)) / t
    if ritz[0] < -delta:
        raise SpectrumEscape(f"a Ritz value of the Lanczos run is {ritz[0]:.6g} tr A, "
                             "below zero")
    x = np.clip(ritz, 0.0, 1.0)
    f = entropy_function(x)
    s_t = -math.fsum(f)
    ends = (size + 16) * _UNIT * (float(np.abs(f).sum() + x.sum()) + size * omega
                                  + upper[j] + lower[j] + fannes[j])
    return (float(s_t - size * omega + lower[j] - fannes[j] - ends),
            float(s_t + size * omega + upper[j] + ends))


def _lanczos_bounds(scaling, tr, normalize):
    """``lanczos_interval`` of the scaling's Lanczos run, or None, in the
    estimate's units: without normalize, -tr A log A = t S(A / t) - t log t,
    with t = tr A within gamma_m, which moves it by gamma_m t (|S| + |log t|
    + 1) at most."""
    krylov = None if scaling.bound is None else scaling.bound.krylov
    if krylov is None:
        return None
    try:
        interval = lanczos_interval(krylov, tr)
    except SpectrumEscape as exc:
        raise _escaped(str(exc), scaling.x0, scaling.gamma0) from None
    if interval is None or normalize:
        return interval
    lo, hi = interval
    log_t = math.log(tr)
    slack = ((_gamma(krylov.rows.shape[1] + 4) + 4.0 * _UNIT) * tr
             * (max(abs(lo), abs(hi)) + abs(log_t) + 1.0))
    return float(tr * lo - tr * log_t - slack), float(tr * hi - tr * log_t + slack)


@dataclass(frozen=True)
class EntropyEstimate:
    """Result of a run, with enough metadata to audit or replay it.

    ``value`` estimates the entropy -tr(A log A) in nats; |value - truth| <=
    ``tau`` with probability at least ``confidence`` over the probe draw and,
    for a Lanczos bound, its start vector. A scaling that cannot fail,
    Gershgorin's or ``--gamma0``, must contain the spectrum. A run answered
    from an interval (lo, hi) that holds with certainty keeps it as
    ``interval``, and ``route`` says whence: "moments" (``colour_count``)
    or "lanczos" (``lanczos_interval``). ``value`` lies in it, ``tau`` is
    the distance to its far end, and ``delta`` and the xi describe the
    probes drawn, 0.0 where none were.
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
    # the certain interval the run answered from, and its route; None
    # where it answered from its probes
    interval: tuple | None = None
    route: str | None = None

    def to_dict(self):
        """JSON-ready dict with a stable key order.

        ``method.route`` and ``method.interval`` are there only for a run
        that answered from a certain interval.
        """
        method = {"estimator": self.estimator, "stream": "philox",
                  "bound": self.scaling.provenance}
        if self.interval is not None:
            method.update(route=self.route, interval=list(self.interval))
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


def _in_order(threads, task, items):
    """[task(x) for x in items], on a pool of ``threads`` workers at most.

    A deterministic map: the results come back in the items' order, so the
    outcome is independent of the worker count, as long as no task depends
    on another. The pool never holds more workers than there are items or
    cores to run them.
    """
    workers = min(threads, len(items), core_count())
    if workers <= 1:
        return [task(x) for x in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, items))


def _xi_batch(A, draw, first, last, threads, form, free, height, work=True):
    """The probe forms of rows first..last in index order, as one array.

    The rows are cut into blocks of at most ``height``; ``draw(start, out)``
    writes a block's rows start, start + 1, ... into ``out`` and returns it,
    and ``form(A, rows, work=work)`` gives the block's forms, sharing its
    matrix-vector products. Row i never depends on any other row or on the
    block it lands in, and the blocks map over the pool ``_in_order``.

    A block runs in a workspace from ``free``, the run's list of them: a
    row array of ``height`` rows, sliced to the block's, into which its rows
    are drawn, and with ``work`` a work array of its shape, in which its
    form holds t_1 (see ``quadratic_form``); the tiled kernel reads the
    rows and needs none. A block takes a free workspace, or makes one if
    none is free, and frees it when its forms are done, so a run makes one
    workspace a worker at most, in whatever order the pool runs the blocks.
    """
    width = min(height, last + 1 - first)

    def block(start):
        count = min(width, last + 1 - start)
        # list.pop and list.append are atomic across threads
        try:
            rows, spare = free.pop()
        except IndexError:
            rows = np.empty((height, A.dim))
            spare = np.empty((height, A.dim)) if work else None
        try:
            return form(A, draw(start, rows[:count]),
                        work=None if spare is None else spare[:count])
        finally:
            free.append((rows, spare))

    return np.concatenate(_in_order(threads, block, range(first, last + 1, width)))


def _batch_rows(height):
    """Rows one ``_xi_batch`` call covers: ``BATCH_BLOCKS`` blocks of
    ``height`` rows at most, and ``BATCH_FORMS`` forms, but one block at
    least."""
    return height * max(1, min(BATCH_BLOCKS, BATCH_FORMS // height))


def _estimate(A, n, p, scaling, sampler, normalize, threads, needed, n_max):
    """The loop behind estimate_fixed and estimate_adaptive.

    Where ``colour_count`` gives r colour rows, the run takes exact moments
    from them and draws no probe (see ``_exact_estimate``). Otherwise it
    consumes probe forms in index order until ``needed`` samples are drawn.
    With ``n_max=None`` the count stays frozen; otherwise it is re-derived
    from the running extreme probe forms after every sample and capped at
    ``n_max``. A batch's forms are dropped before the next is drawn.

    With normalize=True the estimated state is A / tr(A) (the entropy of a
    density matrix handed in unnormalized) and ``scaling`` must be valid for
    that state: x0 * gamma0 >= lambda_max(A) / tr(A). The stored entries are
    never rescaled; the Chebyshev moments consume A with the widened
    parameter gamma0 * tr(A), because (A/t) / gamma0 = A / (gamma0 t), and
    each probe form is divided by tr(A) afterwards. All Hoeffding quantities
    use the state's own (x0, gamma0) unchanged.

    Where the scaling keeps a Lanczos run, the run has its certain interval
    before it draws (``lanczos_interval``), and answers from it where its
    half-width is below tau; an adaptive run whose half-width is at most
    the floor, which no tau is below, draws no probe. The estimate's scaling
    keeps no bound, so the run's basis lives no longer than the scaling.
    """
    m = A.dim
    _check_hoeffding_args(n, p, m, scaling.x0, scaling.gamma0, scaling.failure)
    tr = A.trace()
    if normalize and tr == 0.0:
        raise ValueError("cannot normalize a matrix with zero trace")
    result = functools.partial(EntropyEstimate, confidence=p, degree=n, seed=sampler.seed,
                               scaling=replace(scaling, bound=None), normalized=normalize,
                               estimator="fixed" if n_max is None else "adaptive")
    if tr == 0.0:
        return result(value=0.0, tau=0.0, samples_used=0, delta=0.0, xi_min=0.0,
                      xi_max=0.0, trace=0.0, capped=False, zero_trace=True)

    norm_scale = tr if normalize else 1.0
    gamma0 = scaling.gamma0 * norm_scale
    expansion = coefficients(n, scaling.x0)
    colours = colour_count(A, n, scaling, normalize)
    if colours is not None:
        return _exact_estimate(A, expansion, scaling, colours, gamma0, tr, normalize,
                               threads, result)
    floor = truncation_error_bound(n, m * scaling.x0 * scaling.gamma0)
    certain = _lanczos_bounds(scaling, tr, normalize)
    if certain is not None:
        centre = (certain[0] + certain[1]) / 2.0
        half = max(centre - certain[0], certain[1] - centre) * (1.0 + 4.0 * _UNIT)
        lanczos = functools.partial(result, value=centre, tau=half, trace=tr,
                                    interval=certain, route="lanczos")
        if n_max is not None and half <= floor:
            return lanczos(samples_used=0, delta=0.0, xi_min=0.0, xi_max=0.0, capped=False)
    # the exact means of mu_1 and mu_2 for every probe
    form = functools.partial(quadratic_form, expansion=expansion, gamma0=gamma0,
                             traces=(tr, A.frobenius_squared()))

    def draw(start, out):
        return sampler.sample_vector(m, start, len(out), out=out)

    # the run's workspaces, of the rows of its largest block, whose (b, n + 1)
    # moments stay within BLOCK_BYTES
    free = []
    height = max(1, min(A.block_width, BLOCK_BYTES // (8 * (n + 1)),
                        needed if n_max is None else n_max))
    # the tiled kernel reads the drawn rows and holds t_j in its own tiles
    work = tile_rows(A, n) < height
    span = _batch_rows(height)
    floor_width = 2.0 * floor
    xi_min = math.inf
    xi_max = -math.inf
    xi_sum = 0.0
    drawn = 0
    capped = False
    while drawn < needed:
        try:
            batch = _xi_batch(A, draw, drawn + 1, min(needed, drawn + span), threads, form,
                              free, height, work).tolist()
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
        # dropped before the next batch is drawn
        del batch

    trace_eff = 1.0 if normalize else tr
    value = -xi_sum / needed - math.log(scaling.gamma0) * trace_eff
    tau = error_tolerance(delta, n, needed, p, m, scaling.x0, scaling.gamma0,
                          scaling.failure)
    drew = dict(samples_used=needed, delta=delta, xi_min=xi_min, xi_max=xi_max,
                capped=capped)
    if certain is not None and half < tau:
        return lanczos(**drew)
    return result(value=value, tau=tau, trace=tr, **drew)


def _exact_estimate(A, expansion, scaling, colours, gamma0, tr, normalize, threads, result):
    """The estimate of ``colours`` = r colour rows, whose interval holds with certainty.

    Rows of one colour lie r > n beta apart, and p_n(B) has half-bandwidth
    n beta, so no two of them meet in any T_k(B), k <= n: the rows' moments
    sum to S_k = tr T_k(B) (Tang and Saad, Numer. Linear Algebra Appl.
    19(3), 2012), up to rounding (``_moment_rounding``).

    The rows run through the tiled kernel (``clenshaw._tile_dots``), which
    builds each row tile of t_0 from the colours, so no row is ever a (dim,)
    vector. They run as one block, in groups of as many rows as
    ``clenshaw.tile_rows`` lets one tile's buffers hold, and each group's
    tiles map over the pool ``_in_order``. Each row's inner products are summed
    tile by tile and piece by piece in order, and the rows' moments one row
    at a time in index order, so S is the same at any worker count.

    From S the run has E_poly = -gamma0 (m a_0 / 2 + sum_k a_k S_k) -
    log(gamma0) tr, within the floor of the entropy, and
    ``radau_bounds`` on nu_k = S_k / m. The interval is their
    intersection, each end widened by its rounding allowance; the value is
    E_poly clamped into it, which errs far less than its midpoint, and
    tau the distance from the value to the far end.
    """
    m, n = A.dim, expansion.degree
    c = 2.0 / (expansion.x0 * gamma0)
    # every row whose tile buffers fit, with (rows, n + 1) moments within
    # BLOCK_BYTES, or one row in the least tiles
    rows = max(1, min(colours, tile_rows(A, n), BLOCK_BYTES // (8 * (n + 1))))
    each = functools.partial(_in_order, threads)
    sums = np.zeros(n + 1)
    try:
        for first in range(0, colours, rows):
            group = np.arange(first, min(first + rows, colours))
            source = functools.partial(_colour_tile, group, colours)
            # each row's count, the number of i < m with i = colour mod r
            mu0 = (m - group + colours - 1) // colours
            for row in _tiled_moments(A, n, c, mu0, source, each):
                sums += row
    except SpectrumEscape as exc:
        raise _escaped(str(exc), scaling.x0, scaling.gamma0) from None
    nu = sums / m
    # and the division by m
    nu_err = _moment_rounding(n, 2 * A.bandwidth + 1, m, colours) + 2.0 * _UNIT

    a = expansion.coeffs
    trace_eff = 1.0 if normalize else tr
    log_gamma0 = math.log(scaling.gamma0)
    poly = m * a[0] / 2.0 + float(np.einsum("k,k->", a[1:], sums[1:]))
    e_poly = -scaling.gamma0 * poly - log_gamma0 * trace_eff
    # the moments' rounding, the sum's over n + 1 terms with the
    # coefficients' own, the argument's (c within 3 u, |p_n'| <= n^2
    # sum |a_k| by Markov's inequality), and the trace's and the log's
    a_abs = float(np.abs(a[1:]).sum())
    poly_err = scaling.gamma0 * (
        a_abs * m * nu_err
        + _gamma(n + 8) * (m * abs(a[0]) / 2.0 + float(np.einsum("k,k->", np.abs(a[1:]),
                                                                 np.abs(sums[1:]))))
        + 6.0 * _UNIT * n * n * (abs(a[0]) / 2.0 + a_abs) * m)
    poly_err += abs(log_gamma0) * trace_eff * (_gamma(m) + 4.0 * _UNIT) + 4.0 * _UNIT * abs(e_poly)
    width = truncation_error_bound(n, m * scaling.x0 * scaling.gamma0) + poly_err
    lo, hi = e_poly - width, e_poly + width

    # y = c lambda - 1, so a state eigenvalue is x = unit (y + 1); the
    # support ends at c G - 1 for the bound's G, here raised past the
    # rounding of G's row sums, of 2 beta + 1 entries, and of c G - 1
    unit = 1.0 / (c * (tr if normalize else 1.0))
    top_x = c * scaling.bound.lambda_max_upper
    top = top_x * (1.0 + _gamma(2 * A.bandwidth + 3)) - 1.0 + 8.0 * _UNIT * max(1.0, top_x)
    g_lo, g_hi = radau_bounds(nu, nu_err, unit, top)
    # unit is within 2 u of 1 / (c t): g moves by 2 u (|f| + x) at most
    # where f(x) = x log x, x <= unit (top + 1)
    x_max = unit * (top + 1.0)
    shift = 4.0 * _UNIT * (max(1.0 / math.e, abs(x_max * math.log(x_max))) + x_max)
    radau_lo, radau_hi = -m * (g_hi + shift), -m * (g_lo - shift)
    if radau_lo <= hi and radau_hi >= lo:
        lo, hi = max(lo, radau_lo), min(hi, radau_hi)
    # the last products and differences, a few u of each end
    lo -= 4.0 * _UNIT * abs(lo)
    hi += 4.0 * _UNIT * abs(hi)
    value = min(max(e_poly, lo), hi)
    tau = max(value - lo, hi - value) * (1.0 + 4.0 * _UNIT)
    return result(value=value, tau=tau, samples_used=colours, delta=0.0, xi_min=0.0,
                  xi_max=0.0, trace=tr, capped=False, interval=(float(lo), float(hi)),
                  route="moments")


def estimate_fixed(A, n, num_samples, scaling, sampler, p=0.95, normalize=False, threads=1):
    """Entropy estimate from a fixed number of probe samples.

    delta and tau are computed a posteriori from the realized extreme probe
    forms, so tau is a valid radius for the estimate actually produced, at
    confidence p. Use estimate_adaptive to choose N instead. A scaling that
    keeps a Lanczos run, as ``ScalingParams.for_matrix`` of a Lanczos bound
    does, still draws the N probes, and the run answers from
    ``lanczos_interval`` of that run where its half-width is below tau.
    Where ``colour_count`` gives r colour rows, the run takes exact moments
    from them instead, draws no probe whatever ``num_samples`` asks, and
    reports ``samples_used`` = r.
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
    parallel, so the result is identical for any ``threads``. Exact
    moments are as in ``estimate_fixed``, and so is the Lanczos interval,
    but a run whose interval is at most the floor answers from it at once,
    with ``samples_used`` = 0.
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
