"""Command-line entry point: reproducible entropy runs as JSON reports.

Each run prints one JSON document to stdout, its report or an error object,
and a one-line summary to stderr; only ``generate`` writes a file. Exit codes:
0 success, 1 computation error (error object on stdout) or a stdout closed
before it is written, 2 usage error (stdout empty).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from .estimator import (
    DEFAULT_N_MAX,
    MIN_N_MAX,
    RademacherSampler,
    ScalingParams,
    core_count,
    deflation_basis,
    estimate_adaptive,
    estimate_fixed,
)
from .generators import SpdcParams, fem_matrix, random_psd, spdc_density_matrix, spdc_warnings
from .oracle import (DENSE_CAP, FEM_BYTES, FEM_ROW_BYTES, Spectrum, dense_spectrum,
                     exact_entropy, fem_exact_entropy)
from .sparse import (gershgorin_upper_bound, lanczos_upper_bound, read_matrix_market,
                     write_matrix_market)

TABLE1_SIZES = (10, 50, 100, 500, 1000, 5000)
TABLE1_DEGREES = (2, 3, 3, 4, 6, 8)

THREADS_ENV = "ENTRACE_THREADS"

# the share of 1 - p that the Lanczos bound on lambda_max may fail with;
# the Hoeffding term of tau is taken at the rest
BOUND_FAILURE_SHARE = 1e-3


@dataclass
class RunConfig:
    subcommand: str
    input_path: str | None = None
    generate_spec: str | None = None
    degree: int = 3
    confidence: float = 0.95
    samples: int | None = None
    seed: int = 0
    gamma0: float | None = None
    normalize: bool = False
    n_max: int = DEFAULT_N_MAX
    verify_psd: bool = False
    sizes: tuple = TABLE1_SIZES
    degrees: tuple = TABLE1_DEGREES
    output: str | None = None

    def validate(self):
        if self.subcommand in ("entropy", "oracle"):
            if (self.input_path is None) == (self.generate_spec is None):
                raise UsageError("exactly one of --input or --generate is required")
        if self.subcommand == "generate" and not self.output:
            raise UsageError("generate requires --output for the Matrix Market file")
        if self.subcommand != "generate" and self.output is not None:
            raise UsageError(f"output is generate's Matrix Market target; {self.subcommand} "
                             "reports on stdout only")
        if not 0.0 < self.confidence < 1.0:
            raise UsageError("confidence must lie strictly between 0 and 1")
        if self.degree < 1:
            raise UsageError("degree must be at least 1")
        if self.samples is not None and self.samples < 1:
            raise UsageError("--samples must be at least 1")
        if self.seed < 0:
            raise UsageError(f"--seed must be nonnegative, got {self.seed}")
        if self.gamma0 is not None and not (math.isfinite(self.gamma0) and self.gamma0 > 0.0):
            raise UsageError(f"--gamma0 must be a positive finite number, got {self.gamma0!r}")
        if self.n_max < MIN_N_MAX:
            raise UsageError(f"--n-max must be at least {MIN_N_MAX}, the zero-spread "
                             f"sample count, got {self.n_max}")
        if len(self.sizes) != len(self.degrees):
            raise UsageError("--sizes and --degrees must have the same length")
        for m in self.sizes:
            _check_fem_size(m, f"{m} in --sizes")
        if min(self.degrees, default=1) < 1:
            raise UsageError(f"--degrees must all be at least 1, got {min(self.degrees)}")


class UsageError(Exception):
    pass


def _check_fem_size(m, got):
    """Refuse a fem size beyond ``FEM_BYTES`` before ``fem_matrix`` allocates its mask."""
    if not 1 <= m <= FEM_BYTES // FEM_ROW_BYTES:
        raise UsageError(f"fem size must lie in 1..{FEM_BYTES // FEM_ROW_BYTES} "
                         f"({FEM_ROW_BYTES} B a row within {FEM_BYTES} B), got {got}")


def default_threads():
    """The worker count: ``ENTRACE_THREADS``, otherwise every core the
    process may run on."""
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            k = int(env)
        except ValueError:
            raise UsageError(f"{THREADS_ENV} must be an integer, got {env!r}")
        if k < 1:
            raise UsageError(f"{THREADS_ENV} must be at least 1")
        return k
    return core_count()


def _load_matrix(config):
    """Resolve the input source to (matrix, source label, warnings)."""
    if config.input_path is not None:
        mat = read_matrix_market(config.input_path)
        return mat, config.input_path, []
    spec = config.generate_spec
    kind, _, rest = spec.partition(":")
    if kind == "fem":
        try:
            m = int(rest)
        except ValueError:
            raise UsageError(f"fem spec needs a size, e.g. fem:100, got {spec!r}")
        _check_fem_size(m, repr(spec))
        return fem_matrix(m), spec, []
    if kind == "spdc":
        params = SpdcParams() if rest in ("", "default") else SpdcParams.from_config(rest)
        return spdc_density_matrix(params), spec, spdc_warnings(params)
    if kind == "random":
        parts = rest.split(":")
        if len(parts) != 2:
            raise UsageError(f"random spec is random:<m>:<seed>, got {spec!r}")
        try:
            m, seed = int(parts[0]), int(parts[1])
        except ValueError:
            raise UsageError(f"random spec is random:<m>:<seed>, got {spec!r}")
        if not 1 <= m <= DENSE_CAP:
            raise UsageError(f"random size must lie in 1..{DENSE_CAP}, got {spec!r}")
        if seed < 0:
            raise UsageError(f"random seed must be nonnegative, got {spec!r}")
        spectrum = np.random.default_rng(seed).uniform(0.0, 1.0, size=m)
        return random_psd(m, seed, spectrum), spec, []
    raise UsageError(f"unknown generator kind {kind!r}; use fem:, spdc:, or random:")


def _verify_psd(mat):
    if mat.dim > DENSE_CAP:
        raise ValueError(
            f"--verify-psd needs the dense oracle, which is capped at {DENSE_CAP}; "
            f"matrix has dimension {mat.dim}"
        )
    # exact_entropy rejects eigenvalues negative beyond rounding
    exact_entropy(dense_spectrum(mat))


def _scaling(mat, config, sampler):
    """The run's scaling and the rows that deflate its probes, or None.

    The scaling is ``--gamma0`` as given, or from a bound on A's lambda_max:
    Gershgorin's, tightened for a matrix stored by column by
    ``lanczos_upper_bound`` from the sampler's start vector, at failure
    probability ``BOUND_FAILURE_SHARE`` * (1 - p). ``--gamma0`` describes
    the matrix the run estimates, the state A / tr(A) under ``--normalize``,
    so only a bound on A is divided by the trace. A Lanczos bound passes its
    run's basis on to ``deflation_basis`` at the run's degree.
    """
    if config.gamma0 is not None:
        return ScalingParams(1.0, float(config.gamma0), "user"), None
    bound = gershgorin_upper_bound(mat)
    if mat.by_column:
        bound = lanczos_upper_bound(mat, bound, sampler.start_vector(mat.dim),
                                    BOUND_FAILURE_SHARE * (1.0 - config.confidence))
    scaling = ScalingParams.for_matrix(bound, mat.trace(), normalize=config.normalize)
    return scaling, deflation_basis(bound.krylov, config.degree, mat.trace(), scaling,
                                    config.normalize)


def _emit(payload):
    print(json.dumps(payload, indent=2))


def _run_entropy(config):
    threads = default_threads()
    mat, source, warnings = _load_matrix(config)
    if config.verify_psd:
        _verify_psd(mat)
    sampler = RademacherSampler(config.seed)
    scaling, deflation = _scaling(mat, config, sampler)
    if config.samples is not None:
        est = estimate_fixed(mat, config.degree, config.samples, scaling, sampler,
                             p=config.confidence, normalize=config.normalize,
                             threads=threads, deflation=deflation)
    else:
        est = estimate_adaptive(mat, config.degree, config.confidence, scaling, sampler,
                                n_max=config.n_max, normalize=config.normalize,
                                threads=threads, deflation=deflation)
    payload = est.to_dict()
    payload["method"]["matrix"] = source
    payload["method"]["dim"] = mat.dim
    payload["method"]["threads"] = threads
    payload["method"]["warnings"] = warnings
    _emit(payload)
    print(
        f"entropy = {est.value:.6g} +- {est.tau:.4g} "
        f"(p={est.confidence}, N={est.samples_used}, n={est.degree}, m={mat.dim})",
        file=sys.stderr,
    )
    return 0


def _run_oracle(config):
    mat, source, warnings = _load_matrix(config)
    spec = dense_spectrum(mat)
    lam = spec.eigenvalues
    if config.normalize:
        tr = mat.trace()
        if tr == 0.0:
            raise ValueError("cannot normalize a matrix with zero trace")
        value = exact_entropy(Spectrum(eigenvalues=np.sort(lam / tr)))
    else:
        value = exact_entropy(spec)
    payload = {
        "entropy": value,
        "min_eig": float(lam[0]),
        "max_eig": float(lam[-1]),
        "trace": mat.trace(),
        "method": {
            "route": "dense-lapack",
            "normalized": config.normalize,
            "matrix": source,
            "dim": mat.dim,
            "warnings": warnings,
        },
    }
    _emit(payload)
    print(f"exact entropy = {value:.8g} (m={mat.dim})", file=sys.stderr)
    return 0


def _run_generate(config):
    mat, source, warnings = _load_matrix(config)
    write_matrix_market(mat, config.output)
    payload = {
        "written": config.output,
        "dim": mat.dim,
        "nnz": mat.nnz,
        "source": source,
        "warnings": warnings,
    }
    _emit(payload)
    print(f"wrote {source} ({mat.dim} x {mat.dim}, {mat.nnz} entries) to {config.output}",
          file=sys.stderr)
    return 0


def _run_table1(config):
    sampler = RademacherSampler(config.seed)
    threads = default_threads()
    rows = []
    for m, n in zip(config.sizes, config.degrees):
        mat = fem_matrix(m)
        # fem is stored by diagonal: Gershgorin's scaling, and no deflation
        est = estimate_adaptive(mat, n, config.confidence, _scaling(mat, config, sampler)[0],
                                sampler, n_max=config.n_max, threads=threads)
        exact = fem_exact_entropy(m)
        abs_err = abs(est.value - exact)
        rows.append({
            "m": m,
            "n": n,
            "exact": exact,
            "estimate": est.value,
            "abs_err": abs_err,
            "rel_err": abs_err / abs(exact),
            "tau": est.tau,
            "samples": est.samples_used,
            "capped": est.capped,
        })
        print(
            f"m={m:<6d} n={n:<2d} exact={exact:<12.6g} estimate={est.value:<12.6g} "
            f"rel_err={100.0 * abs_err / abs(exact):.4f}% tau={est.tau:.4g} "
            f"N={est.samples_used}",
            file=sys.stderr,
        )
    payload = {"confidence": config.confidence, "seed": config.seed, "rows": rows}
    _emit(payload)
    return 0


_RUNNERS = {
    "entropy": _run_entropy,
    "oracle": _run_oracle,
    "generate": _run_generate,
    "table1": _run_table1,
}


def run(config):
    """Execute a validated RunConfig; returns the process exit code.

    A ``BrokenPipeError`` from a closed stdout propagates, for ``main``.
    """
    try:
        config.validate()
        return _RUNNERS[config.subcommand](config)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # stdout's reader is gone: there is nowhere to report to
        raise
    except Exception as exc:  # noqa: BLE001 - boundary: report and exit nonzero
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _int_list(text):
    return tuple(int(tok) for tok in text.split(",") if tok)


def build_parser():
    """Parser whose every dest is a RunConfig field; absent flags keep its defaults."""
    parser = argparse.ArgumentParser(
        prog="entrace",
        description="Stochastic von Neumann entropy of sparse symmetric PSD matrices.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def command(name, summary):
        return sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)

    def add_input(p):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--input", dest="input_path", metavar="PATH",
                           help="Matrix Market file to read")
        group.add_argument(
            "--generate",
            dest="generate_spec",
            metavar="SPEC",
            help=f"synthesize the input: fem:<m> (m at most {FEM_BYTES // FEM_ROW_BYTES}), "
            f"spdc:default, spdc:<config>, random:<m>:<seed> (m at most {DENSE_CAP})",
        )

    def add_sampling(p):
        p.add_argument("-p", "--confidence", type=float,
                       help=f"confidence level in (0,1) (default {RunConfig.confidence})")
        p.add_argument("--seed", type=int,
                       help=f"probe stream seed (default {RunConfig.seed})")
        p.add_argument("--n-max", type=int,
                       help=f"adaptive sample cap (default {RunConfig.n_max})")

    p_ent = command("entropy", "estimate -tr(A log A) by sampling")
    add_input(p_ent)
    p_ent.add_argument("-n", "--degree", type=int,
                       help=f"Chebyshev degree (default {RunConfig.degree})")
    p_ent.add_argument("--samples", type=int,
                       help="fixed sample count; omit for the adaptive loop")
    p_ent.add_argument("--gamma0", type=float,
                       help="user spectral scaling of the matrix estimated, the state "
                            "under --normalize, whose spectrum must lie in [0, gamma0]; "
                            "overrides the Lanczos or Gershgorin bound on lambda_max")
    p_ent.add_argument("--normalize", action="store_true",
                       help="estimate the entropy of A / tr(A)")
    p_ent.add_argument("--verify-psd", action="store_true",
                       help=f"check PSD via the dense oracle first (dimension at most "
                            f"{DENSE_CAP})")
    add_sampling(p_ent)

    p_or = command("oracle", f"exact entropy via dense eigendecomposition (dimension at "
                             f"most {DENSE_CAP})")
    add_input(p_or)
    p_or.add_argument("--normalize", action="store_true",
                      help="entropy of A / tr(A) instead of A")

    p_gen = command("generate", "write a generated matrix as Matrix Market")
    add_input(p_gen)
    p_gen.add_argument("-o", "--output", required=True, help="target .mtx path")

    p_t1 = command("table1", "reference table: estimate vs closed form")
    p_t1.add_argument("--sizes", type=_int_list, help="comma-separated matrix sizes")
    p_t1.add_argument("--degrees", type=_int_list,
                      help="comma-separated Chebyshev degrees, one per size")
    add_sampling(p_t1)
    return parser


def main(argv=None):
    """Parse argv and run; a closed stdout ends the run quietly with exit 1."""
    args = build_parser().parse_args(argv)
    try:
        code = run(RunConfig(**vars(args)))
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull, so that the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
