"""One benchmarked `entrace` process.

Usage: python3 perfbench/child.py REPORT MODE ENTRACE_ARGS...

Runs ``entrace.cli.main`` on ENTRACE_ARGS exactly as the installed console
script does, so stdout and the exit code are the program's own. MODE selects
what is wrapped from outside the package:

- ``plain``: only the estimator call, to time where set-up ends and sampling
  starts;
- ``trace``: every layer boundary in spans.BOUNDARIES.

After main returns, a JSON report with the spans, the import time, the end of
main and the peak resident set size is written to REPORT.
"""

from __future__ import annotations

import json
import resource
import sys

from spans import Tracer, now


def _boundaries():
    """(boundary, owner, attribute) for each function to wrap where callers look it up."""
    import entrace.cli as cli
    import entrace.estimator as estimator
    import entrace.sparse as sparse

    matrix = sparse.SymmetricSparseMatrix
    return [
        ("sparse.build", matrix, "__init__"),
        ("sparse.matvec", matrix, "matvec"),
        ("sparse.read_mtx", cli, "read_matrix_market"),
        ("sparse.write_mtx", cli, "write_matrix_market"),
        ("sparse.bound", cli, "gershgorin_upper_bound"),
        ("generators.build", cli, "fem_matrix"),
        ("generators.build", cli, "spdc_density_matrix"),
        ("generators.build", cli, "random_psd"),
        ("oracle.dense_spectrum", cli, "dense_spectrum"),
        ("estimator.estimate", cli, "estimate_adaptive"),
        ("estimator.estimate", cli, "estimate_fixed"),
        ("estimator.sample_vector", estimator.RademacherSampler, "sample_vector"),
        ("clenshaw.qf", estimator, "quadratic_form"),
    ]


def _install(tracer, mode):
    import entrace.estimator as estimator

    chosen = [b for b in _boundaries() if mode == "trace" or b[0] == "estimator.estimate"]
    for name, owner, attr in chosen:
        fn = getattr(owner, attr, None)
        if fn is None:
            raise SystemExit(f"perfbench: boundary {name} is gone: "
                             f"{owner.__name__}.{attr} does not exist")
        note = (lambda a, *_: (a.nnz, a.dim)) if name == "sparse.matvec" else None
        setattr(owner, attr, tracer.wrap(name, fn, note=note))

    # Probe work submitted to the estimator's thread pool nests under the
    # span that submitted it. The pool is not a boundary: without one there
    # is nothing to adopt.
    pool = getattr(estimator, "ThreadPoolExecutor", None)
    if mode == "trace" and pool is not None:
        class AdoptingPool(pool):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.adopt(tracer.current(), fn), *args, **kwargs)

        estimator.ThreadPoolExecutor = AdoptingPool


def main():
    report_path, mode, *argv = sys.argv[1:]
    if mode not in ("plain", "trace"):
        raise SystemExit(f"perfbench: unknown child mode {mode!r}")
    t0 = now()
    import entrace.cli as cli
    import_s = now() - t0

    tracer = Tracer()
    _install(tracer, mode)
    try:
        return tracer.wrap("cli.main", cli.main)(argv)
    finally:
        main_end = now()
        report = {
            "import_s": import_s,
            "main_end": main_end,
            "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "spans": tracer.spans,
            "errors": dict(tracer.errors),
            "notes": tracer.notes,
        }
        with open(report_path, "w", encoding="ascii") as fh:
            json.dump(report, fh)


if __name__ == "__main__":
    sys.exit(main())
