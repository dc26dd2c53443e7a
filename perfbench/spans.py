"""In-memory spans around layer boundaries, and the layer metrics built from them.

A span is a tuple (name, id, parent id, start, end). Each thread keeps its own
stack of open spans; a function handed to a worker thread is adopted by the
span that was open where it was submitted, so probe work done on a thread
pool nests under the estimator call that scheduled it.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from statistics import median

# Boundaries the traced child wraps; every one reports its exceptions as
# "<boundary>.errors".
BOUNDARIES = (
    "cli.main",
    "sparse.build",
    "sparse.read_mtx",
    "sparse.write_mtx",
    "sparse.bound",
    "sparse.matvec",
    "generators.build",
    "oracle.dense_spectrum",
    "estimator.estimate",
    "estimator.sample_vector",
    "clenshaw.qf",
)


def now():
    """System-wide monotonic clock, comparable between parent and child processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    """Collects spans and per-boundary exception counts in memory."""

    def __init__(self):
        self.spans = []
        self.errors = defaultdict(int)
        self.notes = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name, fn, note=None):
        """Return fn recording one span per call.

        On the first call only, note(*args) is stored under name; later calls
        pay a dictionary lookup for it, outside the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            sid = next(self._ids)
            stack.append(sid)
            if note is not None and name not in self.notes:
                self.notes[name] = note(*args)
            start = now()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                with self._lock:
                    self.errors[name] += 1
                raise
            finally:
                end = now()
                stack.pop()
                self.spans.append((name, sid, parent, start, end))

        return traced

    def adopt(self, parent, fn):
        """Return fn running with span ``parent`` as its caller, on any thread."""

        @functools.wraps(fn)
        def adopted(*args, **kwargs):
            stack = self._stack()
            stack.append(parent)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return adopted


def union_length(intervals, lo, hi):
    """Length of the union of [start, end) intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Map span id to its duration minus the union of its children's intervals.

    Children running on different threads may overlap; the union counts the
    covered time once, so a parent's self time never goes negative.
    """
    children = defaultdict(list)
    for name, sid, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - union_length(children[sid], start, end)
        for name, sid, parent, start, end in spans
    }


# Array traffic of one call of the package's matvec as written,
# np.bincount(row, weights=val * v[col]), with float64 values and int64
# indices. Per stored entry: the gather v[col] reads col and v and writes a
# temporary (24 B); the product with val reads val and that temporary and
# writes another (24 B); bincount scans row once for its range, then reads row
# and the products (24 B). Per row: the output (8 B). Computed, not measured.
def matvec_bytes(nnz, dim):
    return 72 * nnz + 8 * dim


LAYER_METRICS = {
    "sparse.matvec.calls": "count",
    "sparse.matvec.s": "s",
    "sparse.matvec.us_per_call": "us",
    "sparse.matvec.bytes_computed": "B",
    "sparse.read_mtx.s": "s",
    "sparse.read_mtx.entries_per_s": "1/s",
    "sparse.build.s": "s",
    "sparse.write_mtx.s": "s",
    "sparse.bound.s": "s",
    "clenshaw.qf.calls": "count",
    "clenshaw.qf.self_s": "s",
    "clenshaw.qf.self_us_per_probe": "us",
    "clenshaw.matvecs_per_probe": "count",
    "estimator.probes": "count",
    "estimator.sample_vector.s": "s",
    "estimator.self_s": "s",
    "estimator.concurrency": "ratio",
    "estimator.thread_speedup": "ratio",
    "generators.build.s": "s",
    "oracle.dense_spectrum.s": "s",
    "cli.import_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.accounted_share": "ratio",
    **{f"{b}.errors": "count" for b in BOUNDARIES},
}


def pass_metrics(spans, import_s, matvec_shape=None, mtx_entries=0):
    """Layer numbers of one traced run of `entrace entropy`.

    Returns every metric of LAYER_METRICS except those that compare runs or
    need the run's wall time (estimator.thread_speedup, trace.overhead_s,
    trace.accounted_share), the write time of the input preparation
    (sparse.write_mtx.s) and the error counts.
    ``matvec_shape`` is (nnz, dim) of the matrix multiplied, and
    ``mtx_entries`` is the number of entry lines in the input file, if any.
    """
    selfs = self_times(spans)
    name_of = {sid: name for name, sid, *_ in spans}
    self_sum = defaultdict(float)
    dur_sum = defaultdict(float)
    calls = defaultdict(int)
    for name, sid, parent, start, end in spans:
        self_sum[name] += selfs[sid]
        dur_sum[name] += end - start
        calls[name] += 1

    qf_matvecs = sum(1 for name, _, parent, _, _ in spans
                     if name == "sparse.matvec" and name_of.get(parent) == "clenshaw.qf")
    est_dur = dur_sum["estimator.estimate"]
    est_children = sum(end - start for _, _, parent, start, end in spans
                       if name_of.get(parent) == "estimator.estimate")
    probes = calls["clenshaw.qf"]
    matvecs = calls["sparse.matvec"]
    read_s = self_sum["sparse.read_mtx"]
    return {
        "sparse.matvec.calls": matvecs,
        "sparse.matvec.s": dur_sum["sparse.matvec"],
        "sparse.matvec.us_per_call": 1e6 * dur_sum["sparse.matvec"] / matvecs if matvecs else 0.0,
        "sparse.matvec.bytes_computed": matvec_bytes(*matvec_shape) if matvec_shape else 0,
        "sparse.read_mtx.s": read_s,
        "sparse.read_mtx.entries_per_s": mtx_entries / read_s if read_s > 0 else 0.0,
        "sparse.build.s": self_sum["sparse.build"],
        "sparse.bound.s": self_sum["sparse.bound"],
        "clenshaw.qf.calls": probes,
        "clenshaw.qf.self_s": self_sum["clenshaw.qf"],
        "clenshaw.qf.self_us_per_probe": 1e6 * self_sum["clenshaw.qf"] / probes if probes else 0.0,
        "clenshaw.matvecs_per_probe": qf_matvecs / probes if probes else 0.0,
        "estimator.probes": calls["estimator.sample_vector"],
        "estimator.sample_vector.s": self_sum["estimator.sample_vector"],
        "estimator.self_s": self_sum["estimator.estimate"],
        "estimator.concurrency": est_children / est_dur if est_dur > 0 else 0.0,
        "generators.build.s": self_sum["generators.build"],
        "oracle.dense_spectrum.s": self_sum["oracle.dense_spectrum"],
        "cli.import_s": import_s,
        "cli.self_s": self_sum["cli.main"],
    }


def accounted_share(spans, import_s, traced_wall_s):
    """Share of the wall time, from process start to the end of cli.main,
    spent in the import or inside a layer span that cli.main calls.

    Time that no layer boundary wraps stays in cli.main's self time and lowers
    the share. The layer spans under cli.main run on its own thread, one after
    another, so the share means the same for any thread count. A missing boundary
    nested inside another layer (clenshaw.qf inside estimator.estimate, say)
    moves time into its parent layer and does not show here.
    """
    selfs = self_times(spans)
    covered = sum((end - start) - selfs[sid]
                  for name, sid, _, start, end in spans if name == "cli.main")
    return (import_s + covered) / traced_wall_s


def median_metrics(passes):
    """Metric-wise median over a list of metric dicts with the same keys."""
    return {key: median(p[key] for p in passes) for key in passes[0]}
