"""Benchmark: time to a checked entropy estimate from the `entrace` command.

Usage (from the repository root):

    python3 perfbench/run.py --workload fem-1e6 --seed 0 --seconds 40 --trace 0

Every measured run is a fresh `entrace entropy` child process, started one at
a time from this process. Each run's output is checked against a reference
computed here with numpy alone. With ``--trace 0`` the last stdout line
reports the end-to-end metrics; with ``--trace 1`` it reports per-layer
metrics from runs whose layer boundaries are wrapped from outside the
package. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from statistics import median

import numpy as np

from spans import (
    BOUNDARIES,
    LAYER_METRICS,
    accounted_share,
    median_metrics,
    now,
    pass_metrics,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench-work"

WORKLOADS = ("fem-1e6", "spdc-probes", "mtx-dense")
FEM_DIM = 1_000_000
MTX_DIM = 1000

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "sample_s": "s",
    "probe_ms": "ms",
    "peak_rss_mb": "MiB",
    "tau": "nats",
}

# Probe seeds per benchmark seed, used in turn by successive runs: medians over
# several probe draws vary less from one benchmark seed to the next.
PROBE_SEEDS = 3
# Enough runs that at least one probe seed reruns and is compared byte for byte.
MIN_REPEATS = PROBE_SEEDS + 1
CHILD_TIMEOUT_S = 120.0
THREAD_VARS = ("ENTRACE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(Exception):
    """The benchmark cannot produce a result; nothing is printed on stdout."""


@dataclass
class Child:
    """One finished child process."""

    exit_code: int
    stdout: str
    stderr: str
    spawn: float
    end: float
    report: dict | None

    @property
    def wall_s(self):
        return self.end - self.spawn

    def span(self, name):
        spans = self.report["spans"] if self.report else []
        return next((s for s in spans if s[0] == name), None)


def thread_env(threads):
    """Child environment: the package from src/, every thread count capped."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in THREAD_VARS:
        env[var] = str(threads)
    return env


def configured_threads(nproc):
    """ENTRACE_THREADS from the environment (default nproc), capped at nproc."""
    text = os.environ.get("ENTRACE_THREADS") or str(nproc)
    try:
        return max(1, min(int(text), nproc))
    except ValueError:
        raise BenchError(f"ENTRACE_THREADS must be an integer, got {text!r}")


def run_child(mode, argv, env):
    report_path = WORK / "child-report.json"
    report_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "child.py"), str(report_path), mode, *argv]
    spawn = now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        code, out, err = proc.returncode, proc.stdout, proc.stderr
    except subprocess.TimeoutExpired as exc:
        # captured output is bytes here, whatever text= says
        code, err = -9, f"timed out after {CHILD_TIMEOUT_S} s"
        out = (exc.stdout or b"").decode(errors="replace")
    end = now()
    try:
        with open(report_path, encoding="ascii") as fh:
            report = json.load(fh)
    except (OSError, ValueError):
        report = None
    return Child(code, out, err, spawn, end, report)



def fem_reference(m):
    """Entropy of the (2, -1) tridiagonal matrix from its closed-form eigenvalues."""
    lam = 4.0 * np.sin(np.arange(1, m + 1) * np.pi / (2.0 * m + 2.0)) ** 2
    return float(-np.sum(lam * np.log(lam)))


def dense_reference(path, normalize):
    """(entropy, entry lines) of a symmetric Matrix Market file via numpy eigvalsh."""
    data = np.loadtxt(path, comments="%", ndmin=2)
    dim = int(data[0, 0])
    i = data[1:, 0].astype(np.int64) - 1
    j = data[1:, 1].astype(np.int64) - 1
    a = np.zeros((dim, dim))
    a[i, j] = data[1:, 2]
    a[j, i] = data[1:, 2]
    if normalize:
        a /= np.trace(a)
    lam = np.linalg.eigvalsh(a)
    lam = lam[lam > 0.0]
    return float(-np.sum(lam * np.log(lam))), len(data) - 1


def check(child, expected_stdout, reference):
    """Why a run fails the correctness gate, or None when it passes."""
    if child.exit_code != 0:
        return f"exit code {child.exit_code}: {child.stderr.strip()[-300:]}"
    try:
        payload = json.loads(child.stdout)
        entropy, tau = float(payload["entropy"]), float(payload["tau"])
    except (ValueError, KeyError, TypeError):
        return "stdout is not an entropy report"
    if child.stdout != expected_stdout:
        return "stdout differs from the first run of this workload and seed"
    if not abs(entropy - reference) <= tau:
        return f"|entropy {entropy!r} - reference {reference!r}| exceeds tau {tau!r}"
    if child.span("estimator.estimate") is None:
        return "the estimator was never called"
    return None


def same_result(stdout_a, stdout_b):
    """Two entropy reports agree in everything but the thread count."""
    a, b = json.loads(stdout_a), json.loads(stdout_b)
    for payload in (a, b):
        payload.get("method", {}).pop("threads", None)
    return a == b



@dataclass
class Prepared:
    """A workload ready to run: its command line without --seed, and its reference."""

    argv: list
    probe_seeds: tuple
    reference: float
    mtx_entries: int = 0
    write_mtx_s: float = 0.0

    def command(self, run_index):
        """Command line of the run_index-th run; the probe seeds are used in turn."""
        return [*self.argv, "--seed", str(self.probe_seeds[run_index % len(self.probe_seeds)])]


def generate(spec, path, env):
    """Write a generated matrix with `entrace generate`, traced; returns its write time."""
    child = run_child("trace", ["generate", "--generate", spec, "-o", str(path)], env)
    if child.exit_code != 0 or child.report is None:
        raise BenchError(f"entrace generate {spec} failed: {child.stderr.strip()}")
    spans = child.report["spans"]
    return sum(end - start for name, _, _, start, end in spans if name == "sparse.write_mtx")


def prepare(workload, seed, env):
    """Command line and independent reference entropy for one workload and seed.

    The sample count is fixed, so every seed asks for the same work; the
    adaptive loop would draw between 2 400 and 4 300 probes on spdc-probes,
    depending on the seed alone.
    """
    seeds = tuple(PROBE_SEEDS * seed + k for k in range(PROBE_SEEDS))
    if workload == "fem-1e6":
        argv = ["entropy", "--generate", f"fem:{FEM_DIM}", "-n", "8", "--samples", "8"]
        return Prepared(argv, seeds, fem_reference(FEM_DIM))
    if workload == "spdc-probes":
        path = WORK / "spdc.mtx"
        write_s = generate("spdc:default", path, env)
        reference, _ = dense_reference(path, normalize=True)
        argv = ["entropy", "--generate", "spdc:default", "--normalize", "-n", "14",
                "--samples", "4000", "--verify-psd"]
        return Prepared(argv, seeds, reference, 0, write_s)
    path = WORK / "random.mtx"
    write_s = generate(f"random:{MTX_DIM}:{seed}", path, env)
    reference, entries = dense_reference(path, normalize=False)
    argv = ["entropy", "--input", str(path.relative_to(ROOT)), "-n", "8", "--samples", "30"]
    return Prepared(argv, seeds, reference, entries, write_s)



class Ledger:
    """Counts gated runs and reports each failure on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def record(self, child, failure):
        self.attempted += 1
        if failure is not None:
            self.failed += 1
            print(f"perfbench: run failed: {failure}", file=sys.stderr)
        return failure is None


def sample_s(child):
    """Time inside the estimator call."""
    est = child.span("estimator.estimate")
    return est[4] - est[3]


def end_to_end(child):
    payload = json.loads(child.stdout)
    return {
        "wall_s": child.wall_s,
        "setup_s": child.span("estimator.estimate")[3] - child.spawn,
        "sample_s": sample_s(child),
        "probe_ms": 1e3 * sample_s(child) / payload["samples"],
        "peak_rss_mb": child.report["maxrss_kb"] / 1024.0,
        "tau": payload["tau"],
    }


def fits(deadline, duration):
    """Whether another run as long as the last one ends before the deadline."""
    return now() + duration <= deadline


def measure_end_to_end(prep, env, seconds, ledger):
    deadline = now() + seconds
    expected = {}
    passed = []
    for attempt in itertools.count():
        if attempt >= MIN_REPEATS and not fits(deadline, child.wall_s):
            break
        argv = prep.command(attempt)
        child = run_child("plain", argv, env)
        expected.setdefault(tuple(argv), child.stdout)
        if ledger.record(child, check(child, expected[tuple(argv)], prep.reference)):
            passed.append(end_to_end(child))
    if not passed:
        raise BenchError("no run passed the correctness gate")
    return median_metrics(passed)


def measure_layers(prep, env, env_one, seconds, ledger):
    """Rounds of an untraced, a traced and an untraced 1-thread run until time is up."""
    deadline = now() + seconds
    expected = {}
    rounds = []
    errors = dict.fromkeys(BOUNDARIES, 0)
    for attempt in itertools.count():
        if attempt >= 1 and not fits(deadline, now() - round_start):
            break
        round_start = now()
        argv = prep.command(attempt)
        runs = {}
        for key, mode, child_env in (("plain", "plain", env), ("trace", "trace", env),
                                     ("one", "plain", env_one)):
            child = run_child(mode, argv, child_env)
            # the single-thread report differs from the others in its thread count
            expected.setdefault((key == "one", *argv), child.stdout)
            failure = check(child, expected[(key == "one", *argv)], prep.reference)
            if failure is None and key == "one" and not same_result(
                    child.stdout, expected[(False, *argv)]):
                failure = "the result depends on the thread count"
            for name, count in (child.report or {}).get("errors", {}).items():
                errors[name] += count
            if ledger.record(child, failure):
                runs[key] = child
        if len(runs) == 3:
            trace = runs["trace"]
            spans = [tuple(s) for s in trace.report["spans"]]
            layers = pass_metrics(
                spans,
                trace.report["import_s"],
                matvec_shape=trace.report["notes"].get("sparse.matvec"),
                mtx_entries=prep.mtx_entries,
            )
            layers["trace.accounted_share"] = accounted_share(
                spans, trace.report["import_s"], trace.report["main_end"] - trace.spawn)
            rounds.append((layers, runs["plain"].wall_s, trace.wall_s,
                           sample_s(runs["plain"]), sample_s(runs["one"])))
    if not rounds:
        raise BenchError("no traced round passed the correctness gate")
    layers, plain_wall, trace_wall, plain_sample, one_sample = zip(*rounds)
    metrics = median_metrics(layers)
    # both untraced, so tracing's per-call cost does not tilt the ratio
    metrics["estimator.thread_speedup"] = median(one_sample) / median(plain_sample)
    metrics["sparse.write_mtx.s"] = prep.write_mtx_s
    metrics["trace.overhead_s"] = median(trace_wall) - median(plain_wall)
    metrics.update({f"{b}.errors": errors[b] for b in BOUNDARIES})
    return metrics



def machine_record(threads, seed):
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level} {kind.lower()}"] = size

    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    return {
        "cpu": cpu,
        "caches": caches,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": version("scipy"),
        "threads": threads,
        "seed": seed,
    }


def result_line(metrics, units, ledger):
    return json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    })


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None):
    args = parse_args(argv)
    # On SIGTERM, unwind: the running child is killed and waited for, and
    # the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    nproc = len(os.sched_getaffinity(0))
    threads = configured_threads(nproc)
    env = thread_env(threads)
    shutil.rmtree(WORK, ignore_errors=True)
    WORK.mkdir()
    try:
        # Fails unless the package comes from this checkout; also compiles
        # its bytecode so that no measured run pays for that.
        probe = subprocess.run(
            [sys.executable, "-c", "import entrace.cli; print(entrace.cli.__file__)"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        src = ROOT / "src"
        if probe.returncode != 0 or not Path(probe.stdout.strip()).is_relative_to(src):
            raise BenchError(f"cannot import entrace from {src}: "
                             f"{(probe.stdout + probe.stderr).strip()[-300:]}")
        print("perfbench machine " + json.dumps(machine_record(threads, args.seed)))
        prep = prepare(args.workload, args.seed, env)
        ledger = Ledger()
        if args.trace:
            metrics = measure_layers(prep, env, thread_env(1), args.seconds, ledger)
            units = LAYER_METRICS
        else:
            metrics = measure_end_to_end(prep, env, args.seconds, ledger)
            units = END_TO_END
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    print(result_line(metrics, units, ledger))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
