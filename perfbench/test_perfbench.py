"""Tests of the benchmark itself: span arithmetic, the correctness gate, metric names.

Run from the repository root with: python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

import child
import run
from spans import (
    BOUNDARIES,
    LAYER_METRICS,
    Tracer,
    accounted_share,
    pass_metrics,
    self_times,
    union_length,
)

ROOT = Path(__file__).resolve().parent.parent


def test_union_counts_overlap_once_and_clips_to_parent():
    assert union_length([(1.0, 5.0), (3.0, 8.0)], 0.0, 10.0) == pytest.approx(7.0)
    assert union_length([(3.0, 8.0), (1.0, 5.0), (6.0, 7.0)], 0.0, 10.0) == pytest.approx(7.0)
    assert union_length([(-2.0, 1.0), (9.0, 12.0)], 0.0, 10.0) == pytest.approx(2.0)
    assert union_length([], 0.0, 10.0) == 0.0


def test_self_time_subtracts_union_of_overlapping_children():
    spans = [
        ("estimator.estimate", 1, None, 0.0, 10.0),
        # two worker threads whose probe spans overlap in [3, 5]
        ("clenshaw.qf", 2, 1, 1.0, 5.0),
        ("clenshaw.qf", 3, 1, 3.0, 8.0),
        ("sparse.matvec", 4, 2, 2.0, 4.0),
    ]
    selfs = self_times(spans)
    assert selfs[1] == pytest.approx(3.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(5.0)
    assert selfs[4] == pytest.approx(2.0)


def test_tracer_nests_pool_work_under_the_submitting_span():
    tracer = Tracer()

    def probe(i):
        return i * i

    traced_probe = tracer.wrap("clenshaw.qf", probe)

    def estimate():
        current = tracer.current()
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(tracer.adopt(current, traced_probe), range(4)))

    assert tracer.wrap("estimator.estimate", estimate)() == [0, 1, 4, 9]
    by_name = {}
    for name, sid, parent, start, end in tracer.spans:
        by_name.setdefault(name, []).append((sid, parent))
    (est_id, est_parent), = by_name["estimator.estimate"]
    assert est_parent is None
    assert [parent for _, parent in by_name["clenshaw.qf"]] == [est_id] * 4


def test_tracer_counts_errors_and_reraises():
    tracer = Tracer()

    def broken():
        raise ValueError("bad")

    with pytest.raises(ValueError):
        tracer.wrap("sparse.read_mtx", broken)()
    assert tracer.errors == {"sparse.read_mtx": 1}
    assert [s[0] for s in tracer.spans] == ["sparse.read_mtx"]


def test_tracer_notes_only_the_first_call():
    tracer = Tracer()
    seen = []
    matvec = tracer.wrap("sparse.matvec", lambda v: v,
                         note=lambda v: seen.append(v) or v)
    assert [matvec(k) for k in range(3)] == [0, 1, 2]
    assert seen == [0] and tracer.notes == {"sparse.matvec": 0}


def test_missing_boundary_fails_loudly(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import entrace.cli

    monkeypatch.delattr(entrace.cli, "read_matrix_market")
    with pytest.raises(SystemExit, match="sparse.read_mtx"):
        child._install(Tracer(), "trace")


# ---------------------------------------------------------------- the gate

REPORT = {"entropy": 1.5, "tau": 0.1, "samples": 10, "method": {"threads": 2}}


def make_child(exit_code=0, payload=REPORT, stdout=None):
    text = json.dumps(payload, indent=2) + "\n" if stdout is None else stdout
    report = {
        "import_s": 0.1,
        "main_end": 3.0,
        "maxrss_kb": 2048,
        "spans": [["cli.main", 1, None, 0.2, 3.0], ["estimator.estimate", 2, 1, 1.0, 2.5]],
        "errors": {},
        "notes": {},
    }
    return run.Child(exit_code, text, "", 0.0, 3.1, report)


def test_gate_accepts_result_within_tau():
    good = make_child()
    assert run.check(good, good.stdout, reference=1.45) is None


def test_gate_rejects_result_outside_tau():
    doctored = make_child(payload={**REPORT, "entropy": 1.7})
    failure = run.check(doctored, doctored.stdout, reference=1.45)
    assert failure is not None and "exceeds tau" in failure


def test_gate_rejects_nonzero_exit():
    crashed = make_child(exit_code=1)
    assert run.check(crashed, crashed.stdout, reference=1.5).startswith("exit code 1")


def test_gate_rejects_stdout_that_differs_between_repeats():
    first = make_child()
    later = make_child(payload={**REPORT, "entropy": 1.5000000000000002})
    assert "differs" in run.check(later, first.stdout, reference=1.5)


def test_gate_rejects_unparsable_stdout():
    garbled = make_child(stdout="not json\n")
    assert run.check(garbled, garbled.stdout, reference=1.5) == "stdout is not an entropy report"


def test_thread_count_is_the_only_allowed_difference():
    two = make_child().stdout
    one = make_child(payload={**REPORT, "method": {"threads": 1}}).stdout
    other = make_child(payload={**REPORT, "tau": 0.2, "method": {"threads": 1}}).stdout
    assert run.same_result(one, two)
    assert not run.same_result(other, two)


def test_repeats_are_compared_per_probe_seed(monkeypatch):
    def fake_child(mode, argv, env):
        seed = int(argv[argv.index("--seed") + 1])
        return make_child(payload={**REPORT, "seed": seed})

    monkeypatch.setattr(run, "run_child", fake_child)
    prep = run.Prepared(["entropy"], (3, 4, 5), reference=1.5)
    ledger = run.Ledger()
    for _ in range(2):
        run.measure_end_to_end(prep, {}, seconds=0.0, ledger=ledger)
    assert (ledger.attempted, ledger.failed) == (2 * run.MIN_REPEATS, 0)

    calls = []

    def drifting_child(mode, argv, env):
        calls.append(argv)
        return make_child(payload={**REPORT, "entropy": 1.5 + 1e-9 * len(calls)})

    monkeypatch.setattr(run, "run_child", drifting_child)
    ledger = run.Ledger()
    run.measure_end_to_end(run.Prepared(["entropy"], (3,), reference=1.5), {}, 0.0, ledger)
    assert (ledger.attempted, ledger.failed) == (run.MIN_REPEATS, run.MIN_REPEATS - 1)


# ---------------------------------------------------------- metric names


def benchmark_json():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_declared_metrics_match_benchmark_json():
    spec = benchmark_json()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)


def test_emitted_metrics_match_declared(monkeypatch):
    monkeypatch.setattr(run, "run_child", lambda mode, argv, env: make_child())
    prep = run.Prepared(["entropy"], (0, 1, 2), reference=1.5)

    ledger = run.Ledger()
    e2e = run.measure_end_to_end(prep, {}, seconds=0.0, ledger=ledger)
    line = json.loads(run.result_line(e2e, run.END_TO_END, ledger))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] == run.MIN_REPEATS and line["failed"] == 0
    assert set(line["metrics"]) == set(run.END_TO_END)
    assert e2e["setup_s"] == pytest.approx(1.0)
    assert e2e["probe_ms"] == pytest.approx(150.0)

    layers = run.measure_layers(prep, {}, {}, seconds=0.0, ledger=run.Ledger())
    assert set(layers) == set(LAYER_METRICS)
    assert {f"{b}.errors" for b in BOUNDARIES} <= set(layers)


def test_layer_metrics_on_a_synthetic_trace():
    # two probes of three matvecs each, inside one estimator call
    spans = [("cli.main", 1, None, 0.1, 10.0), ("estimator.estimate", 2, 1, 1.0, 9.0)]
    sid = 3
    for p in range(2):
        base = 2.0 + 3.0 * p
        spans.append(("clenshaw.qf", sid, 2, base, base + 2.5))
        spans.append(("estimator.sample_vector", sid + 1, 2, base - 0.5, base))
        qf = sid
        sid += 2
        for k in range(3):
            spans.append(("sparse.matvec", sid, qf, base + 0.5 * k, base + 0.5 * k + 0.25))
            sid += 1
    metrics = pass_metrics(spans, import_s=0.1, matvec_shape=(300, 100))
    assert metrics["clenshaw.matvecs_per_probe"] == 3.0
    assert metrics["estimator.probes"] == 2
    assert metrics["sparse.matvec.calls"] == 6
    assert metrics["sparse.matvec.bytes_computed"] == 72 * 300 + 8 * 100
    assert metrics["sparse.matvec.us_per_call"] == pytest.approx(0.25e6)
    assert metrics["clenshaw.qf.self_s"] == pytest.approx(2 * (2.5 - 0.75))
    assert metrics["estimator.concurrency"] == pytest.approx(6.0 / 8.0)
    assert set(metrics) | {"estimator.thread_speedup", "trace.overhead_s",
                           "trace.accounted_share", "sparse.write_mtx.s",
                           *(f"{b}.errors" for b in BOUNDARIES)} == set(LAYER_METRICS)


def test_accounted_share_drops_when_a_layer_is_not_wrapped():
    # import 0.1 s, main from 0.1 s to 9.9 s, process gone at 10 s
    spans = [
        ("cli.main", 1, None, 0.1, 9.9),
        ("generators.build", 2, 1, 0.1, 1.0),
        ("estimator.estimate", 3, 1, 1.0, 9.9),
        ("clenshaw.qf", 4, 3, 2.0, 9.0),
    ]
    assert accounted_share(spans, 0.1, 10.0) == pytest.approx(0.99)
    # the generator unwrapped: its time stays in cli.main's self time
    assert accounted_share([s for s in spans if s[1] != 2], 0.1, 10.0) == pytest.approx(0.9)
    # a nested layer unwrapped: its time moves to its parent layer instead
    assert accounted_share([s for s in spans if s[1] != 4], 0.1, 10.0) == pytest.approx(0.99)


def test_thread_speedup_compares_untraced_runs(monkeypatch):
    def fake_child(mode, argv, env):
        child = make_child()
        threads = env.get("ENTRACE_THREADS")
        est = {"plain": (1.0, 2.0 if threads == "1" else 1.5), "trace": (1.0, 4.0)}[mode]
        child.report["spans"] = [["cli.main", 1, None, 0.2, 3.0],
                                 ["estimator.estimate", 2, 1, *est]]
        return child

    monkeypatch.setattr(run, "run_child", fake_child)
    prep = run.Prepared(["entropy"], (0,), reference=1.5)
    layers = run.measure_layers(prep, {"ENTRACE_THREADS": "2"}, {"ENTRACE_THREADS": "1"},
                                seconds=0.0, ledger=run.Ledger())
    assert layers["estimator.thread_speedup"] == pytest.approx(2.0)
