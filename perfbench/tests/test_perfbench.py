"""Tests of the benchmark itself: request streams, span arithmetic and
the metric names ``BENCHMARK.json`` promises."""

from __future__ import annotations

import json
import os
import sys
import threading

REPO = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
if REPO not in sys.path:
    sys.path.insert(0, REPO)

import pytest  # noqa: E402

from perfbench import calibrate, metrics, workloads  # noqa: E402
from perfbench.spans import (  # noqa: E402
    ROOT,
    Recorder,
    Span,
    covered_us,
    join_remote,
    layer_shares,
    self_times,
    to_chrome,
)

with open(os.path.join(REPO, "BENCHMARK.json"), encoding="utf-8") as _fp:
    BENCHMARK = json.load(_fp)


def _span(name, span_id, parent, start, end, trace="t", **attrs):
    return Span(name, trace, span_id, parent, start, end, "main", attrs)


# -- request streams ----------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_one_seed_yields_one_request_sequence(workload):
    first = workloads.request_sequence(workload, 7, 60)
    assert first == workloads.request_sequence(workload, 7, 60)
    assert first != workloads.request_sequence(workload, 8, 60)


@pytest.mark.parametrize("workload", ["cold-exact", "cold-fast",
                                      "disk-reload"])
def test_every_round_plans_the_whole_pool(workload):
    sequence = workloads.request_sequence(workload, 3, 50)
    pool = list(range(len(workloads.POOL)))
    for start in range(0, 50, len(pool)):
        assert sorted(sequence[start:start + len(pool)]) == pool


def test_rpc_mix_and_single_writer_per_job():
    per_client = workloads.request_sequence("warm-rpc", 5, 200)
    for client, ops in enumerate(per_client):
        methods = [op[0] for op in ops]
        assert methods.count("plan") == 120
        assert methods.count("current_schedule") == 40
        assert methods.count("set_straggler") == 20
        assert methods.count("report_measurement") == 20
        for method, target, arg in ops:
            if method == "set_straggler":
                assert arg in workloads.STRAGGLER_DEGREES
            if method in ("set_straggler", "report_measurement"):
                assert target in workloads.owned_jobs(client)
            if method == "report_measurement":
                assert abs(arg) <= workloads.MEASUREMENT_JITTER


# -- span arithmetic ----------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [
        _span("request", "r", None, 0, 100),
        _span("api.plan", "a", "r", 10, 90),
        _span("core.crawl", "c", "a", 20, 60),
        _span("core.store.put", "p", "a", 60, 80),
    ]
    own = self_times(spans)
    assert own == {"r": 20, "a": 20, "c": 40, "p": 20}
    assert sum(own.values()) == 100


def test_abutting_siblings_do_not_nest_or_double_count():
    # Integer microseconds: b starts exactly where a ends.
    spans = [
        _span("request", "r", None, 0, 30),
        _span("core.store.get", "a", "r", 0, 10),
        _span("core.store.get", "b", "r", 10, 30),
    ]
    assert self_times(spans) == {"r": 0, "a": 10, "b": 20}
    chrome = to_chrome(spans)["traceEvents"]
    a, b = [e for e in chrome
            if e["ph"] == "X" and e["args"]["span_id"] in ("a", "b")]
    assert a["ts"] + a["dur"] == b["ts"]
    assert all(isinstance(e["ts"], int) for e in chrome if e["ph"] == "X")


def test_overlapping_children_count_once():
    assert covered_us(0, 100, [(10, 40), (30, 50), (90, 120)]) == 50
    assert covered_us(0, 100, []) == 0


def test_layer_shares_and_unattributed():
    spans = [
        _span("request", "r", None, 0, 100),
        _span("core.crawl", "c", "r", 0, 60),
        _span("core.store.stable_key", "k", "r", 60, 90),
    ]
    shares = layer_shares(spans)
    assert shares["core.crawl"] == pytest.approx(0.6)
    assert shares["core.store"] == pytest.approx(0.3)
    assert shares["unattributed"] == pytest.approx(0.1)


def test_remote_spans_join_on_trace_id():
    local = [_span("request", "b1", None, 0, 100, trace="x"),
             _span("service.client.call", "b2", "b1", 5, 95, trace="x")]
    remote = [_span("service.daemon.dispatch", "d1", None, 20, 80,
                    trace="x"),
              _span("api.plan", "d2", "d1", 30, 70, trace="x"),
              _span("service.daemon.dispatch", "d3", None, 0, 5,
                    trace="setup")]
    joined = join_remote(local, remote, via="service.client.call")
    assert {s.span_id for s in joined} == {"b1", "b2", "d1", "d2"}
    assert next(s for s in joined if s.span_id == "d1").parent == "b2"
    own = self_times(joined)
    assert own["b2"] == 90 - 60 and own["d1"] == 20


def test_recorder_nests_per_thread_and_ignores_work_outside_requests():
    recorder = Recorder(0)
    with recorder.span("api.plan") as outside:
        pass
    assert outside is None and recorder.spans == []

    def request(trace):
        with recorder.span(ROOT, trace=trace):
            with recorder.span("api.plan"):
                recorder.annotate("bytes", 3)

    threads = [threading.Thread(target=request, args=(f"t{i}",))
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)
    by_id = {s.span_id: s for s in recorder.spans}
    plans = [s for s in recorder.spans if s.name == "api.plan"]
    assert len(plans) == 4
    for plan in plans:
        parent = by_id[plan.parent]
        assert parent.name == ROOT and parent.trace == plan.trace
        assert parent.start_us <= plan.start_us <= plan.end_us \
            <= parent.end_us
        assert plan.attrs == {"bytes": 3}


# -- metric names -------------------------------------------------------------

def _synthetic_outcome():
    """One request touching every probe the benchmark installs."""
    out = workloads.Outcome("synthetic")
    out.host.times, out.host.kernel_ms = [0.0], [3.0]
    out.setups = [(0.0, 1.0), (0.0, 1.2), (0.0, 1.1)]
    for latency in range(1, 31):
        out.record(0.0, float(latency), None)
    out.busy = [(0.0, 0.465)]
    out.savings = {0: [15.4], 4: [7.6]}
    out.peak_rss_mb = 100.0
    out.daemon = {"dispatch_s.plan": 0.01, "dispatch_n.plan": 2.0,
                  "rejections": 0.0, "replans": 0.0}
    names = ["api.plan", "api.build_stack", "models.build_model",
             "partition.partition_model", "profiler.profile_pipeline",
             "pipeline.build_pipeline_dag", "sim.execute_frequency_plan",
             "core.store.stable_key", "core.serialization.encode",
             "service.client.connect", "service.wire.decode",
             "service.wire.encode", "runtime.current_schedule",
             "drift.report_measurement"]
    spans = [_span("request", "r", None, 0, 1000)]
    spans += [_span(name, f"s{i}", "r", i * 10, i * 10 + 5)
              for i, name in enumerate(names)]
    spans += [
        _span("core.crawl", "c", "r", 200, 300, maxflow_s=0.05, cuts=10,
              points=5, event_times_s=0.01, instance_build_s=0.01,
              schedule_s=0.01, contraction_ratio=0.5, warm_hits=1,
              warm_misses=3, incremental_passes=2, full_passes=2),
        _span("core.store.get", "g", "r", 300, 320, namespace="frontier",
              source="disk", bytes=900),
        _span("core.serialization.decode", "d", "g", 305, 315,
              kind="Frontier"),
        _span("core.store.put", "p", "r", 320, 330, bytes=900),
        _span("service.client.call", "l", "r", 400, 500, method="plan",
              response_bytes=4000),
    ]
    out.spans = spans
    return out


def test_every_benchmark_metric_is_emitted_with_its_unit():
    out = _synthetic_outcome()
    for section, values in (("end_to_end", metrics.end_to_end(out)),
                            ("per_layer", metrics.per_layer(out))):
        promised = {m["name"]: m["unit"] for m in BENCHMARK[section]}
        assert set(values) == set(promised), section
        for name, (value, unit) in values.items():
            assert unit == promised[name], name
            assert isinstance(value, float), name
    assert BENCHMARK["workloads"] and {
        w["name"] for w in BENCHMARK["workloads"]} <= set(
        workloads.WORKLOADS)


def test_tail_is_highest_percentile_with_ten_samples_beyond():
    values = [float(v) for v in range(1, 101)]
    pct, value = metrics.tail(values)
    assert pct == pytest.approx(90.0)
    assert sum(v > value for v in values) == 10
    assert metrics.tail([float(v) for v in range(5000)])[0] == 99.0
    assert metrics.tail([3.0, 1.0, 2.0] * 16) == (100.0, 3.0)
    assert metrics.tail([3.0, 1.0, 2.0] * 16, [3.0, 5.0, 4.0]) == (100.0, 4.0)
    # Whole rounds of the pool: round maxima, however many samples.
    assert metrics.tail(values, [3.0, 5.0, 4.0]) == (100.0, 4.0)


def test_timings_are_scaled_by_the_host_speed_around_them():
    out = workloads.Outcome("synthetic")
    reference, window = out.host.reference_ms, calibrate.WINDOW_S
    # Snapshots at t = 0 and 1 (a slow second: twice the reference),
    # at 3.5 + window (twice) and, far later, at 100 (half).
    out.host.times = [0.0, 1.0, 3.5 + window, 100.0]
    out.host.kernel_ms = [reference, 2 * reference, 2 * reference,
                          reference / 2]
    out.record(0.5, 10.0, None)           # the first two: 1.5x
    out.record(3.5, 30.0, None)           # only the third: 2x
    out.record(100.0, 40.0, None)         # only the last: 0.5x
    assert out.scaled_ms() == pytest.approx([20.0 / 3, 15.0, 80.0])
    out.busy = [(0.5, 0.01), (100.0, 0.04)]
    out.setups = [(99.0, 2.0)]
    e2e = metrics.end_to_end(out)
    assert e2e["request_ms.p50"] == (pytest.approx(15.0), "ms")
    assert e2e["setup_s"] == (2.0, "s")  # as measured
    assert e2e["requests_per_s"][0] == pytest.approx(
        3 / (0.02 / 3 + 0.08))
    assert calibrate.kernel() == calibrate.kernel() > 0.0


def test_parallel_snapshots_run_helpers_and_stop_them():
    host = calibrate.Host(parallel=2)
    helpers = list(host._helpers)
    try:
        host.sample()
        host.sample()
    finally:
        host.close()
    assert len(host.kernel_ms) == 2 and min(host.kernel_ms) > 0.0
    assert host.reference_ms == calibrate.REFERENCE_MS[2]
    assert [helper.returncode for helper in helpers] == [0]


def test_round_maxima_follow_the_rounds():
    out = workloads.Outcome("synthetic")
    out.round_sizes = [2, 3]
    assert out.round_max_ms([1.0, 4.0, 2.0, 9.0, 3.0]) == [4.0, 9.0]


def test_fast_gate_accepts_the_reference_and_rejects_costlier_points():
    reference = workloads.Reference()

    class Point:
        def __init__(self, t, e):
            self.iteration_time, self.effective_energy = t, e

    class Frontier:
        def __init__(self, points):
            self.points = points

    times, energies = reference._points[0]
    exact = Frontier([Point(t, e) for t, e in zip(times, energies)])
    assert reference.check_fast_frontier(0, exact) is None
    worse = Frontier([Point(t, e * 1.06) for t, e in zip(times, energies)])
    assert "exceeds exact" in reference.check_fast_frontier(0, worse)
