"""Turn one workload's :class:`~perfbench.workloads.Outcome` into metrics.

:func:`end_to_end` gives what a user of the planner sees (untraced
runs); :func:`per_layer` gives the per-layer breakdown from a traced
run's spans.  Every metric is ``name -> (value, unit)``; the names and
units are the ones ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.core.store import PERSISTENT_NAMESPACES

from .spans import ROOT, Span, layer_shares, self_times

Metrics = Dict[str, Tuple[float, str]]

#: Samples the tail percentile leaves beyond it, at least.
TAIL_SAMPLES_BEYOND = 10
#: Highest tail percentile reported: beyond p99 the tail of a run with
#: thousands of requests rests on a handful of host hiccups.
TAIL_MAX_PCT = 99.0
#: Fewer samples than this and no percentile at or above p80 has ten
#: samples beyond it.
TAIL_MIN_SAMPLES = 50

#: RPC methods of the ``warm-rpc`` mix.
RPC_METHODS = ("plan", "current_schedule", "set_straggler",
               "report_measurement")

#: Layers whose self-time share a traced run reports.
LAYERS = ("api", "models", "partition", "profiler", "pipeline",
          "core.crawl", "core.store", "core.serialization", "sim",
          "service", "runtime", "drift", "unattributed")


def quantile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile of ``values`` (0-100)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(values: Sequence[float],
         round_max: Sequence[float] = ()) -> Tuple[float, float]:
    """``(percentile, value)`` of the highest percentile with ten samples
    beyond it, ``100 * (1 - 10 / n)``, capped at :data:`TAIL_MAX_PCT`:
    it moves smoothly with the sample count, so runs of slightly
    different length stay comparable.

    A run made of whole rounds of the pool reports the median of each
    round's slowest request instead (percentile reported as 100): the
    slow request a user meets in every round.  Such a run has a few
    dozen samples, one in five from the slowest spec, so the percentile
    rule would land on the edge between the two slowest specs.  Below
    :data:`TAIL_MIN_SAMPLES` samples without rounds it is the maximum."""
    n = len(values)
    if round_max:
        return 100.0, statistics.median(round_max)
    if n >= TAIL_MIN_SAMPLES:
        pct = min(TAIL_MAX_PCT, 100.0 * (1.0 - TAIL_SAMPLES_BEYOND / n))
        return pct, quantile(values, pct)
    return 100.0, max(values)


def energy_saved_pct(savings: Dict[int, List[float]]) -> float:
    """Mean saving per pool spec (each spec weighs the same), averaged
    over the specs that answered."""
    per_spec = [statistics.fmean(v) for v in savings.values() if v]
    return statistics.fmean(per_spec) if per_spec else float("nan")


def end_to_end(out) -> Metrics:
    """Request timings are scaled to the reference host (see
    :mod:`perfbench.calibrate`); :func:`describe` prints them as
    measured.  ``setup_s`` is as measured."""
    latencies = out.scaled_ms()
    _, tail_ms = tail(latencies, out.round_max_ms(latencies))
    return {
        "setup_s": (statistics.median(out.setup_s()), "s"),
        "request_ms.p50": (statistics.median(latencies), "ms"),
        "request_ms.tail": (tail_ms, "ms"),
        "requests_per_s": (len(latencies) / out.scaled_busy_s(), "1/s"),
        "peak_rss_mb": (out.peak_rss_mb, "MB"),
        "energy_saved_pct": (energy_saved_pct(out.savings), "%"),
    }


def describe(out) -> List[str]:
    """Human-readable lines: what the JSON line cannot say."""
    pct, _ = tail(out.latencies_ms, out.round_max_ms(out.latencies_ms))
    tail_kind = "" if pct < 100.0 else (
        f"median of {len(out.round_sizes)} round maxima, "
        if out.round_sizes else "max, ")
    failed = len(out.failures)
    lines = [
        f"workload        : {out.workload}",
        f"requests        : {out.attempted} attempted, {failed} failed "
        f"(failed_ratio {failed / max(out.attempted, 1):.4f})",
        f"request_ms.tail : p{pct:.2f} "
        f"({tail_kind}n={len(out.latencies_ms)})",
        f"setup_s samples : "
        + ", ".join(f"{s:.3f}" for s in out.setup_s()),
    ]
    if out.latencies_ms:
        kernel_ms = out.host.kernel_ms
        lines += [
            f"as measured     : request_ms.p50 "
            f"{statistics.median(out.latencies_ms):.2f}, requests_per_s "
            f"{len(out.latencies_ms) / out.busy_s():.3f}",
            f"host kernel ms  : median {statistics.median(kernel_ms):.3f} "
            f"of {len(kernel_ms)} (reference {out.host.reference_ms}; "
            f"range {min(kernel_ms):.3f}-{max(kernel_ms):.3f})",
        ]
    lines += [f"FAILED          : {reason}" for reason in out.failures[:20]]
    return lines


def _mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def per_layer(out) -> Metrics:
    spans: List[Span] = out.spans
    requests = max(sum(1 for s in spans if s.name == ROOT), 1)
    own = self_times(spans)
    named: Dict[str, List[Span]] = defaultdict(list)
    for span in spans:
        named[span.name].append(span)

    def ms(group: Sequence[Span]) -> float:
        return sum(s.duration_us for s in group) / 1e3

    def per_request_ms(name: str) -> float:
        return ms(named[name]) / requests

    def per_call_ms(group: Sequence[Span]) -> float:
        return ms(group) / len(group) if group else 0.0

    def attr_mean(group: Sequence[Span], key: str) -> float:
        return _mean([float(s.attrs[key]) for s in group if key in s.attrs])

    crawls = named["core.crawl"]
    plans = named["api.plan"]
    gets = named["core.store.get"]
    by_source = defaultdict(list)
    for span in gets:
        by_source[span.attrs.get("source")].append(span)
    reached_disk = [s for s in gets
                    if s.attrs.get("namespace") in PERSISTENT_NAMESPACES
                    and s.attrs.get("source") != "memory"]
    puts = named["core.store.put"]

    metrics: Metrics = {
        "core.crawl.busy_ms": (per_request_ms("core.crawl"), "ms"),
        "core.crawl.calls": (float(len(crawls)), "count"),
        "core.crawl.maxflow_ms": (attr_mean(crawls, "maxflow_s") * 1e3,
                                  "ms"),
        "core.crawl.event_pass_ms": (
            attr_mean(crawls, "event_times_s") * 1e3, "ms"),
        "core.crawl.instance_build_ms": (
            attr_mean(crawls, "instance_build_s") * 1e3, "ms"),
        "core.crawl.point_assembly_ms": (
            attr_mean(crawls, "schedule_s") * 1e3, "ms"),
        "core.crawl.cuts": (attr_mean(crawls, "cuts"), "count"),
        "core.crawl.points": (attr_mean(crawls, "points"), "count"),
        "core.crawl.contraction_ratio": (
            attr_mean(crawls, "contraction_ratio"), "ratio"),
        "core.crawl.warm_cut_hit_ratio": (_mean([
            s.attrs["warm_hits"] / (s.attrs["warm_hits"]
                                    + s.attrs["warm_misses"])
            for s in crawls if s.attrs.get("warm_hits", 0)
            + s.attrs.get("warm_misses", 0)]), "ratio"),
        "core.crawl.incremental_share": (_mean([
            s.attrs["incremental_passes"] / (s.attrs["incremental_passes"]
                                             + s.attrs["full_passes"])
            for s in crawls if s.attrs.get("incremental_passes", 0)
            + s.attrs.get("full_passes", 0)]), "ratio"),
        "models.busy_ms": (per_request_ms("models.build_model"), "ms"),
        "partition.busy_ms": (per_request_ms("partition.partition_model"),
                              "ms"),
        "profiler.busy_ms": (per_request_ms("profiler.profile_pipeline"),
                             "ms"),
        "pipeline.dag_ms": (per_request_ms("pipeline.build_pipeline_dag"),
                            "ms"),
        "api.plan.self_ms": (
            sum(own[s.span_id] for s in plans) / 1e3 / len(plans)
            if plans else 0.0, "ms"),
        "api.build_stack.calls_per_plan": (
            len(named["api.build_stack"]) / len(plans) if plans else 0.0,
            "count"),
        "core.store.key_ms": (per_request_ms("core.store.stable_key"), "ms"),
        "core.store.key_calls": (
            len(named["core.store.stable_key"]) / requests, "count"),
        "core.store.get_ms.memory": (per_call_ms(by_source["memory"]),
                                     "ms"),
        "core.store.get_ms.disk": (per_call_ms(by_source["disk"]), "ms"),
        "core.store.disk_hit_ratio": (
            len(by_source["disk"]) / len(reached_disk)
            if reached_disk else 0.0, "ratio"),
        "core.store.bytes_read": (
            sum(s.attrs.get("bytes", 0) for s in gets) / requests, "bytes"),
        "core.serialization.frontier_decode_ms": (ms([
            s for s in named["core.serialization.decode"]
            if s.attrs.get("kind") == "Frontier"]) / requests, "ms"),
        "core.store.put_ms": (per_request_ms("core.store.put"), "ms"),
        "core.store.bytes_written": (
            sum(s.attrs.get("bytes", 0) for s in puts) / requests, "bytes"),
        "sim.execute_ms": (per_request_ms("sim.execute_frequency_plan"),
                           "ms"),
        "sim.execute_calls_per_plan": (
            len(named["sim.execute_frequency_plan"]) / len(plans)
            if plans else 0.0, "count"),
    }

    calls = named["service.client.call"]
    by_method = defaultdict(list)
    for span in calls:
        by_method[span.attrs.get("method")].append(span)
    daemon = out.daemon
    for method in RPC_METHODS:
        metrics[f"service.client.rtt_ms.{method}"] = (
            per_call_ms(by_method[method]), "ms")
        count = daemon.get(f"dispatch_n.{method}", 0.0)
        metrics[f"service.daemon.dispatch_ms.{method}"] = (
            daemon.get(f"dispatch_s.{method}", 0.0) * 1e3 / count
            if count else 0.0, "ms")
    dispatched_ms = sum(daemon.get(f"dispatch_s.{m}", 0.0)
                        for m in RPC_METHODS) * 1e3
    metrics["service.transport_ms"] = (
        (ms(calls) - dispatched_ms) / len(calls) if calls else 0.0, "ms")
    metrics["service.client.connects_per_request"] = (
        len(named["service.client.connect"]) / requests, "count")
    encodes, decodes = named["service.wire.encode"], \
        named["service.wire.decode"]
    metrics["service.wire.encode_ms"] = (per_call_ms(encodes), "ms")
    metrics["service.wire.decode_ms"] = (per_call_ms(decodes), "ms")
    metrics["service.wire.response_bytes"] = (
        attr_mean(calls, "response_bytes"), "bytes")
    metrics["service.admission.rejections"] = (
        daemon.get("rejections", 0.0), "count")
    metrics["drift.replans"] = (daemon.get("replans", 0.0), "count")

    shares = layer_shares(spans)
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (shares.get(layer, 0.0), "share")
    metrics["trace.request_ms.p50"] = (
        statistics.median(out.scaled_ms()), "ms")
    metrics["trace.spans_per_request"] = (len(spans) / requests, "count")
    return metrics
