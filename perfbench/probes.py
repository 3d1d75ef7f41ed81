"""Layer probes: spans around the calls into each layer's public functions.

Every probe replaces a name *where its caller looks it up* -- the
module global the caller imported, or a method on the class -- with a
wrapper that records one span around the original call.  Nothing under
``src/`` changes, and a process that installs no probes (every
untraced run) runs the package untouched.  Store timing comes from
:class:`TimedPlanStore`, a :class:`~repro.core.store.PlanStore`
subclass the benchmark hands to each planner it builds.

Probes only record inside a request (see :meth:`Recorder.span`), so
work done during set-up leaves no spans.
"""

from __future__ import annotations

import functools
import http.client
import os
import threading
from typing import Callable, Optional

from repro.api import planner as api_planner
from repro.core import optimizer as core_optimizer
from repro.core import store as core_store
from repro.core.store import PlanStore

from .spans import Recorder


def wrap(owner, attr: str, recorder: Recorder, name: str,
         after: Optional[Callable] = None) -> None:
    """Record span ``name`` around every call of ``owner.attr``.

    ``after(span, result)`` may add attributes once the call returned
    (outside the timed interval).
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def probe(*args, **kwargs):
        with recorder.span(name) as span:
            result = original(*args, **kwargs)
        if span is not None and after is not None:
            after(span, result)
        return result

    setattr(owner, attr, probe)


def _crawl_counters(span, frontier) -> None:
    """Copy the crawl's own timings and fast counters onto its span."""
    timings = (frontier.stats or {}).get("timings") or {}
    span.attrs["points"] = len(frontier.points)
    for key in ("maxflow_s", "event_times_s", "instance_build_s",
                "schedule_s", "cuts", "warm_hits", "warm_misses",
                "contraction_ratio", "incremental_passes", "full_passes"):
        if key in timings:
            span.attrs[key] = timings[key]


class TimedPlanStore(PlanStore):
    """A :class:`PlanStore` recording ``core.store.get``/``put`` spans.

    Get spans carry where the value came from (``memory``/``disk``/
    ``miss``) and, for disk hits, the bytes read; put spans carry the
    bytes written (0 when the entry already existed).
    """

    def __init__(self, root, recorder: Recorder,
                 max_bytes: Optional[int] = None) -> None:
        self.recorder = recorder
        self._last_path = threading.local()
        super().__init__(root, max_bytes=max_bytes)

    def _path(self, namespace: str, key) -> str:
        path = super()._path(namespace, key)
        self._last_path.value = path
        return path

    def get_with_source(self, namespace: str, key):
        with self.recorder.span("core.store.get",
                                namespace=namespace) as span:
            value, source = super().get_with_source(namespace, key)
        if span is not None:
            span.attrs["source"] = source
            if source == "disk":
                span.attrs["bytes"] = os.path.getsize(self._last_path.value)
        return value, source

    def put(self, namespace: str, key, value) -> None:
        writes = self.counters.get("disk_writes", 0)
        with self.recorder.span("core.store.put",
                                namespace=namespace) as span:
            super().put(namespace, key, value)
        if span is not None:
            wrote = self.counters.get("disk_writes", 0) > writes
            span.attrs["bytes"] = (os.path.getsize(self._last_path.value)
                                   if wrote else 0)


def install_planner(recorder: Recorder) -> None:
    """Probes on the planning path: api, models, partition, profiler,
    pipeline, core (crawl, store keys, serialization) and sim."""
    wrap(api_planner.Planner, "plan", recorder, "api.plan")
    wrap(api_planner.Planner, "build_stack", recorder, "api.build_stack")
    wrap(api_planner, "build_model", recorder, "models.build_model")
    wrap(api_planner, "partition_model", recorder,
         "partition.partition_model")
    wrap(api_planner, "profile_pipeline", recorder,
         "profiler.profile_pipeline")
    wrap(api_planner, "build_pipeline_dag", recorder,
         "pipeline.build_pipeline_dag")
    wrap(api_planner, "execute_frequency_plan", recorder,
         "sim.execute_frequency_plan")
    wrap(core_optimizer, "characterize_frontier", recorder, "core.crawl",
         after=_crawl_counters)
    for module in (core_store, api_planner):
        wrap(module, "stable_key", recorder, "core.store.stable_key")
    wrap(core_store, "payload_from_dict", recorder,
         "core.serialization.decode",
         after=lambda span, value: span.attrs.update(
             kind=type(value).__name__))
    wrap(core_store, "payload_to_dict", recorder,
         "core.serialization.encode")


def install_client(recorder: Recorder) -> None:
    """Probes on the RPC client: calls, connects, response bytes and
    the wire decoder."""
    from repro.service import client as service_client

    original_call = service_client.ServiceClient.call

    @functools.wraps(original_call)
    def call(self, method, params=None, request_id=None):
        with recorder.span("service.client.call", method=method):
            return original_call(self, method, params, request_id)

    service_client.ServiceClient.call = call
    wrap(http.client.HTTPConnection, "connect", recorder,
         "service.client.connect")
    wrap(service_client, "report_from_wire", recorder,
         "service.wire.decode")
    original_read = http.client.HTTPResponse.read

    @functools.wraps(original_read)
    def read(self, amt=None):
        data = original_read(self, amt)
        recorder.annotate("response_bytes", len(data))
        return data

    http.client.HTTPResponse.read = read


def install_daemon(recorder: Recorder) -> None:
    """Probes inside ``repro serve``: dispatch (the per-request root,
    joined to the client on ``X-Repro-Trace-Id``), the wire encoder,
    the runtime server and drift entry points, and every planner probe.
    Planners built from a ``--cache-dir`` get a :class:`TimedPlanStore`.
    """
    from repro.runtime import server as runtime_server
    from repro.service import daemon as service_daemon

    install_planner(recorder)
    wrap(service_daemon, "stable_key", recorder, "core.store.stable_key")
    original_dispatch = service_daemon.PlanningDaemon.handle_rpc

    @functools.wraps(original_dispatch)
    def handle_rpc(self, envelope, header_tenant, trace_id=None):
        method = envelope.get("method") if isinstance(envelope, dict) \
            else None
        with recorder.span("service.daemon.dispatch",
                           trace=trace_id or "untraced",
                           method=str(method)):
            return original_dispatch(self, envelope, header_tenant,
                                     trace_id=trace_id)

    service_daemon.PlanningDaemon.handle_rpc = handle_rpc
    wrap(service_daemon, "report_to_wire", recorder, "service.wire.encode")
    wrap(runtime_server.PerseusServer, "current_schedule", recorder,
         "runtime.current_schedule")
    wrap(runtime_server.PerseusServer, "set_straggler", recorder,
         "runtime.set_straggler")
    wrap(runtime_server.PerseusServer, "report_measurement", recorder,
         "drift.report_measurement")
    original_backend = api_planner.as_backend

    def as_backend(cache):
        if isinstance(cache, (str, os.PathLike)):
            return TimedPlanStore(cache, recorder)
        return original_backend(cache)

    api_planner.as_backend = as_backend
