"""The four workloads, their seeded request streams and correctness gate.

All workloads are closed loops over one spec pool (all ``a100``,
``strategy="perseus"``).  The seed is a benchmark argument; the program
under test only ever sees the generated requests.

* ``cold-exact`` / ``cold-fast`` -- each request is a fresh
  :class:`~repro.api.Planner` over a fresh on-disk
  :class:`~repro.core.store.PlanStore` planning one pool spec: the
  frontier crawl plus the store's write path.
* ``warm-rpc`` -- a ``repro serve`` daemon with every pool spec
  registered and planned once; two client threads then send a seeded
  mix of plan / current_schedule / set_straggler / report_measurement
  calls.  No crawl at all: connection set-up, dispatch, the wire codec,
  memo-key hashing and simulation.
* ``disk-reload`` -- one store holds the pool; each request is a fresh
  planner over a fresh ``PlanStore`` object on that directory, so every
  stage is read back from disk: the store's read path.

Specs are drawn in *rounds*: each round is a seeded permutation of the
pool, so every run plans the same mix of cheap and expensive specs and
only their order depends on the seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import os
import random
import re
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from bisect import bisect_right
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.api import Planner, PlanSpec
from repro.core.nextschedule import FAST_TOLERANCE
from repro.core.store import PlanStore
from repro.core.unified import energy_optimal_iteration_time
from repro.exceptions import ReproError
from repro.obs.trace import set_trace_id
from repro.service import ServiceClient
from repro.service.wire import reports_equal
from repro.units import TIME_EPS

from . import calibrate
from .probes import TimedPlanStore
from .spans import ROOT, Recorder, Span

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT_DIR = os.path.dirname(HERE)
REFERENCE_PATH = os.path.join(HERE, "reference.json")
LAUNCHER = os.path.join(HERE, "launcher.py")

WORKLOADS = ("cold-exact", "cold-fast", "warm-rpc", "disk-reload")

#: Set-ups per run; the run reports their median as ``setup_s``.
SETUP_REPEATS = 3

#: Client threads of ``warm-rpc`` (one process, capped at ``nproc``).
RPC_CLIENTS = 2
#: Seconds of ``warm-rpc`` load between two host-speed measurements.
RPC_BLOCK_S = 1.0

#: ``warm-rpc`` mix per block of ten calls (shuffled per block).
RPC_BLOCK = (("plan",) * 6 + ("current_schedule",) * 2
             + ("set_straggler", "report_measurement"))
STRAGGLER_DEGREES = (1.0, 1.05, 1.1, 1.2)
#: Relative jitter of reported step times around the planned time.
MEASUREMENT_JITTER = 0.005


@dataclass(frozen=True)
class PoolEntry:
    model: str
    stages: int
    microbatches: int
    microbatch_size: int
    freq_stride: int
    #: Energy saved against all-max-frequency by a plain exact run (%).
    energy_saved_pct: float

    @property
    def name(self) -> str:
        return (f"{self.model}/pp{self.stages}/mb{self.microbatches}"
                f"/mbs{self.microbatch_size}/fs{self.freq_stride}")

    def spec(self, exactness: str = "exact") -> PlanSpec:
        return PlanSpec(self.model, gpu="a100", stages=self.stages,
                        microbatches=self.microbatches,
                        microbatch_size=self.microbatch_size,
                        freq_stride=self.freq_stride, strategy="perseus",
                        exactness=exactness)


POOL = (
    PoolEntry("gpt3-xl", 4, 12, 4, 4, 15.40),
    PoolEntry("bert-huge", 4, 12, 8, 4, 12.87),
    PoolEntry("t5-3b", 4, 12, 4, 4, 11.82),
    PoolEntry("gpt3-xl", 8, 16, 4, 8, 18.10),
    PoolEntry("gpt3-175b", 16, 16, 1, 16, 7.60),
)


# ---------------------------------------------------------------------------
# Seeded request streams
# ---------------------------------------------------------------------------


def _rng(seed: int, workload: str, stream: int = 0) -> random.Random:
    return random.Random(f"perfbench/{workload}/{seed}/{stream}")


def spec_rounds(seed: int, workload: str) -> Iterator[List[int]]:
    """Rounds of pool indices, each a seeded permutation of the pool."""
    rng = _rng(seed, workload)
    while True:
        order = list(range(len(POOL)))
        rng.shuffle(order)
        yield order


def _cycle(rng: random.Random, items: Sequence[int]) -> Iterator[int]:
    while True:
        order = list(items)
        rng.shuffle(order)
        yield from order


def owned_jobs(client: int) -> List[int]:
    """Jobs a client thread may write to (straggler and measurement
    calls); each job has exactly one writer, so the writer always knows
    the job's deployed schedule."""
    return [job for job in range(len(POOL)) if job % RPC_CLIENTS == client]


def rpc_ops(seed: int, client: int) -> Iterator[tuple]:
    """One ``warm-rpc`` client's calls: ``(method, job_or_spec, arg)``.

    ``plan`` names a pool index; ``current_schedule`` any job;
    ``set_straggler`` one of the client's own jobs and a degree;
    ``report_measurement`` one of its own jobs and a relative jitter.
    """
    rng = _rng(seed, "warm-rpc", client)
    plans = _cycle(rng, range(len(POOL)))
    reads = _cycle(rng, range(len(POOL)))
    writes = _cycle(rng, owned_jobs(client))
    while True:
        block = list(RPC_BLOCK)
        rng.shuffle(block)
        for method in block:
            if method == "plan":
                yield (method, next(plans), None)
            elif method == "current_schedule":
                yield (method, next(reads), None)
            elif method == "set_straggler":
                yield (method, next(writes), rng.choice(STRAGGLER_DEGREES))
            else:
                yield (method, next(writes),
                       rng.uniform(-MEASUREMENT_JITTER, MEASUREMENT_JITTER))


def request_sequence(workload: str, seed: int, count: int) -> List:
    """The first ``count`` requests of a workload (per client for RPC)."""
    if workload == "warm-rpc":
        return [[op for op, _ in zip(rpc_ops(seed, client), range(count))]
                for client in range(RPC_CLIENTS)]
    out: List[int] = []
    for order in spec_rounds(seed, workload):
        out.extend(order)
        if len(out) >= count:
            return out[:count]
    raise AssertionError("unreachable")


# ---------------------------------------------------------------------------
# Correctness reference
# ---------------------------------------------------------------------------


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def frontier_fingerprint(frontier) -> str:
    """Hex-float digest of every point's time and energies."""
    return digest([[p.iteration_time.hex(), p.effective_energy.hex(),
                    p.compute_energy.hex()] for p in frontier.points])


def report_fingerprint(report) -> str:
    """Hex-float digest of a report's scalars and frequency plan."""
    return digest([report.iteration_time_s.hex(), report.energy_j.hex(),
                   report.baseline_time_s.hex(),
                   report.baseline_energy_j.hex(),
                   sorted([int(node), freq]
                          for node, freq in report.plan.items())])


def pin_reference(tmp: str, path: str = REFERENCE_PATH) -> dict:
    """Plan every pool spec exactly, cold, and write the reference file.

    The file pins, per spec, the exact frontier's fingerprint and points
    (time, effective energy) and the report's fingerprint; the
    correctness gate compares every run against it.
    """
    specs = {}
    for index, entry in enumerate(POOL):
        planner = Planner(cache=PlanStore(os.path.join(tmp, f"pin-{index}")))
        report = planner.plan(entry.spec())
        frontier = planner.frontier_for(entry.spec())
        specs[entry.name] = {
            "energy_saved_pct": round(report.energy_savings_pct, 2),
            "frontier_sha256": frontier_fingerprint(frontier),
            "report_sha256": report_fingerprint(report),
            "points": [[p.iteration_time.hex(), p.effective_energy.hex()]
                       for p in frontier.points],
        }
    document = {"format": 1, "specs": specs}
    # One frontier point per line.
    text = re.sub(r'\[\s+("[^"]+"),\s+("[^"]+")\s+\]', r"[\1, \2]",
                  json.dumps(document, indent=1))
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(text + "\n")
    return document


class Reference:
    """The pinned exact results the correctness gate checks against."""

    def __init__(self, path: str = REFERENCE_PATH) -> None:
        with open(path, encoding="utf-8") as fp:
            document = json.load(fp)
        self.specs = [document["specs"][entry.name] for entry in POOL]
        self._points = [
            ([float.fromhex(t) for t, _ in row["points"]],
             [float.fromhex(e) for _, e in row["points"]])
            for row in self.specs
        ]

    def check_report(self, index: int, report) -> Optional[str]:
        """Exact-mode report: pinned fingerprint and energy saving."""
        entry, row = POOL[index], self.specs[index]
        saved = round(report.energy_savings_pct, 2)
        if saved != entry.energy_saved_pct:
            return (f"{entry.name}: energy saved {saved}% != pinned "
                    f"{entry.energy_saved_pct}%")
        if report_fingerprint(report) != row["report_sha256"]:
            return f"{entry.name}: report differs from the pinned report"
        return None

    def check_exact_frontier(self, index: int, frontier) -> Optional[str]:
        if frontier_fingerprint(frontier) != \
                self.specs[index]["frontier_sha256"]:
            return f"{POOL[index].name}: exact frontier fingerprint differs"
        return None

    def check_fast_frontier(self, index: int, frontier) -> Optional[str]:
        """Every fast point within FAST_TOLERANCE of exact at its time."""
        times, energies = self._points[index]
        for point in frontier.points:
            at = bisect_right(times, point.iteration_time + TIME_EPS) - 1
            ref = energies[max(at, 0)]
            excess = (point.effective_energy - ref) / max(abs(ref), 1e-9)
            if excess > FAST_TOLERANCE:
                return (f"{POOL[index].name}: fast point at "
                        f"{point.iteration_time:.6f}s exceeds exact by "
                        f"{excess:.4f} (> {FAST_TOLERANCE})")
        return None


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What one workload run measured."""

    workload: str
    #: Host-speed snapshots around the measured requests (see
    #: :mod:`perfbench.calibrate`).
    host: calibrate.Host = field(default_factory=calibrate.Host)
    #: Start (``perf_counter`` s) and wall time (s) of each set-up.
    setups: List[Tuple[float, float]] = field(default_factory=list)
    #: Start (``perf_counter`` s) and wall time (ms) of each request.
    starts: List[float] = field(default_factory=list)
    latencies_ms: List[float] = field(default_factory=list)
    #: Intervals ``(start, seconds)`` in which the measured requests
    #: ran: one per request for a single client (which leaves out the
    #: benchmark's own checks between requests), one per block of load
    #: for concurrent clients.
    busy: List[Tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    #: Pool index -> energy savings (%) of that spec's plan responses.
    savings: Dict[int, List[float]] = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    spans: List[Span] = field(default_factory=list)
    #: Daemon ``/metrics`` deltas over the window (``warm-rpc``).
    daemon: Dict[str, float] = field(default_factory=dict)
    #: Requests in each whole round of the pool (in-process workloads).
    round_sizes: List[int] = field(default_factory=list)

    def record(self, start: float, latency_ms: float,
               failure: Optional[str]) -> None:
        self.attempted += 1
        self.starts.append(start)
        self.latencies_ms.append(latency_ms)
        if failure is not None:
            self.failures.append(failure)

    def set_up(self, make):
        """Time one set-up, ``make()``, and return what it returned."""
        started = time.perf_counter()
        made = make()
        self.setups.append((started, time.perf_counter() - started))
        return made

    def setup_s(self) -> List[float]:
        return [seconds for _, seconds in self.setups]

    def busy_s(self) -> float:
        return sum(seconds for _, seconds in self.busy)

    # Scaled to the reference host (see perfbench.calibrate).

    def scaled_ms(self) -> List[float]:
        return [self.host.scaled(start, latency / 1e3) * 1e3
                for start, latency in zip(self.starts, self.latencies_ms)]

    def scaled_busy_s(self) -> float:
        return sum(self.host.scaled(start, seconds)
                   for start, seconds in self.busy)

    def round_max_ms(self, latencies: Sequence[float]) -> List[float]:
        """Slowest of ``latencies`` (one per request) in each round."""
        out, at = [], 0
        for size in self.round_sizes:
            out.append(max(latencies[at:at + size]))
            at += size
        return out


def _peak_rss_mb(pid="self") -> float:
    with open(f"/proc/{pid}/status", encoding="ascii") as fp:
        match = re.search(r"VmHWM:\s+(\d+)\s+kB", fp.read())
    if match is None:  # pragma: no cover - not Linux
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return int(match.group(1)) / 1024.0


def _reset_peak_rss(pid="self") -> None:
    """Start a fresh peak-RSS window (Linux ``clear_refs``); where the
    kernel refuses, the peak stays the process's lifetime peak."""
    try:
        with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as fp:
            fp.write("5")
    except OSError:
        pass


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT_DIR, "src")
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def _request_span(recorder: Optional[Recorder], trace: str, **attrs):
    if recorder is None:
        return nullcontext()
    return recorder.span(ROOT, trace=trace, **attrs)


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------


def _store(root: str, recorder: Optional[Recorder]) -> PlanStore:
    return PlanStore(root) if recorder is None \
        else TimedPlanStore(root, recorder)


def _import_repro() -> None:
    """A cold planner process's set-up: interpreter start + import."""
    subprocess.run([sys.executable, "-c", "import repro.api"],
                   env=_child_env(), check=True, timeout=120,
                   stdout=subprocess.DEVNULL)


def _plan_once(index: int, spec: PlanSpec, root: str,
               recorder: Optional[Recorder], trace: str, check):
    """One timed request: a fresh planner over a new store object on
    ``root``.  Returns ``(seconds, failure, energy saved or None)``; the
    planner dies on return, so nothing of it is alive while the next
    request runs (which would blur ``peak_rss_mb``)."""
    started = time.perf_counter()
    try:
        with _request_span(recorder, trace, spec=POOL[index].name):
            planner = Planner(cache=_store(root, recorder))
            report = planner.plan(spec)
    except ReproError as exc:
        return (time.perf_counter() - started,
                f"{POOL[index].name}: {type(exc).__name__}: {exc}", None)
    elapsed = time.perf_counter() - started
    return elapsed, check(index, planner, report), report.energy_savings_pct


def _closed_loop(out: Outcome, seed: int, seconds: float,
                 recorder: Optional[Recorder], specs: Sequence[PlanSpec],
                 root: str, fresh: bool, check) -> None:
    """Whole rounds of the pool, one request at a time, until ``seconds``
    passed.  Requests plan over the store at ``root``, or over a fresh
    store directory inside it (removed afterwards) when ``fresh``.  The
    host's speed is measured, untimed, before each request and after
    the last."""
    gc.collect()
    _reset_peak_rss()
    deadline = time.perf_counter() + seconds
    for order in spec_rounds(seed, out.workload):
        for index in order:
            path = os.path.join(root, f"request-{out.attempted}") \
                if fresh else root
            out.host.sample()
            started = time.perf_counter()
            elapsed, failure, saved = _plan_once(
                index, specs[index], path, recorder,
                f"{out.workload}-{seed}-{out.attempted}", check)
            out.record(started, elapsed * 1e3, failure)
            out.busy.append((started, elapsed))
            if saved is not None:
                out.savings.setdefault(index, []).append(saved)
            if fresh:
                shutil.rmtree(path, ignore_errors=True)
            # A cold planner is freed only by the cycle collector (its
            # optimizer's hook refers back to it).  Collect between
            # requests, untimed, so each starts from the same heap as
            # in a fresh process instead of whenever gen-2 runs.
            gc.collect()
        out.round_sizes.append(len(order))
        if time.perf_counter() >= deadline:
            break
    out.host.sample()
    out.peak_rss_mb = _peak_rss_mb()


def run_cold(exactness: str, seed: int, seconds: float, tmp: str,
             reference: Reference,
             recorder: Optional[Recorder]) -> Outcome:
    out = Outcome(f"cold-{exactness}")
    for _ in range(SETUP_REPEATS):
        out.set_up(_import_repro)

    def check(index, planner, report):
        frontier = planner.frontier_for(report.spec)
        if exactness == "exact":
            return (reference.check_report(index, report)
                    or reference.check_exact_frontier(index, frontier))
        return reference.check_fast_frontier(index, frontier)

    _closed_loop(out, seed, seconds, recorder,
                 [entry.spec(exactness) for entry in POOL], tmp, True, check)
    return out


def run_disk_reload(seed: int, seconds: float, tmp: str,
                    reference: Reference,
                    recorder: Optional[Recorder]) -> Outcome:
    out = Outcome("disk-reload")
    specs = [entry.spec() for entry in POOL]
    for attempt in range(SETUP_REPEATS):
        root = os.path.join(tmp, f"store-{attempt}")

        def fill() -> list:
            planner = Planner(cache=PlanStore(root))
            return [planner.plan(spec) for spec in specs]

        cold = out.set_up(fill)
        if attempt:
            shutil.rmtree(os.path.join(tmp, f"store-{attempt - 1}"))
    for index, report in enumerate(cold):
        failure = reference.check_report(index, report)
        if failure is not None:
            raise RuntimeError(f"set-up plan is wrong: {failure}")

    def check(index, planner, report):
        if not reports_equal(report, cold[index]):
            return f"{POOL[index].name}: reload != cold report"
        return reference.check_report(index, report)

    _closed_loop(out, seed, seconds, recorder, specs, root, False, check)
    return out


# ---------------------------------------------------------------------------
# warm-rpc
# ---------------------------------------------------------------------------


class Daemon:
    """One ``repro serve --port 0 --cache-dir <fresh>`` subprocess,
    started through :mod:`perfbench.launcher`."""

    def __init__(self, tmp: str, index: int,
                 recorder: Optional[Recorder]) -> None:
        self.cache_dir = os.path.join(tmp, f"daemon-{index}")
        self.spans_path = os.path.join(tmp, f"daemon-{index}.spans.json")
        command = [sys.executable, LAUNCHER]
        if recorder is not None:
            command += ["--spans", self.spans_path,
                        "--origin-ns", str(recorder.origin_ns)]
        command += ["--", "serve", "--port", "0",
                    "--cache-dir", self.cache_dir]
        self._stderr = open(os.path.join(tmp, f"daemon-{index}.stderr"),
                            "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.PIPE, stderr=self._stderr,
            env=_child_env(), text=True, cwd=ROOT_DIR)
        # A daemon that never prints its address is killed, which ends
        # the readline loop below.
        watchdog = threading.Timer(120.0, self.proc.kill)
        watchdog.start()
        try:
            self.url = None
            for line in self.proc.stdout:
                if line.startswith("serving"):
                    self.url = line.split()[2]
                    break
        finally:
            watchdog.cancel()
        if self.url is None:
            self.stop()
            raise RuntimeError(f"repro serve did not start (see "
                               f"{self._stderr.name})")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._stderr.close()


_SAMPLE = re.compile(r'^(\w+)(?:\{([^}]*)\})? (\S+)$')


def scrape(client: ServiceClient) -> Dict[Tuple[str, str], float]:
    """``/metrics`` as ``(family, labels) -> value``."""
    samples = {}
    for line in client.metrics_text().splitlines():
        match = _SAMPLE.match(line)
        if match:
            samples[(match.group(1), match.group(2) or "")] = \
                float(match.group(3))
    return samples


def _metrics_delta(before, after) -> Dict[str, float]:
    """Dispatch time per method plus rejection and re-plan counts."""
    delta: Dict[str, float] = {"rejections": 0.0, "replans": 0.0}
    for (family, labels), value in after.items():
        change = value - before.get((family, labels), 0.0)
        method = re.search(r'method="([^"]*)"', labels)
        if family == "repro_service_request_latency_seconds_sum" and method:
            delta[f"dispatch_s.{method.group(1)}"] = change
        elif family == "repro_service_request_latency_seconds_count" \
                and method:
            delta[f"dispatch_n.{method.group(1)}"] = change
        elif family == "repro_service_rejections_total":
            delta["rejections"] += change
        elif family == "repro_drift_replans_total":
            delta["replans"] += change
    return delta


def _planned_time(frontier, degree: float) -> float:
    """The step time the deployed schedule plans for a straggler degree
    (what the drift controller expects a healthy step to take)."""
    t_prime = degree * frontier.t_min if degree > 1.0 else None
    planned = frontier.schedule_for(
        energy_optimal_iteration_time(frontier, t_prime)).iteration_time
    return max(planned, t_prime) if t_prime is not None else planned


def _setup_daemon(tmp: str, index: int,
                  recorder: Optional[Recorder]) -> Daemon:
    daemon = Daemon(tmp, index, recorder)
    try:
        client = ServiceClient(daemon.url)
        for job, entry in enumerate(POOL):
            client.register_spec(f"job-{job}", entry.spec())
        for entry in POOL:
            client.plan(entry.spec())
    except BaseException:
        daemon.stop()
        raise
    return daemon


def run_warm_rpc(seed: int, seconds: float, tmp: str, reference: Reference,
                 recorder: Optional[Recorder]) -> Outcome:
    # Two processes carry the load, the clients' and the daemon, so
    # each host-speed snapshot of the load keeps two CPUs busy.
    out = Outcome("warm-rpc", host=calibrate.Host(parallel=2))
    daemon = None
    try:
        for attempt in range(SETUP_REPEATS):
            if daemon is not None:
                daemon.stop()
            daemon = out.set_up(
                lambda: _setup_daemon(tmp, attempt, recorder))
        # The in-process plans the daemon's answers must equal: a
        # planner over the daemon's store, each frontier checked
        # against the pinned exact fingerprint first.
        local = Planner(cache=PlanStore(daemon.cache_dir))
        expected, frontiers = [], []
        for index, entry in enumerate(POOL):
            frontier = local.frontier_for(entry.spec())
            report = local.plan(entry.spec())
            failure = (reference.check_exact_frontier(index, frontier)
                       or reference.check_report(index, report))
            if failure is not None:
                raise RuntimeError(f"set-up plan is wrong: {failure}")
            expected.append(report)
            frontiers.append(frontier)
        del local
        on_frontier = [{p.iteration_time.hex() for p in f.points}
                       for f in frontiers]

        control = ServiceClient(daemon.url)
        before = scrape(control)
        _reset_peak_rss(daemon.proc.pid)
        lock = threading.Lock()
        # The clients run in blocks of RPC_BLOCK_S.  Between blocks they
        # wait at a barrier while the main thread takes a host-speed
        # snapshot on an otherwise idle machine; the snapshots around a
        # request scale it.
        block_start = threading.Barrier(RPC_CLIENTS + 1)
        block_end = threading.Barrier(RPC_CLIENTS + 1)
        block = {"until": 0.0, "last": False}
        errors: List[BaseException] = []

        def client_loop(client_index: int) -> None:
            client = ServiceClient(daemon.url)
            degree = {job: 1.0 for job in owned_jobs(client_index)}
            ops = rpc_ops(seed, client_index)
            sent = 0
            while True:
                block_start.wait()
                if block["last"]:
                    return
                while time.perf_counter() < block["until"]:
                    request(client, degree, next(ops),
                            f"warm-rpc-{seed}-{client_index}-{sent}")
                    sent += 1
                block_end.wait()

        def request(client, degree, op, trace) -> None:
            method, target, arg = op
            set_trace_id(trace)
            result, failure = None, None
            started = time.perf_counter()
            try:
                with _request_span(recorder, trace, op=method):
                    if method == "plan":
                        result = client.plan(POOL[target].spec())
                    elif method == "current_schedule":
                        result = client.current_schedule(f"job-{target}")
                    elif method == "set_straggler":
                        client.set_straggler(f"job-{target}", 0, 0.0, arg)
                    else:
                        planned = _planned_time(frontiers[target],
                                                degree[target])
                        result = client.report_measurement(
                            f"job-{target}", planned * (1.0 + arg))
            except ReproError as exc:
                failure = f"{method}: {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - started
            if failure is None:
                if method == "plan":
                    if not reports_equal(result, expected[target]):
                        failure = (f"plan {POOL[target].name}: "
                                   f"differs from the in-process plan")
                elif method == "current_schedule":
                    if result.iteration_time.hex() not in \
                            on_frontier[target]:
                        failure = (f"current_schedule job-{target}: "
                                   f"not a frontier point")
                elif method == "set_straggler":
                    degree[target] = arg
                elif result.get("replanned") or "state" not in result:
                    failure = (f"report_measurement job-{target}: "
                               f"unexpected action {result}")
            with lock:
                out.record(started, elapsed * 1e3, failure)
                if method == "plan" and failure is None:
                    out.savings.setdefault(target, []).append(
                        result.energy_savings_pct)

        def guarded(client_index: int) -> None:
            try:
                client_loop(client_index)
            except BaseException as exc:  # surfaced after join
                errors.append(exc)
                block_start.abort()
                block_end.abort()
                raise

        threads = [threading.Thread(target=guarded, args=(i,),
                                    name=f"client-{i}")
                   for i in range(RPC_CLIENTS)]
        for thread in threads:
            thread.start()
        deadline = time.perf_counter() + seconds
        try:
            while True:
                out.host.sample()
                started = time.perf_counter()
                block.update(until=min(started + RPC_BLOCK_S, deadline),
                             last=started >= deadline)
                block_start.wait(timeout=120)
                if block["last"]:
                    break
                block_end.wait(timeout=RPC_BLOCK_S + 120)
                out.busy.append((started, time.perf_counter() - started))
        except threading.BrokenBarrierError:
            pass  # a client failed or hung: reported below
        for thread in threads:
            thread.join(timeout=120)
        if errors or any(thread.is_alive() for thread in threads):
            raise RuntimeError(f"warm-rpc client failed: {errors!r}")
        out.peak_rss_mb = _peak_rss_mb(daemon.proc.pid)
        out.daemon = _metrics_delta(before, scrape(control))
    finally:
        out.host.close()
        if daemon is not None:
            daemon.stop()
    if recorder is not None and os.path.exists(daemon.spans_path):
        from .spans import join_remote, load_spans

        out.spans = join_remote(list(recorder.spans),
                                load_spans(daemon.spans_path),
                                via="service.client.call")
    return out


def run(workload: str, seed: int, seconds: float, tmp: str,
        recorder: Optional[Recorder] = None) -> Outcome:
    """Run one workload; spans are recorded when ``recorder`` is given
    (its probes must already be installed)."""
    reference = Reference()
    if workload in ("cold-exact", "cold-fast"):
        out = run_cold(workload.split("-")[1], seed, seconds, tmp,
                       reference, recorder)
    elif workload == "disk-reload":
        out = run_disk_reload(seed, seconds, tmp, reference, recorder)
    elif workload == "warm-rpc":
        out = run_warm_rpc(seed, seconds, tmp, reference, recorder)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    if recorder is not None and not out.spans:
        out.spans = list(recorder.spans)
    return out
