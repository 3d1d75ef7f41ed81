"""``repro.service.replica``: a fleet of daemons over one plan store.

One :class:`~repro.service.daemon.PlanningDaemon` coalesces concurrent
duplicate work with an in-memory
:class:`~repro.service.coalesce.SingleFlight`; N daemon *processes*
sharing one :class:`~repro.core.store.PlanStore` need the same
guarantee across process boundaries, where no shared condition
variable exists.  This module supplies the three pieces:

* :class:`StoreFlight` -- cross-process single-flight built on the
  store directory itself.  A leader claims a key by atomically
  creating ``<root>/flights/<key>.claim`` (``O_CREAT | O_EXCL``: the
  filesystem picks exactly one winner), heartbeats the claim's mtime
  while it works, and publishes a ``.done`` marker when the artifacts
  are persisted.  Followers watch a single ``flights/`` directory
  digest (mtime + entry list) per poll interval instead of stat-ing
  each claim, re-checking markers only when the digest moves; a claim
  whose mtime goes stale (crashed leader) is seized via an atomic
  rename, so exactly one waiter takes over.
* :class:`ReplicaClient` -- a drop-in :class:`ServiceClient` over a
  *list* of daemons: sticky tenant routing by stable hash, rotation to
  the next replica on :class:`~repro.exceptions.ServiceUnavailable`
  (connection errors and HTTP 5xx -- retries reuse one idempotency id,
  so a replayed request never re-executes), and health-probe-driven
  ejection/readmission of dead replicas.
* :class:`DaemonProcess` / :class:`ReplicaSet` -- subprocess launchers
  behind ``repro serve --replicas N``: each replica is a real
  ``python -m repro serve`` process, so tests and benchmarks exercise
  true multi-process coordination, not threads.

Exactly-once here means exactly-once *expensive* work: every process
still materializes its own in-memory planner state, but a follower
warms from the store's persisted artifacts (disk hits bump no
planner-work counter), so summing ``repro_planner_work_total`` across
the fleet's ``/metrics`` counts the fleet-wide profile/crawl runs.

Failure tolerance is deliberately asymmetric: a *missed* takeover can
only add latency (the lease expires again), while a *spurious* takeover
(e.g. a fast clock seizing a live leader's lease) only duplicates work
-- the store is content-addressed and writes are atomic, so two leaders
racing produce bit-identical artifacts, never corruption.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from ..exceptions import ServiceError, ServiceUnavailable
from .client import RETRY_HINT_S, ServiceClient, _fresh_id

#: Store-flight roles returned by :meth:`StoreFlight.do`.
LEADER = "leader"          #: claimed the key first and did the work
TAKEOVER = "takeover"      #: seized a stale lease and did the work
FOLLOWER = "follower"      #: waited for another process's leader
WARM = "warm"              #: the done marker already existed

#: Directory (under the store root) holding claims and done markers.
FLIGHTS_DIR = "flights"

#: Chaos hooks, read by daemons at startup so a test harness can slow
#: materialization (to widen race windows deterministically) or skew
#: one process's lease clock.
MATERIALIZE_DELAY_ENV = "REPRO_CHAOS_MATERIALIZE_DELAY_S"
CLOCK_SKEW_ENV = "REPRO_CLOCK_SKEW_S"

_SAFE_KEY = re.compile(r"^[A-Za-z0-9._-]{1,128}$")


def _flight_name(key: str) -> str:
    """Filesystem-safe name for a flight key (hex digests pass through)."""
    key = str(key)
    if _SAFE_KEY.match(key):
        return key
    return hashlib.sha256(key.encode("utf-8")).hexdigest()


def _skewed_clock() -> Callable[[], float]:
    """Wall clock plus :data:`CLOCK_SKEW_ENV` seconds (chaos hook)."""
    skew = float(os.environ.get(CLOCK_SKEW_ENV, "0") or 0.0)
    if skew:
        return lambda: time.time() + skew
    return time.time


class _Heartbeat:
    """Refreshes a claim file's mtime until stopped.

    The mtime *is* the lease: as long as it keeps moving, waiters know
    the leader's process is alive even if the work takes much longer
    than the lease timeout.  The thread exits on its own if the claim
    disappears (seized by a skew-confused waiter) -- at that point the
    lease is no longer ours to refresh.
    """

    def __init__(self, path: str, interval_s: float) -> None:
        self._path = path
        self._interval_s = interval_s
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._run, name="repro-lease-heartbeat", daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self._interval_s):
            try:
                os.utime(self._path)
            except OSError:
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


class StoreFlight:
    """Cross-process single-flight keyed on a shared store directory.

    ``do(key, fn)`` returns ``(fn(), role)``; among all processes (and
    threads) sharing ``root``, exactly one runs ``fn`` while holding
    the key's lease -- everyone else waits for the done marker and
    then runs ``fn`` against the warmed store (idempotent by
    contract: ``fn`` must be cheap once the leader's artifacts are
    persisted, which is exactly how the planner's content-addressed
    stages behave).

    Lease protocol (all paths under ``<root>/flights/``):

    1. **claim**: create ``<key>.claim`` with ``O_CREAT | O_EXCL`` --
       atomic on every real filesystem, one winner.  The file body
       records ``{owner, pid}`` (chaos tests kill leaders by that pid).
    2. **heartbeat**: the leader refreshes the claim's mtime every
       ``heartbeat_interval_s`` (default: a third of the lease).
    3. **publish**: after ``fn`` returns, write ``<key>.done``
       atomically, *then* drop the claim.  Crash-safe ordering: a
       claim without a done marker means unfinished work, never the
       reverse.
    4. **takeover**: a waiter that observes
       ``clock() - claim_mtime > lease_timeout_s`` renames the claim
       to a unique tombstone -- rename is atomic, so of any number of
       concurrent seizers exactly one wins -- and re-runs the claim
       step (role :data:`TAKEOVER`).
    5. **failure**: a leader whose ``fn`` raises drops its claim
       without publishing; one waiter becomes the next leader and
       retries, and the error propagates to the failed leader's own
       caller only.
    """

    def __init__(
        self,
        root: Union[str, os.PathLike],
        owner: Optional[str] = None,
        lease_timeout_s: float = 5.0,
        heartbeat_interval_s: Optional[float] = None,
        poll_interval_s: float = 0.02,
        wait_timeout_s: float = 600.0,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if lease_timeout_s <= 0:
            raise ServiceError("lease_timeout_s must be positive")
        self.root = os.fspath(root)
        self.flights_dir = os.path.join(self.root, FLIGHTS_DIR)
        os.makedirs(self.flights_dir, exist_ok=True)
        self.owner = owner or (
            f"pid{os.getpid()}-{time.monotonic_ns():x}"
        )
        self.lease_timeout_s = lease_timeout_s
        self.heartbeat_interval_s = (
            heartbeat_interval_s if heartbeat_interval_s is not None
            else max(lease_timeout_s / 3.0, 0.01)
        )
        self.poll_interval_s = poll_interval_s
        self.wait_timeout_s = wait_timeout_s
        self._clock = clock or _skewed_clock()
        self._stats_lock = threading.Lock()
        self.stats: Dict[str, int] = {
            "leaders": 0, "takeovers": 0, "followers": 0, "warm": 0,
            "seized_leases": 0, "watch_polls": 0,
        }

    # -- paths ---------------------------------------------------------------
    def _claim_path(self, key: str) -> str:
        return os.path.join(self.flights_dir, _flight_name(key) + ".claim")

    def _done_path(self, key: str) -> str:
        return os.path.join(self.flights_dir, _flight_name(key) + ".done")

    # -- observability (and the chaos harness's hooks) -----------------------
    def claim_of(self, key: str) -> Optional[dict]:
        """The live claim payload for ``key`` (``None`` if unclaimed)."""
        try:
            with open(self._claim_path(key), encoding="utf-8") as fp:
                return json.load(fp)
        except (OSError, ValueError):
            return None  # vanished or mid-write: treated as unclaimed

    def claims(self) -> Dict[str, dict]:
        """All live claims in this store, by flight name."""
        found = {}
        try:
            names = os.listdir(self.flights_dir)
        except OSError:
            return found
        for name in names:
            if not name.endswith(".claim"):
                continue
            try:
                with open(os.path.join(self.flights_dir, name),
                          encoding="utf-8") as fp:
                    found[name[:-6]] = json.load(fp)
            except (OSError, ValueError):
                continue
        return found

    def is_done(self, key: str) -> bool:
        return os.path.exists(self._done_path(key))

    def _watch_digest(self):
        """Cheap change token for the whole ``flights/`` directory.

        Every protocol transition a follower cares about -- done marker
        published (rename *into* the dir), claim dropped (unlink),
        lease seized (rename to a tombstone) -- creates, removes or
        renames an entry, which bumps the directory's ``st_mtime_ns``
        and changes its name list.  Heartbeats only touch a *file's*
        mtime, so a digest poll costs one ``stat`` + one ``listdir``
        per interval instead of per-claim ``stat`` calls, and stays
        quiet while a healthy leader works.
        """
        try:
            stat = os.stat(self.flights_dir)
            names = sorted(os.listdir(self.flights_dir))
        except OSError:
            return None
        return (stat.st_mtime_ns, tuple(names))

    # -- protocol steps ------------------------------------------------------
    def _try_claim(self, key: str) -> bool:
        try:
            fd = os.open(self._claim_path(key),
                         os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o644)
        except FileExistsError:
            return False
        try:
            os.write(fd, json.dumps({
                "kind": "store_flight_claim",
                "owner": self.owner,
                "pid": os.getpid(),
                "key": str(key),
            }).encode("utf-8"))
        finally:
            os.close(fd)
        return True

    def _publish(self, key: str) -> None:
        done = self._done_path(key)
        tmp = done + f".tmp-{self.owner}"
        with open(tmp, "w", encoding="utf-8") as fp:
            json.dump({"kind": "store_flight_done", "owner": self.owner,
                       "key": str(key)}, fp)
        os.replace(tmp, done)

    def _drop_claim(self, key: str) -> None:
        """Unlink the claim only if it is still ours.

        After a (clock-skewed) waiter seized our lease, the path may
        hold the *usurper's* claim; deleting that would orphan their
        waiters, so check ownership first.  The check-then-unlink gap
        is benign: losing it can only drop a claim whose done marker
        is already published (waiters check the marker first).
        """
        payload = self.claim_of(key)
        if payload is not None and payload.get("owner") != self.owner:
            return
        try:
            os.unlink(self._claim_path(key))
        except OSError:
            pass

    def _try_seize(self, key: str) -> bool:
        """Atomically retire a stale claim; True if *we* retired it."""
        claim = self._claim_path(key)
        tomb = claim + f".tomb-{self.owner}-{time.monotonic_ns():x}"
        try:
            os.rename(claim, tomb)
        except OSError:
            return False  # someone else seized it, or the leader finished
        try:
            os.unlink(tomb)
        except OSError:
            pass
        with self._stats_lock:
            self.stats["seized_leases"] += 1
        return True

    def _bump(self, role: str) -> None:
        with self._stats_lock:
            self.stats[role + ("s" if role != WARM else "")] = \
                self.stats.get(role + ("s" if role != WARM else ""), 0) + 1

    # -- the flight ----------------------------------------------------------
    def do(self, key, fn: Callable[[], object]):
        """Run ``fn`` with fleet-wide single-flight; ``(value, role)``.

        ``fn`` runs in *every* role -- the single-flight guarantee is
        that only the leader (or a takeover) runs it with the store
        cold; by the time a follower or warm caller runs it, the
        leader's artifacts are persisted and ``fn`` is a read.
        """
        done = self._done_path(key)
        if os.path.exists(done):
            value = fn()
            self._bump(WARM)
            return value, WARM

        waited = False
        seized = False
        deadline = time.monotonic() + self.wait_timeout_s
        while True:
            if self._try_claim(key):
                role = TAKEOVER if seized else LEADER
                heartbeat = _Heartbeat(self._claim_path(key),
                                       self.heartbeat_interval_s)
                try:
                    value = fn()
                except BaseException:
                    heartbeat.stop()
                    self._drop_claim(key)
                    raise
                self._publish(key)
                heartbeat.stop()
                self._drop_claim(key)
                self._bump(role)
                return value, role

            # Another process holds the lease: watch the flights dir's
            # digest for protocol transitions (publish / drop / seize
            # all change the entry list), falling back to a coarse
            # timed claim-mtime check for the one transition that
            # leaves the directory untouched -- a crashed leader whose
            # heartbeat simply stops.
            waited = True
            digest = object()  # unlike any digest: first poll "changed"
            stale_interval_s = min(self.heartbeat_interval_s,
                                   self.lease_timeout_s / 4.0)
            next_stale_check = time.monotonic()
            while True:
                with self._stats_lock:
                    self.stats["watch_polls"] += 1
                current = self._watch_digest()
                changed = current != digest
                digest = current
                now = time.monotonic()
                if changed or now >= next_stale_check:
                    next_stale_check = now + stale_interval_s
                    if os.path.exists(done):
                        value = fn()
                        self._bump(FOLLOWER)
                        return value, FOLLOWER
                    try:
                        mtime = os.stat(self._claim_path(key)).st_mtime
                    except OSError:
                        break  # claim vanished: re-check done, re-claim
                    if self._clock() - mtime > self.lease_timeout_s:
                        if self._try_seize(key):
                            seized = True
                            break  # we retired the stale lease: claim
                        continue  # lost the seize race: re-evaluate
                if time.monotonic() > deadline:
                    raise ServiceError(
                        f"store flight {key!r} still held by "
                        f"{self.claim_of(key)} after "
                        f"{self.wait_timeout_s:g}s (waited={waited})"
                    )
                time.sleep(self.poll_interval_s)


def sticky_index(tenant: Optional[str], count: int) -> int:
    """Deterministic replica index for a tenant (stable across runs).

    Uses SHA-256, not :func:`hash` -- the builtin is salted per
    process, which would break stickiness between a client restart and
    its earlier self.
    """
    if not tenant or count <= 1:
        return 0
    digest = hashlib.sha256(tenant.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") % count


class ReplicaClient(ServiceClient):
    """A :class:`ServiceClient` over N replicas with retry/failover.

    ``urls`` is a list (or comma-separated string) of daemon origins.
    Each call starts at the tenant's sticky replica
    (:func:`sticky_index`) and rotates on
    :class:`~repro.exceptions.ServiceUnavailable` -- connection
    failures, mid-request daemon deaths and HTTP 5xx; *application*
    errors (quota, bad spec, unknown job) re-raise immediately, because
    another replica would answer the same way.  All attempts of one
    logical call share one idempotency id, so a request that landed
    before its daemon died is replayed, never re-executed, when the
    retry happens to reach the same daemon.

    The inherited :meth:`ServiceClient.call_with_retry` composes with
    this loop: each *retry attempt* runs the full failover rotation,
    sleeps by decorrelated jitter (floored at the fleet's
    ``retry_after_s`` hint) and reuses one idempotency id end to end
    -- use it when a whole-fleet restart must be ridden out rather
    than surfaced.

    A replica that fails is **ejected** for ``cooldown_s``; after the
    cooldown it must pass a short-timeout ``/healthz`` probe to be
    **readmitted**.  When every replica is ejected the client waits
    out the shortest remaining cooldown rather than failing fast --
    a restarting fleet looks exactly like that for a moment.
    ``clock`` and ``sleep`` time the cooldowns (injectable, as in
    :meth:`ServiceClient.call_with_retry`).

    Each replica keeps its own pooled connections; a restarted replica
    is reached through a fresh one.  ``close()`` (or the ``with``
    block) closes every replica's and probe's idle connections.
    """

    def __init__(
        self,
        urls: Union[str, Sequence[str]],
        tenant: Optional[str] = None,
        timeout_s: float = 600.0,
        max_attempts: Optional[int] = None,
        cooldown_s: float = 2.0,
        probe_timeout_s: float = 2.0,
        clock=time.monotonic,
        sleep=time.sleep,
    ) -> None:
        if isinstance(urls, str):
            urls = [u.strip() for u in urls.split(",") if u.strip()]
        urls = list(urls)
        if not urls:
            raise ServiceError("ReplicaClient needs at least one daemon url")
        super().__init__(urls[0], tenant=tenant, timeout_s=timeout_s)
        self.urls = urls
        self.replicas = [ServiceClient(url, tenant=tenant,
                                       timeout_s=timeout_s)
                         for url in urls]
        self._probes = [ServiceClient(url, timeout_s=probe_timeout_s)
                        for url in urls]
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._sleep = sleep
        self.max_attempts = max_attempts or 2 * len(urls)
        self._sticky = sticky_index(tenant, len(urls))
        self._state_lock = threading.Lock()
        self._ejected_at: Dict[int, float] = {}
        self.stats: Dict[str, int] = {
            "failovers": 0, "ejections": 0, "readmissions": 0,
        }

    # -- replica health bookkeeping ------------------------------------------
    def _eject(self, index: int) -> None:
        with self._state_lock:
            if index not in self._ejected_at:
                self.stats["ejections"] += 1
            self._ejected_at[index] = self._clock()

    def _mark_healthy(self, index: int) -> None:
        with self._state_lock:
            if self._ejected_at.pop(index, None) is not None:
                self.stats["readmissions"] += 1

    def _usable(self, index: int) -> bool:
        """Not ejected, or past cooldown *and* answering its probe."""
        with self._state_lock:
            ejected_at = self._ejected_at.get(index)
        if ejected_at is None:
            return True
        if self._clock() - ejected_at < self.cooldown_s:
            return False
        try:
            self._probes[index].health()
        except ServiceError:
            self._eject(index)  # refresh the cooldown window
            return False
        self._mark_healthy(index)
        return True

    def close(self) -> None:
        for client in self.replicas + self._probes:
            client.close()
        super().close()

    def ejected(self) -> List[int]:
        """Indices currently sitting out a cooldown (observability)."""
        with self._state_lock:
            return sorted(self._ejected_at)

    # -- the failover loop ---------------------------------------------------
    def _rotation(self) -> List[int]:
        n = len(self.replicas)
        return [(self._sticky + i) % n for i in range(n)]

    def call(self, method: str, params: Optional[dict] = None,
             request_id: Optional[str] = None):
        rid = request_id if request_id is not None else _fresh_id()
        attempts = 0
        last_error: Optional[ServiceUnavailable] = None
        while attempts < self.max_attempts:
            tried_one = False
            for index in self._rotation():
                if attempts >= self.max_attempts:
                    break
                if not self._usable(index):
                    continue
                tried_one = True
                attempts += 1
                try:
                    result = self.replicas[index].call(
                        method, params, request_id=rid)
                except ServiceUnavailable as exc:
                    last_error = exc
                    self.last_trace_id = self.replicas[index].last_trace_id
                    self._eject(index)
                    self.stats["failovers"] += 1
                    continue
                self.last_trace_id = self.replicas[index].last_trace_id
                self._mark_healthy(index)
                return result
            if not tried_one:
                # Whole fleet in cooldown: wait for the earliest window
                # to reopen instead of burning attempts on nothing.
                with self._state_lock:
                    if self._ejected_at:
                        earliest = min(self._ejected_at.values())
                        remaining = self.cooldown_s - (
                            self._clock() - earliest)
                    else:  # pragma: no cover - raced a readmission
                        remaining = 0.0
                self._sleep(max(remaining, 0.01))
                attempts += 1
        raise ServiceUnavailable(
            f"all {len(self.replicas)} replicas unavailable after "
            f"{attempts} attempts (last: {last_error})",
            retry_after_s=(last_error.retry_after_s if last_error
                           else RETRY_HINT_S),
        ) from last_error

    # -- GET endpoints: first healthy replica answers ------------------------
    def _first_up(self, fn_name: str):
        last_error: Optional[ServiceError] = None
        for index in self._rotation():
            if not self._usable(index):
                continue
            try:
                return getattr(self.replicas[index], fn_name)()
            except ServiceUnavailable as exc:
                last_error = exc
                self._eject(index)
        raise ServiceUnavailable(
            f"no replica answered {fn_name} (last: {last_error})",
            retry_after_s=self.cooldown_s,
        ) from last_error

    def metrics_text(self) -> str:
        return self._first_up("metrics_text")

    def health(self) -> dict:
        return self._first_up("health")

    def fleet_metrics(self) -> Dict[str, str]:
        """``/metrics`` text from every reachable replica, by url.

        The exactly-once acceptance sums ``repro_planner_work_total``
        across these (a dead replica is simply absent from the dict).
        """
        texts = {}
        for index, replica in enumerate(self.replicas):
            try:
                texts[self.urls[index]] = replica.metrics_text()
            except ServiceError:
                continue
        return texts


class DaemonProcess:
    """One ``python -m repro serve`` subprocess with a parsed url.

    Startup is synchronous: the constructor waits for the daemon's
    ``serving    : http://...`` banner (the first line it flushes), so
    a constructed ``DaemonProcess`` is immediately callable.  ``env``
    entries override the inherited environment -- the chaos harness
    injects :data:`MATERIALIZE_DELAY_ENV` / :data:`CLOCK_SKEW_ENV`
    this way.  ``kill()`` is SIGKILL (chaos: no cleanup runs, leases
    go stale); ``close()`` is the polite shutdown.
    """

    def __init__(
        self,
        cache_dir: Union[str, os.PathLike, None],
        host: str = "127.0.0.1",
        port: int = 0,
        lease_timeout_s: Optional[float] = None,
        extra_args: Iterable[str] = (),
        env: Optional[Dict[str, str]] = None,
        startup_timeout_s: float = 60.0,
    ) -> None:
        cmd = [sys.executable, "-m", "repro", "serve",
               "--host", host, "--port", str(port)]
        if cache_dir is not None:
            cmd += ["--cache-dir", os.fspath(cache_dir)]
        if lease_timeout_s is not None:
            cmd += ["--lease-timeout-s", str(lease_timeout_s)]
        cmd += list(extra_args)
        src_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        full_env = dict(os.environ)
        existing = full_env.get("PYTHONPATH")
        full_env["PYTHONPATH"] = (src_root + os.pathsep + existing
                                  if existing else src_root)
        if env:
            full_env.update(env)
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, env=full_env,
            text=True, bufsize=1,
        )
        self.url = self._await_banner(startup_timeout_s)
        self._drain = threading.Thread(target=self._drain_stdout,
                                       daemon=True)
        self._drain.start()

    def _await_banner(self, timeout_s: float) -> str:
        lines: List[str] = []
        deadline = time.monotonic() + timeout_s
        while True:
            if time.monotonic() > deadline:
                self.proc.kill()
                raise ServiceError(
                    f"daemon did not print its serving banner within "
                    f"{timeout_s:g}s; output so far: {lines!r}")
            line = self.proc.stdout.readline()
            if not line:
                code = self.proc.wait()
                raise ServiceError(
                    f"daemon exited (code {code}) before serving; "
                    f"output: {lines!r}")
            lines.append(line.rstrip())
            if line.startswith("serving"):
                return line.split(":", 1)[1].strip().split()[0]

    def _drain_stdout(self) -> None:
        try:
            for _ in self.proc.stdout:
                pass
        except ValueError:  # pipe closed during interpreter teardown
            pass

    @property
    def pid(self) -> int:
        return self.proc.pid

    @property
    def alive(self) -> bool:
        return self.proc.poll() is None

    def kill(self) -> None:
        """SIGKILL -- the crash the lease protocol exists to survive."""
        self.proc.kill()
        self.proc.wait()

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()

    def __enter__(self) -> "DaemonProcess":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ReplicaSet:
    """N daemon subprocesses over one shared plan store.

    The launcher behind ``repro serve --replicas N``; also the test
    fixture for every multi-process scenario.  ``per_daemon_env`` maps
    a replica index to extra environment entries, which is how the
    chaos harness slows exactly one future leader down or skews one
    process's clock.
    """

    def __init__(
        self,
        count: int,
        cache_dir: Union[str, os.PathLike],
        host: str = "127.0.0.1",
        ports: Optional[Sequence[int]] = None,
        lease_timeout_s: Optional[float] = None,
        extra_args: Iterable[str] = (),
        env: Optional[Dict[str, str]] = None,
        per_daemon_env: Optional[Dict[int, Dict[str, str]]] = None,
    ) -> None:
        if count < 1:
            raise ServiceError("a replica set needs at least one daemon")
        self.cache_dir = os.fspath(cache_dir)
        self.daemons: List[DaemonProcess] = []
        try:
            for index in range(count):
                merged = dict(env or {})
                merged.update((per_daemon_env or {}).get(index, {}))
                self.daemons.append(DaemonProcess(
                    self.cache_dir,
                    host=host,
                    port=ports[index] if ports else 0,
                    lease_timeout_s=lease_timeout_s,
                    extra_args=extra_args,
                    env=merged or None,
                ))
        except BaseException:
            self.close()
            raise

    @property
    def urls(self) -> List[str]:
        return [daemon.url for daemon in self.daemons]

    def client(self, tenant: Optional[str] = None,
               **kwargs) -> ReplicaClient:
        return ReplicaClient(self.urls, tenant=tenant, **kwargs)

    def kill(self, index: int) -> None:
        self.daemons[index].kill()

    def close(self) -> None:
        for daemon in self.daemons:
            daemon.close()

    def __enter__(self) -> "ReplicaSet":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
