"""Host speed: a fixed pure-Python kernel timed next to the requests.

The benchmark runs on shared hosts whose speed changes by up to ~1.7x
in phases lasting from seconds to minutes (other tenants' load on the
same cores), so a run lands wholly in a fast or a slow phase however
long it measures.

The kernel below does the same kind of work as the program -- dict
and deque graph search like the max-flow crawl, a JSON round trip and
a SHA-256 digest like the store and the wire -- but none of the
program's code, so no change to the program moves it.

Every request timing the benchmark reports is scaled to a host on
which the kernel takes :data:`REFERENCE_MS`: ``wall time *
REFERENCE_MS / kernel time``.  The kernel is timed between requests
(or between blocks of requests), and an interval is scaled by the
median of the snapshots taken within :data:`WINDOW_S` of it: the host's
speed around the time it ran.  A slow phase slows both alike and
cancels out; a slower program does not.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from collections import deque
from typing import Dict, List, Tuple

#: Kernel time (ms) on the reference host, by how many kernels run at
#: once (see :class:`Host`): reported times are scaled to a host on
#: which a snapshot reads this.  (Snapshots in a fast phase of the
#: 2-core x86 container the bounds come from.  In its slow phases two
#: kernels at once each take up to twice as long as one alone: the two
#: CPUs then share one.)
REFERENCE_MS = {1: 3.0, 2: 4.0}

#: Kernel runs per snapshot; the median is used.
REPEATS = 3

#: Snapshots taken within this many seconds of a timed interval scale
#: it.  The host's speed drifts within seconds; a single snapshot right
#: before a multi-second request misses what happened during it.
WINDOW_S = 2.0


def _graph(nodes: int = 300, edges: int = 1800, seed: int = 7):
    rng = random.Random(seed)
    capacity: Dict[Tuple[int, int], float] = {}
    for _ in range(edges):
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        if a != b:
            capacity[(a, b)] = rng.uniform(1.0, 10.0)
    adjacent: List[List[int]] = [[] for _ in range(nodes)]
    for a, b in capacity:
        adjacent[a].append(b)
        adjacent[b].append(a)
    document = {"edges": [[a, b, round(c, 6)]
                          for (a, b), c in sorted(capacity.items())[:400]]}
    return nodes, capacity, adjacent, document


_GRAPH = _graph()


def kernel() -> float:
    """Augmenting-path max flow, a JSON round trip and a digest."""
    nodes, original, adjacent, document = _GRAPH
    capacity = dict(original)
    sink, flow = nodes - 1, 0.0
    for _ in range(16):
        parent = {0: None}
        queue = deque([0])
        while queue and sink not in parent:
            u = queue.popleft()
            for v in adjacent[u]:
                if v not in parent and capacity.get((u, v), 0.0) > 1e-12:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        path, v = [], sink
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        pushed = min(capacity[edge] for edge in path)
        for u, v in path:
            capacity[(u, v)] -= pushed
            capacity[(v, u)] = capacity.get((v, u), 0.0) + pushed
        flow += pushed
    text = json.dumps(json.loads(json.dumps(document)), sort_keys=True)
    hashlib.sha256(text.encode("utf-8")).hexdigest()
    return flow


def host_ms(repeats: int = REPEATS) -> float:
    """Median wall time (ms) of ``repeats`` kernel runs, right now."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        kernel()
        times.append((time.perf_counter() - started) * 1e3)
    return statistics.median(times)


class Host:
    """The kernel-time snapshots of one run, in the order taken.

    ``parallel`` is how many processes the workload keeps busy at once.
    Each snapshot runs that many kernels at the same time -- one here,
    the rest in helper processes -- and keeps the slowest: with as many
    CPUs busy as the workload uses, the slowest of them paces a closed
    loop whose requests cross from one process to the other.  Call
    :meth:`close` to stop the helpers.
    """

    def __init__(self, parallel: int = 1) -> None:
        self.reference_ms = REFERENCE_MS[parallel]
        self.times: List[float] = []
        self.kernel_ms: List[float] = []
        self._helpers = [
            subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             text=True)
            for _ in range(parallel - 1)]

    def sample(self) -> None:
        """Take a snapshot now (its time is when it started)."""
        self.times.append(time.perf_counter())
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = [host_ms()]
        times += [float(helper.stdout.readline())
                  for helper in self._helpers]
        self.kernel_ms.append(max(times))

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
            try:
                helper.wait(timeout=30)
            except subprocess.TimeoutExpired:
                helper.kill()
                helper.wait()
            helper.stdout.close()
        self._helpers = []

    def around(self, start: float, end: float) -> float:
        """Median kernel time (ms) of the snapshots within
        :data:`WINDOW_S` of ``[start, end]`` (``perf_counter`` seconds).
        The benchmark takes a snapshot right before every interval it
        times, so there is always at least one."""
        low = bisect_left(self.times, start - WINDOW_S)
        high = bisect_right(self.times, end + WINDOW_S)
        return statistics.median(self.kernel_ms[low:high])

    def scaled(self, start: float, seconds: float) -> float:
        """``seconds`` measured from ``start``, scaled to the reference
        host."""
        return (seconds * self.reference_ms
                / self.around(start, start + seconds))


if __name__ == "__main__":
    # A helper of Host(parallel > 1): one snapshot per line read.
    for _ in sys.stdin:
        print(host_ms(), flush=True)
