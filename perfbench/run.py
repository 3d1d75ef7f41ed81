"""The repository benchmark for planning requests.

One workload, as ``BENCHMARK.json`` runs it::

    python3 perfbench/run.py --workload cold-exact --seed 1 --seconds 20 --trace 0

prints human-readable lines and, last, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (plus a Chrome
trace under ``.perfbench/``).  It exits 1 when any request failed or
failed a correctness check, and 2 when it cannot run at all.

Every workload, untraced and then traced, from one process::

    python3 perfbench/run.py --workload all --seconds 20

Re-pin the exact reference the correctness gate compares against (only
after a deliberate change to what exact planning computes)::

    python3 perfbench/run.py --pin

See ``perfbench/README.md`` for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
import tempfile
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench")


def _result(outcome, metrics) -> dict:
    def number(value: float) -> float:
        return value if math.isfinite(value) else 0.0

    return {
        "correct": not outcome.failures,
        "attempted": outcome.attempted,
        "failed": len(outcome.failures),
        "metrics": {name: {"value": number(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def _install_probes():
    from perfbench import probes
    from perfbench.spans import Recorder

    recorder = Recorder(time.monotonic_ns())
    probes.install_planner(recorder)
    probes.install_client(recorder)
    return recorder


def _write_chrome(workload: str, seed: int, spans) -> str:
    from perfbench.spans import to_chrome

    path = os.path.join(OUT_DIR, f"trace-{workload}.json")
    with open(path, "w", encoding="utf-8") as fp:
        json.dump(to_chrome(spans), fp)
    return path


def _print_metrics(metrics) -> None:
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.4f} {unit}")


def run_one(args, tmp: str) -> int:
    from perfbench import metrics, workloads

    recorder = _install_probes() if args.trace else None
    outcome = workloads.run(args.workload, args.seed, args.seconds, tmp,
                            recorder)
    for line in metrics.describe(outcome):
        print(line)
    if recorder is not None:
        values = metrics.per_layer(outcome)
        print(f"chrome trace    : "
              f"{_write_chrome(args.workload, args.seed, outcome.spans)}")
    else:
        values = metrics.end_to_end(outcome)
    _print_metrics(values)
    print(json.dumps(_result(outcome, values)))
    return 0 if not outcome.failures else 1


def run_all(args, tmp: str) -> int:
    """Every workload untraced, then traced (probes stay installed once
    installed), with the tracing overhead on the median."""
    from perfbench import metrics, workloads

    plain = {}
    for workload in workloads.WORKLOADS:
        outcome = workloads.run(workload, args.seed, args.seconds, tmp)
        plain[workload] = (outcome, metrics.end_to_end(outcome))
        for line in metrics.describe(outcome):
            print(line)
        _print_metrics(plain[workload][1])
    recorder = _install_probes()
    summary, failed, attempted = {}, 0, 0
    for workload in workloads.WORKLOADS:
        recorder.spans.clear()
        traced = workloads.run(workload, args.seed, args.seconds, tmp,
                               recorder)
        layers = metrics.per_layer(traced)
        untraced, e2e = plain[workload]
        overhead = (layers["trace.request_ms.p50"][0]
                    / e2e["request_ms.p50"][0] - 1.0)
        print(f"== {workload} (traced; chrome trace "
              f"{_write_chrome(workload, args.seed, traced.spans)})")
        shares = sorted(((v, k) for k, (v, _) in layers.items()
                         if k.startswith("share.")), reverse=True)
        for value, name in shares:
            print(f"  {name:44s} {value:8.1%}")
        print(f"  tracing overhead on request_ms.p50: {overhead:+.1%}")
        for outcome in (untraced, traced):
            failed += len(outcome.failures)
            attempted += outcome.attempted
        summary.update({f"{workload}.{name}": value
                        for name, value in e2e.items()})
        summary[f"{workload}.trace_overhead_pct"] = (100.0 * overhead, "%")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in summary.items()},
    }))
    return 0 if failed == 0 else 1


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    # A terminated run still stops the daemon it started (the finally
    # blocks run on the way out) and prints no result line.
    signal.signal(signal.SIGTERM, _interrupt)
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Benchmark planning requests end to end.")
    parser.add_argument("--workload", default="all",
                        help="cold-exact, cold-fast, warm-rpc, disk-reload "
                             "or all (default)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measured time per workload run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = per-layer metrics from a traced run")
    parser.add_argument("--pin", action="store_true",
                        help="re-pin perfbench/reference.json and exit")
    args = parser.parse_args(argv)

    # Hermetic runs: any REPRO_* setting (store location, fsync, slow
    # path, fast-mode slack, ...) would change what is measured.
    leaked = sorted(name for name in os.environ if name.startswith("REPRO_"))
    if leaked:
        print(f"error: unset {', '.join(leaked)} before benchmarking",
              file=sys.stderr)
        return 2
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"error: no repro package under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    # Replace the script's own directory: its module names must not
    # shadow top-level ones.
    sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]
    from perfbench import workloads

    if args.workload not in workloads.WORKLOADS + ("all",):
        parser.error(f"unknown workload {args.workload!r}")
    os.makedirs(OUT_DIR, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=OUT_DIR)
    try:
        if args.pin:
            workloads.pin_reference(tmp)
            print(f"pinned {workloads.REFERENCE_PATH}")
            return 0
        if args.workload == "all":
            return run_all(args, tmp)
        return run_one(args, tmp)
    except Exception:  # report, print no result line, exit non-zero
        traceback.print_exc()
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
