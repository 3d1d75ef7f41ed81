"""Run ``repro serve`` with the benchmark's daemon-side probes installed.

Usage::

    python3 perfbench/launcher.py [--spans FILE --origin-ns NS] -- serve ...

Everything after ``--`` is handed to the ``repro`` command line
unchanged.  With ``--spans`` the daemon-side probes
(:func:`perfbench.probes.install_daemon`) record spans against the
benchmark's clock origin ``NS`` and the spans are written to ``FILE``
when the daemon shuts down (SIGINT or SIGTERM).  Without it the
launcher installs nothing, so untraced runs measure ``repro serve``
exactly as shipped.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        print("usage: launcher.py [--spans FILE --origin-ns NS] -- serve ...",
              file=sys.stderr)
        return 2
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="launcher.py")
    parser.add_argument("--spans", default=None)
    parser.add_argument("--origin-ns", type=int, default=0)
    args = parser.parse_args(argv[:split])
    # Replace the script's own directory: its module names must not
    # shadow top-level ones.
    sys.path[0:1] = [ROOT, os.path.join(ROOT, "src")]
    # `repro serve` shuts down cleanly on KeyboardInterrupt; let SIGTERM
    # take the same path so the spans are always written.
    signal.signal(signal.SIGTERM, _interrupt)
    recorder = None
    if args.spans:
        from perfbench.probes import install_daemon
        from perfbench.spans import Recorder

        recorder = Recorder(args.origin_ns, prefix="d")
        install_daemon(recorder)
    from repro.cli import main as repro_main

    try:
        return repro_main(argv[split + 1:])
    except KeyboardInterrupt:
        return 0
    finally:
        if recorder is not None:
            from perfbench.spans import dump_spans

            dump_spans(args.spans, list(recorder.spans))


if __name__ == "__main__":
    raise SystemExit(main())
