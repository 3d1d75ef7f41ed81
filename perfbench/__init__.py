"""perfbench: the repository benchmark for planning requests.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON result line; see
``perfbench/README.md`` for the workloads, the metrics and how to read
a traced run.  The benchmark measures the ``repro`` package from
outside: it times calls into each layer's public functions and never
edits anything under ``src/``.
"""
