"""The repository benchmark: end-to-end and per-layer performance of Endure.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload (see ``BENCHMARK.json`` for the four workloads and why each
exists) in a single process, checks every answer against an oracle of live
keys, and prints one JSON object as its last line of output.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the public entry points of
each layer from this package (nothing under ``src/`` is modified) and reports
the per-layer metrics, including the tracing overhead.

``python3 perfbench/diff.py OLD.json NEW.json`` compares two traced results and
flags the layers that got slower.
"""
