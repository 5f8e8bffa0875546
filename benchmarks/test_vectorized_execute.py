"""Macro-benchmark — scalar vs vectorised batch trace execution.

The simulator's hot path is trace replay.  The replay kernel
(``execute_operations_batched``) collects point reads into write-free GET
spans — range scans run in place without ending a span, a write drains it —
and routes each span through the batched read stack
(``might_contain_many`` → ``lookup_many`` → ``get_many``).  Its contract is
*bit identity*: the virtual disk must record exactly the counters a scalar
replay (one ``execute_operation`` per operation) records.

This benchmark replays a million-op read-heavy endurance trace both ways,
asserts the I/O counters match byte for byte, and pins the speedup floor.
A mixed read/write trace rides along to pin the other side of the contract:
batching must not slow down write-heavy streams where GET spans are short
(short spans fall back to the scalar path via ``SCALAR_SPAN_CUTOFF``).

The report keeps the deterministic I/O rows apart from the wall-clock lines
(prefixed ``wall-clock``) so CI can diff the former and ignore the latter.

Timings are the min over ``REPS`` interleaved repetitions with the garbage
collector quiesced, so a transient load spike on the host (the full tier-1
suite runs ~30 benchmarks before this one) cannot sink one path's number
while leaving the other's intact.
"""

import gc
import time

from conftest import run_once

from repro.lsm import LSMTuning, Policy, simulator_system
from repro.storage import LSMTree
from repro.storage.lsm_tree import execute_operation, execute_operations_batched
from repro.workloads import KeySpace, TraceGenerator, Workload

#: The acceptance floor: batched replay of the read-heavy endurance trace
#: must be at least this much faster than the scalar loop.
MIN_SPEEDUP = 5.0

#: The mixed trace may not regress beyond timing noise (batched time must
#: stay below this multiple of scalar time).
MAX_MIXED_SLOWDOWN = 1.15

#: (label, workload, operations) rows replayed by the benchmark.  The first
#: row is the headline: an endurance-style read phase (98% point reads, the
#: stream an online tuner idles through between drift events) at 1M ops.
TRACES = (
    ("read-heavy", Workload(z0=0.30, z1=0.68, q=0.01, w=0.01), 1_000_000),
    ("mixed", Workload(z0=0.20, z1=0.30, q=0.20, w=0.30), 200_000),
)

#: Interleaved timing repetitions per path; each reported time is the min.
REPS = 2


def _fresh_tree(system, space) -> LSMTree:
    tuning = LSMTuning(size_ratio=6.0, bits_per_entry=8.0, policy=Policy.LEVELING)
    tree = LSMTree(tuning, system, seed=7)
    tree.bulk_load(space.existing)
    tree.disk.reset()
    return tree


def _scalar_replay(tree: LSMTree, operations) -> None:
    for operation in operations:
        execute_operation(tree, operation)


def _timed_replay(system, space, operations, runner) -> tuple[float, LSMTree]:
    tree = _fresh_tree(system, space)
    gc.collect()
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        runner(tree, operations)
        elapsed = time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()
    return elapsed, tree


def _time_replays() -> list[dict[str, object]]:
    system = simulator_system(num_entries=20_000)
    space = KeySpace.build(system.num_entries, seed=29)
    trace = TraceGenerator(space, seed=29)
    rows: list[dict[str, object]] = []
    for label, workload, num_ops in TRACES:
        operations = trace.operations(workload, num_ops)
        scalar_times: list[float] = []
        batched_times: list[float] = []
        counters = None
        for _ in range(REPS):
            scalar_s, scalar_tree = _timed_replay(
                system, space, operations, _scalar_replay
            )
            batched_s, batched_tree = _timed_replay(
                system, space, operations, execute_operations_batched
            )
            # The contract: batching changes wall-clock, never the measurement.
            assert batched_tree.disk.counters == scalar_tree.disk.counters
            assert batched_tree.stats() == scalar_tree.stats()
            scalar_times.append(scalar_s)
            batched_times.append(batched_s)
            counters = scalar_tree.disk.counters

        scalar_s, batched_s = min(scalar_times), min(batched_times)
        rows.append(
            {
                "trace": label,
                "ops": num_ops,
                "counters": counters,
                "scalar_s": scalar_s,
                "batched_s": batched_s,
                "speedup": scalar_s / batched_s,
            }
        )
    return rows


def test_vectorized_execute_speedup(benchmark, report):
    rows = run_once(benchmark, _time_replays)

    by_trace = {row["trace"]: row for row in rows}
    headline = by_trace["read-heavy"]["speedup"]
    assert headline >= MIN_SPEEDUP, (
        f"batched replay only {headline:.1f}x faster than scalar on the "
        f"read-heavy endurance trace (floor {MIN_SPEEDUP:.0f}x)"
    )
    mixed = by_trace["mixed"]
    assert mixed["batched_s"] <= mixed["scalar_s"] * MAX_MIXED_SLOWDOWN, (
        f"batched replay regressed the mixed trace: "
        f"{mixed['batched_s']:.2f}s vs scalar {mixed['scalar_s']:.2f}s"
    )

    # Deterministic I/O rows first (drift-checked in CI), wall-clock after
    # (excluded from the drift check via `git diff -I '^wall-clock'`).
    lines = [
        f"{'trace':<12}{'ops':>10}{'query_reads':>13}{'query_writes':>14}"
        f"{'flush_writes':>14}{'compaction_reads':>18}{'compaction_writes':>19}"
    ]
    for row in rows:
        c = row["counters"]
        lines.append(
            f"{row['trace']:<12}{row['ops']:>10}{c.query_reads:>13}"
            f"{c.query_writes:>14}{c.flush_writes:>14}{c.compaction_reads:>18}"
            f"{c.compaction_writes:>19}"
        )
    lines.append("io parity: batched == scalar, counter for counter")
    for row in rows:
        lines.append(
            f"wall-clock {row['trace']:<12} scalar {row['scalar_s']:>7.2f}s  "
            f"batched {row['batched_s']:>6.2f}s  speedup {row['speedup']:>4.1f}x"
        )
    lines.append(
        f"wall-clock floors: read-heavy >= {MIN_SPEEDUP:.0f}x, "
        f"mixed <= {MAX_MIXED_SLOWDOWN:.2f}x scalar"
    )
    text = "\n".join(lines)
    report("vectorized_execute", text)
    print("\n" + text)
