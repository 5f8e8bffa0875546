"""Which entry point of which layer the traced run wraps, and the per-layer
metrics computed from the recorded spans.

Layers are the program's modules (``workloads``, ``core``/``lsm``,
``serving``, ``storage.*``, ``storage.persistent``, ``online``).  Every span
name below is a layer boundary; spans inside the program are not recorded.
"""

from __future__ import annotations

import os
from contextlib import contextmanager, nullcontext
from typing import Callable

import numpy as np
import scipy.optimize

from repro.core.base import BaseTuner
from repro.lsm.cost_model import LSMCostModel
from repro.online.controller import OnlineLSMController
from repro.online.drift import DriftDetector
from repro.online.migration import MigrationPlan
from repro.online.retuner import AdaptiveTuner
from repro.serving import executor as serving_executor
from repro.storage.bloom_filter import BloomFilter
from repro.storage.lsm_tree import LSMTree
from repro.storage.memtable import Memtable
from repro.storage.persistent import tree as persistent_tree
from repro.storage.persistent.sstable import RECORD_DTYPE, SSTable
from repro.storage.persistent.wal import WriteAheadLog
from repro.storage.run import SortedRun
from repro.workloads.traces import TraceGenerator

from .tracer import NameSummary, Tracer, summarise


def _keys(args, kwargs, result):
    return float(len(args[1])), 0.0


def _one(args, kwargs, result):
    return 1.0, 0.0


def _found_pages_many(args, kwargs, result):
    found, _, pages = result
    return float(np.count_nonzero(found)), float(pages)


def _found_pages(args, kwargs, result):
    found, _, pages = result
    return float(found), float(pages)


def _run_entries(args, kwargs, result):
    return float(result.num_entries), 0.0


def _consolidated_entries(args, kwargs, result):
    return float(result[0].size), 0.0


def _sstable_bytes(args, kwargs, result):
    return float(result.num_entries * RECORD_DTYPE.itemsize), 0.0


def _bytes_read(args, kwargs, result):
    return float(len(result)), 0.0


def _justified(args, kwargs, result):
    return float(result.justified), 0.0


def _step_pages(args, kwargs, result):
    return (float(result.pages) if result is not None else 0.0), 0.0


#: ``(owner, attribute, span name, amount)`` of every wrapped entry point.
#: Overrides that call ``super()`` are wrapped under the parent's name; the
#: tracer folds the inner call into the outer span.
ENTRY_POINTS: tuple[tuple[object, str, str, Callable | None], ...] = (
    (TraceGenerator, "operations", "workloads.tracegen", None),
    (BaseTuner, "tune", "core.tune", None),
    (LSMCostModel, "cost_matrix", "lsm.cost_matrix", None),
    (scipy.optimize, "minimize", "core.polish", None),
    (scipy.optimize, "minimize_scalar", "core.polish", None),
    (serving_executor, "shard_operations", "serving.route", None),
    (serving_executor, "execute_serving_batched", "serving.replay", None),
    (OnlineLSMController, "execute_batched", "serving.replay", None),
    (LSMTree, "get_many", "storage.get_many", _keys),
    (LSMTree, "get", "storage.get", _one),
    (LSMTree, "put", "storage.put", None),
    (persistent_tree.PersistentLSMTree, "put", "storage.put", None),
    (LSMTree, "range_query", "storage.range_query", None),
    (LSMTree, "flush", "storage.flush", None),
    (persistent_tree.PersistentLSMTree, "flush", "storage.flush", None),
    (LSMTree, "bulk_load", "storage.bulk_load", None),
    (persistent_tree.PersistentLSMTree, "bulk_load", "storage.bulk_load", None),
    (Memtable, "lookup_many", "storage.memtable.lookup_many", None),
    (BloomFilter, "might_contain_many", "storage.bloom.probe", _keys),
    (BloomFilter, "might_contain", "storage.bloom.probe", _one),
    (BloomFilter, "add_many", "storage.bloom.build", _keys),
    (SortedRun, "lookup_many", "storage.run.lookup_many", _found_pages_many),
    (SSTable, "lookup_many", "storage.run.lookup_many", _found_pages_many),
    (SortedRun, "lookup", "storage.run.lookup", _found_pages),
    (SSTable, "lookup", "storage.run.lookup", _found_pages),
    (SortedRun, "merge", "storage.run.merge", _run_entries),
    (persistent_tree, "consolidate_versions", "storage.run.merge", _consolidated_entries),
    (SortedRun, "scan_entries", "storage.run.scan_entries", None),
    (SSTable, "scan_entries", "storage.run.scan_entries", None),
    (WriteAheadLog, "append", "persistent.wal.append", None),
    (SSTable, "create", "persistent.sstable.create", _sstable_bytes),
    (os, "fsync", "persistent.fsync", None),
    (os, "pread", "persistent.pread", _bytes_read),
    (DriftDetector, "check", "online.drift_check", None),
    (AdaptiveTuner, "retune", "online.retune", _justified),
    (MigrationPlan, "run_next_step", "online.migration_step", _step_pages),
    (MigrationPlan, "get_many", "online.mixed.get_many", _keys),
    (MigrationPlan, "get", "online.mixed.get", _one),
    (MigrationPlan, "put", "online.mixed.put", None),
    (MigrationPlan, "range_query", "online.mixed.range_query", None),
)


@contextmanager
def instrumented(tracer: Tracer | None):
    """Wrap every entry point for the duration of the block (no-op for None)."""
    if tracer is None:
        yield
        return
    try:
        for owner, attribute, name, amount in ENTRY_POINTS:
            tracer.patch(owner, attribute, name, amount)
        yield
    finally:
        tracer.restore()


def phase(tracer: Tracer | None, name: str):
    """A span around one of the benchmark's own phases (no-op for None)."""
    return nullcontext() if tracer is None else tracer.span(name)


#: Per-layer metrics and their units, in report order.  The ``storage.disk``
#: and ``storage.*_amp`` counts, the persistent latencies and ``tune_s`` come
#: from the untraced repetition of a traced run; everything else from spans.
PER_LAYER: tuple[tuple[str, str], ...] = (
    ("workloads.tracegen.s", "s"),
    ("core.tune.s", "s"),
    ("core.tune.calls", "count"),
    ("lsm.cost_matrix.s", "s"),
    ("lsm.cost_matrix.calls", "count"),
    ("core.polish.s", "s"),
    ("tune_s", "s"),
    ("serving.route.s", "s"),
    ("serving.replay.self_s", "s"),
    ("serving.get_span.keys_mean", "keys"),
    ("storage.replay.self_s", "s"),
    ("storage.get_many.s", "s"),
    ("storage.get_many.calls", "count"),
    ("storage.get_many.keys_mean", "keys"),
    ("storage.get.calls", "count"),
    ("storage.put.s", "s"),
    ("storage.put.calls", "count"),
    ("storage.range_query.s", "s"),
    ("storage.range_query.calls", "count"),
    ("storage.flush.s", "s"),
    ("storage.flush.calls", "count"),
    ("storage.bulk_load.s", "s"),
    ("storage.memtable.lookup_many.s", "s"),
    ("storage.bloom.probe.s", "s"),
    ("storage.bloom.probe.keys", "count"),
    ("storage.run.lookup_many.s", "s"),
    ("storage.run.lookup.s", "s"),
    ("storage.run.lookup.hit_ratio", "ratio"),
    ("storage.bloom.build.s", "s"),
    ("storage.bloom.build.keys", "count"),
    ("storage.run.merge.s", "s"),
    ("storage.run.merge.entries", "count"),
    ("storage.run.scan_entries.s", "s"),
    ("storage.run.scan_entries.calls", "count"),
    ("storage.disk.query_reads_per_op", "pages/op"),
    ("storage.disk.query_writes_per_op", "pages/op"),
    ("storage.disk.flush_writes_per_op", "pages/op"),
    ("storage.disk.compaction_reads_per_op", "pages/op"),
    ("storage.disk.compaction_writes_per_op", "pages/op"),
    ("storage.write_amp", "ratio"),
    ("storage.space_amp", "ratio"),
    ("persistent.wal.append.s", "s"),
    ("persistent.wal.append.calls", "count"),
    ("persistent.sstable.create.s", "s"),
    ("persistent.sstable.create.bytes", "bytes"),
    ("persistent.fsync.s", "s"),
    ("persistent.fsync.calls", "count"),
    ("persistent.pread.s", "s"),
    ("persistent.pread.calls", "count"),
    ("persistent.pread.bytes", "bytes"),
    ("persistent.recovery.s", "s"),
    ("persistent.put_p50_us", "us"),
    ("persistent.put_p99_us", "us"),
    ("persistent.put_p999_us", "us"),
    ("persistent.put_samples", "count"),
    ("persistent.get_p50_us", "us"),
    ("persistent.get_p99_us", "us"),
    ("persistent.get_p999_us", "us"),
    ("persistent.get_samples", "count"),
    ("online.drift_check.s", "s"),
    ("online.drift_check.calls", "count"),
    ("online.retune.s", "s"),
    ("online.retune.calls", "count"),
    ("online.retune.accepted_ratio", "ratio"),
    ("online.migration_step.s", "s"),
    ("online.migration_step.calls", "count"),
    ("online.migration_step.pages", "pages"),
    ("online.migrations", "count"),
    ("online.mixed.s", "s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.traced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
)

#: Values the untraced repetition supplies (see :data:`PER_LAYER`).
UNTRACED_EXTRAS = (
    "tune_s",
    "online.migrations",
    "persistent.recovery.s",
    "persistent.put_p50_us",
    "persistent.put_p99_us",
    "persistent.put_p999_us",
    "persistent.put_samples",
    "persistent.get_p50_us",
    "persistent.get_p99_us",
    "persistent.get_p999_us",
    "persistent.get_samples",
)


#: The end-to-end metric (and workload) each layer's numbers should move: the
#: prediction a change to that layer is checked against.  The bypass
#: predictions follow from the workloads' design: a read-path
#: change leaves write-scan and persist-fill-read flat, a flush/compaction
#: change leaves read-point flat, and a tuner or online change leaves the
#: three fixed-tuning workloads flat.
MOVES: dict[str, str] = {
    "workloads.tracegen": "setup_s, mostly on read-point",
    "core.tune / lsm.cost_matrix / core.polish / tune_s": (
        "setup_s on drift-adaptive; ops_per_s there through re-tunes"
    ),
    "serving.replay.self_s / serving.get_span": "ops_per_s on drift-adaptive",
    "serving.route": "nothing end to end (the executor routes outside its timed execution)",
    "storage.replay.self_s (span cutting) / storage.get_many / storage.get": (
        "ops_per_s on read-point"
    ),
    "storage.put / range_query / flush": "ops_per_s on write-scan; put tail on persist-fill-read",
    "storage.bulk_load": (
        "setup_s, except on drift-adaptive (its executor bulk-loads the shards "
        "outside both timed phases)"
    ),
    "storage.memtable / storage.bloom.probe / storage.run.lookup_many": "ops_per_s on read-point",
    "storage.run.lookup.hit_ratio": "io_per_op (Bloom false-positive waste)",
    "storage.bloom.build / storage.run.merge / storage.run.scan_entries": (
        "ops_per_s on write-scan"
    ),
    "storage.disk.* / storage.write_amp / storage.space_amp": "io_per_op",
    "persistent.wal.append": "put p50 on persist-fill-read",
    "persistent.sstable.create / persistent.fsync": (
        "ops_per_s and put tail on persist-fill-read"
    ),
    "persistent.pread": "get p50/p99 on persist-fill-read",
    "persistent.recovery": "nothing end to end (measured on the correctness reopen)",
    "online.drift_check / online.retune / online.mixed": "ops_per_s on drift-adaptive",
    "online.migration_step": "ops_per_s and io_per_op on drift-adaptive",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def span_metrics(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, float]:
    """The span-derived per-layer metrics (zero for layers a run bypassed)."""
    summary = summarise(names, spans)
    empty = NameSummary(0, 0.0, 0.0, 0.0, 0.0)

    def of(name: str) -> NameSummary:
        return summary.get(name, empty)

    metrics: dict[str, float] = {}
    for name in (
        "workloads.tracegen", "core.tune", "lsm.cost_matrix", "core.polish",
        "serving.route", "storage.get_many", "storage.put", "storage.range_query",
        "storage.flush", "storage.bulk_load", "storage.memtable.lookup_many",
        "storage.bloom.probe", "storage.run.lookup_many", "storage.run.lookup",
        "storage.bloom.build", "storage.run.merge", "storage.run.scan_entries",
        "persistent.wal.append", "persistent.sstable.create", "persistent.fsync",
        "persistent.pread", "online.drift_check", "online.retune",
        "online.migration_step",
    ):
        metrics[f"{name}.s"] = of(name).total_s
        metrics[f"{name}.calls"] = float(of(name).calls)
    for name in ("serving.replay", "storage.replay"):
        metrics[f"{name}.self_s"] = of(name).self_s
    metrics["storage.get_many.keys_mean"] = _ratio(
        of("storage.get_many").amount_a, of("storage.get_many").calls
    )
    metrics["storage.get.calls"] = float(of("storage.get").calls)
    metrics["storage.bloom.probe.keys"] = of("storage.bloom.probe").amount_a
    metrics["storage.bloom.build.keys"] = of("storage.bloom.build").amount_a
    lookups = [of("storage.run.lookup_many"), of("storage.run.lookup")]
    metrics["storage.run.lookup.hit_ratio"] = _ratio(
        sum(s.amount_a for s in lookups), sum(s.amount_b for s in lookups)
    )
    metrics["storage.run.merge.entries"] = of("storage.run.merge").amount_a
    metrics["persistent.sstable.create.bytes"] = of("persistent.sstable.create").amount_a
    metrics["persistent.pread.bytes"] = of("persistent.pread").amount_a
    metrics["online.retune.accepted_ratio"] = _ratio(
        of("online.retune").amount_a, of("online.retune").calls
    )
    metrics["online.migration_step.pages"] = of("online.migration_step").amount_a
    metrics["online.mixed.s"] = sum(
        of(f"online.mixed.{method}").total_s for method in ("get", "get_many", "put", "range_query")
    )
    metrics["serving.get_span.keys_mean"] = _serving_span_keys(names, spans)
    metrics["trace.spans"] = float(spans["start"].size)
    return metrics


#: Point-read calls a serving loop issues (their ``amount_a`` counts keys).
READ_CALLS = ("storage.get", "storage.get_many", "online.mixed.get", "online.mixed.get_many")


def _serving_span_keys(names: list[str], spans: dict[str, np.ndarray]) -> float:
    """Mean keys per GET span of the serving loop.

    A GET span is a maximal run of consecutive point-read calls the loop
    made (one vectorised call, or scalar calls for short spans); any other
    call in between ends it.
    """
    ids = {name: i for i, name in enumerate(names)}
    if "serving.replay" not in ids:
        return 0.0
    name_id, parent = spans["name_id"], spans["parent"]
    children = np.flatnonzero(parent >= 0)
    children = children[name_id[parent[children]] == ids["serving.replay"]]
    reads = [ids[n] for n in READ_CALLS if n in ids]
    is_read = np.isin(name_id[children], reads)
    owner = parent[children]
    continues = np.zeros(children.size, dtype=bool)
    continues[1:] = is_read[:-1] & (owner[1:] == owner[:-1])
    runs = int(np.count_nonzero(is_read & ~continues))
    return _ratio(float(spans["amount_a"][children[is_read]].sum()), runs)
