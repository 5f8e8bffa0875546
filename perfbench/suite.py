"""The four benchmark workloads.

A workload splits into three calls the runner times separately:

* ``prepare(seed)`` — set-up: key space, traces, tuning, and (except on
  ``drift-adaptive``, whose executor bulk-loads its shards inside its own
  call) a bulk-loaded tree.  Timed as ``setup_s``.
* ``serve(prepared, clock)`` — the single-client closed loop.  Timed as the
  serve phase; before every serve after the first, ``prepared.reset()``
  rebuilds the tree untimed, so each serve starts from the same state.
  ``clock`` is the runner's clock (see :mod:`perfbench.pace`).  On
  ``drift-adaptive`` the serve time is that of the calls the executor times
  as execution, which leaves out its per-shard bulk loads, trace
  regeneration and routing.
* ``finish(prepared, result)`` — after the timed window: reads the disk
  counters first and only then runs the oracle, so its own I/O is never
  reported.

Simulated trees use ``simulator_system(num_entries=20_000)``; the
fixed-tuning workloads deploy leveling with T=6 and 8 bits per entry.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.analysis import drifting_sequence
from repro.core import RobustTuner
from repro.lsm import ALL_POLICIES, LSMTuning, Policy, simulator_system
from repro.online import OnlineConfig
from repro.online.controller import OnlineLSMController
from repro.serving import ShardedExecutor, shard_ids
from repro.serving import executor as sharded
from repro.storage import ExecutorConfig, LSMTree, WorkloadExecutor
from repro.storage.lsm_tree import execute_operations_batched
from repro.storage.persistent import PersistentLSMTree
from repro.workloads import (
    KeySpace,
    SessionGenerator,
    TraceGenerator,
    UncertaintyBenchmark,
    Workload,
    expected_workload,
)
from repro.workloads.traces import OperationType

from .oracle import LiveKeyOracle
from .stats import tail_percentile

NUM_ENTRIES = 20_000
TUNING = LSMTuning(size_ratio=6.0, bits_per_entry=8.0, policy=Policy.LEVELING)
COUNTERS = ("query_reads", "query_writes", "flush_writes", "compaction_reads", "compaction_writes")

#: Memory budget of the persistent tree, in bits per entry.  The simulator's
#: default (16) leaves a 19-entry write buffer at h=8, so 5% of puts flush,
#: and each flush creates three files and fsyncs the manifest; those
#: file-system stalls swung throughput between runs by a factor of three.
#: At 200 bits per entry the buffer holds 468 entries (0.2% of puts flush).
PERSISTENT_BITS_PER_ENTRY = 200.0

#: How the persistent backend makes writes durable in ``persist-fill-read``.
FLUSH_POLICY = (
    "WAL buffered: each append is flushed to the OS, never fsynced (sync_writes=False); "
    "manifest written to a temp file, fsynced and renamed on every flush and compaction; "
    "SSTable files are not fsynced"
)


@dataclass
class Served:
    """What one serve left behind, and the oracle's verdict on it."""

    ops: int
    counters: dict[str, int]
    #: User writes issued (the base of the write amplification).
    puts: int
    #: Entries resident at the end (all versions, tombstones included).
    resident_entries: int
    live_keys: int
    #: Answers compared with the oracle, and how many disagreed.
    checked: int
    failed: int
    extras: dict[str, float] = field(default_factory=dict)
    #: Seconds of the serve the workload timed itself, when only part of the
    #: serve call is serving; the runner's timed window is used otherwise.
    serve_s: float | None = None


def _counters(disk) -> dict[str, int]:
    return {name: int(getattr(disk.counters, name)) for name in COUNTERS}


def _put_keys(operations) -> np.ndarray:
    put = OperationType.PUT
    return np.fromiter((op.key for op in operations if op.kind is put), dtype=np.int64)


# ----------------------------------------------------------------------
# read-point / write-scan: batched replay on a simulated tree
# ----------------------------------------------------------------------
class ReplayInputs:
    def __init__(self, seed: int, mix: Workload, num_ops: int, trace_knobs: dict) -> None:
        self.seed = seed
        self.system = simulator_system(num_entries=NUM_ENTRIES)
        self.space = KeySpace.build(self.system.num_entries, seed=seed)
        self.generator = TraceGenerator(self.space, seed=seed, **trace_knobs)
        self.operations = self.generator.operations(mix, num_ops)
        self.reset()

    def reset(self) -> None:
        self.tree = LSMTree(TUNING, self.system, seed=self.seed)
        self.tree.bulk_load(self.space.existing)
        self.tree.disk.reset()

    def close(self) -> None:
        pass


class ReplayWorkload:
    """A trace replayed on a fixed-tuning simulated tree through the batched
    replay entry point :class:`~repro.storage.WorkloadExecutor` uses."""

    #: The serve span's self time is the replay loop's span cutting.
    serve_span = "storage.replay"

    def __init__(self, mix: Workload, num_ops: int, **trace_knobs) -> None:
        self.mix = mix
        self.num_ops = num_ops
        self.trace_knobs = trace_knobs

    def prepare(self, seed: int) -> ReplayInputs:
        return ReplayInputs(seed, self.mix, self.num_ops, self.trace_knobs)

    def serve(self, inputs: ReplayInputs, clock) -> None:
        execute_operations_batched(inputs.tree, inputs.operations)

    def finish(self, inputs: ReplayInputs, result: None) -> Served:
        counters = _counters(inputs.tree.disk)
        written = _put_keys(inputs.operations)
        oracle = LiveKeyOracle(inputs.space.existing, written)
        checked, failed = oracle.check(
            inputs.tree, inputs.space.missing, inputs.generator.long_scan_keys, inputs.seed
        )
        return Served(
            ops=len(inputs.operations),
            counters=counters,
            puts=int(written.size),
            resident_entries=inputs.tree.num_entries,
            live_keys=int(oracle.keys.size),
            checked=checked,
            failed=failed,
        )


# ----------------------------------------------------------------------
# persist-fill-read: a single client on real files
# ----------------------------------------------------------------------
class PersistInputs:
    def __init__(self, seed: int, num_puts: int, num_gets: int, work_dir: Path) -> None:
        self.seed = seed
        self.work_dir = work_dir
        self.system = simulator_system(
            num_entries=NUM_ENTRIES, bits_per_entry_budget=PERSISTENT_BITS_PER_ENTRY
        )
        self.space = KeySpace.build(self.system.num_entries, seed=seed)
        generator = TraceGenerator(self.space, seed=seed)
        self.put_keys = _put_keys(generator.operations(Workload(0, 0, 0, 1), num_puts))
        self.get_keys = [op.key for op in generator.operations(Workload(0, 1, 0, 0), num_gets)]
        self.data_dir: Path | None = None
        self.reset()

    def reset(self) -> None:
        self.close()
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.data_dir = Path(tempfile.mkdtemp(prefix="tree-", dir=self.work_dir))
        self.tree = PersistentLSMTree(TUNING, self.system, data_dir=self.data_dir, seed=self.seed)
        self.tree.bulk_load(self.space.existing)
        self.tree.disk.reset()

    def close(self) -> None:
        if self.data_dir is not None:
            self.tree.close()
            shutil.rmtree(self.data_dir, ignore_errors=True)
            self.data_dir = None


class PersistFillRead:
    """Timed puts of fresh keys, then timed gets of present keys, on a
    :class:`~repro.storage.persistent.PersistentLSMTree`; then a simulated
    crash, and every acknowledged put must be readable after reopening."""

    serve_span = "bench.serve"

    def __init__(self, num_puts: int, num_gets: int, work_dir: Path) -> None:
        self.num_puts = num_puts
        self.num_gets = num_gets
        self.num_ops = num_puts + num_gets
        self.work_dir = work_dir

    def prepare(self, seed: int) -> PersistInputs:
        return PersistInputs(seed, self.num_puts, self.num_gets, self.work_dir)

    def serve(self, inputs: PersistInputs, clock) -> tuple[np.ndarray, np.ndarray, int]:
        put_latency = np.empty(self.num_puts)
        get_latency = np.empty(self.num_gets)
        missed = 0
        put, get = inputs.tree.put, inputs.tree.get
        for index, key in enumerate(inputs.put_keys.tolist()):
            began = clock()
            put(key)
            put_latency[index] = clock() - began
        for index, key in enumerate(inputs.get_keys):
            began = clock()
            found = get(key)
            get_latency[index] = clock() - began
            missed += not found
        return put_latency, get_latency, missed

    def finish(self, inputs: PersistInputs, result) -> Served:
        put_latency, get_latency, missed = result
        counters = _counters(inputs.tree.disk)
        resident_entries = inputs.tree.num_entries
        extras = {
            "persistent.put_samples": float(put_latency.size),
            "persistent.get_samples": float(get_latency.size),
        }
        for kind, samples in (("put", put_latency), ("get", get_latency)):
            for label, q in (("p50", 50), ("p99", 99), ("p999", 99.9)):
                extras[f"persistent.{kind}_{label}_us"] = tail_percentile(samples, q) * 1e6
        # Durability: every acknowledged put must survive a process kill.
        inputs.tree.simulate_crash()
        start = time.perf_counter()
        inputs.tree = PersistentLSMTree(
            TUNING, inputs.system, data_dir=inputs.data_dir, seed=inputs.seed
        )
        extras["persistent.recovery.s"] = time.perf_counter() - start
        oracle = LiveKeyOracle(inputs.space.existing, inputs.put_keys)
        checked, failed = oracle.check_points(
            inputs.tree, inputs.space.missing, np.random.default_rng(inputs.seed)
        )
        return Served(
            ops=self.num_ops,
            counters=counters,
            puts=self.num_puts,
            resident_entries=resident_entries,
            live_keys=int(oracle.keys.size),
            checked=checked + self.num_gets,
            failed=failed + missed,
            extras=extras,
        )


# ----------------------------------------------------------------------
# drift-adaptive: tune, then serve a drifting sequence on a shard fleet
# ----------------------------------------------------------------------
class DriftInputs:
    def __init__(self, seed: int, workload: "DriftAdaptive") -> None:
        self.seed = seed
        self.system = simulator_system(num_entries=NUM_ENTRIES)
        expected = expected_workload(11).workload
        start = time.perf_counter()
        # Deployed as the CLI deploys it: the tuner's default seed, rounded
        # to a buildable tuning.
        self.tuning = (
            RobustTuner(rho=0.5, system=self.system, policies=ALL_POLICIES)
            .tune(expected)
            .tuning.rounded()
        )
        self.tune_s = time.perf_counter() - start
        sessions = SessionGenerator(
            UncertaintyBenchmark(size=500, seed=workload.SEQUENCE_SEED),
            seed=workload.SEQUENCE_SEED,
        )
        self.sequence = drifting_sequence(
            sessions,
            expected,
            phases=workload.PHASES,
            sessions_per_phase=workload.SESSIONS_PER_PHASE,
            workloads_per_session=workload.WORKLOADS_PER_SESSION,
        )
        self.config = ExecutorConfig(
            queries_per_workload=workload.queries_per_workload, seed=seed, num_shards=2
        )
        self.executor = ShardedExecutor(self.system, self.config)
        self.online = OnlineConfig(**workload.ONLINE)

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass


class DriftAdaptive:
    """Robust-tune w11, deploy it, then serve an A→B→A drifting sequence on
    a two-shard fleet with online re-tuning and incremental migration."""

    serve_span = "bench.serve"
    #: The session script is part of the workload's definition, like the
    #: fixed mixes of the other workloads: the seed drives the key space and
    #: the operation traces, while the phases' sampled mixes stay the same.
    SEQUENCE_SEED = 29
    PHASES = ("range", "write", "range")
    SESSIONS_PER_PHASE = 3
    WORKLOADS_PER_SESSION = 2
    #: Knobs of ``benchmarks/test_online_endurance.py`` (incremental variant),
    #: in robust mode with queue-depth admission.
    ONLINE = dict(
        window=300,
        check_interval=64,
        min_observations=256,
        cooldown=2_048,
        confirm_checks=14,
        rho=0.75,
        horizon_ops=12_000,
        mode="robust",
        migration="incremental",
        migration_step_ops=128,
        migration_step_pages=128,
        admission="queue-depth",
    )

    def __init__(self, queries_per_workload: int) -> None:
        self.queries_per_workload = queries_per_workload
        self.num_ops = (
            queries_per_workload
            * len(self.PHASES)
            * self.SESSIONS_PER_PHASE
            * self.WORKLOADS_PER_SESSION
        )

    def prepare(self, seed: int) -> DriftInputs:
        return DriftInputs(seed, self)

    def serve(self, inputs: DriftInputs, clock):
        trees: list = []
        seconds: list[float] = []

        def collecting(fingerprint):
            # The executor fingerprints each shard's final tree just before
            # disposing of it; a simulated tree keeps its data when closed,
            # so the oracle reads it afterwards.  With ``parallel=False`` the
            # shards run, and land here, in shard order.
            def collect(tree):
                trees.append(tree)
                return fingerprint(tree)

            return collect

        def timing(execute_batched):
            # The calls the executor times as execution (``ShardRun.elapsed_s``).
            def timed(*args, **kwargs):
                start = clock()
                try:
                    return execute_batched(*args, **kwargs)
                finally:
                    seconds.append(clock() - start)

            return timed

        with _patched(sharded, "tree_fingerprint", collecting), _patched(
            OnlineLSMController, "execute_batched", timing
        ):
            measurement = inputs.executor.run_sequence_adaptive(
                inputs.tuning, inputs.sequence, online=inputs.online, parallel=False
            )
        return measurement, trees, sum(seconds)

    def finish(self, inputs: DriftInputs, result) -> Served:
        measurement, trees, serve_s = result
        counters = {
            name: sum(getattr(session, name) for session in measurement.sessions)
            for name in COUNTERS
        }
        trace = WorkloadExecutor(inputs.system, inputs.config).trace_generator()
        operations = [
            op
            for session in inputs.sequence
            for workload in session.workloads
            for op in trace.operations(workload, self.queries_per_workload)
        ]
        written = _put_keys(operations)
        oracle = LiveKeyOracle(trace.key_space.existing, written)
        # Each shard must hold exactly its hash partition of the live keys:
        # its own keys read as present, every other shard's keys (and keys
        # never written) as absent, and its range counts are its own keys'.
        owner = shard_ids(oracle.keys, measurement.num_shards)
        checked = failed = 0
        for shard, tree in enumerate(trees):
            mine = LiveKeyOracle(oracle.keys[owner == shard], written[:0])
            absent = np.concatenate([trace.key_space.missing, oracle.keys[owner != shard]])
            attempted, wrong = mine.check(tree, absent, trace.long_scan_keys, inputs.seed)
            checked += attempted
            failed += wrong
        # One tree per shard, and the merged sessions count every issued op.
        merged = sum(session.num_queries for session in measurement.sessions)
        failed += int(len(trees) != measurement.num_shards or merged != len(operations))
        return Served(
            ops=self.num_ops,
            counters=counters,
            puts=int(written.size),
            resident_entries=sum(run.stats.num_entries for run in measurement.shards),
            live_keys=int(oracle.keys.size),
            checked=checked + 1,
            failed=failed,
            extras={
                "tune_s": inputs.tune_s,
                "online.migrations": float(
                    sum(run.measurement.num_migrations for run in measurement.shards)
                ),
            },
            serve_s=serve_s,
        )


@contextmanager
def _patched(owner, attribute: str, wrap):
    """Replace ``owner.attribute`` by ``wrap(original)`` for the block."""
    original = getattr(owner, attribute)
    setattr(owner, attribute, wrap(original))
    try:
        yield
    finally:
        setattr(owner, attribute, original)


def build(work_dir: Path) -> dict[str, object]:
    """The workloads by name (``work_dir`` holds persistent trees)."""
    return {
        "read-point": ReplayWorkload(Workload(z0=0.30, z1=0.68, q=0.01, w=0.01), 500_000),
        "write-scan": ReplayWorkload(
            Workload(z0=0.05, z1=0.15, q=0.20, w=0.60).with_long_range_fraction(0.1),
            60_000,
            long_scan_keys=256,
            update_fraction=0.5,
            update_skew=0.8,
        ),
        "persist-fill-read": PersistFillRead(60_000, 30_000, work_dir),
        "drift-adaptive": DriftAdaptive(queries_per_workload=2_000),
    }
