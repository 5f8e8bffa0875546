"""Property tests for the trace-replay kernel against the scalar oracle.

The batched read path (``BloomFilter.might_contain_many`` →
``SortedRun.lookup_many`` → ``LSMTree.get_many`` → the kernel
:func:`~repro.storage.lsm_tree.execute_operations_batched`) carries one
contract: **bit identity** with a one-operation-at-a-time replay (the oracle
in ``tests/replay_oracle.py``).  Virtual-disk counters, tree state and
session measurements must come out byte-for-byte equal, even though the
kernel runs range scans ahead of a pending GET span.  These tests pin that
contract:

* random mixed op streams (gets, empty gets, puts-as-updates, deletes via
  pre-seeded tombstones, range scans) over every registered compaction
  policy — including per-level K_i vector bounds — with tiny buffers so
  flushes and compactions land mid-stream, at several span caps;
* the same on the persistent backend, where reads go through ``pread``;
* RANGE-heavy streams against a mid-flight migration plan's mixed state;
* executor-level session measurements, kernel vs oracle, static and
  adaptive (the adaptive loop's chunk boundaries are pinned in
  ``tests/online/test_admission.py``).
"""

from __future__ import annotations

import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from replay_oracle import execute_scalar, replay_scalar

from repro.lsm import LSMTuning, Policy, simulator_system
from repro.online import MigrationPlan, OnlineConfig, OnlineLSMController
from repro.serving.executor import tree_fingerprint
from repro.storage import ExecutorConfig, LSMTree, WorkloadExecutor, lsm_tree
from repro.storage import executor as storage_executor
from repro.storage.lsm_tree import execute_operation, execute_operations_batched
from repro.storage.persistent import PersistentLSMTree
from repro.workloads import (
    KeySpace,
    Operation,
    OperationType,
    SessionGenerator,
    UncertaintyBenchmark,
    Workload,
)

_SYSTEM = simulator_system(num_entries=2_000)
_KEY_SPACE = KeySpace.build(_SYSTEM.num_entries, seed=7)

#: Every registered policy the simulator can run, including a fluid tuning
#: with a full per-level K_i bound vector.
_TUNINGS = [
    LSMTuning(8.0, 6.0, Policy.LEVELING),
    LSMTuning(5.0, 5.0, Policy.TIERING),
    LSMTuning(6.0, 6.0, Policy.LAZY_LEVELING),
    LSMTuning(6.0, 6.0, Policy.ONE_LEVELING),
    LSMTuning(5.0, 5.0, Policy.FLUID, k_bound=3, z_bound=2),
    LSMTuning(6.0, 6.0, Policy.FLUID, k_bounds=(4.0, 2.0, 1.0), z_bound=1.0),
]
_TUNING_IDS = [
    "leveling",
    "tiering",
    "lazy-leveling",
    "1-leveling",
    "fluid-scalar",
    "fluid-kvector",
]


#: Operation-kind draws of a mixed stream (one in six is a range scan) and
#: of a RANGE-heavy one (two in five).
_MIXED_KINDS = (
    OperationType.GET,
    OperationType.GET,
    OperationType.GET,
    OperationType.EMPTY_GET,
    OperationType.PUT,
    OperationType.RANGE,
)
_RANGE_HEAVY_KINDS = (
    OperationType.GET,
    OperationType.EMPTY_GET,
    OperationType.PUT,
    OperationType.RANGE,
    OperationType.RANGE,
)


@st.composite
def _operation_streams(draw, kinds=_MIXED_KINDS) -> list[Operation]:
    """A random mixed op stream over the shared key space.

    Writes hit fresh keys *and* already-resident keys (updates), so flushed
    runs carry stale versions; gets split between resident and missing keys
    so both Bloom-positive and Bloom-negative probes occur; short range
    scans interleave with pending GET spans.
    """
    existing = _KEY_SPACE.existing
    missing = _KEY_SPACE.missing
    num_ops = draw(st.integers(min_value=1, max_value=120))
    ops: list[Operation] = []
    for _ in range(num_ops):
        kind = draw(st.sampled_from(kinds))
        if kind is OperationType.GET:
            key = int(existing[draw(st.integers(0, existing.size - 1))])
        elif kind is OperationType.EMPTY_GET:
            key = int(missing[draw(st.integers(0, missing.size - 1))])
        elif kind is OperationType.PUT:
            if draw(st.booleans()):
                key = int(existing[draw(st.integers(0, existing.size - 1))])
            else:
                key = _KEY_SPACE.fresh_start + draw(st.integers(0, 10_000))
        else:
            key = int(existing[draw(st.integers(0, existing.size - 1))])
            ops.append(Operation(kind=kind, key=key, scan_length=draw(st.integers(1, 32))))
            continue
        ops.append(Operation(kind=kind, key=key))
    return ops


def _loaded_tree(tuning: LSMTuning, deletes: np.ndarray | None = None) -> LSMTree:
    tree = LSMTree(tuning, _SYSTEM, seed=9)
    tree.bulk_load(_KEY_SPACE.existing)
    if deletes is not None:
        for key in deletes:
            tree.delete(int(key))
    tree.disk.reset()
    return tree


def _assert_same_tree(batched, scalar) -> None:
    assert batched.disk.counters == scalar.disk.counters
    assert batched.stats() == scalar.stats()
    assert tree_fingerprint(batched) == tree_fingerprint(scalar)


class TestBatchedReplayBitIdentity:
    """execute_operations_batched == per-op execute_operation, bit for bit."""

    @pytest.mark.parametrize("tuning", _TUNINGS, ids=_TUNING_IDS)
    @given(
        ops=_operation_streams(),
        max_span_keys=st.sampled_from([1, 2, 7, 64, 4_096]),
        delete_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_disk_counters_and_tree_state_match(
        self, tuning, ops, max_span_keys, delete_seed
    ):
        rng = np.random.default_rng(delete_seed)
        deletes = rng.choice(_KEY_SPACE.existing, size=40, replace=False)
        scalar = _loaded_tree(tuning, deletes)
        batched = _loaded_tree(tuning, deletes)

        replay_scalar(scalar, ops)
        with mock.patch.object(lsm_tree, "MAX_SPAN_KEYS", max_span_keys):
            execute_operations_batched(batched, ops)

        _assert_same_tree(batched, scalar)

    @pytest.mark.parametrize(
        "tuning", [_TUNINGS[0], _TUNINGS[1], _TUNINGS[5]], ids=["leveling", "tiering", "kvector"]
    )
    @given(
        ops=_operation_streams(kinds=_RANGE_HEAVY_KINDS),
        max_span_keys=st.sampled_from([2, 7, 4_096]),
    )
    @settings(max_examples=8, deadline=None)
    def test_persistent_backend_matches_scalar(self, tuning, ops, max_span_keys):
        """Scans run ahead of a pending GET span on the ``pread`` path too."""
        with tempfile.TemporaryDirectory() as scratch:
            trees = []
            for name in ("scalar", "batched"):
                tree = PersistentLSMTree(tuning, _SYSTEM, data_dir=f"{scratch}/{name}", seed=9)
                tree.bulk_load(_KEY_SPACE.existing)
                tree.disk.reset()
                trees.append(tree)
            scalar, batched = trees
            try:
                replay_scalar(scalar, ops)
                with mock.patch.object(lsm_tree, "MAX_SPAN_KEYS", max_span_keys):
                    execute_operations_batched(batched, ops)
                _assert_same_tree(batched, scalar)
            finally:
                for tree in trees:
                    tree.close()

    @given(
        ops=_operation_streams(),
        probe_seed=st.integers(0, 2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_get_many_answers_and_io_match_scalar_gets(self, ops, probe_seed):
        tuning = LSMTuning(6.0, 5.0, Policy.LEVELING)
        rng = np.random.default_rng(probe_seed)
        deletes = rng.choice(_KEY_SPACE.existing, size=40, replace=False)
        scalar = _loaded_tree(tuning, deletes)
        batched = _loaded_tree(tuning, deletes)
        for op in ops:
            execute_operation(scalar, op)
            execute_operation(batched, op)

        probe = np.concatenate(
            [
                rng.choice(_KEY_SPACE.existing, size=30, replace=True),
                rng.choice(_KEY_SPACE.missing, size=10, replace=True),
                deletes[:10],
            ]
        ).astype(np.int64)
        before_scalar = scalar.disk.snapshot()
        before_batched = batched.disk.snapshot()
        expected = np.array([scalar.get(int(key)) for key in probe])
        answers = batched.get_many(probe)
        assert np.array_equal(answers, expected)
        assert batched.disk.counters.delta(before_batched) == scalar.disk.counters.delta(
            before_scalar
        )


@pytest.fixture(scope="module")
def sequence():
    bench = UncertaintyBenchmark(size=100, seed=42)
    generator = SessionGenerator(bench, seed=3)
    workload = Workload(z0=0.2, z1=0.4, q=0.1, w=0.3)
    return generator.paper_sequence(workload, include_writes=True, workloads_per_session=2)


def _executor() -> WorkloadExecutor:
    return WorkloadExecutor(_SYSTEM, ExecutorConfig(queries_per_workload=200, seed=5))


class TestExecutorParity:
    """Session measurements are byte-identical, kernel vs scalar oracle."""

    @pytest.mark.parametrize(
        "tuning", [_TUNINGS[0], _TUNINGS[1], _TUNINGS[5]], ids=["leveling", "tiering", "kvector"]
    )
    def test_run_sequence_measurements_match(self, tuning, sequence, monkeypatch):
        batched = _executor().run_sequence(tuning, sequence)
        monkeypatch.setattr(storage_executor, "execute_operations_batched", replay_scalar)
        scalar = _executor().run_sequence(tuning, sequence)
        assert batched == scalar

    @pytest.mark.parametrize("max_span_keys", [1, 13, 4_096])
    def test_any_span_cap_gives_the_same_measurement(self, max_span_keys, sequence, monkeypatch):
        with monkeypatch.context() as patched:
            patched.setattr(storage_executor, "execute_operations_batched", replay_scalar)
            reference = _executor().run_sequence(_TUNINGS[0], sequence)
        monkeypatch.setattr(lsm_tree, "MAX_SPAN_KEYS", max_span_keys)
        assert _executor().run_sequence(_TUNINGS[0], sequence) == reference


class TestAdaptiveParity:
    """The online loop fires, migrates and measures identically when chunked."""

    def _measure(self, sequence):
        executor = _executor()
        online = OnlineConfig(
            check_interval=64,
            min_observations=128,
            cooldown=256,
            confirm_checks=2,
            migration="incremental",
            migration_step_ops=32,
            migration_step_pages=8,
        )
        return executor.run_sequence_adaptive(_TUNINGS[0], sequence, online=online)

    def test_adaptive_run_with_incremental_migration_matches_scalar(
        self, sequence, monkeypatch
    ):
        batched = self._measure(sequence)
        monkeypatch.setattr(OnlineLSMController, "execute_batched", execute_scalar)
        scalar = self._measure(sequence)
        assert batched.sessions == scalar.sessions
        assert batched.events == scalar.events
        assert batched.final_tuning == scalar.final_tuning


def _mid_flight_plan() -> tuple[MigrationPlan, np.ndarray, np.ndarray]:
    """A migration caught mid-flight, with writes and deletes landed on top.

    Returns ``(plan, mid_plan_puts, mid_plan_deletes)``.  Puts are applied
    before deletes, so any key drawn into both ends up tombstoned — every key
    in ``mid_plan_deletes`` must read as dead through the mixed state.
    """
    source = _loaded_tree(LSMTuning(10.0, 8.0, Policy.LEVELING))
    target = LSMTree(
        LSMTuning(4.0, 6.0, Policy.TIERING), _SYSTEM, disk=source.disk, seed=33
    )
    checkpoint = np.sort(
        np.concatenate([run.keys for runs in source.levels for run in runs])
    )
    plan = MigrationPlan(source, target, checkpoint, max_step_pages=64)
    plan.run_next_step()
    plan.run_next_step()
    # Writes and deletes landing *during* the migration go to the target,
    # so some keys are resolved there (live or tombstoned) and the rest
    # fall through to the frozen source.
    rng = np.random.default_rng(21)
    puts = rng.choice(checkpoint, size=25, replace=False)
    deletes = rng.choice(checkpoint, size=25, replace=False)
    for key in puts:
        plan.put(int(key))
    for key in deletes:
        plan.delete(int(key))
    plan.source.disk.reset()
    return plan, puts, deletes


class TestMixedStateParity:
    """MigrationPlan.get_many == per-key MigrationPlan.get, I/O included."""

    @given(probe_seed=st.integers(0, 2**16))
    @settings(max_examples=10, deadline=None)
    def test_get_many_matches_scalar_fallthrough(self, probe_seed):
        scalar_plan, _, _ = _mid_flight_plan()
        batched_plan, _, _ = _mid_flight_plan()
        rng = np.random.default_rng(probe_seed)
        probe = np.concatenate(
            [
                rng.choice(_KEY_SPACE.existing, size=40, replace=True),
                rng.choice(_KEY_SPACE.missing, size=10, replace=True),
            ]
        ).astype(np.int64)
        expected = np.array([scalar_plan.get(int(key)) for key in probe])
        answers = batched_plan.get_many(probe)
        assert np.array_equal(answers, expected)
        assert batched_plan.source.disk.counters == scalar_plan.source.disk.counters


class TestMixedStateReplayParity:
    """The kernel on a mid-flight plan == the oracle, on RANGE-heavy streams.

    With two in five operations a range scan, most GET spans stay pending
    across scans that the kernel runs ahead of them on the mixed state.
    """

    @given(
        ops=_operation_streams(kinds=_RANGE_HEAVY_KINDS),
        max_span_keys=st.sampled_from([1, 7, 4_096]),
    )
    @settings(max_examples=10, deadline=None)
    def test_kernel_matches_scalar_on_the_mixed_state(self, ops, max_span_keys):
        scalar_plan, _, _ = _mid_flight_plan()
        batched_plan, _, _ = _mid_flight_plan()

        replay_scalar(scalar_plan, ops)
        with mock.patch.object(lsm_tree, "MAX_SPAN_KEYS", max_span_keys):
            execute_operations_batched(batched_plan, ops)

        _assert_same_tree(batched_plan.target, scalar_plan.target)
        _assert_same_tree(batched_plan.source, scalar_plan.source)
        scalar_plan.run_to_completion()
        batched_plan.run_to_completion()
        _assert_same_tree(batched_plan.target, scalar_plan.target)


class TestAdversarialBatchScalarParity:
    """Batch == scalar on hostile probes: duplicate keys inside one batch,
    keys deleted mid-plan, and keys absent from both trees.

    The per-probe I/O charging contract means a key duplicated N times in a
    batch must cost exactly N scalar lookups — deduplicating probes (a
    tempting "optimisation") would silently change the simulator's counters.
    """

    @given(probe_seed=st.integers(0, 2**16), dup_factor=st.integers(2, 5))
    @settings(max_examples=8, deadline=None)
    def test_plan_get_many_on_duplicates_deletions_and_misses(
        self, probe_seed, dup_factor
    ):
        scalar_plan, _, deleted = _mid_flight_plan()
        batched_plan, _, _ = _mid_flight_plan()
        rng = np.random.default_rng(probe_seed)
        base = np.concatenate(
            [
                deleted,  # tombstoned mid-plan: target's deletion must shadow
                rng.choice(_KEY_SPACE.missing, size=15, replace=True),  # in neither
                rng.choice(_KEY_SPACE.existing, size=15, replace=True),
            ]
        )
        # Every key appears dup_factor times, shuffled so duplicates are not
        # adjacent — the batch path must answer and charge each occurrence.
        probe = np.repeat(base, dup_factor).astype(np.int64)
        rng.shuffle(probe)

        expected = np.array([scalar_plan.get(int(key)) for key in probe])
        answers = batched_plan.get_many(probe)

        assert np.array_equal(answers, expected)
        assert batched_plan.source.disk.counters == scalar_plan.source.disk.counters
        # Semantics, not just parity: mid-plan deletions read dead everywhere,
        # keys absent from both trees read dead everywhere.
        assert not answers[np.isin(probe, deleted)].any()
        assert not answers[np.isin(probe, _KEY_SPACE.missing)].any()

    @pytest.mark.parametrize(
        "tuning", [_TUNINGS[0], _TUNINGS[1], _TUNINGS[5]], ids=["leveling", "tiering", "kvector"]
    )
    @given(probe_seed=st.integers(0, 2**16), dup_factor=st.integers(2, 5))
    @settings(max_examples=8, deadline=None)
    def test_lookup_entries_matches_scalar_lookup_entry(
        self, tuning, probe_seed, dup_factor
    ):
        rng = np.random.default_rng(probe_seed)
        deletes = rng.choice(_KEY_SPACE.existing, size=40, replace=False)
        scalar = _loaded_tree(tuning, deletes)
        batched = _loaded_tree(tuning, deletes)

        base = np.concatenate(
            [
                deletes[:15],  # newest version is a tombstone
                rng.choice(_KEY_SPACE.missing, size=10, replace=True),  # absent
                rng.choice(_KEY_SPACE.existing, size=15, replace=True),
            ]
        )
        probe = np.repeat(base, dup_factor).astype(np.int64)
        rng.shuffle(probe)

        before_scalar = scalar.disk.snapshot()
        before_batched = batched.disk.snapshot()
        expected = [scalar.lookup_entry(int(key)) for key in probe]
        expected_found = np.array([found for found, _ in expected])
        expected_tombstone = np.array([tomb for _, tomb in expected])
        found, tombstone = batched.lookup_entries(probe)

        assert np.array_equal(found, expected_found)
        assert np.array_equal(tombstone, expected_tombstone)
        assert batched.disk.counters.delta(before_batched) == scalar.disk.counters.delta(
            before_scalar
        )
        # Three-state semantics on the hostile keys themselves.
        deleted_mask = np.isin(probe, deletes)
        assert found[deleted_mask].all() and tombstone[deleted_mask].all()
        missing_mask = np.isin(probe, _KEY_SPACE.missing)
        assert not found[missing_mask].any() and not tombstone[missing_mask].any()

    def test_single_key_repeated_batch_charges_per_probe(self):
        """A batch of one key repeated N times costs N scalar lookups."""
        scalar_plan, _, deleted = _mid_flight_plan()
        batched_plan, _, _ = _mid_flight_plan()
        probe = np.full(64, int(deleted[0]), dtype=np.int64)
        expected = np.array([scalar_plan.get(int(key)) for key in probe])
        answers = batched_plan.get_many(probe)
        assert np.array_equal(answers, expected)
        assert not answers.any()
        assert batched_plan.source.disk.counters == scalar_plan.source.disk.counters

    def test_all_absent_batch_matches_scalar(self):
        """Keys absent from both trees: only Bloom false positives pay I/O,
        and they pay identically on both paths."""
        scalar_plan, _, _ = _mid_flight_plan()
        batched_plan, _, _ = _mid_flight_plan()
        probe = _KEY_SPACE.missing[:80].astype(np.int64)
        expected = np.array([scalar_plan.get(int(key)) for key in probe])
        answers = batched_plan.get_many(probe)
        assert np.array_equal(answers, expected)
        assert not answers.any()
        assert batched_plan.source.disk.counters == scalar_plan.source.disk.counters

    def test_empty_batch_is_free(self):
        plan, _, _ = _mid_flight_plan()
        answers = plan.get_many(np.empty(0, dtype=np.int64))
        assert answers.size == 0
        assert plan.source.disk.counters.total == 0
