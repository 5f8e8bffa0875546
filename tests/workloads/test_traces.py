"""Tests for concrete query-trace generation."""

import numpy as np
import pytest

from repro.workloads import (
    KeySpace,
    OperationType,
    TraceGenerator,
    Workload,
    operation_mix,
)


@pytest.fixture(scope="module")
def key_space() -> KeySpace:
    return KeySpace.build(num_entries=2_000, seed=3)


@pytest.fixture()
def generator(key_space) -> TraceGenerator:
    return TraceGenerator(key_space, seed=11)


class TestKeySpace:
    def test_partitions_are_disjoint(self, key_space):
        assert not set(key_space.existing.tolist()) & set(key_space.missing.tolist())

    def test_sizes(self, key_space):
        assert key_space.num_entries == 2_000
        assert key_space.missing.size == 2_000

    def test_fresh_keys_beyond_domain(self, key_space):
        domain_max = max(key_space.existing.max(), key_space.missing.max())
        assert key_space.fresh_start > domain_max

    def test_keys_are_sorted(self, key_space):
        assert np.all(np.diff(key_space.existing) > 0)
        assert np.all(np.diff(key_space.missing) > 0)

    def test_rejects_non_positive_size(self):
        with pytest.raises(ValueError):
            KeySpace.build(0)


class TestTraceGeneration:
    def test_produces_requested_number_of_operations(self, generator):
        ops = generator.operations(Workload.uniform(), 400)
        assert len(ops) == 400

    def test_rejects_non_positive_count(self, generator):
        with pytest.raises(ValueError):
            generator.operations(Workload.uniform(), 0)

    def test_empty_gets_use_missing_keys(self, generator, key_space):
        ops = generator.operations(Workload(1.0, 0.0, 0.0, 0.0), 200)
        missing = set(key_space.missing.tolist())
        assert all(op.kind is OperationType.EMPTY_GET for op in ops)
        assert all(op.key in missing for op in ops)

    def test_gets_use_existing_keys(self, generator, key_space):
        ops = generator.operations(Workload(0.0, 1.0, 0.0, 0.0), 200)
        existing = set(key_space.existing.tolist())
        assert all(op.kind is OperationType.GET for op in ops)
        assert all(op.key in existing for op in ops)

    def test_puts_use_fresh_unique_keys(self, generator, key_space):
        ops = generator.operations(Workload(0.0, 0.0, 0.0, 1.0), 200)
        keys = [op.key for op in ops]
        assert len(set(keys)) == len(keys)
        assert min(keys) >= key_space.fresh_start

    def test_fresh_keys_do_not_repeat_across_calls(self, generator):
        first = generator.operations(Workload(0.0, 0.0, 0.0, 1.0), 50)
        second = generator.operations(Workload(0.0, 0.0, 0.0, 1.0), 50)
        assert not {op.key for op in first} & {op.key for op in second}

    def test_range_operations_carry_scan_length(self, key_space):
        generator = TraceGenerator(key_space, range_scan_keys=32, seed=1)
        ops = generator.operations(Workload(0.0, 0.0, 1.0, 0.0), 50)
        assert all(op.kind is OperationType.RANGE for op in ops)
        assert all(op.scan_length == 32 for op in ops)

    def test_realised_mix_tracks_requested_workload(self, generator):
        requested = Workload(0.4, 0.3, 0.1, 0.2)
        ops = generator.operations(requested, 5_000)
        realised = operation_mix(ops)
        assert np.allclose(realised.as_array(), requested.as_array(), atol=0.03)

    def test_operation_mix_rejects_empty_trace(self):
        with pytest.raises(ValueError):
            operation_mix([])

    def test_invalid_configuration_rejected(self, key_space):
        with pytest.raises(ValueError):
            TraceGenerator(key_space, range_scan_keys=0)


class TestUpdateHeavyTraces:
    """The duplicate-key skew knob: writes that overwrite resident keys."""

    def test_update_fraction_splits_puts(self, key_space):
        generator = TraceGenerator(key_space, update_fraction=0.4, seed=5)
        ops = generator.operations(Workload(0.0, 0.0, 0.0, 1.0), 500)
        existing = set(key_space.existing.tolist())
        updates = [op for op in ops if op.key in existing]
        inserts = [op for op in ops if op.key >= key_space.fresh_start]
        assert len(updates) + len(inserts) == len(ops)
        assert len(updates) == 200  # 40% of 500, deterministic rounding

    def test_updates_hit_duplicate_keys(self, key_space):
        """With enough updates over a finite key set, keys repeat — the
        obsolete-version amplification the long-range model charges for."""
        generator = TraceGenerator(key_space, update_fraction=1.0, seed=5)
        ops = generator.operations(Workload(0.0, 0.0, 0.0, 1.0), 3 * key_space.num_entries)
        keys = [op.key for op in ops]
        assert len(set(keys)) < len(keys)

    def test_update_skew_concentrates_on_hot_keys(self, key_space):
        uniform = TraceGenerator(key_space, update_fraction=1.0, update_skew=0.0, seed=5)
        skewed = TraceGenerator(key_space, update_fraction=1.0, update_skew=1.2, seed=5)
        count = 4_000

        def top_share(generator):
            ops = generator.operations(Workload(0.0, 0.0, 0.0, 1.0), count)
            frequencies = {}
            for op in ops:
                frequencies[op.key] = frequencies.get(op.key, 0) + 1
            top = sorted(frequencies.values(), reverse=True)[:10]
            return sum(top) / count

        assert top_share(skewed) > 2 * top_share(uniform)

    def test_zero_update_fraction_leaves_the_trace_bit_identical(self, key_space):
        """Enabling the knob machinery must not perturb the main RNG stream:
        the default trace is unchanged from the pre-knob generator."""
        plain = TraceGenerator(key_space, seed=5)
        explicit = TraceGenerator(key_space, update_fraction=0.0, update_skew=2.0, seed=5)
        workload = Workload(0.2, 0.3, 0.2, 0.3)
        assert plain.operations(workload, 400) == explicit.operations(workload, 400)

    def test_update_knob_preserves_the_non_write_stream(self, key_space):
        """Updates draw from a dedicated RNG stream, so reads and ranges of a
        seeded trace are identical with and without the knob."""
        plain = TraceGenerator(key_space, seed=5)
        updating = TraceGenerator(key_space, update_fraction=0.5, seed=5)
        workload = Workload(0.2, 0.3, 0.2, 0.3)
        plain_ops = plain.operations(workload, 400)
        updating_ops = updating.operations(workload, 400)
        for kind in (OperationType.EMPTY_GET, OperationType.GET, OperationType.RANGE):
            assert [op for op in plain_ops if op.kind is kind] == [
                op for op in updating_ops if op.kind is kind
            ]

    def test_rejects_bad_update_knobs(self, key_space):
        with pytest.raises(ValueError):
            TraceGenerator(key_space, update_fraction=1.5)
        with pytest.raises(ValueError):
            TraceGenerator(key_space, update_fraction=-0.1)
        with pytest.raises(ValueError):
            TraceGenerator(key_space, update_skew=-1.0)
