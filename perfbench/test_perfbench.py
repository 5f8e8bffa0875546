"""Tests of the benchmark's own code: span arithmetic, percentiles, pacing,
oracle, and agreement between ``BENCHMARK.json`` and the metrics the code
reports."""

from __future__ import annotations

import json
import time
from itertools import count
from pathlib import Path

import numpy as np
import pytest

from perfbench.oracle import LiveKeyOracle
from perfbench.pace import REFERENCE_KERNEL_S, SENSITIVITY, Pacer, Window
from perfbench.stats import tail_percentile
from perfbench.tracer import Tracer, check_nesting, self_times, summarise

ROOT = Path(__file__).resolve().parent.parent


class TestSelfTimes:
    def test_nested_spans(self):
        # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 9] and c [8, 11]
        # (c overlaps b and leaves the root: only [9, 10] of it is new cover).
        start = np.array([0.0, 1.0, 2.0, 5.0, 8.0])
        end = np.array([10.0, 4.0, 3.0, 9.0, 11.0])
        parent = np.array([-1, 0, 1, 0, 0])
        own = self_times(start, end, parent)
        np.testing.assert_allclose(own, [2.0, 2.0, 1.0, 4.0, 3.0])
        assert np.all(own <= end - start)

    def test_tracer_spans_from_wrapped_calls(self):
        ticks = count()
        tracer = Tracer(clock=lambda: float(next(ticks)))

        traced = {"leaf": tracer.wrapped(lambda: 1, "leaf")}

        def middle():
            return traced["leaf"]() + traced["leaf"]()

        traced_middle = tracer.wrapped(middle, "middle")
        with tracer.span("root"):
            assert traced_middle() == 2
        spans = tracer.arrays()
        assert check_nesting(spans) == []
        summary = summarise(tracer.names, spans)
        # Clock ticks: root 0..7, middle 1..6, leaves 2..3 and 4..5.
        assert summary["leaf"].calls == 2
        assert summary["leaf"].total_s == 2.0
        assert summary["middle"].self_s == 3.0
        assert summary["root"].self_s == 2.0

    def test_same_name_reentry_is_folded(self):
        tracer = Tracer()

        class Base:
            def put(self):
                return "base"

        class Child(Base):
            def put(self):
                return super().put()

        tracer.patch(Base, "put", "storage.put")
        tracer.patch(Child, "put", "storage.put")
        try:
            assert Child().put() == "base"
        finally:
            tracer.restore()
        assert len(tracer.start) == 1
        assert "put" in vars(Base) and Child.put.__qualname__.endswith("Child.put")

    def test_restore_keeps_descriptor_kinds(self):
        class Owner:
            @staticmethod
            def static(x):
                return x

            @classmethod
            def klass(cls, x):
                return (cls, x)

        class Heir(Owner):
            pass

        tracer = Tracer()
        tracer.patch(Owner, "static", "s")
        tracer.patch(Owner, "klass", "k")
        tracer.patch(Heir, "static", "inherited")
        assert Owner.static(3) == 3 and Heir.klass(4) == (Heir, 4)
        tracer.restore()
        assert "static" not in vars(Heir)
        assert isinstance(vars(Owner)["static"], staticmethod)
        assert isinstance(vars(Owner)["klass"], classmethod)

    def test_nesting_check_flags_overlong_children(self):
        spans = {
            "start": np.array([0.0, 0.0, 0.5]),
            "end": np.array([1.0, 0.8, 1.5]),
            "parent": np.array([-1, 0, 0]),
        }
        assert check_nesting(spans)


def test_serving_get_spans_group_consecutive_reads():
    from perfbench.layers import span_metrics

    # serving.replay > get, get, put, get_many(10 keys), range_query, get
    names = ["serving.replay", "storage.get", "storage.put", "storage.get_many",
             "storage.range_query"]
    kinds = [0, 1, 1, 2, 3, 4, 1]
    spans = {
        "name_id": np.array(kinds, dtype=np.int32),
        "start": np.arange(7.0),
        "end": np.r_[10.0, np.arange(1.0, 7.0) + 0.5],
        "parent": np.array([-1, 0, 0, 0, 0, 0, 0], dtype=np.int32),
        "amount_a": np.array([0, 1, 1, 0, 10, 0, 1], dtype=np.float64),
        "amount_b": np.zeros(7),
    }
    assert span_metrics(names, spans)["serving.get_span.keys_mean"] == pytest.approx(13 / 3)


class TestTailPercentile:
    def test_refuses_thin_tail(self):
        with pytest.raises(ValueError):
            tail_percentile(np.arange(999.0), 99)
        with pytest.raises(ValueError):
            tail_percentile(np.arange(19.0), 50)

    def test_accepts_ten_beyond(self):
        assert tail_percentile(np.arange(1000.0), 99) == pytest.approx(989.01)
        assert tail_percentile(np.arange(20.0), 50) == pytest.approx(9.5)


class TestPace:
    def test_scaled_time_divides_by_the_mean_slowdown(self):
        window = Window(net_s=3.0, samples=[2 * REFERENCE_KERNEL_S, 4 * REFERENCE_KERNEL_S])
        assert window.slowdown == pytest.approx(3.0**SENSITIVITY)
        assert window.scaled() == pytest.approx(3.0 / 3.0**SENSITIVITY)
        assert window.scaled(6.0) == pytest.approx(6.0 / 3.0**SENSITIVITY)

    def test_handler_time_is_left_out(self):
        with Pacer() as pacer, pacer.window() as window:
            start = time.perf_counter()
            while time.perf_counter() - start < 0.3:
                pass
        assert pacer.spent > 0.0 and len(window.samples) > 2
        assert window.net_s == pytest.approx(0.3 - pacer.spent, abs=0.005)


class _Flipping:
    """An engine that answers one point read or one range count wrongly."""

    def __init__(self, tree, flip_point: bool):
        self.tree = tree
        self.flip_point = flip_point

    def get_many(self, keys):
        answers = self.tree.get_many(keys)
        if self.flip_point and answers.size:
            answers[answers.size // 2] = ~answers[answers.size // 2]
        return answers

    def range_query(self, start, end):
        return self.tree.range_query(start, end) + (0 if self.flip_point else 1)


class TestOracle:
    @pytest.fixture(scope="class")
    def loaded(self):
        from repro.lsm import LSMTuning, Policy, simulator_system
        from repro.storage import LSMTree
        from repro.workloads import KeySpace

        system = simulator_system(num_entries=2_000)
        space = KeySpace.build(system.num_entries, seed=3)
        tuning = LSMTuning(size_ratio=6.0, bits_per_entry=8.0, policy=Policy.LEVELING)
        tree = LSMTree(tuning, system)
        tree.bulk_load(space.existing)
        written = np.arange(space.fresh_start, space.fresh_start + 300)
        for key in written.tolist():
            tree.put(key)
        return tree, space, LiveKeyOracle(space.existing, written)

    def test_correct_engine_passes(self, loaded):
        tree, space, oracle = loaded
        checked, failed = oracle.check(tree, space.missing, scan_keys=64, seed=1)
        assert checked > oracle.keys.size and failed == 0

    @pytest.mark.parametrize("flip_point", [True, False])
    def test_flipped_answer_is_caught(self, loaded, flip_point):
        tree, space, oracle = loaded
        _, failed = oracle.check(_Flipping(tree, flip_point), space.missing, scan_keys=64, seed=1)
        assert failed >= 1


def test_diff_flags_only_layers_that_got_slower():
    from perfbench.diff import slower_layers

    def metrics(**seconds):
        return {name: {"value": value, "unit": "s"} for name, value in seconds.items()}

    old = metrics(a=1.0, b=1.0, c=0.001, d=0.0)
    new = metrics(a=1.5, b=0.5, c=0.004, d=0.0)
    rows = {name: flagged for name, _, _, flagged in slower_layers(old, new)}
    assert rows == {"a": True, "b": False, "c": False}


def test_benchmark_json_matches_reported_metrics():
    from perfbench.layers import PER_LAYER
    from perfbench.run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(PER_LAYER)
    assert spec["paths"] == ["perfbench"]
