"""In-memory span tracing around the public entry points of each layer.

A :class:`Tracer` replaces a function or method with a wrapper that records
one span per call: its name, start, end, the span that was open when it was
called (its parent), and up to two work amounts computed from the call's
arguments and result (keys probed, pages read, bytes written, ...).  Spans
live in flat arrays until the run ends, when :meth:`Tracer.save` writes them
out and :func:`summarise` reduces them to per-name totals and self times.

A call whose immediate parent span has the same name (an override calling
``super()``) records no span of its own, so inclusive times never count the
same work twice.
"""

from __future__ import annotations

import inspect
import math
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

import numpy as np

#: ``amount(args, kwargs, result) -> (a, b)``: the work one call did.
Amount = Callable[[tuple, dict, object], tuple[float, float]]


class Tracer:
    """Records nested spans for wrapped callables; single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.amount_a = array("d")
        self.amount_b = array("d")
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str) -> int:
        """Start a span under the innermost open one; returns its index."""
        index = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.amount_a.append(0.0)
        self.amount_b.append(0.0)
        self.end.append(math.nan)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        """End the span ``index`` (which must be the innermost open one)."""
        self.end[index] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """Record one span around a block (the benchmark's own phases)."""
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def wrapped(self, func: Callable, name: str, amount: Amount | None = None) -> Callable:
        """``func`` recording a span named ``name`` per call."""
        name_id = self._id(name)
        stack = self._stack
        ids = self.name_id

        def traced(*args, **kwargs):
            if stack and ids[stack[-1]] == name_id:
                return func(*args, **kwargs)
            index = self.open(name)
            try:
                result = func(*args, **kwargs)
            finally:
                self.close(index)
            if amount is not None:
                self.amount_a[index], self.amount_b[index] = amount(args, kwargs, result)
            return result

        traced.__wrapped__ = func
        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch(self, owner: object, attribute: str, name: str, amount: Amount | None = None) -> None:
        """Replace ``owner.attribute`` by a traced wrapper until :meth:`restore`.

        ``owner`` is a module or a class; static and class methods keep
        their descriptor kind.
        """
        raw = inspect.getattr_static(owner, attribute)
        own = attribute in vars(owner)
        if isinstance(raw, staticmethod):
            replacement = staticmethod(self.wrapped(raw.__func__, name, amount))
        elif isinstance(raw, classmethod):
            replacement = classmethod(self.wrapped(raw.__func__, name, amount))
        else:
            replacement = self.wrapped(raw, name, amount)
        setattr(owner, attribute, replacement)
        self._patches.append((owner, attribute, raw, own))

    def restore(self) -> None:
        """Undo every :meth:`patch`, newest first."""
        while self._patches:
            owner, attribute, raw, own = self._patches.pop()
            if own:
                setattr(owner, attribute, raw)
            else:
                delattr(owner, attribute)

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        """The recorded spans as numpy columns."""
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "amount_a": np.frombuffer(self.amount_a, dtype=np.float64).copy(),
            "amount_b": np.frombuffer(self.amount_b, dtype=np.float64).copy(),
        }

    def save(self, path) -> None:
        """Write every span (and the name table) to an ``.npz`` file."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the part of it its child spans cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so a self time is never negative and never exceeds the
    span's own duration.
    """
    start = np.asarray(start, dtype=np.float64)
    end = np.asarray(end, dtype=np.float64)
    parent = np.asarray(parent, dtype=np.int64)
    covered = np.zeros(start.size)
    children = np.flatnonzero(parent >= 0)
    if children.size:
        owner = parent[children]
        lo = np.maximum(start[children], start[owner])
        hi = np.maximum(np.minimum(end[children], end[owner]), lo)
        order = np.lexsort((lo, owner))
        current, reach = -1, -math.inf
        for span, s, e in zip(owner[order].tolist(), lo[order].tolist(), hi[order].tolist()):
            if span != current:
                current, reach = span, -math.inf
            if e > reach:
                covered[span] += e - max(s, reach)
                reach = e
    return (end - start) - covered


@dataclass(frozen=True)
class NameSummary:
    """Totals of every span sharing one name."""

    calls: int
    total_s: float
    self_s: float
    amount_a: float
    amount_b: float


def summarise(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, NameSummary]:
    """Per-name call counts, inclusive and self seconds, and work amounts."""
    durations = spans["end"] - spans["start"]
    own = self_times(spans["start"], spans["end"], spans["parent"])
    ids = spans["name_id"]
    size = len(names)

    def total(values: np.ndarray) -> np.ndarray:
        return np.bincount(ids, weights=values, minlength=size)

    calls = np.bincount(ids, minlength=size)
    totals, selfs = total(durations), total(own)
    amounts_a, amounts_b = total(spans["amount_a"]), total(spans["amount_b"])
    return {
        name: NameSummary(
            calls=int(calls[i]),
            total_s=float(totals[i]),
            self_s=float(selfs[i]),
            amount_a=float(amounts_a[i]),
            amount_b=float(amounts_b[i]),
        )
        for i, name in enumerate(names)
    }


def check_nesting(spans: dict[str, np.ndarray], tolerance_s: float = 1e-6) -> list[str]:
    """Violations of the span tree: open spans, children outside parents,
    or children whose summed time exceeds their parent's duration."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    problems: list[str] = []
    if np.isnan(end).any():
        problems.append(f"{int(np.isnan(end).sum())} spans never closed")
        return problems
    children = np.flatnonzero(parent >= 0)
    owner = parent[children]
    outside = (start[children] < start[owner] - tolerance_s) | (
        end[children] > end[owner] + tolerance_s
    )
    if outside.any():
        problems.append(f"{int(outside.sum())} child spans leave their parent's interval")
    child_time = np.bincount(owner, weights=end[children] - start[children], minlength=start.size)
    over = child_time > (end - start) + tolerance_s
    if over.any():
        problems.append(f"{int(over.sum())} spans have children longer than themselves")
    return problems
