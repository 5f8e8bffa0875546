"""Concrete query traces for the LSM-tree simulator.

The analytical evaluation only needs workload *proportions*; the system-based
evaluation executes actual queries against a storage engine.  This module
turns a :class:`~repro.workloads.workload.Workload` into a sequence of
concrete operations (get/range/put) against a key domain, mirroring §8.2:

* non-empty point reads query keys that exist in the database,
* empty point reads query keys drawn from the same domain that are guaranteed
  not to exist,
* range queries are short scans with minimal selectivity; a workload with a
  non-zero ``long_range_fraction`` issues that share of its range queries as
  *long* scans covering ``long_scan_keys`` consecutive keys,
* writes insert fresh, previously unused keys — unless ``update_fraction``
  directs a share of them at keys that already exist.  Updates create
  *obsolete versions*: until a compaction consolidates them, every run on a
  key's path keeps its own stale copy, and long range scans pay to read them
  all.  The ``update_skew`` knob concentrates updates on a Zipf-hot subset
  of the keys, deepening the duplication exactly where scans will find it —
  the worst-case amplification the long-range cost model charges per run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .workload import Workload


class OperationType(enum.Enum):
    """The concrete operations the simulator understands."""

    EMPTY_GET = "empty_get"
    GET = "get"
    RANGE = "range"
    PUT = "put"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class Operation:
    """One concrete query against the store."""

    kind: OperationType
    key: int
    #: Number of consecutive keys scanned; only meaningful for range queries.
    scan_length: int = 0


@dataclass(frozen=True)
class KeySpace:
    """Partition of the integer key domain used to generate traces.

    ``existing`` keys are bulk-loaded into the store, ``missing`` keys belong
    to the same domain but are never inserted (used for empty point reads),
    and ``fresh`` keys are reserved for writes so that every write is unique.
    """

    existing: np.ndarray
    missing: np.ndarray
    fresh_start: int

    @classmethod
    def build(cls, num_entries: int, seed: int = 13) -> "KeySpace":
        """Create a key space with ``num_entries`` resident keys."""
        if num_entries <= 0:
            raise ValueError("num_entries must be positive")
        rng = np.random.default_rng(seed)
        domain = rng.permutation(2 * num_entries)
        existing = np.sort(domain[:num_entries])
        missing = np.sort(domain[num_entries:])
        return cls(existing=existing, missing=missing, fresh_start=2 * num_entries)

    @property
    def num_entries(self) -> int:
        """Number of resident (bulk-loaded) keys."""
        return int(self.existing.size)


class TraceGenerator:
    """Generates operation traces for a workload over a fixed key space."""

    def __init__(
        self,
        key_space: KeySpace,
        range_scan_keys: int = 16,
        long_scan_keys: int = 512,
        seed: int = 23,
        update_fraction: float = 0.0,
        update_skew: float = 0.0,
    ) -> None:
        if range_scan_keys <= 0:
            raise ValueError("range_scan_keys must be positive")
        if long_scan_keys < range_scan_keys:
            raise ValueError("long_scan_keys must be at least range_scan_keys")
        if not 0.0 <= update_fraction <= 1.0:
            raise ValueError("update_fraction must lie in [0, 1]")
        if update_skew < 0.0:
            raise ValueError("update_skew must be non-negative")
        self.key_space = key_space
        self.range_scan_keys = range_scan_keys
        self.long_scan_keys = long_scan_keys
        #: Fraction of the writes that *update* an existing key (duplicate
        #: versions) instead of inserting a fresh one.
        self.update_fraction = float(update_fraction)
        #: Zipf exponent concentrating updates on a hot subset of the keys;
        #: 0 spreads updates uniformly over the resident key set.
        self.update_skew = float(update_skew)
        self._rng = np.random.default_rng(seed)
        # Updates draw from a dedicated stream so enabling them leaves every
        # other operation of a seeded trace bit-identical.
        self._update_rng = np.random.default_rng(seed + 104_729)
        self._hot_order: np.ndarray | None = None
        self._hot_probabilities: np.ndarray | None = None
        self._next_fresh_key = key_space.fresh_start

    # ------------------------------------------------------------------
    # Trace generation
    # ------------------------------------------------------------------
    def operations(self, workload: Workload, num_operations: int) -> list[Operation]:
        """Materialise ``num_operations`` queries following ``workload``.

        The number of operations per type is the multinomial expectation of
        the workload proportions; operation order is shuffled so query types
        interleave like a live workload.
        """
        if num_operations <= 0:
            raise ValueError("num_operations must be positive")
        counts = self._rng.multinomial(num_operations, workload.as_array())
        ops: list[Operation] = []
        ops.extend(self._empty_gets(int(counts[0])))
        ops.extend(self._gets(int(counts[1])))
        ops.extend(
            self._ranges(int(counts[2]), workload.long_range_fraction)
        )
        ops.extend(self._puts(int(counts[3])))
        self._rng.shuffle(ops)
        return ops

    def __call__(self, workload: Workload, num_operations: int) -> list[Operation]:
        return self.operations(workload, num_operations)

    # ------------------------------------------------------------------
    # Per-type generators
    # ------------------------------------------------------------------
    def _empty_gets(self, count: int) -> Iterator[Operation]:
        if count == 0:
            return iter(())
        keys = self._rng.choice(self.key_space.missing, size=count, replace=True)
        return (Operation(OperationType.EMPTY_GET, int(k)) for k in keys)

    def _gets(self, count: int) -> Iterator[Operation]:
        if count == 0:
            return iter(())
        keys = self._rng.choice(self.key_space.existing, size=count, replace=True)
        return (Operation(OperationType.GET, int(k)) for k in keys)

    def _ranges(self, count: int, long_fraction: float = 0.0) -> Iterator[Operation]:
        if count == 0:
            return iter(())
        starts = self._rng.choice(self.key_space.existing, size=count, replace=True)
        # Deterministic split (the operation list is shuffled afterwards, so
        # which draws become long scans carries no ordering information).
        num_long = int(round(count * long_fraction))
        return (
            Operation(
                OperationType.RANGE,
                int(k),
                scan_length=(
                    self.long_scan_keys if i < num_long else self.range_scan_keys
                ),
            )
            for i, k in enumerate(starts)
        )

    def _puts(self, count: int) -> list[Operation]:
        ops = []
        num_updates = (
            int(round(count * self.update_fraction)) if self.update_fraction else 0
        )
        for key in self._update_keys(num_updates):
            ops.append(Operation(OperationType.PUT, int(key)))
        for _ in range(count - num_updates):
            ops.append(Operation(OperationType.PUT, self._next_fresh_key))
            self._next_fresh_key += 1
        return ops

    def _update_keys(self, count: int) -> np.ndarray:
        """Existing keys to overwrite, drawn uniformly or Zipf-skewed."""
        if count == 0:
            return np.empty(0, dtype=np.int64)
        existing = self.key_space.existing
        if self.update_skew <= 0.0:
            return self._update_rng.choice(existing, size=count, replace=True)
        if self._hot_order is None:
            # Heat is assigned to a random permutation of the resident keys so
            # the hot set is spread across the key domain (and across runs).
            self._hot_order = self._update_rng.permutation(existing)
            ranks = np.arange(1, existing.size + 1, dtype=float)
            weights = ranks ** -self.update_skew
            self._hot_probabilities = weights / weights.sum()
        return self._update_rng.choice(
            self._hot_order, size=count, replace=True, p=self._hot_probabilities
        )


def operation_mix(operations: Sequence[Operation]) -> Workload:
    """Recover the workload proportions realised by a concrete trace."""
    if not operations:
        raise ValueError("cannot compute the mix of an empty trace")
    counts = {kind: 0 for kind in OperationType}
    for op in operations:
        counts[op.kind] += 1
    return Workload.from_counts(
        [
            counts[OperationType.EMPTY_GET],
            counts[OperationType.GET],
            counts[OperationType.RANGE],
            counts[OperationType.PUT],
        ]
    )
