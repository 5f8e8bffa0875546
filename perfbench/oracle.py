"""The correctness oracle: the set of live keys a workload must leave behind.

Checks run after the timed window and after the disk counters were read, so
the I/O they charge is never reported.  Each check returns
``(attempted, failed)`` — the answers compared and how many disagreed.
"""

from __future__ import annotations

import numpy as np

#: Absent keys and range intervals sampled per check.
SAMPLE_MISSING = 2_000
SAMPLE_RANGES = 200


class LiveKeyOracle:
    """Sorted live keys: the bulk load plus every key a write touched."""

    def __init__(self, loaded: np.ndarray, written: np.ndarray) -> None:
        self.keys = np.union1d(
            np.asarray(loaded, dtype=np.int64), np.asarray(written, dtype=np.int64)
        )

    def count_in(self, start: int, end: int) -> int:
        """Live keys in the closed interval ``[start, end]``."""
        lo = np.searchsorted(self.keys, start, side="left")
        hi = np.searchsorted(self.keys, end, side="right")
        return int(hi - lo)

    def check_points(self, engine, absent: np.ndarray, rng: np.random.Generator) -> tuple[int, int]:
        """Every live key must read as present, sampled absent keys as absent."""
        absent = np.setdiff1d(np.asarray(absent, dtype=np.int64), self.keys)
        sample = rng.choice(absent, size=min(SAMPLE_MISSING, absent.size), replace=False)
        present = np.asarray(engine.get_many(self.keys), dtype=bool)
        missing = np.asarray(engine.get_many(sample), dtype=bool)
        failed = int(np.count_nonzero(~present) + np.count_nonzero(missing))
        return int(self.keys.size + sample.size), failed

    def check_ranges(self, engine, scan_keys: int, rng: np.random.Generator) -> tuple[int, int]:
        """Range counts on sampled intervals must equal the oracle's counts."""
        starts = rng.choice(self.keys, size=SAMPLE_RANGES, replace=True).tolist()
        failed = sum(
            engine.range_query(start, start + scan_keys) != self.count_in(start, start + scan_keys)
            for start in starts
        )
        return len(starts), int(failed)

    def check(self, engine, absent: np.ndarray, scan_keys: int, seed: int) -> tuple[int, int]:
        """Point and range checks together."""
        rng = np.random.default_rng(seed)
        points = self.check_points(engine, absent, rng)
        ranges = self.check_ranges(engine, scan_keys, rng)
        return points[0] + ranges[0], points[1] + ranges[1]
