"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

#: Samples a reported percentile needs beyond it (the tail it summarises).
MIN_TAIL_SAMPLES = 10


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused unless at least
    :data:`MIN_TAIL_SAMPLES` samples lie beyond it."""
    n = len(samples)
    beyond = math.floor(n * (100.0 - q) / 100.0 + 1e-9)
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {n} samples has {beyond} beyond it; "
            f"{MIN_TAIL_SAMPLES} are required"
        )
    return float(np.percentile(np.asarray(samples, dtype=np.float64), q))
