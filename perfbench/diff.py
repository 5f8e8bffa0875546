"""Compare two traced results and flag the layers that got slower.

Usage::

    python3 perfbench/diff.py OLD.json NEW.json

Each input is a result file ``run.py --trace 1`` wrote to ``.perfbench_out/``.
Every per-layer time (unit ``s``) either side recorded is compared; a layer is
flagged when it grew by more than :data:`THRESHOLD` of the old value and by
more than :data:`MIN_SECONDS`.  Exit status is 1 when any layer is flagged,
0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: Relative growth of a layer time that flags it.
THRESHOLD = 0.10
#: Absolute growth below which a layer is never flagged (timer noise).
MIN_SECONDS = 0.005


def load_metrics(path: Path) -> dict[str, dict[str, float | str]]:
    """The ``metrics`` object of a result file."""
    return json.loads(path.read_text())["result"]["metrics"]


def slower_layers(old: dict, new: dict) -> list[tuple[str, float, float, bool]]:
    """``(metric, old_s, new_s, flagged)`` for every time both results hold."""
    rows = []
    for name, metric in new.items():
        if metric.get("unit") != "s" or name not in old:
            continue
        before, after = float(old[name]["value"]), float(metric["value"])
        if before == after == 0.0:
            continue
        flagged = after - before > MIN_SECONDS and after > before * (1.0 + THRESHOLD)
        rows.append((name, before, after, flagged))
    rows.sort(key=lambda row: row[2] - row[1], reverse=True)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    rows = slower_layers(load_metrics(args.old), load_metrics(args.new))
    print(f"{'layer metric':<36}{'old s':>12}{'new s':>12}{'change':>10}")
    for name, before, after, flagged in rows:
        change = f"{(after / before - 1.0) * 100.0:+.1f}%" if before else "new"
        print(f"{name:<36}{before:>12.4f}{after:>12.4f}{change:>10}{'  SLOWER' if flagged else ''}")
    return 1 if any(row[3] for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
