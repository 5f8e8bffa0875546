"""Run one benchmark workload and print its result as the last output line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload read-point --seed 1 --seconds 20 --trace 0

``--trace 0`` alternates three set-ups with serves, then serves alone until
``--seconds`` are spent, and reports the end-to-end metrics as medians; set-up
and serve times are paced, i.e. scaled to the host's uncontended CPU speed
(see :mod:`perfbench.pace`).
``--trace 1`` runs one untraced and one traced repetition and reports the
per-layer metrics, the tracing overhead among them.  Either way the full
result, stamped with the environment, is also written to
``.perfbench_out/`` (spans of a traced run as ``.npz``).

Exit status is 0 when a result was printed, 2 when the program could not be
imported or no repetition completed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from perfbench.pace import Pacer, Window

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"

#: End-to-end metrics every workload reports, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("io_per_op", "pages/op"),
    ("peak_rss_mb", "MB"),
)

#: Set-ups a measured run makes (``setup_s`` is their median); it also makes
#: at least as many serves, even when ``--seconds`` is shorter.
SETUP_REPS = 3


def _git_sha(root: Path) -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split(" ", 1)[0]
    return None


def _source_digest(root: Path) -> str:
    """SHA-256 over the program's sources (identifies a non-git checkout)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(args: argparse.Namespace, flush_policy: str) -> dict[str, object]:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
        "git_sha": _git_sha(ROOT),
        "src_sha256": _source_digest(ROOT),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "persistent_flush_policy": flush_policy,
        "timed_windows": "cyclic GC collected before and paused during each serve phase",
    }


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@contextmanager
def _gc_paused():
    """Collect, then keep the cyclic collector out of a timed window."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@dataclass
class Serve:
    """One timed serve and what it left behind."""

    #: Seconds as the clock read them, and scaled to uncontended speed.
    serve_s: float
    scaled_s: float
    served: object

    @property
    def ops_per_s(self) -> float:
        """Ops per second at uncontended speed."""
        return self.served.ops / self.scaled_s

    @property
    def unscaled_ops_per_s(self) -> float:
        return self.served.ops / self.serve_s

    @property
    def io_per_op(self) -> float:
        return sum(self.served.counters.values()) / self.served.ops


class Runner:
    """Set-ups and serves of one workload; failed serves are counted, not raised."""

    def __init__(self, workload, seed: int, pacer: Pacer) -> None:
        self.workload = workload
        self.seed = seed
        #: Paces every timed phase while it is active (``with pacer:``).
        self.pacer = pacer
        self.prepared = None
        self.fresh = False
        self.setups: list[Window] = []
        self.serves: list[Serve] = []
        self.attempted = 0
        self.failed = 0

    def setup(self, tracer=None) -> None:
        from perfbench.layers import instrumented, phase

        self.close()
        with instrumented(tracer), phase(tracer, "bench.setup"), self.pacer.window() as window:
            self.prepared = self.workload.prepare(self.seed)
        self.setups.append(window)
        self.fresh = True

    def serve(self, tracer=None) -> Serve | None:
        from perfbench.layers import instrumented, phase

        try:
            if not self.fresh:
                self.prepared.reset()
            self.fresh = False
            with (
                instrumented(tracer),
                _gc_paused(),
                phase(tracer, self.workload.serve_span),
                self.pacer.window() as window,
            ):
                result = self.workload.serve(self.prepared, self.pacer.net_clock)
            served = self.workload.finish(self.prepared, result)
        except Exception:
            traceback.print_exc()
            self.attempted += self.workload.num_ops
            self.failed += self.workload.num_ops
            return None
        serve_s = window.net_s if served.serve_s is None else served.serve_s
        record = Serve(serve_s, window.scaled(serve_s), served)
        self.attempted += served.checked
        self.failed += served.failed
        self.serves.append(record)
        return record

    def close(self) -> None:
        if self.prepared is not None:
            self.prepared.close()
            self.prepared = None

    @property
    def deterministic(self) -> bool:
        """Whether every serve of the seed charged exactly the same pages."""
        return len({tuple(s.served.counters.values()) for s in self.serves}) <= 1


def measured(runner: Runner, seconds: float) -> dict[str, float]:
    """Set up and serve in turn, then serve alone, until ``seconds`` are spent.

    Interleaving spreads both kinds of measurement over the whole window, so
    a slow spell of the host weighs on set-up and serve alike.
    """
    start = time.perf_counter()
    serves = 0
    with runner.pacer:
        while True:
            began = time.perf_counter()
            setup_s = 0.0
            if len(runner.setups) < SETUP_REPS:
                runner.setup()
                setup_s = runner.setups[-1].net_s
            runner.serve()
            serves += 1
            now = time.perf_counter()
            next_serve = now - began - setup_s
            if serves >= SETUP_REPS and now - start + next_serve > seconds:
                break
    if not runner.serves:
        raise RuntimeError("no serve completed")
    return {
        "setup_s": statistics.median(window.scaled() for window in runner.setups),
        "ops_per_s": statistics.median([s.ops_per_s for s in runner.serves]),
        "io_per_op": runner.serves[0].io_per_op,
        "peak_rss_mb": _peak_rss_mb(),
    }


def traced(runner: Runner, spans_path: Path) -> tuple[dict[str, float], list[str]]:
    from perfbench.layers import UNTRACED_EXTRAS, span_metrics
    from perfbench.suite import COUNTERS
    from perfbench.tracer import Tracer, check_nesting

    runner.setup()
    plain = runner.serve()
    tracer = Tracer()
    runner.setup(tracer)
    with_spans = runner.serve(tracer)
    if plain is None or with_spans is None:
        raise RuntimeError("a serve of the traced run failed")
    spans = tracer.arrays()
    problems = check_nesting(spans)
    tracer.save(spans_path)
    metrics = span_metrics(tracer.names, spans)
    served = plain.served
    for name in UNTRACED_EXTRAS:
        metrics[name] = served.extras.get(name, 0.0)
    for name in COUNTERS:
        metrics[f"storage.disk.{name}_per_op"] = served.counters[name] / served.ops
    writes = sum(served.counters[name] for name in COUNTERS if name.endswith("writes"))
    entries_per_page = runner.prepared.system.entries_per_page
    metrics["storage.write_amp"] = writes * entries_per_page / served.puts if served.puts else 0.0
    metrics["storage.space_amp"] = served.resident_entries / served.live_keys
    metrics["trace.untraced_ops_per_s"] = plain.unscaled_ops_per_s
    metrics["trace.traced_ops_per_s"] = with_spans.unscaled_ops_per_s
    metrics["trace.overhead_pct"] = (with_spans.serve_s / plain.serve_s - 1.0) * 100.0
    return metrics, problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # The program under test is imported from this checkout's sources.
    sys.path[:1] = [str(ROOT / "src"), str(ROOT)]
    try:
        from perfbench.layers import MOVES, PER_LAYER
        from perfbench.pace import Pacer
        from perfbench.suite import FLUSH_POLICY, build
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    workloads = build(OUT / "tmp")
    if args.workload not in workloads:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads)}")

    stamp = environment(args, FLUSH_POLICY)
    print("# env " + json.dumps(stamp), flush=True)
    runner = Runner(workloads[args.workload], args.seed, Pacer())
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            values, problems = traced(runner, stem.with_suffix(".spans.npz"))
            wanted = PER_LAYER
        else:
            values, problems = measured(runner, args.seconds), []
            wanted = END_TO_END
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        runner.close()
    for problem in problems:
        print(f"perfbench: span tree: {problem}", file=sys.stderr)
    if not runner.deterministic:
        print("perfbench: serves of one seed charged different pages", file=sys.stderr)
    correct = runner.failed == 0 and runner.deterministic and not problems
    metrics = {name: {"value": float(values[name]), "unit": unit} for name, unit in wanted}
    result = {
        "correct": correct,
        "attempted": int(runner.attempted),
        "failed": int(runner.failed),
        "metrics": metrics,
    }
    detail = {
        "env": stamp,
        "result": result,
        "failed_share": runner.failed / runner.attempted,
        "setups": [
            {"setup_s": w.scaled(), "unscaled_s": w.net_s, "slowdown": w.slowdown}
            for w in runner.setups
        ],
        "serves": [
            {
                "serve_s": s.scaled_s,
                "unscaled_s": s.serve_s,
                "ops": s.served.ops,
                "ops_per_s": s.ops_per_s,
                "unscaled_ops_per_s": s.unscaled_ops_per_s,
                "io_per_op": s.io_per_op,
                "counters": s.served.counters,
                "checked": s.served.checked,
                "failed": s.served.failed,
                "extras": s.served.extras,
            }
            for s in runner.serves
        ],
    }
    if args.trace:
        detail["moves"] = MOVES
    stem.with_suffix(".json").write_text(json.dumps(detail, indent=2))
    print(
        f"# {args.workload} seed={args.seed} setups={len(runner.setups)} "
        f"serves={len(runner.serves)} failed_share={detail['failed_share']:.6g} "
        + " ".join(f"{name}={m['value']:.6g} {m['unit']}" for name, m in metrics.items())
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
