"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload served --seed 1 --seconds 15 \\
        --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` spends the first half of the run untraced and the second
half with span wrappers around each layer's public calls, both halves
cycling through the same half of the pairs, and reports the per-layer
metrics plus the overhead ratio between the halves.  A run measures
whole cycles through its pairs, so it can overrun ``--seconds`` by up
to one cycle.  The
last line of standard output is the result object; the lines before it
describe the host, the per-pair inputs and the run in detail.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

#: ``setup_s`` counts from here.
STARTED = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"


def _fail(message: str, code: int) -> "SystemExit":
    print(f"perfbench: {message}", file=sys.stderr)
    return SystemExit(code)


def _git_commit() -> str:
    """The checked-out commit, read from ``.git`` (no git process)."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            return (ROOT / ".git" / text[5:]).read_text().strip()
        return text
    except OSError:
        return "unknown (not a git checkout)"


def host_context() -> dict:
    import numpy

    return {"cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "commit": _git_commit(),
            "loadavg_1min_start": os.getloadavg()[0]}


def end_to_end(requests, window, setup_s: float) -> dict:
    from perfbench.stats import tail_percentile

    latencies = [r.latency for r in requests]
    return {
        "estimate_p50_s": (statistics.median(latencies), "s"),
        "estimate_p90_s": (tail_percentile(latencies, 90), "s"),
        "estimates_per_s": (len(requests) / window.wall, "1/s"),
        "cpu_s_per_estimate": (window.cpu / len(requests), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
        "setup_s": (setup_s, "s"),
        "failed_ratio": (sum(not r.ok for r in requests) / len(requests),
                         "ratio"),
    }


def main(argv=None) -> int:
    sys.path.insert(0, str(ROOT))
    from perfbench.layers import measure_layers
    from perfbench.workloads import WORKLOADS, Context, SetupError

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise _fail(f"no program source under {SOURCE}", 2)
    sys.path.insert(0, str(SOURCE))
    for name in list(os.environ):       # no user overrides of the model
        if name.startswith("REPRO_"):
            del os.environ[name]

    host = host_context()
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = None
    try:
        context = Context(work, args.seed)
        try:
            context.set_up()
            workload = WORKLOADS[args.workload](context)
            workload.prepare()
        except SetupError as error:
            raise _fail(f"set-up failed: {error}", 1) from error
        setup_s = time.perf_counter() - STARTED
        if args.trace:      # half the pairs, so both halves fit the run
            requests, metrics = measure_layers(
                workload, args.seconds,
                context.order[:len(context.order) // 2])
        else:
            requests, window = workload.measure(args.seconds, context.order)
            metrics = end_to_end(requests, window, setup_s)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):   # other runs may share it
            work.parent.rmdir()
    host["loadavg_1min_end"] = os.getloadavg()[0]
    failed = sum(not r.ok for r in requests)

    print(json.dumps({"host": host}))
    print(json.dumps({"pairs": context.audit}))
    for name, (value, unit) in metrics.items():
        shown = ("not reported (fewer than 100 requests)"
                 if value is None else f"{value:.6g} {unit}")
        print(f"  {name:30s} {shown}")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = [m["name"] for m in
                benchmark["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({
        "correct": failed == 0, "attempted": len(requests),
        "failed": failed,
        "metrics": {name: {"value": metrics[name][0],
                           "unit": metrics[name][1]}
                    for name in reported}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
