"""Run workloads over several seeds and summarise each metric.

Usage, from the repository root::

    python3 perfbench/repeat.py --runs 10            # the gated workloads
    python3 perfbench/repeat.py --runs 1 --workload served --trace 1
    python3 perfbench/repeat.py --runs 1 --workload oneshot \\
        --workload served --workload two-stage

Each run is a fresh ``perfbench/run.py`` process with its own seed
(``--first-seed``, the next, ...).  By default it runs the workloads in
``BENCHMARK.json``; ``--workload`` also takes ``two-stage``, which the
benchmark keeps but does not gate.  For every metric the summary prints
its unit, the median over the runs and the quartile spread: the
distance between the first and third quartile as a share of the
median, which the bounds in ``BENCHMARK.json`` are judged against.
With ``--runs 1`` it prints each run's own metric lines instead,
including the ones not in ``BENCHMARK.json``: the one command that
shows every metric of every workload by name and unit.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.stats import quartile_spread  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> str:
    """One fresh ``run.py`` process; its standard output."""
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False)
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n"
                         f"{completed.stderr}")
    return completed.stdout


def main(argv=None) -> int:
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in benchmark["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int,
                        default=benchmark["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in args.workload or names:
        outputs = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in range(args.first_seed,
                                     args.first_seed + args.runs)]
        results = [json.loads(out.strip().splitlines()[-1])
                   for out in outputs]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print(f"{workload}: {args.runs} runs, {attempted} requests, "
              f"failed_ratio {failed / attempted:g}, correct "
              f"{all(r['correct'] for r in results)}")
        if args.runs == 1:      # the run's own lines: every metric
            print("\n".join(line for line in outputs[0].splitlines()
                            if line.startswith("  ")))
            continue
        for name, metric in results[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            spread = (f"{quartile_spread(values):8.4f}"
                      if median else "       -")
            print(f"  {name:30s} {metric['unit']:6s} median "
                  f"{median:12.6g}  spread {spread}  runs "
                  + " ".join(f"{v:.4g}" for v in values))
    return 0


if __name__ == "__main__":
    sys.exit(main())
