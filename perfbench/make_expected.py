"""Record the answers the benchmark checks its set-up against.

Usage, from the repository root (about a minute)::

    python3 perfbench/make_expected.py

Writes ``perfbench/expected.json``: the one-shot answer of every pair
and its two-stage answer at each refine budget the workloads use,
``timings`` excluded.  Regenerate it only for a change
that is meant to alter the model's statistics; a performance change
must leave it untouched.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import check
    from perfbench.workloads import (ESTIMATE, ONESHOT_REFINE_BUDGET,
                                     PAIRS, REFINE_BUDGET, Context)

    work = ROOT / ".perfbench_work" / "expected"
    shutil.rmtree(work, ignore_errors=True)
    try:
        context = Context(work, seed=0)
        session = context.train()
        budgets = (ONESHOT_REFINE_BUDGET, REFINE_BUDGET)
        expected = {"one_shot": {},
                    "two_stage": {str(budget): {} for budget in budgets}}
        for pair in PAIRS:
            key = check.pair_key(*pair)
            expected["one_shot"][key] = check.answer_fields(
                session.estimate_full_scale(*pair, **ESTIMATE))
            for budget in budgets:
                expected["two_stage"][str(budget)][key] = (
                    check.answer_fields(context.two_stage(
                        pair, context.scratch_dir(), budget)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    check.EXPECTED_PATH.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
