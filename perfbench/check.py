"""Output checks: every answer against the reference for its pair.

In a run, answers must equal the set-up reference field for field
(``timings`` excluded -- they measure the host, not the model).  The
set-up references themselves, and the refine stage of two-stage answers,
are checked against ``expected.json``, the answers this benchmark
recorded when it was written: floats within a relative 1e-9, which lets
a last-place rounding difference between hosts through and nothing a
model change would produce.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path
from typing import Any, Dict, List

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

#: Relative tolerance against the recorded answers.
RELATIVE_TOLERANCE = 1e-9

#: Fields of a two-stage answer that describe its screening stage, and
#: the one-shot fields they must equal exactly.
SCREEN_FIELDS = {"screen_inverse_cv": "inverse_cv",
                 "screen_confidence": "confidence"}

#: Fields shared by the one-shot and two-stage answers that the refine
#: stage does not change.
FRAME_FIELDS = ("baseline", "candidate", "metric", "backend", "cores",
                "population_size", "true_population_size", "sampled",
                "draws", "sample_sizes", "fast_sampling", "training_runs")


def answer_fields(answer: Any) -> Dict[str, Any]:
    """An estimate's fields as plain data, ``timings`` excluded."""
    fields = dataclasses.asdict(answer)
    fields.pop("timings")
    return json.loads(json.dumps(fields))


def mismatches(answer: Dict[str, Any], reference: Dict[str, Any],
               tolerance: float = 0.0) -> List[str]:
    """Names of the fields where ``answer`` differs from ``reference``.

    ``tolerance`` is relative and applies to floats only; 0 demands
    equality.  A field missing on either side is a mismatch.
    """
    return [name for name in sorted(set(answer) | set(reference))
            if name not in answer or name not in reference
            or not _equal(answer[name], reference[name], tolerance)]


def _equal(a: Any, b: Any, tolerance: float) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return not mismatches(a, b, tolerance)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(
            _equal(x, y, tolerance) for x, y in zip(a, b))
    if type(a) is float and type(b) is float:
        return math.isclose(a, b, rel_tol=tolerance, abs_tol=0.0)
    return type(a) is type(b) and a == b


def two_stage_mismatches(answer: Dict[str, Any], one_shot: Dict[str, Any],
                         expected: Dict[str, Any]) -> List[str]:
    """Check a two-stage answer.

    Its screening stage and frame must equal the run's one-shot
    reference exactly; everything else -- the refine stage
    (``refined``, ``sign_flips``, ``max_shift`` and the rest) and the
    spliced final estimate -- must match the recorded answer.
    """
    wrong = [field for field, reference in SCREEN_FIELDS.items()
             if not _equal(answer.get(field), one_shot[reference], 0.0)]
    wrong += [field for field in FRAME_FIELDS
              if not _equal(answer.get(field), one_shot[field], 0.0)]
    return wrong + mismatches(answer, expected, RELATIVE_TOLERANCE)


def pair_key(baseline: str, candidate: str) -> str:
    return f"{baseline}/{candidate}"


def load_expected() -> Dict[str, Dict[str, Dict[str, Any]]]:
    """``{"one_shot": {pair: fields},
    "two_stage": {refine budget: {pair: fields}}}``."""
    return json.loads(EXPECTED_PATH.read_text())
