"""Summary statistics with the sample-count rules the benchmark keeps."""

from __future__ import annotations

import statistics
from typing import Optional, Sequence

#: A tail percentile is reported only when at least this many samples
#: lie beyond it (so p90 needs 100 samples).
TAIL_SAMPLES = 10


def tail_percentile(values: Sequence[float], percent: int
                    ) -> Optional[float]:
    """The ``percent``-th percentile, or None with too few samples.

    None unless at least :data:`TAIL_SAMPLES` samples lie beyond the
    percentile: ``len(values) * (100 - percent) / 100 >= 10``.
    """
    if len(values) * (100 - percent) < TAIL_SAMPLES * 100:
        return None
    return statistics.quantiles(values, n=100, method="inclusive")[
        percent - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartile, over the median."""
    first, median, third = statistics.quantiles(values, n=4)
    return (third - first) / median
