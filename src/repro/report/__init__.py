"""Result records, regression gating, and trend reports over the
bench trajectory (``repro report``).

The subsystem splits into four layers:

- :mod:`repro.report.records` -- the versioned run-record schema,
  typed load/validate of ``BENCH_*.json`` trajectories, and the
  :data:`RATIOS` table declaring every speedup ratio and its floor;
- :mod:`repro.report.aggregate` -- suite tables, geomean speedups,
  the :data:`THRESHOLDS` single source of truth, and
  :func:`diff_runs` (the regression gate);
- :mod:`repro.report.store` -- the append-only JSONL run-history
  store behind ``repro report record`` / ``trend``;
- :mod:`repro.report.render` -- deterministic text/JSON/CSV renderers.
"""

from repro.report.aggregate import (
    SPEEDUP_FLOORS,
    THRESHOLDS,
    TRAJECTORY_RECORDS,
    DiffEntry,
    DiffResult,
    FloorCheck,
    diff_runs,
    floors_for,
    geomean,
    geomean_speedups,
    hot_path_names,
    hot_path_records,
    suite_tables,
    threshold_for,
)
from repro.report.records import (
    RATIOS,
    SCHEMA_VERSION,
    BenchRun,
    MachineContext,
    ReportError,
    RunRecord,
    bench_run,
    bench_run_from_payload,
    load_bench,
    machine_context,
    save_bench,
    speedups,
    suite_of,
)
from repro.report.render import (
    FORMATS,
    format_table,
    render_diff,
    render_run,
    render_trend,
)
from repro.report.store import (
    DEFAULT_HISTORY,
    HistoryEntry,
    TrendPoint,
    append_run,
    load_history,
    trend_series,
)

__all__ = [
    "RATIOS",
    "SCHEMA_VERSION",
    "SPEEDUP_FLOORS",
    "THRESHOLDS",
    "TRAJECTORY_RECORDS",
    "DEFAULT_HISTORY",
    "FORMATS",
    "BenchRun",
    "DiffEntry",
    "DiffResult",
    "FloorCheck",
    "HistoryEntry",
    "MachineContext",
    "ReportError",
    "RunRecord",
    "TrendPoint",
    "append_run",
    "bench_run",
    "bench_run_from_payload",
    "diff_runs",
    "floors_for",
    "format_table",
    "geomean",
    "geomean_speedups",
    "hot_path_names",
    "hot_path_records",
    "load_bench",
    "load_history",
    "machine_context",
    "render_diff",
    "render_run",
    "render_trend",
    "save_bench",
    "speedups",
    "suite_of",
    "suite_tables",
    "threshold_for",
    "trend_series",
]
