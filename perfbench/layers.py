"""The layers the traced run times, and how requests are scored by layer.

Each :class:`~perfbench.spans.Hook` names one public call of the
program; the span it opens is the layer's boundary.  Counts (rows,
loads, bytes, draws) are read from the call's arguments and result,
inside the span.
"""

from __future__ import annotations

import statistics
from typing import Any, Dict, List, Optional, Sequence

from perfbench.spans import (
    Hook,
    Request,
    Span,
    Tracer,
    installed,
    request_spans,
    snapshot,
    unchanged,
)

#: Per-layer metrics: name -> unit, in report order.  Times are the
#: layer's mean self time per request; counts are means per request.
PER_LAYER = {
    "population.build_s": "s",
    "modelstore.load_s": "s",
    "modelstore.loads": "count",
    "builder.training_runs": "count",
    "engine.run_grid_s": "s",
    "engine.reference_ipcs_s": "s",
    "analytic.run_batch_grid_s": "s",
    "analytic.rows": "count",
    "results.save_s": "s",
    "results.bytes_written": "bytes",
    "results.load_s": "s",
    "results.loads": "count",
    "results.columnar_panel_s": "s",
    "delta.column_s": "s",
    "workload_strata.layout_s": "s",
    "workload_strata.num_strata": "count",
    "estimator.curve_s": "s",
    "estimator.draws": "count",
    "badco.run_batch_s": "s",
    "badco.rows": "count",
    "badco.mips": "MIPS",
    "serve.server_estimate_s": "s",
    "serve.protocol_s": "s",
    "serve.wait_s": "s",
    "serve.dispatch_groups": "count",
    "serve.coalesced": "count",
    "serve.panel_cache_hit_ratio": "ratio",
    "unattributed_s": "s",
    "trace_overhead_ratio": "ratio",
}

#: Per-layer metrics measured over the traced window as a whole, not
#: per request: daemon counters (deltas per request) and the overhead.
WINDOW_METRICS = ("serve.dispatch_groups", "serve.coalesced",
                  "serve.panel_cache_hit_ratio", "trace_overhead_ratio")

#: The span of ``Session.estimate_full_scale``.  On a daemon thread it
#: is the ``serve.server_estimate`` layer; on the caller's own thread
#: (one-shot requests) it is the request itself and stays unattributed.
SESSION_ESTIMATE = "session.estimate"
SERVER_ESTIMATE = "serve.server_estimate"
PROTOCOL = "serve.protocol"


def _pair(value: Any) -> Optional[tuple]:
    """The (baseline, candidate) an estimate, wire dict or frame names."""
    if isinstance(value, dict):
        for key in ("params", "result"):
            inner = value.get(key)
            if isinstance(inner, dict):
                value = inner
                break
        if "baseline" in value and "candidate" in value:
            return (value["baseline"], value["candidate"])
        return None
    baseline = getattr(value, "baseline", None)
    candidate = getattr(value, "candidate", None)
    if baseline is None or candidate is None:
        return None
    return (baseline, candidate)


def _tag(span: Span, args, kwargs, result, state) -> None:
    span.tag = _pair(result) or (_pair(args[0]) if args else None)


def _count(name: str):
    def after(span: Span, args, kwargs, result, state) -> None:
        span.counts[name] = 1
    return after


def _grid_rows(span: Span, args, kwargs, result, state) -> None:
    span.counts["analytic.rows"] = len(result.workloads) * len(
        result.policies)


def _badco_rows(span: Span, args, kwargs, result, state) -> None:
    span.counts["badco.rows"] = len(result.workloads)
    span.counts["badco.instructions"] = result.instructions


def _strata(span: Span, args, kwargs, result, state) -> None:
    span.counts["workload_strata.num_strata"] = result.num_strata


def _draws(span: Span, args, kwargs, result, state) -> None:
    sizes = args[2] if len(args) > 2 else kwargs["sample_sizes"]
    span.counts["estimator.draws"] = args[0].draws * len(sizes)


def _campaign_files(args, kwargs):
    """``(mtime_ns, size)`` of a campaign's JSON and npz cache files."""
    config = args[0].config
    stats = {}
    for path in (config.cache_path, config.cache_npz_path):
        if path is not None and path.exists():
            stat = path.stat()
            stats[path] = (stat.st_mtime_ns, stat.st_size)
    return stats


def _bytes_written(span: Span, args, kwargs, result, state) -> None:
    after = _campaign_files(args, kwargs)
    span.counts["results.bytes_written"] = sum(
        size for path, (mtime, size) in after.items()
        if state.get(path) != (mtime, size))


def default_hooks() -> List[Hook]:
    """Every layer boundary the traced run wraps."""
    from repro.api.engine import Campaign
    from repro.api.session import Session
    from repro.core import columnar, delta
    from repro.core.estimator import ConfidenceEstimator
    from repro.core.sampling.workload_strata import WorkloadStratification
    from repro.serve import protocol
    from repro.sim.analytic import AnalyticSimulator
    from repro.sim.badco.multicore import BadcoSimulator
    from repro.sim.modelstore import ModelStore
    from repro.sim.results import PopulationResults

    loaded = _count("modelstore.loads")
    results_loaded = _count("results.loads")
    return [
        Hook(Session, "population", "population.build"),
        Hook(Session, "estimate_full_scale", SESSION_ESTIMATE, _tag),
        Hook(ModelStore, "load_badco_model", "modelstore.load", loaded),
        Hook(ModelStore, "load_record", "modelstore.load", loaded),
        Hook(Campaign, "run_grid", "engine.run_grid"),
        Hook(Campaign, "reference_ipcs", "engine.reference_ipcs"),
        Hook(Campaign, "save", "results.save", _bytes_written,
             _campaign_files),
        Hook(AnalyticSimulator, "run_batch_grid", "analytic.run_batch_grid",
             _grid_rows),
        Hook(BadcoSimulator, "run_batch", "badco.run_batch", _badco_rows),
        Hook(PopulationResults, "load_npz", "results.load", results_loaded),
        Hook(PopulationResults, "load", "results.load", results_loaded),
        Hook(PopulationResults, "columnar_panel", "results.columnar_panel"),
        Hook(columnar, "delta_column_from_matrices", "delta.column"),
        Hook(delta, "delta_statistics", "delta.column"),
        Hook(WorkloadStratification, "from_column", "workload_strata.layout",
             _strata),
        Hook(ConfidenceEstimator, "curve", "estimator.curve", _draws),
        Hook(protocol, "encode", PROTOCOL, _tag),
        Hook(protocol, "decode_line", PROTOCOL, _tag),
        Hook(protocol, "estimate_to_wire", PROTOCOL, _tag),
        Hook(protocol, "estimate_from_wire", PROTOCOL, _tag),
    ]


def request_layers(request: Request, spans: Sequence[Span]
                   ) -> Dict[str, float]:
    """One request's self time per layer, and its counts."""
    values: Dict[str, float] = {}
    attributed = 0.0
    server_inclusive = 0.0
    for span in request_spans(request, spans):
        name = span.name
        if name == SESSION_ESTIMATE:
            if span.thread == request.thread:
                continue            # the one-shot request itself
            name = SERVER_ESTIMATE
            server_inclusive += span.duration
        values[name + "_s"] = values.get(name + "_s", 0.0) + span.self_time
        attributed += span.self_time
        for counter, amount in span.counts.items():
            values[counter] = values.get(counter, 0.0) + amount
    values["unattributed_s"] = request.latency - attributed
    if server_inclusive:
        values["serve.wait_s"] = (request.latency - server_inclusive
                                  - values.get(PROTOCOL + "_s", 0.0))
    badco_seconds = values.get("badco.run_batch_s", 0.0)
    if badco_seconds:
        values["badco.mips"] = (values.pop("badco.instructions")
                                / badco_seconds / 1e6)
    values.pop("badco.instructions", None)
    values["builder.training_runs"] = request.training_runs
    return values


def layer_metrics(requests: Sequence[Request], spans: Sequence[Span]
                  ) -> Dict[str, float]:
    """Mean per request of every per-request layer metric.

    Means, not medians: a layer that works on a minority of requests
    (the one-shot misses) would read 0 at the median, and the mean self
    times plus ``unattributed_s`` add up to the mean latency.  A layer
    idle on a workload reports 0 there.
    """
    per_request = [request_layers(r, spans) for r in requests]
    return {name: statistics.fmean([values.get(name, 0.0)
                                    for values in per_request])
            for name in PER_LAYER if name not in WINDOW_METRICS}


def measure_layers(workload, seconds: float, pairs: Sequence[tuple]):
    """Run a workload untraced, then traced; its per-layer metrics.

    The first half of ``seconds`` runs with nothing wrapped (checked:
    every hooked attribute must be the very object it was before), the
    second half with every hook wrapped; both halves cycle through the
    same ``pairs``.  Returns the requests of both halves and
    ``{metric: (value, unit)}`` for every per-layer metric;
    ``trace_overhead_ratio`` is the traced median latency over the
    untraced one.
    """
    hooks = default_hooks()
    before = snapshot(hooks)
    plain, _ = workload.measure(seconds / 2, pairs)
    if not unchanged(hooks, before):
        raise RuntimeError("an untraced phase ran with wrappers installed")
    counters = workload.daemon_counters() or {}
    tracer = Tracer()
    with installed(hooks, tracer):
        traced, _ = workload.measure(seconds / 2, pairs)
    if not unchanged(hooks, before):
        raise RuntimeError("span wrappers were not removed")
    metrics = layer_metrics(traced, tracer.spans)
    after = workload.daemon_counters() or {}
    delta = {name: after[name] - counters[name] for name in after}
    lookups = delta.get("hits", 0) + delta.get("misses", 0)
    metrics["serve.dispatch_groups"] = (delta.get("dispatch_groups", 0)
                                        / len(traced))
    metrics["serve.coalesced"] = delta.get("coalesced", 0) / len(traced)
    metrics["serve.panel_cache_hit_ratio"] = (
        delta["hits"] / lookups if lookups else 0.0)
    metrics["trace_overhead_ratio"] = (
        statistics.median(r.latency for r in traced)
        / statistics.median(r.latency for r in plain))
    return plain + traced, {name: (metrics[name], unit)
                            for name, unit in PER_LAYER.items()}
