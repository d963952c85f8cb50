"""Tests of the benchmark's own arithmetic and checks (no set-up run).

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import sys
import threading
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (ROOT / "src", ROOT):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

from perfbench import check, layers, spans, workloads  # noqa: E402
from perfbench.stats import quartile_spread, tail_percentile  # noqa: E402


# ----------------------------------------------------------------------
# The tail rule


def test_p90_needs_a_hundred_samples():
    assert tail_percentile([float(i) for i in range(99)], 90) is None
    values = [float(i) for i in range(1, 101)]
    assert tail_percentile(values, 90) == pytest.approx(90.1)
    assert tail_percentile(values[:20], 50) == pytest.approx(10.5)
    assert tail_percentile(values[:19], 50) is None


def test_quartile_spread_is_relative_to_the_median():
    assert quartile_spread([1.0, 1.0, 1.0, 1.0]) == 0.0
    assert quartile_spread([9.0, 10.0, 10.0, 11.0]) == pytest.approx(
        (10.75 - 9.25) / 10.0)


# ----------------------------------------------------------------------
# Self time of nested spans on two threads


class _Clock:
    """A settable stand-in for ``time.perf_counter``."""

    def __init__(self) -> None:
        self.now = 0.0

    def perf_counter(self) -> float:
        return self.now


def test_self_time_nests_per_thread(monkeypatch):
    clock = _Clock()
    monkeypatch.setattr(spans, "time", clock)
    tracer = spans.Tracer()
    steps = {name: threading.Event() for name in
             ("b_open", "b_closed")}
    found = {}

    def thread_b():
        steps["b_open"].wait(5)
        clock.now = 2.0
        server = tracer.open(layers.SESSION_ESTIMATE)
        clock.now = 3.0
        child = tracer.open("estimator.curve")
        clock.now = 6.0
        tracer.close(child)
        clock.now = 7.0
        server.tag = ("LRU", "DIP")
        tracer.close(server)
        stray = tracer.open(layers.PROTOCOL)     # no pair: not ours
        clock.now = 7.5
        tracer.close(stray)
        found["b"] = threading.get_ident()
        steps["b_closed"].set()

    worker = threading.Thread(target=thread_b)
    worker.start()
    clock.now = 1.0
    outer = tracer.open("results.load")
    steps["b_open"].set()
    steps["b_closed"].wait(5)
    clock.now = 8.0
    inner = tracer.open("delta.column")
    clock.now = 9.0
    tracer.close(inner)
    clock.now = 10.0
    tracer.close(outer)
    worker.join(5)
    assert not worker.is_alive()

    by_name = {(s.name, s.thread): s for s in tracer.spans}
    a = threading.get_ident()
    # Thread b's spans overlap the outer span in time but are not its
    # children: only the inner span on the same thread is subtracted.
    assert by_name[("results.load", a)].self_time == 9.0 - 1.0
    assert by_name[("delta.column", a)].root is outer
    assert by_name[(layers.SESSION_ESTIMATE, found["b"])].self_time == 2.0
    assert by_name[("estimator.curve", found["b"])].root.tag == (
        "LRU", "DIP")

    request = spans.Request(a, ("LRU", "DIP"), 0.5, 20.5)
    values = layers.request_layers(request, tracer.spans)
    assert values["results.load_s"] == 8.0
    assert values["delta.column_s"] == 1.0
    assert values["serve.server_estimate_s"] == 2.0
    assert values["estimator.curve_s"] == 3.0
    assert "serve.protocol_s" not in values         # b's stray span
    assert values["unattributed_s"] == pytest.approx(20.0 - 14.0)
    # wait = latency - inclusive server estimate - protocol
    assert values["serve.wait_s"] == pytest.approx(20.0 - 5.0)


def test_a_one_shot_estimate_span_is_the_request_itself():
    tracer = spans.Tracer()
    request = spans.Request(threading.get_ident(), ("LRU", "DIP"), 0.0, 0.0)
    request.start = spans.time.perf_counter()
    estimate = tracer.open(layers.SESSION_ESTIMATE)
    curve = tracer.open("estimator.curve")
    tracer.close(curve)
    tracer.close(estimate)
    request.end = spans.time.perf_counter()
    values = layers.request_layers(request, tracer.spans)
    assert "serve.server_estimate_s" not in values
    assert values["unattributed_s"] == pytest.approx(
        request.latency - curve.self_time)


# ----------------------------------------------------------------------
# The output check


def _estimate(**changes):
    from repro.api.session import FullScaleEstimate

    fields = dict(
        baseline="LRU", candidate="DIP", metric="IPCT", backend="analytic",
        cores=4, population_size=12650, true_population_size=12650,
        sampled=False, draws=1000, num_strata=8,
        inverse_cv=-0.338347589741425, sample_sizes=(10, 30, 100),
        confidence={"random": (0.1, 0.2, 0.3),
                    "workload-strata": (0.0, 0.0, 0.0)},
        timings={"panels": 0.5})
    fields.update(changes)
    return FullScaleEstimate(**fields)


def test_check_catches_a_perturbed_estimate():
    reference = check.answer_fields(_estimate())
    assert check.mismatches(check.answer_fields(
        _estimate(timings={"panels": 9.0})), reference) == []
    nudged = math.nextafter(-0.338347589741425, 0.0)
    assert check.mismatches(check.answer_fields(
        _estimate(inverse_cv=nudged)), reference) == ["inverse_cv"]
    perturbed = {"random": (0.1, 0.2, 0.301),
                 "workload-strata": (0.0, 0.0, 0.0)}
    assert check.mismatches(check.answer_fields(
        _estimate(confidence=perturbed)), reference) == ["confidence"]
    assert check.mismatches(check.answer_fields(
        _estimate(num_strata=7)), reference) == ["num_strata"]


def test_check_tolerance_applies_to_recorded_floats_only():
    reference = check.answer_fields(_estimate())
    close = check.answer_fields(_estimate(inverse_cv=-0.338347589741426))
    assert check.mismatches(close, reference, 1e-9) == []
    assert check.mismatches(close, reference) == ["inverse_cv"]
    far = check.answer_fields(_estimate(inverse_cv=-0.3384))
    assert check.mismatches(far, reference, 1e-9) == ["inverse_cv"]


def test_two_stage_check_covers_the_refine_stage():
    expected = check.load_expected()
    key = "LRU/DIP"
    one_shot = expected["one_shot"][key]
    recorded = expected["two_stage"]["10"][key]
    assert check.two_stage_mismatches(dict(recorded), one_shot,
                                      recorded) == []
    for field, value in (("sign_flips", recorded["sign_flips"] + 1),
                         ("refined", recorded["refined"] - 1),
                         ("max_shift", recorded["max_shift"] * 1.001)):
        answer = dict(recorded, **{field: value})
        assert check.two_stage_mismatches(answer, one_shot,
                                          recorded) == [field]
    # The screen must equal the one-shot reference exactly.
    answer = dict(recorded, screen_inverse_cv=math.nextafter(
        recorded["screen_inverse_cv"], 1.0))
    assert "screen_inverse_cv" in check.two_stage_mismatches(
        answer, one_shot, recorded)


def test_expected_answers_have_signal():
    expected = check.load_expected()
    assert len(expected["one_shot"]) == 10
    assert {budget: len(answers) for budget, answers
            in expected["two_stage"].items()} == {"4": 10, "10": 10}
    assert any(a["num_strata"] > 1 for a in expected["one_shot"].values())


# ----------------------------------------------------------------------
# A phase asks every pair equally often


def test_a_phase_runs_whole_cycles_of_the_pairs(tmp_path):
    class Counting(workloads.Workload):
        def group(self, pair, cache_dir):
            answer = types.SimpleNamespace(training_runs=0)
            return [(lambda: answer, lambda pair, answer: True)] * 3

    context = workloads.Context(tmp_path, seed=5)
    requests, window = Counting(context).measure(0.0, context.order)
    counts = collections.Counter(request.pair for request in requests)
    assert counts == {pair: 3 for pair in workloads.PAIRS}
    assert [r.pair for r in requests[::3]] == context.order
    assert all(r.ok for r in requests) and window.wall >= 0.0


# ----------------------------------------------------------------------
# The untraced run wraps nothing


class _FakeWorkload:
    """Calls one hooked function per request and watches the hooks."""

    def __init__(self, hooks):
        self.hooks = hooks
        self.seen = []

    def measure(self, seconds, pairs):
        import numpy as np
        from repro.core.delta import delta_statistics

        self.seen.append(spans.snapshot(self.hooks))
        request = spans.Request(threading.get_ident(), ("LRU", "DIP"),
                                spans.time.perf_counter(), 0.0)
        delta_statistics(np.array([1.0, 2.0, 3.0]))
        request.end = spans.time.perf_counter()
        return [request], None

    def daemon_counters(self):
        return None


def test_untraced_phase_installs_no_wrappers():
    hooks = layers.default_hooks()
    before = spans.snapshot(hooks)
    workload = _FakeWorkload(hooks)
    requests, metrics = layers.measure_layers(workload, 0.0,
                                              [("LRU", "DIP")])
    untraced, traced = workload.seen
    assert all(now is then for now, then in zip(untraced, before))
    assert all(now is not then for now, then in zip(traced, before))
    assert spans.unchanged(hooks, before)
    assert len(requests) == 2
    assert metrics["delta.column_s"][0] > 0.0
    assert set(metrics) == set(layers.PER_LAYER)


def test_restores_inherited_and_descriptor_attributes():
    from repro.core.sampling.workload_strata import WorkloadStratification
    from repro.sim.badco.multicore import BadcoSimulator

    hooks = layers.default_hooks()
    before = spans.snapshot(hooks)
    with pytest.raises(RuntimeError):
        with spans.installed(hooks, spans.Tracer()):
            assert "run_batch" in vars(BadcoSimulator)
            raise RuntimeError("unwinds mid-run")
    assert "run_batch" not in vars(BadcoSimulator)
    assert isinstance(vars(WorkloadStratification)["from_column"],
                      classmethod)
    assert spans.unchanged(hooks, before)


def test_benchmark_file_lists_every_metric():
    import json

    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in benchmark["per_layer"]] == list(
        layers.PER_LAYER)
    assert {m["name"]: m["unit"] for m in benchmark["per_layer"]} == \
        layers.PER_LAYER
    assert "setup_s" in {m["name"] for m in benchmark["end_to_end"]}
    assert dataclasses.is_dataclass(spans.Request)
