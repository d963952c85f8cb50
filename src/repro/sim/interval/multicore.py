"""Multicore interval simulation (same semantics as the other two)."""

from __future__ import annotations

import time
from typing import List, Optional

from repro.bench.generator import DEFAULT_TRACE_LENGTH
from repro.core.workload import Workload
from repro.mem.uncore import Uncore, UncoreConfig, uncore_config_for_cores
from repro.sim.batch import EventDrivenBatchMixin
from repro.sim.detailed import WorkloadRun, _MeasuredThread
from repro.sim.interval.machine import IntervalMachine
from repro.sim.interval.profile import IntervalProfileBuilder


class IntervalSimulator(EventDrivenBatchMixin):
    """K interval machines sharing a real uncore.

    Interface-compatible with :class:`repro.sim.detailed.
    DetailedSimulator` and :class:`repro.sim.badco.BadcoSimulator`
    (run / reference_ipc / restart semantics), so campaigns and
    experiments can swap simulator families freely.  ``run_batch``
    (via :class:`~repro.sim.batch.EventDrivenBatchMixin`) stacks
    per-workload runs into the analytic backend's N x K panel
    contract.
    """

    name = "interval"

    def __init__(self, cores: int, policy: str = "LRU",
                 builder: Optional[IntervalProfileBuilder] = None,
                 trace_length: int = DEFAULT_TRACE_LENGTH,
                 warmup_fraction: float = 0.25, seed: int = 0,
                 uncore_config: Optional[UncoreConfig] = None) -> None:
        self.cores = cores
        self.policy = policy
        self.trace_length = trace_length
        self.warmup_fraction = warmup_fraction
        self.seed = seed
        self.builder = builder or IntervalProfileBuilder(trace_length, seed)
        if self.builder.trace_length != trace_length:
            raise ValueError("builder trace length does not match simulator")
        self.uncore_config = (uncore_config
                              or uncore_config_for_cores(cores, policy))
        if uncore_config is not None and uncore_config.policy != policy:
            self.uncore_config = uncore_config.with_policy(policy)

    def run(self, workload: Workload) -> WorkloadRun:
        if workload.k != self.cores:
            raise ValueError(
                f"workload has {workload.k} threads, machine has "
                f"{self.cores} cores")
        started = time.perf_counter()
        uncore = Uncore(self.uncore_config, seed=self.seed)
        machines: List[IntervalMachine] = []
        meters: List[_MeasuredThread] = []
        warmup = int(self.trace_length * self.warmup_fraction)
        for core_id, benchmark in enumerate(workload):
            profile = self.builder.build(benchmark)

            def access(address: int, now: int, is_write: bool, pc: int,
                       is_prefetch: bool = False,
                       _core_id: int = core_id) -> int:
                return uncore.access(_core_id, address, now, is_write, pc,
                                     is_prefetch)

            machines.append(IntervalMachine(core_id, profile, access))
            meters.append(_MeasuredThread(warmup, self.trace_length))

        self._interleave(machines, meters)
        total = sum(machine.executed for machine in machines)
        wall = time.perf_counter() - started
        return WorkloadRun(workload, [m.ipc() for m in meters], total, wall)

    @staticmethod
    def _interleave(machines: List[IntervalMachine],
                    meters: List[_MeasuredThread]) -> None:
        pending = len(machines)
        while pending:
            best = None
            best_time = None
            for machine, meter in zip(machines, meters):
                if meter.finished:
                    continue
                if best_time is None or machine.local_time < best_time:
                    best = machine
                    best_time = machine.local_time
            for machine, meter in zip(machines, meters):
                if meter.finished and machine.local_time < best_time:
                    if machine.done:
                        machine.restart()
                    machine.advance()
            if best.done:
                best.restart()
            best.advance()
            meter = meters[machines.index(best)]
            meter.observe(best.executed, best.local_time)
            pending = sum(1 for m in meters if not m.finished)

    def reference_ipc(self, benchmark: str) -> float:
        single = IntervalSimulator(
            cores=1, policy=self.policy, builder=self.builder,
            trace_length=self.trace_length,
            warmup_fraction=self.warmup_fraction, seed=self.seed,
            uncore_config=self.uncore_config.with_policy(self.policy))
        return single.run(Workload([benchmark])).ipcs[0]
