"""Batch entry points for the event-driven simulators.

The analytic backend scores a whole workload panel in one array call;
the event-driven ``badco`` and ``interval`` simulators advance one
Python event loop per workload.  This module gives them ``run_batch``:
the same N x K panel contract as :class:`repro.sim.analytic.BatchRun`,
built by running the per-workload loop over every row in order.

Every event-driven run is independent (fresh :class:`~repro.mem.uncore.
Uncore` per workload, fixed seeds, no cross-run state), so a batch is
bit-identical to its per-workload ``run`` calls and to any split of its
rows.  Parallelism lives in one place, the campaign engine
(:class:`repro.api.engine.Campaign`), which chunks grids over its
process pool and calls ``run_batch`` per chunk and policy.

:class:`EventDrivenBatchMixin` is mixed into
:class:`~repro.sim.badco.multicore.BadcoSimulator` and
:class:`~repro.sim.interval.multicore.IntervalSimulator`.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from repro.core.workload import Workload
from repro.sim.analytic import BatchRun


class EventDrivenBatchMixin:
    """``run_batch`` for simulators whose unit of work is one ``run``.

    Host classes must provide ``run(workload) -> WorkloadRun`` and
    ``cores`` (both event-driven simulators do).
    """

    def run_batch(self, workloads: Sequence[Workload]) -> BatchRun:
        """Simulate every workload in order; returns the N x K panel.

        Returns:
            A :class:`~repro.sim.analytic.BatchRun` whose
            ``wall_seconds`` sums the per-run simulation walls.
        """
        workloads = tuple(workloads)
        if not workloads:
            return BatchRun((), np.empty((0, self.cores)), 0, 0.0)
        return batch_from_runs(workloads,
                               [self.run(workload) for workload in workloads])


def batch_from_runs(workloads: Sequence[Workload],
                    runs: Sequence[Any]) -> BatchRun:
    """Stack per-workload :class:`WorkloadRun` results into a panel.

    The panel of ``run_batch`` and of the engine's ``run``-only adapter:
    row ``i`` is ``runs[i].ipcs``, bit for bit.
    """
    workloads = tuple(workloads)
    ipcs = np.array([run.ipcs for run in runs], dtype=np.float64)
    if not workloads:
        ipcs = ipcs.reshape(0, 0)
    return BatchRun(workloads, ipcs,
                    sum(run.instructions for run in runs),
                    sum(run.wall_seconds for run in runs))
