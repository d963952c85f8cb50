"""Pluggable simulator backends.

A *backend* wraps one simulator family behind a uniform factory
interface so campaigns, the CLI and the :class:`repro.api.Session`
facade can drive any of them by name.  The registry ships with the
repository's three families:

- ``detailed`` -- the slow ground truth (out-of-order cores);
- ``badco``    -- the paper's fast approximate simulator (two training
  runs per benchmark, per-node latency sensitivities);
- ``interval`` -- the cruder one-training-run interval model;
- ``analytic`` -- the array-evaluated BADCO variant: whole workload
  panels in a handful of NumPy calls (see :mod:`repro.sim.analytic`).

A simulator needs only ``run(workload) -> WorkloadRun`` and
``reference_ipc(benchmark) -> float``.  The campaign engine scores
grid chunks through the first contract the simulator offers (see
:func:`repro.api.engine._score_chunk`): ``run_batch_grid(workloads,
policies) -> GridRun`` (one N x P x K call, the analytic backend),
else ``run_batch(workloads) -> BatchRun`` per policy (badco,
interval), else ``run`` per workload (detailed).  Backends declare
nothing: the engine checks the simulator object itself.

Third-party simulators plug in without touching this package::

    from repro.api import SimulatorBackend, register_backend

    class SniperBackend:
        name = "sniper"
        def make_builder(self, trace_length, seed): ...
        def make_simulator(self, cores, policy, trace_length,
                           warmup_fraction, seed, builder=None): ...

    register_backend(SniperBackend())

Simulator classes are imported lazily inside the factory methods so
importing the registry stays cheap and free of import cycles.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Protocol, Tuple, runtime_checkable


@runtime_checkable
class SimulatorBackend(Protocol):
    """Factory interface one simulator family must implement.

    The simulator object returned by :meth:`make_simulator` must offer
    ``run(workload) -> WorkloadRun`` and
    ``reference_ipc(benchmark) -> float`` -- the contract shared by
    :class:`~repro.sim.detailed.DetailedSimulator`,
    :class:`~repro.sim.badco.BadcoSimulator` and
    :class:`~repro.sim.interval.IntervalSimulator`.

    Simulators may also offer ``run_batch`` and ``run_batch_grid``;
    the engine uses the widest contract available.
    """

    name: str

    def make_builder(self, trace_length: int, seed: int) -> Optional[Any]:
        """A shareable model builder, or None if the family needs none.

        Builders memoise per-benchmark training, so campaigns share one
        across simulators of the same (trace_length, seed).
        """

    def make_simulator(self, cores: int, policy: str, trace_length: int,
                       warmup_fraction: float = 0.25, seed: int = 0,
                       builder: Optional[Any] = None) -> Any:
        """Construct a ready-to-run simulator instance."""


class DetailedBackend:
    """The detailed out-of-order multicore simulator (no builder)."""

    name = "detailed"

    def make_builder(self, trace_length: int, seed: int) -> None:
        return None

    def make_simulator(self, cores: int, policy: str, trace_length: int,
                       warmup_fraction: float = 0.25, seed: int = 0,
                       builder: Optional[Any] = None) -> Any:
        from repro.sim.detailed import DetailedSimulator

        return DetailedSimulator(
            cores=cores, policy=policy, trace_length=trace_length,
            warmup_fraction=warmup_fraction, seed=seed)


class BadcoBackend:
    """The BADCO-style approximate simulator (shared model builder).

    :class:`~repro.sim.badco.multicore.BadcoSimulator` mixes in
    :class:`~repro.sim.batch.EventDrivenBatchMixin`, so the engine
    scores its grid chunks through ``run_batch`` per policy.
    """

    name = "badco"

    def make_builder(self, trace_length: int, seed: int) -> Any:
        from repro.sim.badco.model import BadcoModelBuilder

        return BadcoModelBuilder(trace_length, seed)

    def make_simulator(self, cores: int, policy: str, trace_length: int,
                       warmup_fraction: float = 0.25, seed: int = 0,
                       builder: Optional[Any] = None) -> Any:
        from repro.sim.badco.multicore import BadcoSimulator

        return BadcoSimulator(
            cores=cores, policy=policy,
            builder=builder or self.make_builder(trace_length, seed),
            trace_length=trace_length, warmup_fraction=warmup_fraction,
            seed=seed)


class IntervalBackend:
    """The one-training-run interval-model simulator.

    Like ``badco``, its simulator's ``run_batch`` comes from
    :class:`~repro.sim.batch.EventDrivenBatchMixin`.
    """

    name = "interval"

    def make_builder(self, trace_length: int, seed: int) -> Any:
        from repro.sim.interval.profile import IntervalProfileBuilder

        return IntervalProfileBuilder(trace_length, seed)

    def make_simulator(self, cores: int, policy: str, trace_length: int,
                       warmup_fraction: float = 0.25, seed: int = 0,
                       builder: Optional[Any] = None) -> Any:
        from repro.sim.interval.multicore import IntervalSimulator

        return IntervalSimulator(
            cores=cores, policy=policy,
            builder=builder or self.make_builder(trace_length, seed),
            trace_length=trace_length, warmup_fraction=warmup_fraction,
            seed=seed)


class AnalyticBackend:
    """The array-evaluated BADCO model (shared builder).

    Its simulator's ``run_batch_grid`` scores a whole grid chunk in one
    N x P x K array call.
    """

    name = "analytic"

    def make_builder(self, trace_length: int, seed: int) -> Any:
        from repro.sim.analytic import AnalyticModelBuilder

        return AnalyticModelBuilder(trace_length, seed)

    def make_simulator(self, cores: int, policy: str, trace_length: int,
                       warmup_fraction: float = 0.25, seed: int = 0,
                       builder: Optional[Any] = None) -> Any:
        from repro.sim.analytic import AnalyticSimulator

        return AnalyticSimulator(
            cores=cores, policy=policy,
            builder=builder or self.make_builder(trace_length, seed),
            trace_length=trace_length, warmup_fraction=warmup_fraction,
            seed=seed)


class UnknownBackendError(ValueError):
    """Raised for a backend name absent from :data:`BACKENDS`."""


#: Registry of simulator backends by name.
BACKENDS: Dict[str, SimulatorBackend] = {}


def register_backend(backend: SimulatorBackend, *,
                     replace: bool = False) -> SimulatorBackend:
    """Add a backend to :data:`BACKENDS` under ``backend.name``.

    Args:
        backend: the backend instance to register.
        replace: allow overwriting an existing registration.

    Returns:
        The backend, so the call composes as a decorator-ish one-liner.

    Raises:
        ValueError: if the name is empty or already taken (and
            ``replace`` is false).
    """
    name = getattr(backend, "name", "")
    if not name:
        raise ValueError("backend must have a non-empty name")
    if name in BACKENDS and not replace:
        raise ValueError(
            f"backend {name!r} is already registered; "
            f"pass replace=True to overwrite")
    BACKENDS[name] = backend
    return backend


def get_backend(name: str) -> SimulatorBackend:
    """Look up a backend by name.

    Raises:
        UnknownBackendError: naming the known backends, so callers
            (and CLI users) see what is available.
    """
    try:
        return BACKENDS[name]
    except KeyError:
        raise UnknownBackendError(
            f"unknown simulator backend {name!r}; "
            f"known backends: {', '.join(sorted(BACKENDS))}") from None


def backend_names() -> Tuple[str, ...]:
    """The registered backend names, sorted."""
    return tuple(sorted(BACKENDS))


register_backend(DetailedBackend())
register_backend(BadcoBackend())
register_backend(IntervalBackend())
register_backend(AnalyticBackend())
