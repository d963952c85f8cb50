"""The campaign engine: (workload x policy) grids, serial or parallel.

:class:`Campaign` is the execution layer behind the public API.  It
runs one simulator backend over a grid of workloads and policies,
memoising per-(policy, workload) results in memory and optionally on
disk, and accumulating the wall-clock / MIPS accounting behind the
paper's Table III and the Section VII-A overhead example.

:meth:`Campaign.run_grid` has one route for every backend and every
``jobs`` value:

1. *Plan.*  :meth:`Campaign._pending_blocks` groups the pending rows by
   the tuple of policies that still need them: (rows x policies)
   blocks, widest first.  A fresh or uniformly cached grid is one
   block.
2. *Chunk.*  Each block splits into at most ``jobs`` contiguous row
   chunks.
3. *Score.*  :func:`_score_chunk` adapts the simulator's contract --
   ``run_batch_grid`` (analytic), else ``run_batch`` per policy (badco,
   interval), else ``run`` per workload (detailed and third-party
   backends) -- into one N x P x K :class:`~repro.sim.analytic.GridRun`.
4. *Pool.*  Chunks run in-process, or over one
   :class:`concurrent.futures.ProcessPoolExecutor` when ``jobs > 1``
   and there are several.  Each worker process constructs its own
   simulators from a builder trained in the parent before the fork.
5. *Record.*  Each chunk's per-policy panels stream into the results
   via :meth:`~repro.sim.results.PopulationResults.record_batch`, so
   every policy's chunks land in block and row order.

Rows are independent (fresh uncore, fixed seeds), so chunking never
changes a value: the results -- and their saved npz -- are
bit-identical for any ``jobs``.

Campaigns with a ``model_store_dir`` attach a persistent
:class:`~repro.sim.modelstore.ModelStore` to their builder: trained
BADCO node models and analytic calibrations are loaded from disk
instead of retrained, bit-identically, across processes and sessions.

Campaigns with a cache directory persist one ``.npz`` per cache key
(:attr:`~repro.api.config.CampaignConfig.cache_npz_path`), which
restores panels as matrices without a per-workload mapping rebuild.
A cache holding only the legacy JSON file
(:attr:`~repro.api.config.CampaignConfig.cache_path`) is imported once
and rewritten as npz on the next save; JSON is never written.  An
unreadable npz is logged and treated as a cache miss.
"""

from __future__ import annotations

import logging
import time
import zipfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from multiprocessing import get_context
from typing import (Any, Callable, Dict, Iterable, List, Optional, Sequence,
                    Tuple)

from repro.api.backends import SimulatorBackend, get_backend
from repro.api.config import CampaignConfig
from repro.core.workload import Workload
from repro.sim.results import PopulationResults

logger = logging.getLogger(__name__)

#: What reading an unreadable cache file raises, through both
#: :meth:`PopulationResults.load_npz` and ``ResidentPanelCache.load``
#: (and the legacy JSON import): a torn or foreign zip, a bad CRC or
#: npy header, a missing member, a truncated payload.
_UNREADABLE = (zipfile.BadZipFile, ValueError, KeyError, OSError, EOFError)

#: One planned block: request-ordered rows and the policies they need.
_Block = Tuple[List[Workload], Tuple[str, ...]]


@dataclass
class CampaignTiming:
    """Wall-clock accounting of a campaign (basis of Table III)."""

    simulations: int = 0
    instructions: int = 0
    wall_seconds: float = 0.0

    @property
    def mips(self) -> float:
        """Simulation speed in million instructions per second."""
        if self.wall_seconds <= 0:
            return 0.0
        return self.instructions / 1e6 / self.wall_seconds


def _score_chunk(make_simulator: Callable[[str], Any],
                 rows: Sequence[Workload], policies: Sequence[str]):
    """Score a (rows x policies) chunk through the simulator's contract.

    The one backend adapter, tried in order: ``run_batch_grid`` (one
    N x P x K call), else ``run_batch`` per policy, else the README's
    ``run`` per workload.  ``make_simulator`` builds the simulator of
    one policy.

    Returns:
        A :class:`~repro.sim.analytic.GridRun` over ``rows`` x
        ``policies``.
    """
    import numpy as np

    from repro.sim.analytic import GridRun
    from repro.sim.batch import batch_from_runs

    rows = tuple(rows)
    policies = tuple(policies)
    simulator = make_simulator(policies[0])
    if hasattr(simulator, "run_batch_grid"):
        return simulator.run_batch_grid(rows, policies)
    batches = []
    for number, policy in enumerate(policies):
        if number:
            simulator = make_simulator(policy)
        if hasattr(simulator, "run_batch"):
            batches.append(simulator.run_batch(rows))
        else:
            batches.append(batch_from_runs(
                rows, [simulator.run(workload) for workload in rows]))
    return GridRun(rows, policies,
                   np.stack([batch.ipcs for batch in batches], axis=1),
                   sum(batch.instructions for batch in batches),
                   sum(batch.wall_seconds for batch in batches))


# ----------------------------------------------------------------------
# Worker-process plumbing.  Each pool worker holds one backend, one
# config and one builder (trained in the parent before the fork);
# simulators are built per chunk (cheap) while the builder memoises
# per-benchmark training for the lifetime of the worker.

_WORKER_STATE: Dict[str, Any] = {}


def _worker_init(backend: SimulatorBackend, config: CampaignConfig,
                 builder: Optional[Any]) -> None:
    _WORKER_STATE["backend"] = backend
    _WORKER_STATE["config"] = config
    _WORKER_STATE["builder"] = builder


def _worker_make(policy: str):
    config: CampaignConfig = _WORKER_STATE["config"]
    return _WORKER_STATE["backend"].make_simulator(
        config.cores, policy, config.trace_length,
        config.warmup_fraction, config.seed,
        builder=_WORKER_STATE["builder"])


def _worker_score(task: Tuple[Tuple[str, ...], Tuple[str, ...]]):
    policies, keys = task
    grid = _score_chunk(_worker_make, [Workload.from_key(k) for k in keys],
                        policies)
    return grid.ipcs, grid.instructions, grid.wall_seconds


def _pool_context():
    """Fork where available (fast, inherits trained models), else spawn."""
    try:
        return get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX hosts
        return get_context("spawn")


# ----------------------------------------------------------------------


class Campaign:
    """Runs workloads under several policies on one simulator backend.

    Args:
        config: the campaign's identity and execution knobs.
        builder: shared model builder (for backends that use one);
            defaults to a fresh one from the backend, trained lazily.
        panel_cache: optional :class:`repro.serve.ResidentPanelCache`
            (duck-typed: ``load(path)`` and ``store(path, results)``).
            When set, cache loads go through it -- mmap'd, LRU'd and
            hit/miss counted -- and saves publish the live results back
            so repeat opens of the same npz skip the disk entirely.
            ``None`` (the default) keeps the one-shot eager-load path.
    """

    def __init__(self, config: CampaignConfig,
                 builder: Optional[Any] = None,
                 panel_cache: Optional[Any] = None) -> None:
        self.config = config
        self.backend = get_backend(config.backend)
        self.builder = (builder if builder is not None
                        else self.backend.make_builder(config.trace_length,
                                                       config.seed))
        if config.model_store_dir is not None:
            from repro.sim.modelstore import attach_store

            attach_store(self.builder, config.model_store_dir)
        self.timing = CampaignTiming()
        self.panel_cache = panel_cache
        self.results = PopulationResults(config.cores, config.backend)
        self._loaded_from_cache = False
        #: Set by every mutation of ``results``; cleared by ``save``.
        #: Lets the serve daemon call ``save`` after every query without
        #: re-serialising an unchanged 10^4-row panel each time.
        self._dirty = False
        if config.cache_dir is not None:
            self._try_load()

    # -- convenience views on the config -------------------------------

    @property
    def cores(self) -> int:
        return self.config.cores

    @property
    def trace_length(self) -> int:
        return self.config.trace_length

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def warmup_fraction(self) -> float:
        return self.config.warmup_fraction

    @property
    def cache_dir(self):
        return self.config.cache_dir

    # ------------------------------------------------------------------
    # Cache plumbing

    def _try_load(self) -> None:
        """Load the npz cache, or import a legacy JSON-only cache once.

        An unreadable file is logged and treated as a miss: the campaign
        starts empty and its next dirty save replaces the file.
        """
        npz = self.config.cache_npz_path
        legacy = self.config.cache_path
        path = npz if npz.exists() else legacy
        if not path.exists():
            return
        try:
            if path == legacy:
                self.results = PopulationResults.load(legacy)
                self._dirty = True       # the next save writes the npz
            elif self.panel_cache is not None:
                self.results = self.panel_cache.load(npz)
            else:
                self.results = PopulationResults.load_npz(npz)
        except _UNREADABLE as error:
            logger.warning("unreadable campaign cache %s (%s: %s); "
                           "treating it as a miss", path,
                           type(error).__name__, error)
            return
        self._loaded_from_cache = True

    def save(self) -> None:
        """Persist results to the cache key's ``.npz``.

        A no-op without a cache directory, and for a clean campaign
        (nothing recorded since the last save or cache load), so warm
        served queries never re-serialise an unchanged panel.

        Writers serialise on a per-cache-key :class:`repro.ioutil.
        FileLock` (``<cache_key>.lock``) so two processes filling the
        same cache entry can't interleave their read-modify-write cycles
        (atomic replaces already keep *readers* safe; mmap'd readers
        keep the replaced inode alive and simply see the pre-save
        snapshot).

        Lock ordering: the campaign-cache lock and the
        :class:`~repro.sim.modelstore.ModelStore` writer lock are never
        held together -- model training (store lock) completes while
        grids run, strictly before results persist (cache lock), and
        nothing under either lock acquires the other.  Any future code
        that needs both must take the store lock first, matching that
        existing order.
        """
        npz = self.config.cache_npz_path
        if npz is None or (not self._dirty and npz.exists()):
            return
        from repro.ioutil import FileLock

        with FileLock(npz.parent / f"{self.config.cache_key}.lock"):
            npz.parent.mkdir(parents=True, exist_ok=True)
            self.results.save_npz(npz)
        self._dirty = False
        if self.panel_cache is not None:
            # Publish the live object under the fresh file identity so
            # the next open of this npz is a cache hit, not a re-mmap.
            self.panel_cache.store(npz, self.results)

    # ------------------------------------------------------------------
    # Simulation

    def _make_simulator(self, policy: str):
        return self.backend.make_simulator(
            self.config.cores, policy, self.config.trace_length,
            self.config.warmup_fraction, self.config.seed,
            builder=self.builder)

    def run_workload(self, workload: Workload, policy: str) -> List[float]:
        """Per-core IPCs of one (workload, policy): a one-cell grid."""
        self.run_grid([workload], [policy])
        return self.results.ipcs(policy, workload)

    def run_grid(self, workloads: Iterable[Workload],
                 policies: Sequence[str]) -> PopulationResults:
        """Simulate every pending (workload, policy) cell.

        Plans the pending cells into blocks, splits each block into at
        most ``jobs`` row chunks, scores them in-process or over one
        process pool, and records them in a fixed order (see module
        docstring), so the results are the same for any ``jobs``.

        Returns:
            The campaign's results, now covering the whole grid.
        """
        chunks = []
        for rows, block_policies in self._pending_blocks(workloads,
                                                         policies):
            step = -(-len(rows) // self.config.jobs)
            chunks.extend((rows[start:start + step], block_policies)
                          for start in range(0, len(rows), step))
        if self.config.jobs > 1 and len(chunks) > 1:
            grids = self._score_pool(chunks)
        else:
            grids = [_score_chunk(self._make_simulator, rows, chunk_policies)
                     for rows, chunk_policies in chunks]
        # Chunks come block by block, each block in row order, so every
        # policy's panel blocks are recorded in the same order -- and
        # saved as the same npz bytes -- for any ``jobs``.
        for grid in grids:
            for number, policy in enumerate(grid.policies):
                self.results.record_batch(policy, grid.workloads,
                                          grid.ipcs[:, number, :])
            self.timing.simulations += len(grid.workloads) * len(
                grid.policies)
            self.timing.instructions += grid.instructions
            self.timing.wall_seconds += grid.wall_seconds
            self._dirty = True
        return self.results

    def _pending_blocks(self, workloads: Iterable[Workload],
                        policies: Sequence[str]) -> List[_Block]:
        """Plan the pending cells as (rows x policies) blocks.

        Rows are grouped by the tuple of policies that still need them.
        Blocks covering more policies come first, ties by first row
        position; within a block, rows and policies keep request order
        and duplicates collapse.  Reads the results, simulates nothing.
        """
        workloads = list(workloads)
        has = self.results.has
        needs: Dict[Workload, List[str]] = {}
        for policy in dict.fromkeys(policies):
            for workload in dict.fromkeys(
                    w for w in workloads if not has(policy, w)):
                needs.setdefault(workload, []).append(policy)
        if not needs:
            return []
        blocks: Dict[Tuple[str, ...], List[Workload]] = {}
        for workload in workloads:
            needed = needs.pop(workload, None)
            if needed:
                blocks.setdefault(tuple(needed), []).append(workload)
        return sorted(((rows, needed) for needed, rows in blocks.items()),
                      key=lambda block: -len(block[1]))

    def _score_pool(self, chunks: Sequence[_Block]) -> List[Any]:
        """Score chunks over a process pool, returned in chunk order."""
        from repro.sim.analytic import GridRun

        self._prepare_builder(
            sorted({name for rows, _ in chunks
                    for workload in rows for name in workload}),
            list(dict.fromkeys(policy for _, policies in chunks
                               for policy in policies)))
        tasks = [(policies, tuple(w.key() for w in rows))
                 for rows, policies in chunks]
        with ProcessPoolExecutor(
                max_workers=min(self.config.jobs, len(tasks)),
                mp_context=_pool_context(),
                initializer=_worker_init,
                initargs=(self.backend, self.config, self.builder)) as pool:
            scored = list(pool.map(_worker_score, tasks))
        return [GridRun(tuple(rows), policies, ipcs, instructions, wall)
                for (rows, policies), (ipcs, instructions, wall)
                in zip(chunks, scored)]

    def _prepare_builder(self, benchmarks: Sequence[str],
                         policies: Sequence[str]) -> None:
        """Train (and, where supported, calibrate) in the parent process.

        Called before forking pool workers so they inherit the
        expensive state instead of re-deriving it per process.
        """
        if self.builder is None:
            return
        if hasattr(self.builder, "prepare"):
            self.builder.prepare(benchmarks, policies, self.config.cores,
                                 self.config.warmup_fraction)
        elif hasattr(self.builder, "build"):
            for benchmark in benchmarks:
                self.builder.build(benchmark)

    def reference_ipcs(self, benchmarks: Iterable[str],
                       policy: str = "LRU") -> Dict[str, float]:
        """Single-thread reference IPCs (memoised in the results)."""
        for benchmark in benchmarks:
            if benchmark not in self.results.reference:
                started = time.perf_counter()
                ipc = self._make_simulator(policy).reference_ipc(benchmark)
                self.timing.simulations += 1
                self.timing.instructions += self.config.trace_length
                self.timing.wall_seconds += time.perf_counter() - started
                self.results.record_reference(benchmark, ipc)
                self._dirty = True
        return dict(self.results.reference)

    def __repr__(self) -> str:
        return (f"Campaign({self.config.backend!r}, cores={self.cores}, "
                f"length={self.trace_length}, jobs={self.config.jobs}, "
                f"entries={len(self.results)})")
