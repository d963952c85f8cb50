"""The campaign engine's one route: plan, chunk, score, pool, record.

Every backend reaches its panels through the same route, so the
invariants are pinned per backend rather than per code path:

- the planner groups pending rows into (rows x policies) blocks, widest
  first, without simulating anything;
- the saved npz and ``to_json`` are byte-identical for ``jobs`` 1 and
  2, on fresh and on ragged caches, for every registered backend and
  for a third-party backend that implements only ``run``;
- the cache is one npz: a legacy JSON-only cache is imported once, and
  an unreadable npz is a logged cache miss that the next save repairs.
"""

import json
import logging
import zipfile

import pytest

from repro.api import (
    BACKENDS,
    Campaign,
    CampaignConfig,
    backend_names,
    register_backend,
)
from repro.core.population import WorkloadPopulation
from repro.serve import ResidentPanelCache
from repro.sim.detailed import WorkloadRun
from repro.sim.results import PopulationResults

from tests.conftest import TEST_TRACE_LENGTH

BENCHMARKS = ["povray", "gcc", "mcf"]
POLICIES = ["LRU", "DIP"]
#: C(4, 2) = 6 two-core workloads.
WORKLOADS = list(WorkloadPopulation(BENCHMARKS, 2))


def _config(backend="analytic", **fields):
    return CampaignConfig(backend=backend, cores=2,
                          trace_length=TEST_TRACE_LENGTH, **fields)


# ----------------------------------------------------------------------
# The planner


def test_planner_fresh_and_uniform_grids_are_one_block():
    campaign = Campaign(_config())
    duplicated = WORKLOADS + WORKLOADS[:2]
    assert campaign._pending_blocks(duplicated, POLICIES) == [
        (WORKLOADS, tuple(POLICIES))]
    campaign.run_grid(WORKLOADS[:2], POLICIES)
    assert campaign._pending_blocks(WORKLOADS, POLICIES) == [
        (WORKLOADS[2:], tuple(POLICIES))]
    campaign.run_grid(WORKLOADS, POLICIES)
    assert campaign._pending_blocks(WORKLOADS, POLICIES) == []


def test_planner_orders_blocks_by_width_then_first_row():
    campaign = Campaign(_config())
    campaign.run_grid(WORKLOADS[:2], ["LRU"])
    campaign.run_grid(WORKLOADS[2:4], ["DIP"])
    simulations = campaign.timing.simulations
    assert campaign._pending_blocks(WORKLOADS, POLICIES) == [
        (WORKLOADS[4:], ("LRU", "DIP")),
        (WORKLOADS[:2], ("DIP",)),
        (WORKLOADS[2:4], ("LRU",)),
    ]
    assert campaign.timing.simulations == simulations     # pure


# ----------------------------------------------------------------------
# jobs invariance, per backend


@pytest.mark.parametrize("scenario", ["fresh", "ragged"])
@pytest.mark.parametrize("backend", backend_names())
def test_saved_npz_and_json_are_jobs_invariant(tmp_path, backend, scenario):
    saved = {}
    for jobs in (1, 2):
        config = _config(backend, jobs=jobs, cache_dir=tmp_path / f"j{jobs}")
        campaign = Campaign(config)
        if scenario == "ragged":
            campaign.run_grid(WORKLOADS[:3], ["LRU"])
        campaign.run_grid(WORKLOADS, POLICIES)
        campaign.save()
        assert not config.cache_path.exists()        # npz only
        saved[jobs] = (config.cache_npz_path.read_bytes(),
                       campaign.results.to_json(),
                       campaign.timing.simulations)
    assert saved[1] == saved[2]
    assert saved[1][2] == len(WORKLOADS) * len(POLICIES)


class _RunOnlySimulator:
    """A third-party simulator with only the ``run`` contract."""

    def __init__(self, cores, policy):
        self.cores = cores
        self.policy = policy

    def run(self, workload):
        ipcs = [len(name) / (1.0 + len(self.policy)) + 0.125 * core
                for core, name in enumerate(workload)]
        return WorkloadRun(workload, ipcs, 1000 * workload.k, 0.001)

    def reference_ipc(self, benchmark):
        return len(benchmark) / 10.0


class _RunOnlyBackend:
    name = "test-run-only"

    def make_builder(self, trace_length, seed):
        return None

    def make_simulator(self, cores, policy, trace_length,
                       warmup_fraction=0.25, seed=0, builder=None):
        return _RunOnlySimulator(cores, policy)


@pytest.fixture
def run_only_backend():
    backend = register_backend(_RunOnlyBackend())
    yield backend.name
    BACKENDS.pop(backend.name)


def test_run_only_backend_runs_grids_at_any_jobs(run_only_backend):
    outputs = []
    for jobs in (1, 2):
        campaign = Campaign(_config(run_only_backend, jobs=jobs))
        results = campaign.run_grid(WORKLOADS, POLICIES)
        for policy in POLICIES:
            for workload in WORKLOADS:
                assert results.ipcs(policy, workload) == \
                    _RunOnlySimulator(2, policy).run(workload).ipcs
        assert campaign.timing.simulations == len(WORKLOADS) * len(POLICIES)
        outputs.append(results.to_json())
    assert outputs[0] == outputs[1]


# ----------------------------------------------------------------------
# One panel format on disk


def test_legacy_json_cache_is_imported_once(tmp_path, monkeypatch):
    config = _config(cache_dir=tmp_path)
    fresh = Campaign(config.replace(cache_dir=None))
    fresh.run_grid(WORKLOADS, POLICIES)
    fresh.reference_ipcs(BENCHMARKS)
    expected = json.loads(fresh.results.to_json())
    # The cache file of an older release: JSON only, no npz.
    config.cache_path.write_text(fresh.results.to_json())
    legacy = config.cache_path.read_bytes()

    imported = Campaign(config)
    assert imported._loaded_from_cache
    assert json.loads(imported.results.to_json()) == expected
    imported.save()                  # the import marked it dirty
    assert config.cache_npz_path.exists()
    assert config.cache_path.read_bytes() == legacy     # never rewritten

    def no_second_import(path):
        raise AssertionError(f"legacy JSON read again: {path}")

    monkeypatch.setattr(PopulationResults, "load",
                        staticmethod(no_second_import))
    reloaded = Campaign(config)
    assert reloaded._loaded_from_cache
    assert "LRU" in reloaded.results._blocks          # came from the npz
    assert json.loads(reloaded.results.to_json()) == expected
    reloaded.run_grid(WORKLOADS, POLICIES)
    assert reloaded.timing.simulations == 0


def _truncate(path):
    data = path.read_bytes()
    path.write_bytes(data[:len(data) // 2])


def _flip_ipcs_bit(path):
    """Flip one bit in the last IPC value of the ``ipcs_0`` member."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo("ipcs_0.npy")
    data = bytearray(path.read_bytes())
    header = info.header_offset
    name_length = int.from_bytes(data[header + 26:header + 28], "little")
    extra_length = int.from_bytes(data[header + 28:header + 30], "little")
    end = header + 30 + name_length + extra_length + info.compress_size
    data[end - 1] ^= 0x01
    path.write_bytes(bytes(data))


def _not_a_zip(path):
    path.write_bytes(b"not a zip file")


def _corrupt_then_recompute(config, corrupt, caplog, panel_cache=None):
    first = Campaign(config)
    first.run_grid(WORKLOADS, POLICIES)
    first.save()
    expected = first.results.to_json()
    corrupt(config.cache_npz_path)
    with caplog.at_level(logging.WARNING, logger="repro.api.engine"):
        second = Campaign(config, panel_cache=panel_cache)
    warnings = [record for record in caplog.records
                if record.name == "repro.api.engine"]
    assert len(warnings) == 1
    assert str(config.cache_npz_path) in warnings[0].getMessage()
    assert not second._loaded_from_cache
    assert len(second.results) == 0                   # a cache miss
    second.run_grid(WORKLOADS, POLICIES)
    assert second.results.to_json() == expected       # bit-identical
    second.save()                                     # replaces the file
    third = Campaign(config)
    assert third._loaded_from_cache
    assert third.results.to_json() == expected


@pytest.mark.parametrize("corrupt", [_truncate, _flip_ipcs_bit, _not_a_zip],
                         ids=["truncated", "bit-flipped", "not-a-zip"])
def test_corrupt_npz_cache_is_a_logged_miss(tmp_path, caplog, corrupt):
    _corrupt_then_recompute(_config(cache_dir=tmp_path), corrupt, caplog)


@pytest.mark.parametrize("corrupt", [_truncate, _flip_ipcs_bit, _not_a_zip],
                         ids=["truncated", "bit-flipped", "not-a-zip"])
def test_corrupt_npz_through_the_panel_cache_is_a_logged_miss(
        tmp_path, caplog, corrupt):
    _corrupt_then_recompute(_config(cache_dir=tmp_path), corrupt, caplog,
                            panel_cache=ResidentPanelCache())
