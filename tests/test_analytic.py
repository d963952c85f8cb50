"""The analytic backend: parity vs badco, batch dispatch, determinism.

The analytic backend trades event-driven fidelity for array-call
throughput; these tests pin down what the trade preserves at smoke
scale:

- per-workload IPCs stay within a bounded relative error of the
  event-driven ``badco`` backend, and single-thread reference IPCs are
  *bit-identical* (the calibration run is the same run);
- the population verdict (the sign of mean d(w)) and the cv's order of
  magnitude -- the two quantities the paper's confidence methodology
  consumes -- agree with badco;
- ``run`` vs ``run_batch``, any chunking of a batch, and ``jobs=4`` vs
  ``jobs=1`` are all bit-identical (rows are independent).
"""

import numpy as np
import pytest

from repro.api import Campaign, CampaignConfig
from repro.core.columnar import delta_column_from_matrices
from repro.core.delta import DeltaVariable, delta_statistics
from repro.core.metrics import IPCT
from repro.core.population import WorkloadPopulation
from repro.core.workload import Workload
from repro.sim.analytic import AnalyticModelBuilder, AnalyticSimulator

from tests.conftest import TEST_TRACE_LENGTH

#: Spans the three MPKI classes, including the probe pair members.
PARITY_BENCHMARKS = ["povray", "hmmer", "gcc", "mcf", "libquantum",
                     "omnetpp"]
PARITY_POLICIES = ["LRU", "DIP"]

#: Accuracy bounds vs badco at smoke scale (measured ~5% mean / ~21%
#: max; asserted with headroom so trace-generator tweaks don't flake).
MEAN_IPC_ERROR_BOUND = 0.12
MAX_IPC_ERROR_BOUND = 0.35


@pytest.fixture(scope="module")
def parity_population():
    return WorkloadPopulation(PARITY_BENCHMARKS, 2)


def _campaign(backend, jobs=1):
    return Campaign(CampaignConfig(backend=backend, cores=2,
                                   trace_length=TEST_TRACE_LENGTH,
                                   jobs=jobs))


@pytest.fixture(scope="module")
def parity_results(parity_population):
    campaigns = {}
    for backend in ("badco", "analytic"):
        campaign = _campaign(backend)
        campaign.run_grid(parity_population, PARITY_POLICIES)
        campaigns[backend] = campaign
    return campaigns


def test_ipc_error_vs_badco_is_bounded(parity_population, parity_results):
    errors = []
    for workload in parity_population:
        for policy in PARITY_POLICIES:
            badco = np.array(
                parity_results["badco"].results.ipcs(policy, workload))
            analytic = np.array(
                parity_results["analytic"].results.ipcs(policy, workload))
            errors.append(np.abs(analytic - badco) / badco)
    errors = np.concatenate(errors)
    assert errors.mean() < MEAN_IPC_ERROR_BOUND
    assert errors.max() < MAX_IPC_ERROR_BOUND


def test_delta_statistics_track_badco(parity_population, parity_results):
    """The methodology's decision inputs survive the approximation."""
    variable = DeltaVariable(IPCT)
    stats = {}
    for backend, campaign in parity_results.items():
        _, matrices = campaign.results.columnar_panel(
            PARITY_POLICIES, list(parity_population))
        delta = delta_column_from_matrices(
            variable, matrices[PARITY_POLICIES[0]],
            matrices[PARITY_POLICIES[1]])
        stats[backend] = delta_statistics(delta.values)
    # Same population verdict (which policy wins)...
    assert np.sign(stats["analytic"].mean) == np.sign(stats["badco"].mean)
    # ... and a cv in the same decision regime (|cv| within ~4x: both
    # sides of the paper's W = 8 cv^2 rule land in the same ballpark).
    ratio = abs(stats["analytic"].cv) / abs(stats["badco"].cv)
    assert 0.25 < ratio < 4.0


def test_reference_ipcs_bit_identical_to_badco(parity_results):
    badco = parity_results["badco"]
    analytic = parity_results["analytic"]
    for benchmark in PARITY_BENCHMARKS:
        expected = badco._make_simulator("LRU").reference_ipc(benchmark)
        assert analytic._make_simulator("LRU").reference_ipc(benchmark) \
            == expected


def test_solo_run_reproduces_reference_ipc():
    """No co-runners -> the calibrated anchor, exactly (docstring
    contract: the closure only models *contention*)."""
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(1, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    for benchmark in PARITY_BENCHMARKS[:3]:
        solo = simulator.run(Workload([benchmark])).ipcs[0]
        assert solo == simulator.reference_ipc(benchmark)


def test_run_matches_run_batch_bitwise(parity_population):
    """The loop and batch paths must agree exactly, per row."""
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(2, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    workloads = list(parity_population)[:8]
    batch = simulator.run_batch(workloads)
    for row, workload in enumerate(workloads):
        assert simulator.run(workload).ipcs == batch.ipcs[row].tolist()


def test_batch_rows_independent_of_chunking(parity_population):
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(2, "DIP", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    workloads = list(parity_population)[:9]
    full = simulator.run_batch(workloads).ipcs
    pieces = [simulator.run_batch(workloads[start:start + 3]).ipcs
              for start in range(0, 9, 3)]
    assert np.array_equal(np.concatenate(pieces, axis=0), full)


def test_batch_grid_jobs4_equals_jobs1(parity_population):
    workloads = list(parity_population)
    serial = _campaign("analytic", jobs=1)
    serial.run_grid(workloads, PARITY_POLICIES)
    parallel = _campaign("analytic", jobs=4)
    parallel.run_grid(workloads, PARITY_POLICIES)
    assert serial.results.to_json() == parallel.results.to_json()
    assert parallel.timing.simulations == serial.timing.simulations


def test_batch_grid_memoises(parity_population):
    campaign = _campaign("analytic")
    workloads = list(parity_population)[:6]
    campaign.run_grid(workloads, ["LRU"])
    simulations = campaign.timing.simulations
    assert simulations == 6
    campaign.run_grid(workloads, ["LRU"])        # fully memoised
    assert campaign.timing.simulations == simulations
    # A superset grid only pays for the new cells.
    campaign.run_grid(list(parity_population)[:8], ["LRU"])
    assert campaign.timing.simulations == simulations + 2


def test_batch_grid_streams_into_columnar_store(parity_population):
    campaign = _campaign("analytic")
    workloads = list(parity_population)[:5]
    campaign.run_grid(workloads, ["LRU"])
    # The engine recorded via record_batch: blocks, not dicts.
    assert "LRU" in campaign.results._blocks
    index, matrices = campaign.results.columnar_panel(["LRU"], workloads)
    assert matrices["LRU"].values.shape == (5, 2)


def test_analytic_campaign_cache_roundtrip(tmp_path, parity_population):
    workloads = list(parity_population)[:4]
    config = CampaignConfig(backend="analytic", cores=2,
                            trace_length=TEST_TRACE_LENGTH,
                            cache_dir=tmp_path)
    first = Campaign(config)
    first.run_grid(workloads, ["LRU"])
    first.save()
    assert config.cache_npz_path.exists()
    assert not config.cache_path.exists()        # no JSON twin
    # Serialising must not collapse the columnar blocks ...
    assert "LRU" in first.results._blocks
    second = Campaign(config)
    assert second._loaded_from_cache
    # ... and the reload must come through the npz fast path (blocks,
    # not a rebuilt mapping).
    assert "LRU" in second.results._blocks
    for workload in workloads:
        assert second.results.ipcs("LRU", workload) == \
            first.results.ipcs("LRU", workload)
    second.run_grid(workloads, ["LRU"])          # served from cache
    assert second.timing.simulations == 0


def test_core_count_validated():
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(2, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    with pytest.raises(ValueError):
        simulator.run(Workload(["povray"]))
    with pytest.raises(ValueError):
        simulator.run_batch([Workload(["povray", "povray", "povray"])])


def test_builder_shares_badco_models():
    from repro.api import Session

    session = Session("small", cache_dir=None,
                      benchmarks=PARITY_BENCHMARKS)
    analytic = session.builder("analytic")
    assert analytic.badco is session.builder("badco")


def test_session_study_on_analytic_backend(monkeypatch, tmp_path):
    """The whole facade loop (results, references, study) runs batch."""
    from repro.api import Session

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    session = Session("small", seed=0, benchmarks=PARITY_BENCHMARKS,
                      backend="analytic")
    study = session.study("LRU", "DIP", metric="IPCT", cores=2)
    assert -50 < study.inverse_cv < 50
    assert 0.0 <= study.model_confidence(30) <= 1.0
    campaign = session.campaign("analytic", 2)
    # Grid cells plus one reference run per benchmark.
    assert campaign.timing.simulations == \
        len(session.population(2)) * 2 + len(PARITY_BENCHMARKS)


def test_protection_probe_bounds():
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    from repro.mem.uncore import uncore_config_for_cores

    for policy in ("LRU", "DIP", "RND"):
        value = builder.protection(uncore_config_for_cores(2, policy))
        assert 0.0 <= value <= 1.0
    assert builder.protection(uncore_config_for_cores(2, "LRU")) == 0.0


# ----------------------------------------------------------------------
# The policy axis: one N x P x K closure call for the whole grid


def test_run_batch_grid_slices_match_per_policy_batches(parity_population):
    """Each policy slice of the grid == its single-policy batch panel."""
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(2, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    workloads = list(parity_population)[:10]
    policies = ["LRU", "DIP", "DRRIP"]
    grid = simulator.run_batch_grid(workloads, policies)
    assert grid.ipcs.shape == (10, 3, 2)
    for number, policy in enumerate(policies):
        single = AnalyticSimulator(2, policy, builder=builder,
                                   trace_length=TEST_TRACE_LENGTH)
        panel = single.run_batch(workloads).ipcs
        assert np.array_equal(grid.ipcs[:, number, :], panel)
        assert np.array_equal(grid.panel(policy), panel)


def test_singleton_grid_matches_multi_policy_slice_at_scale():
    """A P == 1 dispatch is bit-identical to the same policy's slice.

    Regression pin for the documented 1-ULP wrinkle: advanced indexing
    leaves P >= 2 gathers policy-minor (non-C-contiguous), so the
    core-axis reductions used to round differently than the trivially
    contiguous P == 1 case -- an incrementally reused one-shot cache
    (one policy pending -> singleton dispatch) then disagreed with the
    serve daemon's multi-policy grids at up to ~9 ULP.  The wrinkle
    only shows at wide frames, hence the 8-core 1000-workload scale.
    """
    population = WorkloadPopulation(PARITY_BENCHMARKS, 8, max_size=1000,
                                    seed=0)
    workloads = list(population)
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(8, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    trio = simulator.run_batch_grid(workloads, ("LRU", "DIP", "NRU"))
    duo = simulator.run_batch_grid(workloads, ("LRU", "DIP"))
    solo = simulator.run_batch_grid(workloads, ("LRU",))
    batch = simulator.run_batch(workloads)
    assert np.array_equal(solo.ipcs[:, 0, :], batch.ipcs)
    assert np.array_equal(duo.ipcs[:, 0, :], solo.ipcs[:, 0, :])
    assert np.array_equal(trio.ipcs[:, 0, :], solo.ipcs[:, 0, :])
    assert np.array_equal(trio.ipcs[:, 1, :], duo.ipcs[:, 1, :])


def test_run_batch_grid_row_chunking_is_bit_identical(parity_population):
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(2, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    workloads = list(parity_population)[:9]
    policies = ["LRU", "DIP"]
    full = simulator.run_batch_grid(workloads, policies).ipcs
    pieces = [simulator.run_batch_grid(workloads[start:start + 4],
                                       policies).ipcs
              for start in range(0, 9, 4)]
    assert np.array_equal(np.concatenate(pieces, axis=0), full)


def test_run_batch_grid_validates_inputs(parity_population):
    builder = AnalyticModelBuilder(TEST_TRACE_LENGTH, 0)
    simulator = AnalyticSimulator(2, "LRU", builder=builder,
                                  trace_length=TEST_TRACE_LENGTH)
    with pytest.raises(ValueError):
        simulator.run_batch_grid(list(parity_population)[:2], [])
    with pytest.raises(ValueError):
        simulator.run_batch_grid([Workload(["gcc", "gcc", "gcc"])],
                                 ["LRU"])
    empty = simulator.run_batch_grid([], ["LRU", "DIP"])
    assert empty.ipcs.shape == (0, 2, 2)


def test_engine_single_dispatch_equals_per_policy_path(parity_population):
    """One multi-policy grid == one grid per policy, bit for bit."""
    workloads = list(parity_population)
    grid_campaign = _campaign("analytic")
    grid_campaign.run_grid(workloads, PARITY_POLICIES)
    loop_campaign = _campaign("analytic")
    for policy in PARITY_POLICIES:
        loop_campaign.run_grid(workloads, [policy])
    assert grid_campaign.results.to_json() == loop_campaign.results.to_json()
    assert (grid_campaign.timing.simulations
            == loop_campaign.timing.simulations)


def test_engine_grid_dispatch_falls_back_on_ragged_caches(parity_population):
    """Partially cached policies stay correct (intersection + remainder)."""
    workloads = list(parity_population)
    campaign = _campaign("analytic")
    campaign.run_grid(workloads[:4], ["LRU"])       # LRU partially done
    campaign.run_grid(workloads, PARITY_POLICIES)
    reference = _campaign("analytic")
    reference.run_grid(workloads, PARITY_POLICIES)
    for policy in PARITY_POLICIES:
        for workload in workloads:
            assert (campaign.results.ipcs(policy, workload)
                    == reference.results.ipcs(policy, workload))


def test_engine_ragged_caches_grid_dispatch_intersection(parity_population):
    """The rows every policy needs plan as one all-policy block."""
    workloads = list(parity_population)
    campaign = _campaign("analytic")
    campaign.run_grid(workloads[:4], ["LRU"])       # LRU partially done
    simulations = campaign.timing.simulations
    blocks = campaign._pending_blocks(workloads, PARITY_POLICIES)
    assert blocks == [(workloads[4:], tuple(PARITY_POLICIES)),
                      (workloads[:4], ("DIP",))]
    assert campaign.timing.simulations == simulations     # pure


def test_engine_ragged_three_policies_second_grid(parity_population):
    """A uniform multi-policy remainder plans as a second block."""
    workloads = list(parity_population)
    policies = ["LRU", "DIP", "DRRIP"]
    campaign = _campaign("analytic")
    campaign.run_grid(workloads[:4], ["LRU"])       # LRU partially done
    blocks = campaign._pending_blocks(workloads, policies)
    assert blocks == [(workloads[4:], tuple(policies)),
                      (workloads[:4], ("DIP", "DRRIP"))]
    campaign.run_grid(workloads, policies)
    reference = _campaign("analytic")
    reference.run_grid(workloads, policies)
    for policy in policies:
        for workload in workloads:
            assert (campaign.results.ipcs(policy, workload)
                    == reference.results.ipcs(policy, workload))


def test_grid_dispatch_jobs2_equals_jobs1(parity_population):
    workloads = list(parity_population)
    serial = _campaign("analytic", jobs=1)
    serial.run_grid(workloads, ["LRU", "DIP", "DRRIP"])
    parallel = _campaign("analytic", jobs=2)
    parallel.run_grid(workloads, ["LRU", "DIP", "DRRIP"])
    assert serial.results.to_json() == parallel.results.to_json()
    assert parallel.timing.simulations == serial.timing.simulations
