"""PopulationResults storage and Campaign memoisation."""

import json

import numpy as np
import pytest

from repro.core.workload import Workload
from repro.api import Campaign, CampaignConfig
from repro.sim.results import PopulationResults

from tests.conftest import TEST_TRACE_LENGTH


def test_record_and_read():
    results = PopulationResults(2, "detailed")
    w = Workload(["a", "b"])
    results.record_batch("LRU", [w], [[1.0, 2.0]])
    assert results.ipcs("LRU", w) == [1.0, 2.0]
    assert results.policies == ["LRU"]
    assert results.has("LRU", w)
    assert not results.has("DIP", w)


def test_arity_validated():
    results = PopulationResults(2, "detailed")
    with pytest.raises(ValueError):
        results.record_batch("LRU", [Workload(["a", "b"])], [[1.0]])
    with pytest.raises(ValueError):          # a 3-core workload
        results.record_batch("LRU", [Workload(["a", "b", "c"])],
                             [[1.0, 2.0]])


def test_common_workloads():
    results = PopulationResults(2, "x")
    w1, w2 = Workload(["a", "a"]), Workload(["a", "b"])
    results.record_batch("LRU", [w1, w2], [[1, 1], [1, 1]])
    results.record_batch("DIP", [w1], [[1, 1]])
    assert results.common_workloads() == [w1]


def test_json_roundtrip(tmp_path):
    results = PopulationResults(4, "badco")
    w = Workload(["mcf", "gcc", "gcc", "povray"])
    results.record_batch("DRRIP", [w], [[0.1, 0.5, 0.5, 1.4]])
    results.record_reference("mcf", 0.2)
    path = tmp_path / "results.json"        # a legacy JSON cache file
    path.write_text(results.to_json())
    loaded = PopulationResults.load(path)
    assert loaded.cores == 4
    assert loaded.simulator == "badco"
    assert loaded.ipcs("DRRIP", w) == [0.1, 0.5, 0.5, 1.4]
    assert loaded.reference["mcf"] == 0.2


def _batchful_results():
    """Results holding one policy in two blocks and one in one block."""
    results = PopulationResults(2, "analytic")
    w1, w2, w3 = (Workload(["a", "a"]), Workload(["a", "b"]),
                  Workload(["b", "b"]))
    results.record_batch("LRU", [w1, w2], np.array([[1.0, 2.0], [3.0, 4.0]]))
    results.record_batch("LRU", [w3], np.array([[5.0, 6.0]]))
    results.record_batch("DIP", [w1], np.array([[0.5, 0.25]]))
    results.record_reference("a", 1.5)
    return results, (w1, w2, w3)


def test_record_batch_reads_like_record():
    results, (w1, w2, w3) = _batchful_results()
    assert results.has("LRU", w2)
    assert not results.has("LRU", Workload(["c", "c"]))
    assert results.ipcs("LRU", w3) == [5.0, 6.0]
    assert results.workloads("LRU") == [w1, w2, w3]
    assert results.common_workloads() == [w1]
    assert len(results) == 4
    assert results.ipc_table("LRU") == {w1: [1.0, 2.0], w2: [3.0, 4.0],
                                        w3: [5.0, 6.0]}
    assert results.ipcs("LRU", w2) == [3.0, 4.0]


def test_record_batch_validates_shape_and_duplicates():
    results = PopulationResults(2, "analytic")
    w = Workload(["a", "b"])
    with pytest.raises(ValueError):
        results.record_batch("LRU", [w], np.array([[1.0, 2.0, 3.0]]))
    results.record_batch("LRU", [w], np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        results.record_batch("LRU", [w], np.array([[1.0, 2.0]]))
    # A rejected batch leaves no trace, not even an empty policy.
    with pytest.raises(ValueError):
        results.record_batch("DIP", [w], np.ones((1, 3)))
    assert results.policies == ["LRU"] and len(results) == 1
    with pytest.raises(KeyError):
        results.workloads("DIP")


def test_columnar_panel_serves_batches_without_dict():
    results, (w1, w2, w3) = _batchful_results()
    index, matrices = results.columnar_panel(["LRU"], [w1, w2, w3])
    assert matrices["LRU"].values.tolist() == [[1.0, 2.0], [3.0, 4.0],
                                               [5.0, 6.0]]
    # Reordered rows still come straight from the blocks.
    index, matrices = results.columnar_panel(["LRU"], [w3, w1, w2])
    assert matrices["LRU"].values.tolist() == [[5.0, 6.0], [1.0, 2.0],
                                               [3.0, 4.0]]


def test_npz_roundtrip_matches_json(tmp_path):
    results, _ = _batchful_results()
    json_path = tmp_path / "results.json"
    npz_path = tmp_path / "results.npz"
    results.save_npz(npz_path)
    json_path.write_text(results.to_json())
    from_npz = PopulationResults.load_npz(npz_path)
    from_json = PopulationResults.load(json_path)
    # Both load paths store one block per policy.
    assert [len(from_npz._blocks[p]) for p in from_npz.policies] == [1, 1]
    assert [len(from_json._blocks[p]) for p in from_json.policies] == [1, 1]
    assert json.loads(from_npz.to_json()) == json.loads(from_json.to_json())
    assert from_npz.cores == 2 and from_npz.simulator == "analytic"
    assert from_npz.reference == {"a": 1.5}


def test_npz_roundtrip_exact_floats(tmp_path):
    rng = np.random.default_rng(7)
    results = PopulationResults(2, "badco")
    workloads = [Workload([a, b]) for a, b in
                 [("a", "a"), ("a", "b"), ("b", "c")]]
    panel = rng.random((3, 2))
    results.record_batch("LRU", workloads, panel)
    path = tmp_path / "r.npz"
    results.save_npz(path)
    loaded = PopulationResults.load_npz(path)
    for workload, row in zip(workloads, panel):
        assert loaded.ipcs("LRU", workload) == row.tolist()


def test_reads_never_rewrite_the_blocks(tmp_path):
    results, (w1, w2, w3) = _batchful_results()
    single = PopulationResults(2, "analytic")
    single.record_batch("LRU", [w1, w2], np.array([[1.0, 2.0], [3.0, 4.0]]))
    block = single._blocks["LRU"][0][1]
    before, after = tmp_path / "before.npz", tmp_path / "after.npz"
    for store in (results, single):
        store.save_npz(before)
        table = store.ipc_table("LRU")
        table[w1] = [0.0, 0.0]                 # a new dict: no aliasing
        store.ipcs("LRU", w2)[0] = 0.0         # a new list: no aliasing
        store.to_json()
        store.common_workloads()
        store.save_npz(after)
        assert after.read_bytes() == before.read_bytes()
        assert store.ipcs("LRU", w1) == [1.0, 2.0]
    _, matrices = single.columnar_panel(["LRU"], [w1, w2])
    assert matrices["LRU"].values is block     # still the recorded block


def _campaign(backend="badco", cache_dir=None):
    return Campaign(CampaignConfig(backend=backend, cores=2,
                                   trace_length=TEST_TRACE_LENGTH,
                                   cache_dir=cache_dir))


def test_campaign_memoises_runs():
    campaign = _campaign()
    w = Workload(["povray", "hmmer"])
    first = campaign.run_workload(w, "LRU")
    simulations = campaign.timing.simulations
    second = campaign.run_workload(w, "LRU")
    assert first == second
    assert campaign.timing.simulations == simulations    # no re-run


def test_campaign_grid_and_reference():
    campaign = _campaign()
    workloads = [Workload(["povray", "povray"]), Workload(["povray", "hmmer"])]
    results = campaign.run_grid(workloads, ["LRU", "FIFO"])
    assert len(results) == 4
    refs = campaign.reference_ipcs(["povray"])
    assert refs["povray"] > 0


def test_campaign_disk_cache(tmp_path):
    w = Workload(["povray", "hmmer"])
    first = _campaign(cache_dir=tmp_path)
    ipcs = first.run_workload(w, "LRU")
    first.save()
    second = _campaign(cache_dir=tmp_path)
    assert second.results.has("LRU", w)
    assert second.run_workload(w, "LRU") == ipcs
    assert second.timing.simulations == 0


def test_unknown_simulator_rejected():
    with pytest.raises(ValueError):
        _campaign("zesto")


def test_campaign_timing_mips():
    campaign = _campaign("detailed")
    campaign.run_workload(Workload(["povray", "povray"]), "LRU")
    assert campaign.timing.mips > 0
    assert campaign.timing.instructions >= 2 * TEST_TRACE_LENGTH
