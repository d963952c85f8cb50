"""Property-based tests (hypothesis) on core invariants."""

import math
import random

from hypothesis import assume, given, settings, strategies as st

from repro.core.confidence import confidence_from_cv, required_sample_size
from repro.core.delta import delta_statistics
from repro.core.metrics import HSU, IPCT
from repro.core.population import WorkloadPopulation, population_size
from repro.core.sampling import (
    BalancedRandomSampling,
    SimpleRandomSampling,
    WorkloadStratification,
)
from repro.core.sampling.allocation import largest_remainder_allocation
from repro.core.workload import Workload
from repro.mem.cache import Cache, CacheConfig
from repro.mem.replacement import make_policy

names = st.sampled_from(["a", "b", "c", "d", "e"])


@given(st.lists(names, min_size=1, max_size=8))
def test_workload_canonicalisation(benchmarks):
    w = Workload(benchmarks)
    shuffled = list(benchmarks)
    random.Random(0).shuffle(shuffled)
    assert Workload(shuffled) == w
    assert w.benchmarks == tuple(sorted(benchmarks))
    assert Workload.from_key(w.key()) == w


@given(st.integers(min_value=1, max_value=12),
       st.integers(min_value=1, max_value=5))
def test_population_size_matches_enumeration(b, k):
    pop = WorkloadPopulation([f"x{i}" for i in range(b)], k)
    assert len(pop) == population_size(b, k)
    occurrences = pop.benchmark_occurrences()
    assert len(set(occurrences.values())) == 1


@given(st.lists(st.floats(min_value=0.05, max_value=10.0),
                min_size=1, max_size=20))
def test_hmean_never_exceeds_amean(values):
    amean = IPCT.sample_throughput(values)
    hmean = HSU.sample_throughput(values)
    assert hmean <= amean + 1e-9


#: d(w) values whose scaled products and squared deviations stay
#: normal floats: 0 or |v| >= 1e-100.  Below that the test's own
#: arithmetic underflows -- 5e-324 * 0.5 rounds to 0 and turns a cv of
#: 0 into inf, and the squares of deviations near 1e-160 go subnormal
#: and lose digits (cv off by 0.6% at scale 0.1) -- a fault of the
#: test, not of cv.
_SCALABLE = st.floats(min_value=-5, max_value=5).filter(
    lambda v: v == 0 or abs(v) >= 1e-100)


@given(st.lists(_SCALABLE, min_size=2, max_size=50),
       st.floats(min_value=0.1, max_value=3.0))
def test_delta_statistics_scale_invariance(values, scale):
    """cv is invariant under positive scaling of d(w)."""
    base = delta_statistics(values)
    # A mean at cancellation scale (|sum| ~ eps * sum|v|) is pure
    # rounding noise; cv is then meaningless and not scale-stable.
    assume(abs(base.mean) > 1e-9 * max(abs(v) for v in values))
    scaled = delta_statistics([v * scale for v in values])
    if not math.isinf(base.cv):
        assert scaled.cv == __import__("pytest").approx(base.cv, rel=1e-6)


@given(st.floats(min_value=0.05, max_value=50.0),
       st.integers(min_value=1, max_value=2000))
def test_confidence_bounds(cv, w):
    conf = confidence_from_cv(cv, w)
    assert 0.5 <= conf <= 1.0
    assert confidence_from_cv(-cv, w) == __import__("pytest").approx(
        1.0 - conf, abs=1e-9)


@given(st.floats(min_value=0.05, max_value=20.0))
def test_required_size_saturates_model(cv):
    w = required_sample_size(cv)
    assert confidence_from_cv(cv, w) >= 0.997


@given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1,
                max_size=12),
       st.integers(min_value=0, max_value=100))
def test_allocation_conserves_total(shares, total):
    counts = largest_remainder_allocation(shares, total)
    assert sum(counts) == total
    assert all(c >= 0 for c in counts)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=9999))
def test_sampling_methods_weight_invariant(size, seed):
    population = WorkloadPopulation(["a", "b", "c", "d"], 2)
    rng = random.Random(seed)
    for method in (SimpleRandomSampling(), BalancedRandomSampling()):
        sample = method.sample(population, size, rng)
        assert len(sample) == size
        assert abs(sum(sample.weights) - 1.0) < 1e-9
        constant = sample.weighted_mean([7.5] * size)
        assert abs(constant - 7.5) < 1e-9


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=25), st.integers(min_value=0, max_value=9999))
def test_workload_stratification_unbiased_on_constants(size, seed):
    population = WorkloadPopulation(["a", "b", "c", "d", "e"], 2)
    rng = random.Random(seed)
    delta = {w: (i % 7) - 3.0 for i, w in enumerate(population)}
    method = WorkloadStratification(delta, min_stratum=3)
    sample = method.sample(population, size, rng)
    assert len(sample) == size
    assert abs(sum(sample.weights) - 1.0) < 1e-9
    assert abs(sample.weighted_mean([2.0] * size) - 2.0) < 1e-9


@settings(max_examples=15, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4095), min_size=1,
                max_size=300),
       st.sampled_from(["LRU", "FIFO", "RND", "DIP", "DRRIP", "NRU"]))
def test_cache_never_loses_track(line_indices, policy):
    """After any access sequence: the last line accessed is resident,
    and the number of resident lines never exceeds capacity."""
    config = CacheConfig(name="L", size_bytes=2048, ways=2)
    cache = Cache(config, make_policy(policy, config.num_sets, 2, seed=1))
    now = 0
    for index in line_indices:
        address = index * 64
        cache.access(address, now)
        now += 10
        assert cache.contains(address)
    assert cache.resident_lines() <= config.num_sets * config.ways
    total = cache.stats.demand_hits + cache.stats.demand_misses
    assert total == len(line_indices)
