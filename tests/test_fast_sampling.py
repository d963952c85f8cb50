"""Distribution-level validation of the opt-in fast sampling path.

The fast path (``fast_sampling=True``) is *not* bit-compatible with
the default MT replay, so these tests never compare rows bit for bit.
The contract instead: identical weights and per-stratum allocation
(structural, exact), matching marginal distributions (inclusion
frequencies within a normal-approximation tolerance, KS-style
agreement of the per-draw weighted means), confidence curves agreeing
with the MT path within Monte-Carlo tolerance for all four sampling
methods -- and, crucially, that the fast path stays strictly opt-in:
defaults off everywhere, and turning it on never perturbs the
bit-compatible results of methods without a fast plan.
"""

import math
import random

import numpy as np
import pytest

from repro.core.estimator import ConfidenceEstimator
from repro.core.sampling import (
    BalancedRandomSampling,
    BenchmarkStratification,
    SimpleRandomSampling,
    WorkloadStratification,
    fast_generator,
    fast_sampling_default,
    has_fast_path,
)
from repro.core.sampling.base import SamplingPlan
from repro.core.sampling.fastpath import (
    FAST_SAMPLING_ENV,
    floyd_distinct,
    uniform_indices,
)

DRAWS = 1500


def _delta(population, offset=0.25, seed=9):
    rng = random.Random(seed)
    return {w: rng.gauss(offset, 1.0) for w in population}


def _classes(population):
    labels = ("low", "mid", "high")
    return {b: labels[i % 3] for i, b in enumerate(population.benchmarks)}


def _methods(population, delta):
    return [SimpleRandomSampling(), BalancedRandomSampling(),
            BenchmarkStratification(_classes(population)),
            WorkloadStratification(delta, min_stratum=5)]


def _ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic."""
    grid = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), grid, side="right") / len(a)
    cdf_b = np.searchsorted(np.sort(b), grid, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


# ----------------------------------------------------------------------
# Primitive draws


def test_uniform_indices_bounds_and_frequencies():
    gen = np.random.default_rng(4)
    picks = uniform_indices(gen.random((2000, 8)), 13)
    assert picks.min() >= 0 and picks.max() < 13
    counts = np.bincount(picks.ravel(), minlength=13)
    expected = picks.size / 13
    sigma = math.sqrt(picks.size * (1 / 13) * (12 / 13))
    assert np.all(np.abs(counts - expected) < 6 * sigma)


def test_uniform_indices_clamps_unit_uniform():
    almost_one = np.array([[1.0 - 2 ** -53]])
    n = 2 ** 40                 # large enough that u * n rounds to n
    assert uniform_indices(almost_one, n)[0, 0] == n - 1


def test_floyd_distinct_is_distinct_and_in_range():
    gen = np.random.default_rng(7)
    for n, k in ((10, 3), (10, 10), (40, 12), (5, 1)):
        picks = floyd_distinct(gen.random((500, k)), n)
        assert picks.min() >= 0 and picks.max() < n
        for row in picks:
            assert len(set(row.tolist())) == k


def test_floyd_distinct_uniform_subsets():
    """Every k-subset of range(n) appears with equal frequency."""
    gen = np.random.default_rng(21)
    n, k, rounds = 5, 2, 30000
    picks = np.sort(floyd_distinct(gen.random((rounds, k)), n), axis=1)
    keys = picks[:, 0] * n + picks[:, 1]
    counts = np.bincount(keys, minlength=n * n)
    subsets = counts[counts > 0]
    assert len(subsets) == math.comb(n, k)
    expected = rounds / math.comb(n, k)
    sigma = math.sqrt(rounds * (1 / math.comb(n, k)))
    assert np.all(np.abs(subsets - expected) < 6 * sigma)


def test_floyd_distinct_rejects_oversized_k():
    with pytest.raises(ValueError):
        floyd_distinct(np.zeros((1, 4)), 3)


# ----------------------------------------------------------------------
# Plan-level structure: allocation is exact, only the picks differ


def test_all_builtin_plans_advertise_fast_path(small_population):
    delta = _delta(small_population)
    for method in _methods(small_population, delta):
        plan = method.plan(small_population.index, small_population)
        assert has_fast_path(plan), method.name
        # The base composition is every built-in's rows_matrix_fast:
        # slots wide, one block (the stacked pair_curves path).
        size = 6
        slots = plan.fast_slots(size)
        rows_a, w_a = plan.rows_matrix_fast(size, 30, fast_generator(1, size))
        block = fast_generator(1, size).random((30, slots))
        rows_b, w_b = plan.rows_matrix_fast_block(size, block)
        assert np.array_equal(rows_a, rows_b), method.name
        assert np.array_equal(w_a, w_b), method.name
    assert not has_fast_path(None)
    assert not has_fast_path(SamplingPlan())


def test_stratified_fast_preserves_layout_and_weights(small_population):
    delta = _delta(small_population)
    method = WorkloadStratification(delta, min_stratum=5)
    plan = method.plan(small_population.index, small_population)
    size = 8
    rows_mt, weights_mt = plan.rows_matrix(size, 50, random.Random(3))
    rows_fast, weights_fast = plan.rows_matrix_fast(
        size, 50, np.random.default_rng(3))
    assert np.array_equal(weights_mt, weights_fast)
    assert rows_fast.shape == rows_mt.shape
    # Column-by-column, fast picks stay inside the owning stratum and
    # are distinct within a draw when drawn without replacement.
    _, _, ops, arrays, _ = plan._layout_for(size)
    column = 0
    for (kind, n_h, w_h), stratum_rows in zip(ops, arrays):
        span = rows_fast[:, column:column + w_h]
        assert np.isin(span, stratum_rows).all()
        if kind == "sample":
            for row in span:
                assert len(set(row.tolist())) == w_h
        column += w_h
    assert column == rows_fast.shape[1]


def test_stratified_fast_inclusion_frequencies(small_population):
    delta = _delta(small_population)
    method = WorkloadStratification(delta, min_stratum=5)
    plan = method.plan(small_population.index, small_population)
    size = 6
    rows, _ = plan.rows_matrix_fast(size, DRAWS,
                                    np.random.default_rng(12))
    counts = np.bincount(rows.ravel(), minlength=len(small_population))
    _, _, ops, arrays, _ = plan._layout_for(size)
    for (kind, n_h, w_h), stratum_rows in zip(ops, arrays):
        # Within a stratum every row is included w_h/n_h (without
        # replacement) or expected w_h/n_h (with replacement) per draw.
        p = min(w_h / n_h, 1.0) if kind == "sample" else w_h / n_h
        expected = DRAWS * p
        sigma = math.sqrt(max(DRAWS * p * (1 - p), DRAWS * p / n_h, 1.0))
        for r in stratum_rows:
            assert abs(counts[r] - expected) < 6 * sigma + 3


def test_balanced_fast_equalizes_benchmark_occurrences(
        four_core_population):
    """The balanced invariant holds per draw -- beyond the 24-slot
    cliff of the bit-compatible replay (size*cores = 40 here)."""
    plan = BalancedRandomSampling().plan(four_core_population.index,
                                         four_core_population)
    size = 10
    b = len(four_core_population.benchmarks)
    slots = size * four_core_population.cores
    assert slots > 24        # the replay would hand this to the scalar loop
    rows, weights = plan.rows_matrix_fast(size, 200,
                                          np.random.default_rng(5))
    assert rows.shape == (200, size)
    assert np.allclose(weights, 1.0 / size)
    codes = four_core_population.index.codes[rows]   # (draws, size, cores)
    base, extra = divmod(slots, b)
    for draw_codes in codes.reshape(200, slots):
        occur = np.bincount(draw_codes, minlength=b)
        assert occur.min() >= base and occur.max() <= base + 1
        assert int((occur == base + 1).sum()) == extra


def test_fast_rows_deterministic_per_seed(small_population):
    plan = SimpleRandomSampling().plan(small_population.index,
                                       small_population)
    rows_a, _ = plan.rows_matrix_fast(5, 40, fast_generator(3, 5))
    rows_b, _ = plan.rows_matrix_fast(5, 40, fast_generator(3, 5))
    rows_c, _ = plan.rows_matrix_fast(5, 40, fast_generator(4, 5))
    assert np.array_equal(rows_a, rows_b)
    assert not np.array_equal(rows_a, rows_c)


# ----------------------------------------------------------------------
# Estimator-level agreement with the MT path


def test_weighted_means_ks_agreement(small_population):
    """Per-draw weighted means: fast vs MT, two-sample KS at a=0.001."""
    from repro.core.metrics import _row_dot

    delta = _delta(small_population)
    values = np.array([delta[w] for w in small_population])
    critical = 1.95 * math.sqrt(2.0 / DRAWS)
    for method in _methods(small_population, delta):
        plan = method.plan(small_population.index, small_population)
        size = 6
        rows_mt, weights = plan.rows_matrix(
            size, DRAWS, random.Random((3 << 16) ^ size))
        rows_fast, _ = plan.rows_matrix_fast(
            size, DRAWS, fast_generator(3, size))
        means_mt = _row_dot(values[rows_mt], weights)
        means_fast = _row_dot(values[rows_fast], weights)
        assert _ks_statistic(means_mt, means_fast) < critical, method.name


def test_confidence_curves_agree_with_mt(small_population):
    """Fast-path confidence tracks the MT path for all four methods."""
    delta = _delta(small_population)
    slow = ConfidenceEstimator(small_population, delta, draws=DRAWS)
    fast = ConfidenceEstimator(small_population, delta, draws=DRAWS,
                               fast_sampling=True)
    sizes = (4, 10)
    for method in _methods(small_population, delta):
        curve_slow = slow.curve(method, sizes, seed=2)
        curve_fast = fast.curve(method, sizes, seed=2)
        for a, b in zip(curve_slow.confidence, curve_fast.confidence):
            # Each point is a binomial proportion over DRAWS draws;
            # 5 sigma at p(1-p) <= 1/4 plus a small allowance for the
            # genuinely different sampling distributions.
            assert abs(a - b) < 5 * math.sqrt(0.25 / DRAWS) + 0.02, \
                method.name


def test_fast_curve_equals_per_point(small_population):
    delta = _delta(small_population)
    estimator = ConfidenceEstimator(small_population, delta, draws=300,
                                    fast_sampling=True)
    sizes = (3, 7, 12)
    for method in _methods(small_population, delta):
        curve = estimator.curve(method, sizes, seed=6)
        per_point = [estimator.confidence(method, size, seed=6)
                     for size in sizes]
        assert list(curve.confidence) == per_point, method.name


def _paired_fixture(small_population, pairs=3, identical=False, draws=200):
    from repro.core.columnar import DeltaColumn
    from repro.core.estimator import PairedConfidenceEstimator

    gen = np.random.default_rng(0)
    shared = gen.normal(0.02, 1.0, len(small_population))
    deltas = {f"pair{p}": DeltaColumn(
        small_population.index,
        shared if identical else gen.normal(0.02, 1.0,
                                            len(small_population)))
        for p in range(pairs)}
    paired = PairedConfidenceEstimator(small_population, deltas,
                                       draws=draws, fast_sampling=True)
    methods = {key: WorkloadStratification.from_column(delta,
                                                       min_stratum=5)
               for key, delta in deltas.items()}
    return deltas, paired, methods


def test_paired_fast_grouped_curve_equals_single_pair(small_population):
    """curve() shares one row batch across pairs: still bit-equal."""
    deltas, paired, _ = _paired_fixture(small_population)
    sizes = [4, 9]
    grouped = paired.curve(SimpleRandomSampling(), sizes, seed=5)
    for key, delta in deltas.items():
        single = ConfidenceEstimator(small_population, delta, draws=200,
                                     fast_sampling=True)
        assert (grouped[key].confidence
                == single.curve(SimpleRandomSampling(), sizes,
                                seed=5).confidence)


def test_pair_curves_fast_single_pair_is_bit_equal(small_population):
    """With one pair the stacked block IS the single-pair block."""
    deltas, paired, methods = _paired_fixture(small_population, pairs=1)
    sizes = [4, 9]
    strata = paired.pair_curves(methods, sizes, seed=5)
    (key, delta), = deltas.items()
    single = ConfidenceEstimator(small_population, delta, draws=200,
                                 fast_sampling=True)
    assert (strata[key].confidence
            == single.curve(methods[key], sizes, seed=5).confidence)


def test_pair_curves_fast_agrees_at_distribution_level(small_population):
    """Stacked multi-pair draws: per-pair MC agreement, not bitwise."""
    deltas, paired, methods = _paired_fixture(small_population,
                                              draws=DRAWS)
    sizes = [4, 9, 15]
    strata = paired.pair_curves(methods, sizes, seed=5)
    tolerance = 5 * math.sqrt(0.25 / DRAWS) + 0.02
    for key, delta in deltas.items():
        single = ConfidenceEstimator(small_population, delta,
                                     draws=DRAWS, fast_sampling=True)
        expected = single.curve(methods[key], sizes, seed=5)
        for a, b in zip(strata[key].confidence, expected.confidence):
            assert abs(a - b) < tolerance, key


def test_pair_curves_fast_decorrelates_identical_pairs(small_population):
    """Pairs no longer share one uniform block.

    Deriving ``fast_generator(seed, size)`` per pair handed every pair
    the *identical* uniforms: with identical deltas and strata, all
    pairs' confidences came out bitwise equal -- perfectly correlated
    draws posing as independent experiments.  The stacked block gives
    each pair its own column span, so identical pairs now produce
    independent (almost surely differing) curves.
    """
    deltas, paired, methods = _paired_fixture(small_population,
                                              identical=True, draws=400)
    sizes = [4, 9, 15]
    strata = paired.pair_curves(methods, sizes, seed=5)
    curves = [strata[key].confidence for key in deltas]
    assert any(curves[0] != other for other in curves[1:])


# ----------------------------------------------------------------------
# Strictly opt-in: defaults off, goldens untouched


def test_fast_sampling_defaults_off(small_population, monkeypatch):
    monkeypatch.delenv(FAST_SAMPLING_ENV, raising=False)
    assert fast_sampling_default() is False
    delta = _delta(small_population)
    estimator = ConfidenceEstimator(small_population, delta, draws=50)
    assert estimator.fast_sampling is False


def test_env_override_truthiness(monkeypatch):
    for value, expected in (("1", True), ("true", True), ("YES", True),
                            (" on ", True), ("0", False), ("", False),
                            ("no", False), ("off", False)):
        monkeypatch.setenv(FAST_SAMPLING_ENV, value)
        assert fast_sampling_default() is expected, value


def test_session_reads_env_default(monkeypatch, tmp_path):
    from repro.api import Session

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    monkeypatch.delenv(FAST_SAMPLING_ENV, raising=False)
    assert Session("small").fast_sampling is False
    monkeypatch.setenv(FAST_SAMPLING_ENV, "1")
    assert Session("small").fast_sampling is True
    # An explicit argument beats the environment.
    assert Session("small", fast_sampling=False).fast_sampling is False


def test_default_path_bit_identical_regardless_of_flag(small_population):
    """fast_sampling=False must reproduce the historical draws exactly."""
    delta = _delta(small_population)
    default = ConfidenceEstimator(small_population, delta, draws=120)
    explicit = ConfidenceEstimator(small_population, delta, draws=120,
                                   fast_sampling=False)
    for method in _methods(small_population, delta):
        assert (default.confidence(method, 6, seed=4)
                == explicit.confidence(method, 6, seed=4)
                == default.confidence_scalar(method, 6, seed=4))


def test_fast_flag_never_perturbs_planless_methods(small_population):
    """A method without a plan stays bit-compatible even with fast on."""

    class SampleOnly(SimpleRandomSampling):
        def plan(self, index, population):
            return None

    delta = _delta(small_population)
    fast = ConfidenceEstimator(small_population, delta, draws=80,
                               fast_sampling=True)
    slow = ConfidenceEstimator(small_population, delta, draws=80)
    method = SampleOnly()
    assert (fast.confidence(method, 5, seed=2)
            == slow.confidence_scalar(method, 5, seed=2))
