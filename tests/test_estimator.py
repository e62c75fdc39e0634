"""Unit tests for the sorted view and the query methods on hand-built levels."""
import numpy as np
import pytest

from repro.core import estimator as E


class FakeSketch(E.Queries):
    """Fixed levels behind the shared query methods, for arithmetic-exact tests."""

    def __init__(self, levels):
        self._levels = [(w, np.asarray(a, dtype=np.float64)) for w, a in levels]

    def level_arrays(self):
        return self._levels


class TestRanks:
    def test_single_level_weight_one(self):
        sk = FakeSketch([(1, [1.0, 2.0, 3.0, 4.0])])
        assert sk.rank(2.5) == 2
        assert sk.rank(2.0) == 2  # inclusive
        assert sk.rank(0.0) == 0
        assert sk.rank(9.0) == 4

    def test_weighted_levels_sum(self):
        sk = FakeSketch([(1, [5.0, 1.0]), (2, [6.0, 2.0]), (4, [3.0])])
        # R(4) = 1*|{1}| + 2*|{2}| + 4*|{3}| = 1 + 2 + 4 = 7
        assert sk.rank(4.0) == 7
        assert sk.rank(0.5) == 0
        assert sk.rank(10.0) == 1 * 2 + 2 * 2 + 4 * 1

    def test_vectorized_matches_scalar(self):
        sk = FakeSketch([(1, np.arange(10.0)[::-1]), (2, np.arange(0.5, 10.5))])
        qs = np.linspace(-1, 11, 37)
        vec = sk.ranks(qs)
        assert vec.dtype == np.int64
        assert list(vec) == [sk.rank(q) for q in qs]

    def test_empty_levels_skipped(self):
        sk = FakeSketch([(1, []), (2, [1.0])])
        assert sk.rank(1.0) == 2

    def test_duplicates(self):
        sk = FakeSketch([(1, [2.0, 2.0, 2.0])])
        assert sk.rank(2.0) == 3
        assert sk.rank(1.9) == 0

    def test_nan_query_rejected(self):
        sk = FakeSketch([(1, [1.0, 2.0])])
        with pytest.raises(ValueError):
            sk.rank(float("nan"))
        with pytest.raises(ValueError):
            sk.ranks([1.0, float("nan")])


class TestTotalWeightAndCoreset:
    def test_total_weight(self):
        sk = FakeSketch([(1, [1.0, 2.0]), (4, [3.0, 4.0, 5.0])])
        assert sk.total_weight() == 2 + 12

    def test_total_weight_empty(self):
        assert FakeSketch([]).total_weight() == 0

    def test_coreset_sorted_and_weighted(self):
        view = E.SortedView([(1, np.array([5.0, 1.0])), (2, np.array([3.0]))])
        assert list(view.values) == [1.0, 3.0, 5.0]
        assert list(view.cum) == [1, 3, 4]
        assert view.total_weight == 4

    def test_coreset_empty(self):
        view = E.SortedView([])
        assert view.values.size == 0 and view.cum.size == 0
        assert view.total_weight == 0
        assert list(view.ranks([1.0, -np.inf])) == [0, 0]


class TestCdf:
    def test_values(self):
        sk = FakeSketch([(1, [1.0, 2.0, 3.0, 4.0])])
        c = sk.cdf([0.0, 2.0, 4.0])
        assert list(c) == [0.0, 0.5, 1.0]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            FakeSketch([]).cdf([1.0])


class TestQuantiles:
    def test_exact_small(self):
        sk = FakeSketch([(1, [10.0, 20.0, 30.0, 40.0])])
        assert sk.quantile(0.0) == 10.0
        assert sk.quantile(0.25) == 10.0
        assert sk.quantile(0.5) == 20.0
        assert sk.quantile(1.0) == 40.0

    def test_weighted(self):
        sk = FakeSketch([(1, [1.0]), (3, [2.0])])  # weights: 1@1, 3@2
        assert sk.quantile(0.25) == 1.0
        assert sk.quantile(0.5) == 2.0

    def test_out_of_range_rejected(self):
        sk = FakeSketch([(1, [1.0])])
        with pytest.raises(ValueError):
            sk.quantiles([1.5])
        with pytest.raises(ValueError):
            sk.quantiles([-0.1])
        with pytest.raises(ValueError):
            sk.quantiles([0.5, float("nan")])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            FakeSketch([]).quantile(0.5)

    def test_monotone_in_phi(self):
        rng = np.random.default_rng(0)
        sk = FakeSketch([(1, rng.random(50)), (2, rng.random(20))])
        qs = sk.quantiles(np.linspace(0, 1, 50))
        assert np.all(np.diff(qs) >= 0)
