"""Tests for the subsampling baselines (paper footnote 1)."""
import numpy as np
import pytest

from repro.baselines.exact import ExactRanks
from repro.baselines.sampling import BernoulliSampler
from repro.synth_data import stream_array


class TestBernoulli:
    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            BernoulliSampler(0.0)
        with pytest.raises(ValueError):
            BernoulliSampler(1.5)

    def test_rate_one_keeps_all(self):
        s = BernoulliSampler(1.0, seed=0).update(np.arange(100.0))
        assert s.num_retained() == 100

    def test_expected_sample_size(self):
        s = BernoulliSampler(0.1, seed=1).update(stream_array("uniform", 50_000, seed=1))
        assert 4_000 < s.num_retained() < 6_000

    def test_rank_estimate_unbiased_mid(self):
        n = 50_000
        data = stream_array("permutation", n, seed=2)
        ests = []
        for seed in range(10):
            s = BernoulliSampler(0.05, seed=seed).update(data)
            ests.append(s.rank(n / 2))
        assert abs(np.mean(ests) - n / 2) < 0.05 * n

    def test_low_rank_relative_error_explodes(self):
        """The motivating failure: at rank 10, a 5% sample is hopeless."""
        n = 50_000
        data = stream_array("permutation", n, seed=3)
        ex = ExactRanks(data)
        y = ex.value_at_rank(10)
        rels = []
        for seed in range(10):
            s = BernoulliSampler(0.05, seed=100 + seed).update(data)
            rels.append(abs(s.rank(y) - 10) / 10)
        assert max(rels) > 0.5  # at least one seed badly wrong

    def test_merge(self):
        a = BernoulliSampler(0.1, seed=4).update(np.arange(1000.0))
        b = BernoulliSampler(0.1, seed=5).update(np.arange(1000.0, 2000.0))
        kept = np.concatenate([a.sample(), b.sample()])
        a.merge(b)
        assert a.n == 2000
        assert np.array_equal(a.sample(), kept)
        with pytest.raises(ValueError):
            a.merge(BernoulliSampler(0.2))

    def test_merge_keeps_source_and_self_merge(self):
        a = BernoulliSampler(0.5, seed=6).update(np.arange(100.0))
        b = BernoulliSampler(0.5, seed=7)
        for chunk in np.array_split(np.arange(100.0, 200.0), 3):
            b.update(chunk)
        b_items = b.sample().copy()
        a.merge(b).merge(b)
        assert np.array_equal(b.sample(), b_items) and b.n == 100
        doubled = np.concatenate([a.sample(), a.sample()])
        a.merge(a)
        assert a.n == 600 and np.array_equal(a.sample(), doubled)
