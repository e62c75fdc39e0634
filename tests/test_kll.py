"""Tests for the KLL additive-error baseline."""
import hashlib

import numpy as np
import pytest

from repro.baselines.exact import ExactRanks
from repro.baselines.kll import KllSketch
from repro.synth_data import stream_array


class TestBasics:
    def test_empty(self):
        sk = KllSketch(k=20)
        assert sk.n == 0 and sk.num_retained() == 0

    def test_small_k_rejected(self):
        with pytest.raises(ValueError):
            KllSketch(k=3)

    @pytest.mark.parametrize("n", [1, 10, 1000, 54321])
    def test_weight_conserved(self, n):
        sk = KllSketch(k=30, seed=1).update(stream_array("uniform", n, seed=1))
        assert sk.total_weight() == n == sk.n

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            KllSketch(k=20).update([float("nan")])

    def test_space_bounded(self):
        """Retained ~ k/(1-c) = 3k regardless of n (the additive win)."""
        for n in (10_000, 100_000):
            sk = KllSketch(k=60, seed=2).update(stream_array("uniform", n, seed=2))
            assert sk.num_retained() <= 6 * 60

    def test_capacity_decay(self):
        sk = KllSketch(k=64, seed=3).update(stream_array("uniform", 50_000, seed=3))
        caps = [sk.capacity(h) for h in range(sk.num_levels)]
        assert caps[-1] == 64 and caps[0] < caps[-1]
        assert all(c >= 2 for c in caps)


class TestAccuracy:
    @pytest.mark.parametrize("seed", range(3))
    def test_additive_error_bound(self, seed):
        """|err| <= ~2.5% of n everywhere for k=200 (statistical, pinned seeds)."""
        n = 50_000
        data = stream_array("permutation", n, seed=seed)
        sk = KllSketch(k=200, seed=seed).update(data)
        ex = ExactRanks(data)
        qs = np.linspace(1, n, 100)
        err = np.abs(sk.ranks(qs).astype(float) - ex.ranks(qs))
        assert err.max() < 0.025 * n, err.max()

    def test_relative_error_blows_up_at_tail(self):
        """The contrast the paper is about: additive error makes relative
        error explode at low ranks."""
        n = 100_000
        data = stream_array("permutation", n, seed=5)
        sk = KllSketch(k=200, seed=5).update(data)
        ex = ExactRanks(data)
        y_small = ex.value_at_rank(5)
        rel_small = abs(sk.rank(y_small) - 5) / 5
        y_mid = ex.value_at_rank(n // 2)
        rel_mid = abs(sk.rank(y_mid) - n // 2) / (n // 2)
        assert rel_small > 10 * max(rel_mid, 1e-4)

    def test_rank_monotone(self):
        sk = KllSketch(k=50, seed=6).update(stream_array("uniform", 20_000, seed=6))
        est = sk.ranks(np.linspace(0, 1, 100))
        assert np.all(np.diff(est) >= 0)

    def test_quantiles_sane(self):
        sk = KllSketch(k=200, seed=7).update(stream_array("uniform", 50_000, seed=7))
        q = sk.quantiles([0.1, 0.5, 0.9])
        assert abs(q[0] - 0.1) < 0.05 and abs(q[1] - 0.5) < 0.05 and abs(q[2] - 0.9) < 0.05


class TestMerge:
    def test_weight_additive(self):
        a = KllSketch(k=50, seed=8).update(stream_array("uniform", 7000, seed=8))
        b = KllSketch(k=50, seed=9).update(stream_array("uniform", 5000, seed=9))
        a.merge(b)
        assert a.total_weight() == 12_000

    def test_k_mismatch_rejected(self):
        with pytest.raises(ValueError):
            KllSketch(k=50).merge(KllSketch(k=60))

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            KllSketch(k=50).merge(object())

    def test_merged_accuracy(self):
        n = 40_000
        data = stream_array("permutation", n, seed=10)
        a = KllSketch(k=200, seed=11).update(data[: n // 2])
        b = KllSketch(k=200, seed=12).update(data[n // 2 :])
        a.merge(b)
        ex = ExactRanks(data)
        qs = np.linspace(1, n, 50)
        err = np.abs(a.ranks(qs).astype(float) - ex.ranks(qs))
        assert err.max() < 0.04 * n

    def test_space_stays_bounded_after_merges(self):
        acc = KllSketch(k=60, seed=13)
        for i in range(10):
            acc.merge(KllSketch(k=60, seed=20 + i).update(stream_array("uniform", 5000, seed=30 + i)))
        assert acc.num_retained() <= 8 * 60



def _pinned_run(seed):
    """Split updates, a merge, a self-merge and single-item updates, all
    from fixed seeds, over lognormal items with heavy ties."""
    data = stream_array("lognormal", 12_000, seed=seed)
    data[::3] = np.floor(data[::3])
    a = KllSketch(k=24, seed=seed)
    for batch in np.array_split(data[:8_000], 11):
        a.update(batch)
    a.merge(KllSketch(k=24, seed=seed + 100).update(data[8_000:11_000]))
    a.merge(a)
    for y in data[11_000:11_200]:
        a.update(y)
    return a, data


def _pin_of(seed):
    """(n, level sizes, digest of each level's sorted items, ranks at nine
    fixed quantiles of the input)."""
    sk, data = _pinned_run(seed)
    levels = sk.level_arrays()
    digest = hashlib.sha256()
    for _, items in levels:
        digest.update(np.sort(items).tobytes())
    grid = np.quantile(data, np.linspace(0.0, 1.0, 9))
    return sk.n, [a.size for _, a in levels], digest.hexdigest()[:24], sk.ranks(grid).tolist()


# seed -> _pin_of(seed).  Recorded before KLL's levels moved onto the shared
# level buffer; a refactor must leave every entry unchanged.  After a
# deliberate change to KLL's algorithm, regenerate from the repository root:
#   PYTHONPATH=src python -c "from tests.test_kll import _pin_of
#   for s in range(4): print(s, _pin_of(s))"
KLL_PIN = {
    0: (22200, [0, 0, 0, 1, 1, 3, 3, 7, 2, 0, 20], "b5e815d64dabded4b08d0d41",
        [1024, 5440, 7488, 9704, 10744, 13848, 16152, 18328, 22200]),
    1: (22200, [0, 0, 0, 1, 1, 3, 3, 7, 2, 0, 20], "75f6b8fde4083fcf9940dc05",
        [512, 4944, 7128, 9208, 11288, 13464, 15512, 17688, 22200]),
    2: (22200, [0, 0, 0, 1, 1, 3, 3, 7, 2, 0, 20], "8d75b3fac0659005afa7b5eb",
        [576, 5056, 6216, 8296, 11368, 13416, 15720, 17768, 22200]),
    3: (22200, [0, 0, 0, 1, 1, 3, 3, 7, 2, 0, 20], "09ff2d0d9d23b35ccb7fff0f",
        [128, 3936, 5992, 7272, 10472, 12696, 13720, 16920, 22200]),
}


@pytest.mark.parametrize("seed", sorted(KLL_PIN))
def test_fixed_seed_pin(seed):
    assert _pin_of(seed) == KLL_PIN[seed]
