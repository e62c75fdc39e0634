"""Unit tests for the REQ sketch (paper Algorithm 2 + §5 growth)."""
import numpy as np
import pytest

from repro.baselines.exact import ExactRanks, relative_errors
from repro.baselines.kll import KllSketch
from repro.core import params as P, serde
from repro.core.req_sketch import ReqSketch
from repro.synth_data import stream_array

KINDS = ["permutation", "sorted", "reversed", "uniform", "lognormal"]


class TestBasics:
    def test_empty(self):
        sk = ReqSketch(k=8)
        assert sk.n == 0
        assert sk.num_retained() == 0 and sk.total_weight() == 0

    def test_single_item(self):
        sk = ReqSketch(k=8).update(5.0)
        assert sk.n == 1 and sk.rank(5.0) == 1 and sk.rank(4.9) == 0

    def test_small_stream_is_exact(self):
        """Below one buffer the sketch stores everything — zero error."""
        sk = ReqSketch(k=8)
        data = np.random.default_rng(0).random(sk.B - 1)
        sk.update(data)
        ex = ExactRanks(data)
        qs = np.linspace(0, 1, 33)
        assert np.array_equal(sk.ranks(qs), ex.ranks(qs))

    def test_update_returns_self(self):
        sk = ReqSketch(k=8)
        assert sk.update([1.0, 2.0]) is sk

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ReqSketch(k=8).update([1.0, float("nan")])

    def test_accepts_iterables_and_scalars(self):
        sk = ReqSketch(k=8)
        sk.update([1, 2, 3])
        sk.update(np.arange(4))
        sk.update(7)
        assert sk.n == 8

    @pytest.mark.parametrize("N0", [1, 0, -4])
    def test_N0_below_2_rejected(self, N0):
        """Rejected up front: such a sketch encoded a blob the decoder
        refuses, and its growth step raised after counting the items."""
        with pytest.raises(ValueError, match="N0 must be >= 2"):
            ReqSketch(8, N0=N0)

    @pytest.mark.parametrize("N0", [100.7, 64.0, "64"])
    def test_non_integer_N0_rejected(self, N0):
        """Not truncated or parsed to an integer bound, as ``k`` is not."""
        with pytest.raises(TypeError, match="integer"):
            ReqSketch(8, N0=N0)

    def test_numpy_integer_N0_accepted(self):
        sk = ReqSketch(8, N0=np.int64(64))
        assert sk.N == 64 and type(sk.N) is int

    def test_N0_of_2_round_trips_and_grows(self):
        sk = ReqSketch(8, N0=2)
        assert serde.from_bytes(serde.to_bytes(sk)).N == 2
        sk.update([1.0, 2.0, 3.0])
        assert sk.n == 3 and sk.N == 4 and sk.ranks([2.0]).tolist() == [2]
        assert serde.from_bytes(serde.to_bytes(sk)).N == 4

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError), ("1", TypeError)])
    def test_bad_seed_rejected_at_construction(self, seed, error):
        """The generator is built at the first compaction, so a bad seed
        would otherwise fail there, mid-update, with level 0 full."""
        with pytest.raises(error):
            ReqSketch(8, seed=seed)

    @pytest.mark.parametrize(
        "kwargs, error, match",
        [
            ({"k": 4.5}, TypeError, "integer"),
            ({"k": 6.9}, TypeError, "integer"),
            ({"k": "8"}, TypeError, "integer"),
            ({"k": 3}, ValueError, "k must be an even integer >= 2, got 3"),
            ({"k": 2 ** 32}, ValueError, f"^k = {2 ** 32} does not fit the format's 32 bits"),
        ],
    )
    def test_bad_k_rejected_at_construction(self, kwargs, error, match):
        """Not rounded to an integer, and no k the wire's 32 bits cannot hold."""
        with pytest.raises(error, match=match):
            ReqSketch(**kwargs)

    def test_default_is_fixed_k_32(self):
        sk = ReqSketch()
        assert sk.k == 32
        assert serde.to_bytes(sk) == serde.to_bytes(ReqSketch(32))

    @pytest.mark.parametrize("k", [np.int64(8), np.uint32(8), np.int8(8)])
    def test_integral_numpy_k_accepted(self, k):
        sk = ReqSketch(k).update(np.arange(1000.0))
        assert sk.k == 8 and type(sk.k) is int and sk.num_levels > 1

    @pytest.mark.parametrize("seed", [0, 7, np.int64(7), 2 ** 70, np.random.SeedSequence(7)])
    def test_good_seeds_accepted(self, seed):
        sk = ReqSketch(8, seed=seed).update(np.arange(1000.0))
        assert sk.n == 1000 and sk.num_levels > 1

    def test_repr_mentions_key_fields(self):
        r = repr(ReqSketch(k=8).update(np.arange(10.0)))
        assert "k=8" in r and "n=10" in r


class TestWeightConservation:
    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("k", [4, 8, 32])
    def test_streaming_exact_weight(self, kind, k):
        n = 20_000
        sk = ReqSketch(k, seed=1).update(stream_array(kind, n, seed=2))
        assert sk.total_weight() == n == sk.n

    @pytest.mark.parametrize("n", [1, 10, 100, 1000, 54321])
    def test_every_size(self, n):
        sk = ReqSketch(8, seed=3).update(stream_array("uniform", n, seed=4))
        assert sk.total_weight() == n


class TestHeadExactness:
    """Deterministic guarantee: ranks <= B/2 are estimated exactly
    (the protected prefix is never compacted — paper §2.4 property 2)."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_low_ranks_zero_error(self, kind, seed):
        """Any input order: ranks <= protected_head (min-epoch B/2) exact."""
        n = 30_000
        data = stream_array(kind, n, seed=seed)
        sk = ReqSketch(8, seed=seed).update(data)
        ex = ExactRanks(data)
        ys = ex.values_at_ranks(np.arange(1, sk.protected_head + 1))
        assert np.array_equal(sk.ranks(ys), ex.ranks(ys))

    @pytest.mark.parametrize("kind", KINDS)
    def test_known_n_full_head_exact(self, kind):
        """With N0 >= n (known stream length) the buffer never grows, so
        the full final B/2 head is exact even for adversarial orders."""
        n = 30_000
        data = stream_array(kind, n, seed=5)
        sk = ReqSketch(8, seed=5, N0=n).update(data)
        ex = ExactRanks(data)
        head = sk.B // 2
        assert sk.protected_head == head
        ys = ex.values_at_ranks(np.arange(1, head + 1))
        assert np.array_equal(sk.ranks(ys), ex.ranks(ys))

    def test_min_item_always_stored(self):
        data = stream_array("permutation", 30_000, seed=9)
        sk = ReqSketch(8, seed=9).update(data)
        stored = np.concatenate([lv.values() for lv in sk.levels])
        assert data.min() in stored


class TestAccuracy:
    @pytest.mark.parametrize("seed", range(5))
    def test_relative_error_within_bound(self, seed):
        """k=32 should keep relative error well under 5% everywhere
        (statistical; fixed seeds keep this deterministic)."""
        n = 50_000
        data = stream_array("permutation", n, seed=seed)
        sk = ReqSketch(32, seed=seed).update(data)
        ex = ExactRanks(data)
        ranks = np.unique(np.clip(np.logspace(0, np.log10(n), 40).astype(int), 1, n))
        ys = ex.values_at_ranks(ranks)
        rel = relative_errors(sk.ranks(ys), ex.ranks(ys))
        assert rel.max() < 0.05, rel.max()

    def test_rank_monotone_in_y(self):
        data = stream_array("uniform", 20_000, seed=5)
        sk = ReqSketch(8, seed=5).update(data)
        qs = np.linspace(0, 1, 200)
        est = sk.ranks(qs)
        assert np.all(np.diff(est) >= 0)

    def test_rank_bounds(self):
        data = stream_array("uniform", 20_000, seed=6)
        sk = ReqSketch(8, seed=6).update(data)
        assert sk.rank(-1.0) == 0
        assert sk.rank(2.0) == sk.total_weight() == 20_000

    def test_quantile_rank_duality(self):
        data = stream_array("permutation", 20_000, seed=7)
        sk = ReqSketch(16, seed=7).update(data)
        for phi in (0.01, 0.1, 0.5, 0.9, 0.999):
            q = sk.quantile(phi)
            # The estimated rank of the returned item is close to phi*n.
            assert abs(sk.rank(q) - phi * sk.n) <= max(0.02 * phi * sk.n + 1, 64)

    def test_cdf(self):
        data = stream_array("uniform", 10_000, seed=8)
        sk = ReqSketch(16, seed=8).update(data)
        c = sk.cdf([0.0, 0.5, 1.0])
        assert c[0] <= 0.01 and abs(c[1] - 0.5) < 0.05 and c[2] == 1.0


class TestGrowth:
    def test_N_squares(self):
        sk = ReqSketch(4)  # N0 = 32
        assert sk.N == 32
        sk.update(np.arange(33.0))
        assert sk.N == 32 * 32
        sk.update(np.arange(2000.0))
        assert sk.N == 32 ** 4

    def test_growth_preserves_weight_and_order(self):
        n = 10_000
        data = stream_array("permutation", n, seed=11)
        sk = ReqSketch(4, seed=11).update(data)  # many growth epochs
        assert sk.total_weight() == n
        assert sk.N >= n

    def test_buffer_grows_with_N(self):
        sk = ReqSketch(4)
        b0 = sk.B
        sk.update(stream_array("uniform", 5_000, seed=12))
        assert sk.B > b0

    def test_retained_bounded_by_capacity(self):
        sk = ReqSketch(8, seed=13).update(stream_array("uniform", 100_000, seed=13))
        assert sk.num_retained() <= sk.B * sk.num_levels


class TestFactories:
    def test_from_error_streaming_uses_eq6(self):
        n = 1 << 18
        sk = ReqSketch.from_error_streaming(0.1, 0.05, n)
        assert sk.k == P.k_streaming(0.1, 0.05, n)
        assert sk.N >= n  # no growth needed during the stream

    def test_from_error_streaming_no_growth_within_n(self):
        n = 4096
        sk = ReqSketch.from_error_streaming(0.2, 0.1, n)
        N_before = sk.N
        sk.update(stream_array("uniform", n, seed=1))
        assert sk.N == N_before

    def test_from_error_small_delta(self):
        sk = ReqSketch.from_error_small_delta(0.1, 1e-9, 1 << 16)
        assert sk.k == P.k_small_delta(0.1, 1e-9)


class TestSchedulesShareCode:
    def test_naive_keeps_weight(self):
        n = 30_000
        sk = ReqSketch(8, seed=3, schedule="all").update(stream_array("uniform", n, seed=3))
        assert sk.total_weight() == n

    def test_naive_head_exact_too(self):
        n = 30_000
        data = stream_array("permutation", n, seed=4)
        sk = ReqSketch(8, seed=4, schedule="all").update(data)
        ex = ExactRanks(data)
        ys = ex.values_at_ranks(np.arange(1, sk.B // 2 + 1))
        assert np.array_equal(sk.ranks(ys), ex.ranks(ys))


class TestCopy:
    def test_copy_independent(self):
        sk = ReqSketch(8, seed=1).update(stream_array("uniform", 5000, seed=1))
        cp = sk.copy()
        assert cp.total_weight() == sk.total_weight()
        cp.update(np.arange(100.0))
        assert sk.n == 5000 and cp.n == 5100

    def test_copy_preserves_estimates(self):
        sk = ReqSketch(8, seed=2).update(stream_array("uniform", 5000, seed=2))
        cp = sk.copy()
        qs = np.linspace(0, 1, 50)
        assert np.array_equal(sk.ranks(qs), cp.ranks(qs))

    @pytest.mark.parametrize(
        "make",
        [lambda: ReqSketch(8, seed=3), lambda: ReqSketch(4, seed=3, schedule="all", N0=64)],
        ids=["fixed", "all_N0"],
    )
    def test_copy_sets_what_the_constructor_sets(self, make):
        """``copy`` (``_from_state``) restores every attribute the
        constructor sets, to an equal value."""
        sk, cp = make(), make().copy()
        assert vars(cp).keys() == vars(sk).keys()
        for name, value in vars(sk).items():
            if name == "levels":
                assert [(lv.state, len(lv)) for lv in cp.levels] == [(lv.state, len(lv)) for lv in value]
            else:
                assert getattr(cp, name) == value, name


def _contents(sk):
    """n and every level's (weight, sorted items) of a sketch."""
    return sk.n, [(w, np.sort(a).tolist()) for w, a in sk.level_arrays()]


@pytest.mark.parametrize(
    "make", [lambda: ReqSketch(8, seed=5), lambda: KllSketch(200, seed=5)], ids=["req", "kll"]
)
class TestUpdateOwnsItsItems:
    """``update`` keeps a copy of its input: writes into the caller's array
    afterwards change neither the sketch nor a merge target of it."""

    @pytest.mark.parametrize("merged", [False, True], ids=["updated", "merged"])
    @pytest.mark.parametrize("fill", [100.0, -1.0, np.nan])
    @pytest.mark.parametrize("n", [10, 3_010])
    def test_later_writes_not_seen(self, make, n, fill, merged):
        data = stream_array("uniform", n, seed=6)
        given = data.copy()
        sk = make().update(given)
        target = make().merge(sk) if merged else None
        given[:] = fill
        ref = make().update(data)
        assert _contents(sk) == _contents(ref)
        if merged:
            assert _contents(target) == _contents(make().merge(ref))
        if isinstance(sk, ReqSketch):
            assert serde.to_bytes(serde.from_bytes(serde.to_bytes(sk))) == serde.to_bytes(ref)
