"""The sorted view answers exactly what the per-level Estimate-Rank formula
gives, on real sketches, on edge-value streams, and after mutations.

The references below recompute the answers from ``level_arrays()`` the
long way: a rank is the sum over levels of 2^h times the number of that
level's items <= y, and a quantile comes from a separately merged and
stably sorted coreset.
"""
import numpy as np
import pytest

from repro.baselines.exact import ExactRanks
from repro.baselines.kll import KllSketch
from repro.core import ReqSketch, serde
from repro.core.estimator import SortedView

PHIS = np.linspace(0.0, 1.0, 1001)


def per_level_ranks(sk, ys):
    out = np.zeros(len(ys), dtype=np.int64)
    for w, a in sk.level_arrays():
        out += w * np.searchsorted(np.sort(a), ys, side="right")
    return out


def coreset_quantiles(sk, phis):
    levels = [(w, np.sort(a)) for w, a in sk.level_arrays() if a.size]
    values = np.concatenate([a for _, a in levels])
    weights = np.concatenate([np.full(a.size, w, dtype=np.int64) for w, a in levels])
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    targets = np.clip(np.ceil(phis * cum[-1]), 1, cum[-1])
    return values[order][np.searchsorted(cum, targets, side="left")]


def assert_matches_reference(sk, ys):
    ys = np.concatenate([ys, [-np.inf, np.inf, -0.0, 0.0]])
    assert np.array_equal(sk.ranks(ys), per_level_ranks(sk, ys))
    assert [sk.rank(y) for y in ys[::97]] == list(per_level_ranks(sk, ys[::97]))
    # array_equal compares with ==, so -0.0 and 0.0 count as equal.
    assert np.array_equal(sk.quantiles(PHIS), coreset_quantiles(sk, PHIS))
    assert sk.total_weight() == sum(w * a.size for w, a in sk.level_arrays())


def _lognormal(seed, n=40_000):
    return np.random.default_rng(seed).lognormal(0.0, 1.5, n)


def _merged_req():
    acc = ReqSketch(16, seed=40)
    for i in range(8):
        acc.merge(ReqSketch(16, seed=41 + i).update(_lognormal(50 + i, 3_000 * (i + 1))))
    return acc


SKETCHES = {
    "req_fixed_k": lambda: ReqSketch(16, seed=1).update(_lognormal(10)),
    "req_mergeable": lambda: ReqSketch.from_error_mergeable(
        0.1, 0.1, seed=2, k_const=4
    ).update(_lognormal(11)),
    "req_schedule_all": lambda: ReqSketch(16, seed=3, schedule="all").update(_lognormal(12)),
    "req_merged": _merged_req,
    "kll": lambda: KllSketch(100, seed=5).update(_lognormal(13)),
}


@pytest.mark.parametrize("name", sorted(SKETCHES))
def test_view_matches_per_level_formula(name):
    sk = SKETCHES[name]()
    assert sk.num_levels > 2  # compactions happened
    retained = np.concatenate([a for _, a in sk.level_arrays()])
    grid = np.quantile(retained, np.linspace(0, 1, 257))
    assert_matches_reference(sk, np.concatenate([retained, grid, np.nextafter(grid, 0)]))


# ---------------------------------------------------------------- edge values

N_EDGE = 20_000


def _edge_stream(kind):
    rng = np.random.default_rng(7)
    if kind == "inf":
        x = rng.lognormal(0.0, 1.0, N_EDGE)
        x[:5], x[5:305] = -np.inf, np.inf
        return rng.permutation(x)
    if kind == "signed_zero":
        x = rng.normal(size=N_EDGE)
        idx = rng.permutation(N_EDGE)
        x[idx[: N_EDGE // 5]], x[idx[N_EDGE // 5 : 2 * N_EDGE // 5]] = -0.0, 0.0
        return x
    if kind == "all_equal":
        return np.full(N_EDGE, 3.0)
    if kind == "sorted":
        return np.arange(N_EDGE, dtype=np.float64)
    if kind == "reversed":
        return np.arange(N_EDGE, dtype=np.float64)[::-1].copy()
    raise AssertionError(kind)


EDGE_KINDS = ["inf", "signed_zero", "all_equal", "sorted", "reversed"]
EDGE_SKETCHES = {"req": lambda: ReqSketch(16, seed=8), "kll": lambda: KllSketch(100, seed=9)}


@pytest.mark.parametrize("kind", EDGE_KINDS)
@pytest.mark.parametrize("sketch", sorted(EDGE_SKETCHES))
def test_edge_value_stream(sketch, kind):
    x = _edge_stream(kind)
    sk = EDGE_SKETCHES[sketch]()
    for chunk in np.array_split(x, 7):
        sk.update(chunk)
    exact = ExactRanks(x)
    assert sk.total_weight() == N_EDGE == sk.n
    assert sk.rank(np.inf) == N_EDGE
    assert sk.rank(-0.0) == sk.rank(0.0)
    if sketch == "req":
        # Every item whose true rank is within the protected head is exact.
        ys = exact.values_at_ranks(np.arange(1, sk.protected_head + 1))
        ys = ys[exact.ranks(ys) <= sk.protected_head]
        assert np.array_equal(sk.ranks(ys), exact.ranks(ys))
        if kind in ("inf", "sorted", "reversed"):
            assert ys.size == sk.protected_head
    assert_matches_reference(sk, np.unique(x))


# ---------------------------------------------------------- cache invalidation


def _answers(sk, ys):
    return sk.ranks(ys), sk.quantiles(PHIS), sk.cdf(ys), sk.total_weight()


def _assert_same_answers(sk, ys):
    """The sketch's answers equal those of a view built now from its levels."""
    fresh = SortedView(sk.level_arrays())
    want = fresh.ranks(ys), fresh.quantiles(PHIS), fresh.cdf(ys), fresh.total_weight
    for got, w in zip(_answers(sk, ys), want):
        assert np.array_equal(got, w)


def _retained(sk):
    """n, and each level's weight and sorted items."""
    return sk.n, [(w, np.sort(a).tolist()) for w, a in sk.level_arrays()]


@pytest.mark.parametrize(
    "make", [lambda s: ReqSketch(16, seed=s), lambda s: KllSketch(100, seed=s)], ids=["req", "kll"]
)
def test_mutation_drops_cached_view(make):
    ys = np.quantile(_lognormal(20), np.linspace(0, 1, 65))
    sk = make(21).update(_lognormal(21, 5_000))
    _answers(sk, ys)
    before = _retained(sk)
    _answers(sk, ys)
    sk.rank(1.0), sk.quantile(0.5)
    assert _retained(sk) == before  # a query changes no retained item

    sk.update(_lognormal(22, 100))  # small: may not even compact
    _assert_same_answers(sk, ys)
    sk.update(_lognormal(23, 20_000))
    _assert_same_answers(sk, ys)
    sk.merge(make(24).update(_lognormal(24, 7_000)))
    _assert_same_answers(sk, ys)
    assert sk.total_weight() == 5_000 + 100 + 20_000 + 7_000


def test_query_changes_nothing_on_the_wire():
    sk = ReqSketch(16, seed=21).update(_lognormal(21, 5_000))
    blob = serde.to_bytes(sk)
    _answers(sk, np.linspace(0.0, 100.0, 65))
    sk.rank(1.0), sk.quantile(0.5)
    assert serde.to_bytes(sk) == blob
