"""Property-based tests (hypothesis) for structural invariants.

These pin the *deterministic* invariants — weight conservation, rank
monotonicity, bounds, head exactness, merge associativity of weights —
over adversarially generated inputs; the statistical error bounds are
covered in test_accuracy_statistical.py.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.kll import KllSketch
from repro.core.req_sketch import ReqSketch

finite_floats = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)
value_lists = st.lists(finite_floats, min_size=0, max_size=400)
ks = st.sampled_from([2, 4, 8, 16])


def _at_rest(sk):
    """No level holds B or more items: every call leaves none full."""
    return all(len(lv) < sk.B for lv in sk.levels)


@settings(max_examples=60, deadline=None)
@given(values=value_lists, k=ks, seed=st.integers(0, 2 ** 16))
def test_req_weight_equals_n(values, k, seed):
    sk = ReqSketch(k, seed=seed).update(np.array(values))
    assert sk.total_weight() == len(values) == sk.n


@settings(max_examples=40, deadline=None)
@given(values=value_lists, k=ks, seed=st.integers(0, 2 ** 16))
def test_req_rank_bounds_and_extremes(values, k, seed):
    sk = ReqSketch(k, seed=seed).update(np.array(values))
    if values:
        assert sk.rank(max(values)) == len(values)
        assert sk.rank(min(values) - 1.0) == 0
    assert sk.rank(2e12) == len(values)


@settings(max_examples=40, deadline=None)
@given(values=st.lists(finite_floats, min_size=2, max_size=300), k=ks,
       seed=st.integers(0, 2 ** 16))
def test_req_rank_monotone(values, k, seed):
    sk = ReqSketch(k, seed=seed).update(np.array(values))
    qs = np.sort(np.array(values))
    est = sk.ranks(qs)
    assert np.all(np.diff(est) >= 0)


@settings(max_examples=40, deadline=None)
@given(
    a=value_lists, b=value_lists, k=ks,
    s1=st.integers(0, 2 ** 10), s2=st.integers(0, 2 ** 10),
)
def test_req_merge_weight_additive(a, b, k, s1, s2):
    sa = ReqSketch(k, seed=s1).update(np.array(a))
    sb = ReqSketch(k, seed=s2).update(np.array(b))
    sa.merge(sb)
    assert sa.total_weight() == len(a) + len(b)
    assert sb.total_weight() == len(b)  # source untouched


@settings(max_examples=30, deadline=None)
@given(
    pieces=st.lists(value_lists, min_size=1, max_size=5),
    k=ks, seed=st.integers(0, 2 ** 10),
)
def test_req_merge_any_grouping_conserves_weight(pieces, k, seed):
    total = sum(len(p) for p in pieces)
    sketches = [
        ReqSketch(k, seed=seed + i).update(np.array(p)) for i, p in enumerate(pieces)
    ]
    assert all(map(_at_rest, sketches))
    acc = sketches[0]
    for s in sketches[1:]:
        acc = acc.merge(s)
        assert _at_rest(acc)
    assert acc.total_weight() == total


@settings(max_examples=30, deadline=None)
@given(values=st.lists(finite_floats, min_size=1, max_size=400, unique=True),
       k=ks, seed=st.integers(0, 2 ** 16))
def test_req_head_exact_any_order(values, k, seed):
    """Ranks <= protected_head estimated exactly for arbitrary inputs."""
    sk = ReqSketch(k, seed=seed).update(np.array(values))
    srt = np.sort(np.array(values))
    head = min(sk.protected_head, len(values))
    est = sk.ranks(srt[:head])
    assert np.array_equal(est, np.arange(1, head + 1))


@settings(max_examples=30, deadline=None)
@given(values=value_lists, seed=st.integers(0, 2 ** 16))
def test_kll_weight_equals_n(values, seed):
    sk = KllSketch(k=20, seed=seed).update(np.array(values))
    assert sk.total_weight() == len(values)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(finite_floats, min_size=1, max_size=300),
       seed=st.integers(0, 2 ** 16))
def test_quantile_in_stored_range(values, seed):
    sk = ReqSketch(4, seed=seed).update(np.array(values))
    q = sk.quantile(0.5)
    assert min(values) <= q <= max(values)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(finite_floats, min_size=1, max_size=300),
       k=ks, seed=st.integers(0, 2 ** 16))
def test_serde_roundtrip_property(values, k, seed):
    from repro.core import serde

    sk = ReqSketch(k, seed=seed).update(np.array(values))
    cp = serde.from_bytes(serde.to_bytes(sk))
    qs = np.sort(np.array(values))
    assert np.array_equal(cp.ranks(qs), sk.ranks(qs))


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(0, 3_000),
    cuts=st.lists(st.integers(0, 3_000), max_size=40),
    singles=st.lists(st.integers(0, 3_000), max_size=20),
    k=ks,
    seed=st.integers(0, 2 ** 16),
)
def test_req_bytes_do_not_depend_on_how_update_calls_split_the_stream(n, cuts, singles, k, seed):
    """Growth (special compactions, then N <- N^2) runs at the item where
    n first exceeds N, whatever the chunk boundaries.  The item at each
    of ``singles`` goes in as a scalar, and an empty call follows every
    chunk."""
    from repro.core import serde

    x = np.random.default_rng(seed).lognormal(size=n)
    whole = ReqSketch(k, seed=seed).update(x)
    pieces = ReqSketch(k, seed=seed)
    bounds = {*cuts, *singles, *(i + 1 for i in singles)}
    for chunk in np.split(x, sorted(c for c in bounds if c <= n)):
        for call in (float(chunk[0]) if chunk.size == 1 else chunk, []):
            pieces.update(call)
            assert _at_rest(pieces)
    assert serde.to_bytes(pieces) == serde.to_bytes(whole)


def _kll_at_rest(sk):
    """No level holds its capacity or more items, at the current height."""
    return all(len(lv) < sk.capacity(h) for h, lv in enumerate(sk.levels))


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from([4, 8, 20, 50]),
    calls=st.lists(st.tuples(st.booleans(), st.integers(0, 700)), min_size=1, max_size=12),
    seed=st.integers(0, 2 ** 16),
)
def test_kll_levels_rest_below_capacity(k, calls, seed):
    """After every update or merge, no level is at or over its capacity:
    a new top level shrinks the capacities below it."""
    rng = np.random.default_rng(seed)
    sk = KllSketch(k=k, seed=seed)
    for i, (merge, size) in enumerate(calls):
        x = rng.lognormal(size=size)
        if merge:
            sk.merge(KllSketch(k=k, seed=seed + i + 1).update(x))
        else:
            sk.update(x)
        assert _kll_at_rest(sk)


def _states_at_rest(sk):
    """The top level has never compacted, so its schedule state is 0;
    every lower level has, or has ORed in an operand's level that has."""
    states = [lv.state for lv in sk.levels]
    return states[-1] == 0 and all(s >= 1 for s in states[:-1])


@settings(max_examples=80, deadline=None)
@given(
    k=st.sampled_from([2, 4, 8]),
    schedule=st.sampled_from(["req", "all"]),
    calls=st.lists(
        st.tuples(st.booleans(), st.integers(0, 700), st.sampled_from([None, 4, 16, 64, 4096])),
        min_size=1,
        max_size=10,
    ),
    seed=st.integers(0, 2 ** 16),
)
def test_req_level_states_at_rest(k, schedule, calls, seed):
    """After every update or merge, the sketch and each operand hold the
    level states the decoders accept."""
    rng = np.random.default_rng(seed)
    sk = ReqSketch(k, schedule=schedule, seed=seed, N0=calls[0][2])
    assert _states_at_rest(sk)
    for i, (merge, size, N0) in enumerate(calls):
        x = rng.lognormal(size=size)
        if merge:
            other = ReqSketch(k, schedule=schedule, seed=seed + i + 1, N0=N0).update(x)
            assert _states_at_rest(other)
            sk.merge(other)
        else:
            sk.update(x)
        assert _states_at_rest(sk)
