"""Partition compaction and the early-stopping cascade, each against the
full version it replaced.

``RelativeCompactor.compact`` selects the compacted range with
``np.partition`` and sorts only that range.  ``_full_sort_compact`` below
is the compaction as it was before: sort the whole buffer, then split
it.  ``ReqSketch._compact_cascade`` stops at the first level that is not
full once it is past the levels that received outside items;
``_full_walk_cascade`` is the pass as it was before, over every level.
Every scenario runs twice, once as the code stands and once with the
reference installed, and everything the sketch means must agree: each
compaction's kind, start slot and promoted array in order, each level's
sorted items and schedule state, the generator state, n/N/k/min_B, the
ranks and the (canonical) bytes.
Only the in-memory order of a level's kept items may differ.
"""
import numpy as np
import pytest

from repro.core import serde
from repro.core.compactor import RelativeCompactor
from repro.core.req_sketch import ReqSketch
from repro.spark.aggregate import merge_balanced, merge_sequential
from repro.synth_data import stream_array


def _full_sort_compact(self, rng, start):
    """Reference: the whole buffer sorted, then split at ``start``."""
    if (len(self) - start) % 2 == 1:
        start += 1
    arr = np.sort(self.values())
    kept, tail = arr[:start], arr[start:]
    offset = int(rng.integers(0, 2))
    promoted = tail[offset::2].copy()
    self._chunks = [kept]
    self._count = kept.size
    self.state += 1
    return promoted


def _full_walk_cascade(self, top=None):
    """Reference: the bottom-up pass over every level, whatever ``top``."""
    h = 0
    while h < len(self.levels):
        lv = self.levels[h]
        if len(lv) >= self.B:
            promoted = lv.compact(self.rng, self._scheduled_start(lv.state))
            if h + 1 == len(self.levels):
                self.levels.append(RelativeCompactor())
            self.levels[h + 1].append(promoted)
        h += 1


def _run(monkeypatch, scenario, compact=RelativeCompactor.compact, cascade=None):
    """Run ``scenario`` with ``compact`` (and ``cascade``, if given)
    installed; return the sketch and, in order, every compaction's (kind,
    start slot, promoted items), kind "scheduled" or "special", with a
    ("special pass", its B, no items) entry where each App.-C pass begins."""
    log, kind = [], ["scheduled"]
    special_compact = ReqSketch._special_compact

    def recording(self, rng, start):
        out = compact(self, rng, start)
        log.append((kind[0], start, out.copy()))
        return out

    def flagging(self, levels, B):
        log.append(("special pass", B, np.empty(0)))
        kind[0] = "special"
        try:
            special_compact(self, levels, B)
        finally:
            kind[0] = "scheduled"

    with monkeypatch.context() as m:
        m.setattr(RelativeCompactor, "compact", recording)
        m.setattr(ReqSketch, "_special_compact", flagging)
        if cascade is not None:
            m.setattr(ReqSketch, "_compact_cascade", cascade)
        sk = scenario()
    return sk, log


def _assert_same(monkeypatch, scenario, reference):
    ref, ref_log = _run(monkeypatch, scenario, **reference)
    got, got_log = _run(monkeypatch, scenario)
    assert len(got_log) == len(ref_log) > 0
    for (g_kind, g_start, g), (r_kind, r_start, r) in zip(got_log, ref_log):
        assert (g_kind, g_start) == (r_kind, r_start)
        assert np.array_equal(g, r)
    assert got.num_levels == ref.num_levels
    for g, r in zip(got.levels, ref.levels):
        assert g.state == r.state
        assert np.array_equal(np.sort(g.values()), np.sort(r.values()))
    assert got._rng_state() == ref._rng_state()
    assert (got.n, got.N, got.k, got._min_B) == (ref.n, ref.N, ref.k, ref._min_B)
    ys = np.unique(np.concatenate([lv.values() for lv in ref.levels]))
    assert np.array_equal(got.ranks(ys), ref.ranks(ys))
    assert serde.to_bytes(got) == serde.to_bytes(ref)
    return got_log


def _data(n, seed):
    """Lognormal items with heavy ties: half of them are rounded."""
    x = stream_array("lognormal", n, seed=seed)
    x[::2] = np.floor(x[::2])
    return x


# name -> sketch factory(seed, schedule)
CONFIGS = {
    "k4": lambda seed, schedule: ReqSketch(4, seed=seed, schedule=schedule),
    "k8": lambda seed, schedule: ReqSketch(8, seed=seed, schedule=schedule),
    "k64": lambda seed, schedule: ReqSketch(64, seed=seed, schedule=schedule),
    # N0 = 16: the epochs N = 16, 256, 65 536 and 2**32, each with its own B.
    "small_N0": lambda seed, schedule: ReqSketch(8, seed=seed, schedule=schedule, N0=16),
}
SCHEDULES = ["req", "all"]


@pytest.mark.parametrize("schedule", SCHEDULES)
@pytest.mark.parametrize("config", CONFIGS)
class TestSameAsFullSort:
    REFERENCE = {"compact": _full_sort_compact}

    def test_whole_array_update(self, monkeypatch, config, schedule):
        make = CONFIGS[config]
        _assert_same(
            monkeypatch, lambda: make(1, schedule).update(_data(60_000, 1)), self.REFERENCE
        )

    def test_per_item_update(self, monkeypatch, config, schedule):
        make = CONFIGS[config]

        def scenario():
            sk = make(2, schedule)
            for y in _data(4_000, 2):
                sk.update(y)
            return sk

        _assert_same(monkeypatch, scenario, self.REFERENCE)

    def test_batched_update(self, monkeypatch, config, schedule):
        make = CONFIGS[config]

        def scenario():
            sk = make(3, schedule)
            for batch in np.array_split(_data(30_000, 3), 37):
                sk.update(batch)
            return sk

        _assert_same(monkeypatch, scenario, self.REFERENCE)

    @pytest.mark.parametrize(
        "sizes",
        [(5_000, 5_000), (100_000, 1_000), (1_000, 100_000), (0, 3_000), (40_000, 40)],
        ids=["same_epoch", "lower_epoch_source", "higher_epoch_source", "empty_target", "tiny"],
    )
    def test_merge_across_epochs(self, monkeypatch, config, schedule, sizes):
        make = CONFIGS[config]

        def scenario():
            a, b = (make(10 + i, schedule).update(_data(n, 10 + i)) for i, n in enumerate(sizes))
            return a.merge(b)

        log = _assert_same(monkeypatch, scenario, self.REFERENCE)
        if sizes[1] < sizes[0] >= 100_000:
            kinds = {kind for kind, _, _ in log}
            assert "special pass" in kinds
            # Under "all" with k=64 no growth step finds a non-top level
            # above B/2 + 1 items, so no special compaction moves any.
            assert "special" in kinds or (config, schedule) == ("k64", "all")

    def test_merge_trees_of_decoded_partials(self, monkeypatch, config, schedule):
        make = CONFIGS[config]

        def partials():
            sizes = [200, 30_000, 7, 2_000, 90_000, 500]
            return [
                serde.from_bytes(serde.to_bytes(make(20 + i, schedule).update(_data(n, 20 + i))))
                for i, n in enumerate(sizes)
            ]

        _assert_same(monkeypatch, lambda: merge_balanced(partials()), self.REFERENCE)
        _assert_same(monkeypatch, lambda: merge_sequential(partials()[::-1]), self.REFERENCE)

    def test_self_merge(self, monkeypatch, config, schedule):
        make = CONFIGS[config]

        def scenario():
            sk = make(30, schedule).update(_data(20_000, 30))
            return sk.merge(sk)

        _assert_same(monkeypatch, scenario, self.REFERENCE)


class TestSameAsFullWalk(TestSameAsFullSort):
    """The same scenarios against the cascade that walks every level."""

    REFERENCE = {"cascade": _full_walk_cascade}
