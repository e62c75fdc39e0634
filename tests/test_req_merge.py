"""Merge-operation tests (paper Algorithm 4 / Appendix C)."""
import numpy as np
import pytest

from repro.baselines.exact import ExactRanks, relative_errors
from repro.core import params as P, serde
from repro.core.req_sketch import ReqSketch
from repro.synth_data import stream_array


def sketch_of(data, *, k=8, seed=0, schedule="req"):
    return ReqSketch(k, seed=seed, schedule=schedule).update(data)


class TestMergeBasics:
    def test_weight_additive(self):
        a = sketch_of(stream_array("uniform", 7_000, seed=1), seed=1)
        b = sketch_of(stream_array("uniform", 9_000, seed=2), seed=2)
        a.merge(b)
        assert a.n == 16_000 and a.total_weight() == 16_000

    def test_source_unchanged(self):
        a = sketch_of(stream_array("uniform", 5_000, seed=3), seed=3)
        b = sketch_of(stream_array("uniform", 5_000, seed=4), seed=4)
        b_weight = b.total_weight()
        b_ranks = b.ranks(np.linspace(0, 1, 20))
        a.merge(b)
        assert b.total_weight() == b_weight
        assert np.array_equal(b.ranks(np.linspace(0, 1, 20)), b_ranks)

    def test_merge_empty_noop(self):
        a = sketch_of(stream_array("uniform", 5_000, seed=5), seed=5)
        w = a.total_weight()
        a.merge(ReqSketch(8))
        assert a.total_weight() == w

    def test_merge_into_empty(self):
        a = ReqSketch(8, seed=6)
        b = sketch_of(stream_array("uniform", 5_000, seed=7), seed=7)
        a.merge(b)
        assert a.total_weight() == 5_000

    def test_merge_of_nondestructive(self):
        a = sketch_of(stream_array("uniform", 3_000, seed=8), seed=8)
        b = sketch_of(stream_array("uniform", 3_000, seed=9), seed=9)
        m = a.copy().merge(b)
        assert m.n == 6_000 and a.n == 3_000 and b.n == 3_000

    def test_merge_very_unequal_sizes(self):
        a = sketch_of(stream_array("uniform", 100_000, seed=10), seed=10)
        b = sketch_of(np.array([0.5]), seed=11)
        a.merge(b)
        assert a.total_weight() == 100_001

    def test_singleton_inserts_equal_merge(self):
        """Inserting one item == merging a singleton sketch (paper remark)."""
        base = stream_array("uniform", 2_000, seed=12)
        s1 = sketch_of(base, seed=13).update(0.42)
        s2 = sketch_of(base, seed=13).merge(sketch_of(np.array([0.42]), seed=14))
        assert s1.n == s2.n == 2_001
        # Same deterministic head behaviour (estimates may differ by coin
        # flips but weights must agree).
        assert s1.total_weight() == s2.total_weight()


# (target, source) sizes for each relation of the operands' growth epochs.
EPOCH_SIZES = {
    "same_epoch": (5_000, 5_000),
    "lower_epoch_special": (100_000, 1_000),
    "lower_epoch_small_levels": (100_000, 50),
    "higher_epoch": (50, 100_000),
    # The target's levels start out as the source's very arrays.
    "empty_target": (0, 2_500),
}
EPOCH_CASES = list(EPOCH_SIZES)


def _epoch_case(case, decoded):
    """(target, source) for one case of ``EPOCH_SIZES``."""
    a, b = (sketch_of(stream_array("uniform", n, seed=70 + i), seed=70 + i)
            for i, n in enumerate(EPOCH_SIZES[case]))
    if case == "same_epoch":
        assert a.N == b.N
    elif case == "higher_epoch":
        assert b.N > a.N
    elif case == "empty_target":
        assert a.n == 0 and b.N > a.N
        # An unsorted bottom level, so that sorting it in place would show.
        assert np.any(np.diff(b.levels[0].values()) < 0)
    else:
        assert b.N < a.N
        # App. C's special compaction of b, under b's own B, moves items.
        moves = any(len(lv) > b.B // 2 + 1 for lv in b.levels[:-1])
        assert moves == (case == "lower_epoch_special")
    if decoded:
        a, b = serde.from_bytes(serde.to_bytes(a)), serde.from_bytes(serde.to_bytes(b))
    return a, b


class TestMergeWithoutCopy:
    """``merge`` reads its source in place, also when the source is the
    target or App. C's special compaction moves its items."""

    @pytest.mark.parametrize("decoded", [False, True])
    @pytest.mark.parametrize("case", EPOCH_CASES)
    def test_source_bytes_unchanged(self, case, decoded):
        a, b = _epoch_case(case, decoded)
        before = serde.to_bytes(b)
        a.merge(b)
        assert serde.to_bytes(b) == before

    @pytest.mark.parametrize("case", EPOCH_CASES)
    def test_same_result_as_merging_a_copy(self, case):
        a, b = _epoch_case(case, decoded=True)
        a2, b2 = _epoch_case(case, decoded=True)
        assert serde.to_bytes(a.merge(b)) == serde.to_bytes(a2.merge(b2.copy()))

    @pytest.mark.parametrize("n", [50, 3_000, 40_000])
    def test_self_merge_equals_merge_of_copy(self, n):
        data = stream_array("uniform", n, seed=80)
        a, a2 = sketch_of(data, seed=80), sketch_of(data, seed=80)
        a.merge(a)
        a2.merge(a2.copy())
        assert a.n == 2 * n
        assert serde.to_bytes(a) == serde.to_bytes(a2)

    @pytest.mark.parametrize("case", EPOCH_CASES)
    def test_no_aliasing_between_operands(self, case):
        more = stream_array("uniform", 20_000, seed=81)
        # c is in a later epoch than every case's operands, so merging it
        # special-compacts the levels they hand over before any update.
        c = sketch_of(stream_array("uniform", 30_000, seed=82), seed=82)
        # Changing the source after the merge leaves the target alone ...
        a, b = _epoch_case(case, decoded=True)
        a.merge(b)
        merged = serde.to_bytes(a)
        b.merge(c).update(more)
        assert serde.to_bytes(a) == merged
        # ... and changing the target leaves the source alone.
        a, b = _epoch_case(case, decoded=True)
        a.merge(b)
        source = serde.to_bytes(b)
        a.merge(c).update(more)
        assert serde.to_bytes(b) == source


POLICIES = {
    "fixed": lambda seed, schedule: ReqSketch(8, seed=seed, schedule=schedule),
    "adaptive": lambda seed, schedule: ReqSketch(
        seed=seed, schedule=schedule, khat=P.khat_mergeable(0.1, 0.1), k_const=2
    ),
}


@pytest.mark.parametrize("schedule", ["req", "all"])
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("case", EPOCH_CASES + ["self_merge"])
def test_merge_reads_its_operand_without_copying(monkeypatch, case, policy, schedule):
    """``merge`` calls ``copy`` zero times, leaves its operand's bytes
    unchanged and gives the bytes of merging a copy of the operand, for
    every epoch relation and a self-merge."""
    make = POLICIES[policy]

    def operands():
        if case == "self_merge":
            a = make(90, schedule).update(stream_array("uniform", 20_000, seed=90))
            return a, a
        a, b = (make(90 + i, schedule).update(stream_array("uniform", n, seed=90 + i))
                for i, n in enumerate(EPOCH_SIZES[case]))
        relation = {"same_epoch": b.N == a.N, "higher_epoch": b.N > a.N, "empty_target": a.n == 0}
        assert relation.get(case, b.N < a.N)
        return a, b

    a2, b2 = operands()
    expected = serde.to_bytes(a2.merge(b2.copy()))
    a, b = operands()
    before = serde.to_bytes(b)
    copies = []
    copy = ReqSketch.copy
    monkeypatch.setattr(ReqSketch, "copy", lambda sk: copies.append(sk) or copy(sk))
    a.merge(b)
    monkeypatch.undo()
    assert copies == []
    assert serde.to_bytes(a) == expected
    if b is not a:
        assert serde.to_bytes(b) == before


class TestMergeCompatibility:
    def test_k_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ReqSketch(8).merge(ReqSketch(16).update([1.0]))

    def test_schedule_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ReqSketch(8).merge(ReqSketch(8, schedule="all").update([1.0]))

    def test_mode_mismatch_rejected(self):
        adaptive = ReqSketch.from_error_mergeable(0.2, 0.1).update([1.0])
        with pytest.raises(ValueError):
            ReqSketch(8).merge(adaptive)

    def test_khat_mismatch_rejected(self):
        a = ReqSketch.from_error_mergeable(0.2, 0.1)
        b = ReqSketch.from_error_mergeable(0.1, 0.1).update([1.0])
        with pytest.raises(ValueError):
            a.merge(b)

    def test_k_const_mismatch_rejected(self):
        a = ReqSketch.from_error_mergeable(0.1, 0.1, k_const=4)
        b = ReqSketch.from_error_mergeable(0.1, 0.1, k_const=32).update([1.0])
        with pytest.raises(ValueError, match="k_const"):
            a.merge(b)

    def test_type_mismatch_rejected(self):
        with pytest.raises(TypeError):
            ReqSketch(8).merge(object())


class TestMergeStateCombination:
    def test_states_are_ored(self):
        a = sketch_of(stream_array("uniform", 20_000, seed=15), seed=15)
        b = sketch_of(stream_array("uniform", 20_000, seed=16), seed=16)
        pre = [
            (lv_a.state, b.levels[h].state if h < len(b.levels) else 0)
            for h, lv_a in enumerate(a.levels)
        ]
        a.merge(b)
        for h, (ca, cb) in enumerate(pre):
            # After OR-ing, any 1-bit of either operand that the merge's
            # own compaction (one increment at most) could not clear by a
            # carry must survive in a's state history: weaker but robust
            # check — state >= OR value or a compaction incremented it.
            assert a.levels[h].state >= (ca | cb) or a.levels[h].state == (ca | cb) + 1

    def test_zero_state_means_uncompacted(self):
        a = ReqSketch(8, seed=17).update(np.arange(10.0))
        assert all(lv.state == 0 for lv in a.levels)


class TestMergeAccuracy:
    @pytest.mark.parametrize("pieces", [2, 5, 16])
    def test_chain_merge_error_bounded(self, pieces):
        n = 60_000
        data = stream_array("permutation", n, seed=20)
        chunks = np.array_split(data, pieces)
        acc = sketch_of(chunks[0], k=32, seed=100)
        for i, ch in enumerate(chunks[1:], start=1):
            acc.merge(sketch_of(ch, k=32, seed=100 + i))
        assert acc.total_weight() == n
        ex = ExactRanks(data)
        ranks = np.unique(np.clip(np.logspace(0, np.log10(n), 30).astype(int), 1, n))
        ys = ex.values_at_ranks(ranks)
        rel = relative_errors(acc.ranks(ys), ex.ranks(ys))
        assert rel.max() < 0.06, rel.max()

    def test_balanced_merge_error_bounded(self):
        n = 64_000
        data = stream_array("permutation", n, seed=21)
        layer = [
            sketch_of(c, k=32, seed=200 + i)
            for i, c in enumerate(np.array_split(data, 16))
        ]
        while len(layer) > 1:
            layer = [
                layer[i].copy().merge(layer[i + 1])
                for i in range(0, len(layer), 2)
            ]
        m = layer[0]
        assert m.total_weight() == n
        ex = ExactRanks(data)
        ranks = np.unique(np.clip(np.logspace(0, np.log10(n), 30).astype(int), 1, n))
        ys = ex.values_at_ranks(ranks)
        assert relative_errors(m.ranks(ys), ex.ranks(ys)).max() < 0.06

    @pytest.mark.parametrize("seed", range(4))
    def test_random_merge_trees(self, seed):
        """Arbitrary merge order over uneven pieces — guarantee survives."""
        rng = np.random.default_rng(seed)
        n = 40_000
        data = stream_array("permutation", n, seed=30 + seed)
        cuts = np.sort(rng.choice(np.arange(1, n), size=9, replace=False))
        pieces = np.split(data, cuts)
        sketches = [sketch_of(p, k=32, seed=1000 + i) for i, p in enumerate(pieces)]
        while len(sketches) > 1:
            i, j = sorted(rng.choice(len(sketches), size=2, replace=False))
            b = sketches.pop(j)
            sketches[i] = sketches[i].merge(b)
        m = sketches[0]
        assert m.total_weight() == n
        ex = ExactRanks(data)
        ranks = np.unique(np.clip(np.logspace(0, np.log10(n), 25).astype(int), 1, n))
        ys = ex.values_at_ranks(ranks)
        assert relative_errors(m.ranks(ys), ex.ranks(ys)).max() < 0.08

    def test_merged_head_exact(self):
        """Protected-prefix exactness survives merging."""
        n = 30_000
        data = stream_array("permutation", n, seed=40)
        a = sketch_of(data[: n // 2], k=16, seed=41)
        b = sketch_of(data[n // 2 :], k=16, seed=42)
        m = a.merge(b)
        ex = ExactRanks(data)
        ys = ex.values_at_ranks(np.arange(1, m.protected_head + 1))
        assert np.array_equal(m.ranks(ys), ex.ranks(ys))

    def test_adaptive_mode_merge(self):
        n = 50_000
        data = stream_array("permutation", n, seed=50)
        mk = lambda s: ReqSketch.from_error_mergeable(0.1, 0.1, seed=s, k_const=4)
        a = mk(1).update(data[: n // 3])
        b = mk(2).update(data[n // 3 :])
        a.merge(b)
        assert a.total_weight() == n
        ex = ExactRanks(data)
        ranks = np.unique(np.clip(np.logspace(0, np.log10(n), 25).astype(int), 1, n))
        ys = ex.values_at_ranks(ranks)
        assert relative_errors(a.ranks(ys), ex.ranks(ys)).max() < 0.1

    def test_merge_triggers_growth(self):
        """Combined n exceeding both operands' N forces an epoch change."""
        a = sketch_of(stream_array("uniform", 1000, seed=60), k=4, seed=60)
        b = sketch_of(stream_array("uniform", 1000, seed=61), k=4, seed=61)
        N_before = max(a.N, b.N)
        a.merge(b)
        assert a.N >= N_before and a.N >= a.n
        assert a.total_weight() == 2000

    def test_capacity_restored_after_merge(self):
        a = sketch_of(stream_array("uniform", 20_000, seed=62), seed=62)
        b = sketch_of(stream_array("uniform", 20_000, seed=63), seed=63)
        a.merge(b)
        assert all(len(lv) < a.B for lv in a.levels)
