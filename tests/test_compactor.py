"""Unit tests for the relative-compactor (paper Algorithm 1).

A level (``RelativeCompactor``) holds items and a schedule state and
compacts from the slot it is given; the sketch owns the geometry and
the schedule, so the slot a full level compacts from is
``ReqSketch._scheduled_start`` (the trailing-ones schedule, or B/2 under
"all"), and App. C's special compaction is ``_special_compact``."""
import numpy as np
import pytest

from repro.core.compactor import RelativeCompactor
from repro.core.req_sketch import ReqSketch
from repro.core.schedule import sections_to_compact


def filled(n, state=0):
    return RelativeCompactor(state, np.arange(float(n)))


def make(k=4, sections=3, schedule="req"):
    """An empty sketch whose epoch has ``sections`` sections of ``k``
    items: num_sections = ceil(log2(N/k)) + 1 and B = 2 * k * sections."""
    sk = ReqSketch(k, schedule=schedule, N0=k * 2 ** (sections - 1))
    assert (sk.k, sk.B) == (k, 2 * k * sections)
    return sk


def scheduled(sk, lv, seed=0):
    """One scheduled compaction of the level ``lv`` of sketch ``sk``."""
    return lv.compact(np.random.default_rng(seed), sk._scheduled_start(lv.state))


class TestBuffering:
    def test_starts_empty(self):
        c = RelativeCompactor()
        assert len(c) == 0 and c.state == 0
        assert c.values().size == 0 and c.sorted_values().size == 0

    def test_built_with_state_and_items(self):
        c = RelativeCompactor(5, np.array([3.0, 1.0]))
        assert c.state == 5 and len(c) == 2
        assert list(c.values()) == [3.0, 1.0]

    def test_append_counts(self):
        c = RelativeCompactor()
        c.append(np.arange(5.0))
        c.append(np.arange(3.0))
        assert len(c) == 8

    def test_append_empty_noop(self):
        c = RelativeCompactor(items=np.empty(0))
        c.append(np.empty(0))
        assert len(c) == 0

    def test_capacity(self):
        """B = 2 * k * num_sections is the sketch's; a level has no cap."""
        assert make(k=4, sections=3).B == 24
        c = filled(24)
        c.append(np.arange(24.0))
        assert len(c) == 48

    def test_sorted_values(self):
        c = RelativeCompactor(items=np.array([3.0, 1.0, 2.0]))
        assert list(c.sorted_values()) == [1.0, 2.0, 3.0]

    def test_sorted_values_from_slot(self):
        c = RelativeCompactor(items=np.array([5.0, 0.0, 4.0, 1.0, 3.0, 2.0]))
        arr = c.sorted_values(3)
        assert set(arr[:3]) == {0.0, 1.0, 2.0} and list(arr[3:]) == [3.0, 4.0, 5.0]

    def test_values_consolidates_chunks(self):
        c = RelativeCompactor()
        for _ in range(5):
            c.append(np.arange(2.0))
        v = c.values()
        assert v.size == 10
        assert c.values() is v  # consolidated in place

    def test_invalid_schedule(self):
        with pytest.raises(ValueError, match="schedule"):
            make(schedule="bogus")


class TestScheduledCompaction:
    def test_requires_full_buffer(self):
        """The sketch compacts a level only once it holds B items."""
        sk = make(k=4, sections=3)
        sk.levels = [filled(sk.B - 1)]
        sk._compact_cascade(top=0)
        assert [len(lv) for lv in sk.levels] == [sk.B - 1]
        sk.levels[0].append(np.array([99.0]))
        sk._compact_cascade(top=0)
        assert [len(lv) for lv in sk.levels] == [sk.B - 4, 2]

    def test_first_compaction_one_section(self):
        """State 0 -> z=0 -> compact exactly the top k items."""
        sk = make(k=4, sections=3)
        B = sk.B
        assert sk._scheduled_start(0) == B - 4
        c = filled(B)
        out = scheduled(sk, c)
        assert out.size == 2  # k/2 promoted
        assert len(c) == B - 4
        assert c.state == 1
        # Promoted items come from the top section [B-4, B).
        assert set(out).issubset(set(range(B - 4, B)))
        # The protected lower part is untouched.
        assert list(np.sort(c.values())) == list(np.arange(float(B - 4)))

    def test_second_compaction_two_sections(self):
        sk = make(k=4, sections=3)
        c = filled(sk.B, state=1)  # z(1)=1 -> 2 sections
        out = scheduled(sk, c)
        assert out.size == 4
        assert len(c) == sk.B - 8

    @pytest.mark.parametrize("state", range(16))
    def test_L_matches_schedule(self, state):
        k, sections = 4, 5
        sk = make(k=k, sections=sections)
        L = sections_to_compact(state, sections) * k
        assert sk._scheduled_start(state) == sk.B - L
        c = filled(sk.B, state)
        out = scheduled(sk, c, seed=1)
        assert out.size == L // 2
        assert len(c) == sk.B - L

    def test_never_compacts_protected_half(self):
        """Even at the max section count, the lowest B/2 items survive."""
        sk = make(k=4, sections=3)
        c = filled(sk.B, state=0b111)  # z=3 capped at 3 sections
        scheduled(sk, c, seed=2)
        assert len(c) == sk.B // 2
        assert set(c.values()) == set(np.arange(float(sk.B // 2)))

    def test_even_odd_both_occur(self):
        """The coin flip selects even or odd indices with both outcomes seen."""
        seen = {tuple(filled(24).compact(np.random.default_rng(seed), 20)) for seed in range(20)}
        assert seen == {(20.0, 22.0), (21.0, 23.0)}

    def test_unsorted_items(self):
        c = RelativeCompactor(items=np.random.default_rng(1).permutation(np.arange(24.0)))
        out = c.compact(np.random.default_rng(0), 16)
        assert set(c.values()) == set(range(16))
        assert out.size == 4 and set(out).issubset(range(16, 24))

    def test_overfull_buffer_tail_included(self):
        """Merge case: items beyond slot B are always compacted."""
        B = 24
        c = filled(2 * B)
        out = c.compact(np.random.default_rng(3), B - 4)
        # Range is [B-4, 2B) (one section + the extra B items), even length.
        assert len(c) == B - 4
        assert out.size == (B + 4) // 2

    def test_parity_fix_even_range(self):
        """An odd-length compaction range is trimmed by one from below."""
        c = filled(25)  # range 25 - 20 = 5 -> trimmed to 4
        out = c.compact(np.random.default_rng(4), 20)
        assert len(c) == 21 and out.size == 2
        assert set(c.values()) == set(range(21))

    def test_weight_preserved_by_compaction(self):
        """2 * |promoted| == |removed| for every compaction."""
        rng = np.random.default_rng(5)
        for trial in range(25):
            c = RelativeCompactor(trial, rng.random(int(rng.integers(2, 100))))
            before = len(c)
            out = c.compact(rng, int(rng.integers(0, before - 1)))
            assert 2 * out.size == before - len(c)
            assert c.state == trial + 1


class TestSpecialCompaction:
    """App. C: every non-top level compacts from B/2 when that moves items,
    under the B it is given: the sketch's own, or a lagging operand's."""

    def special(self, *sizes, B=24):
        """The level sizes and level-0 state after a special compaction,
        under ``B``, of levels holding ``sizes`` items."""
        sk = make(k=4, sections=3)
        levels = [filled(n) for n in sizes]
        sk._special_compact(levels, B)
        return [len(lv) for lv in levels], levels[0].state

    def test_noop_below_half(self):
        assert self.special(12, 0) == ([12, 0], 0)

    def test_noop_single_item_above_half(self):
        assert self.special(13, 0) == ([13, 0], 0)  # even range impossible

    def test_compacts_down_to_half(self):
        sk = make(k=4, sections=3)
        sk.levels = [filled(22), RelativeCompactor()]  # below capacity, above half
        sk._special_compact(sk.levels, sk.B)
        assert [len(lv) for lv in sk.levels] == [12, 5]
        assert sk.levels[0].state == 1
        assert set(sk.levels[0].values()) == set(range(12))

    def test_top_level_untouched(self):
        assert self.special(5, 20) == ([5, 20], 0)

    def test_cascades_up(self):
        """A level that a promotion lifts above B/2 + 1 compacts in turn."""
        assert self.special(22, 10, 0) == ([12, 13, 1], 1)

    def test_given_buffer_size(self):
        """The B given, not the sketch's, sets the half."""
        assert self.special(22, 0, B=48) == ([22, 0], 0)
        assert self.special(22, 0, B=16) == ([8, 7], 1)


class TestAllSchedule:
    @pytest.mark.parametrize("state", [0, 1, 7, 12])
    def test_always_half(self, state):
        sk = make(k=4, sections=3, schedule="all")
        assert sk._scheduled_start(state) == sk.B // 2
        c = filled(sk.B, state)
        out = scheduled(sk, c)
        assert len(c) == sk.B // 2
        assert out.size == sk.B // 4
