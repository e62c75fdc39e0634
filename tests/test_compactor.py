"""Unit tests for the relative-compactor (paper Algorithm 1)."""
import numpy as np
import pytest

from repro.core.compactor import RelativeCompactor
from repro.core.params import CompactorParams
from repro.core.schedule import sections_to_compact


def make(k=4, sections=3, schedule="req", state=0):
    return RelativeCompactor(CompactorParams(k, sections), schedule=schedule, state=state)


class TestBuffering:
    def test_starts_empty(self):
        c = make()
        assert len(c) == 0 < c.capacity
        assert c.values().size == 0 and c.sorted_values().size == 0

    def test_append_counts(self):
        c = make()
        c.append(np.arange(5.0))
        c.append(np.arange(3.0))
        assert len(c) == 8

    def test_append_empty_noop(self):
        c = make()
        c.append(np.empty(0))
        assert len(c) == 0

    def test_capacity(self):
        c = make(k=4, sections=3)
        assert c.capacity == 24
        c.append(np.arange(24.0))
        assert len(c) >= c.capacity

    def test_sorted_values(self):
        c = make()
        c.append(np.array([3.0, 1.0, 2.0]))
        assert list(c.sorted_values()) == [1.0, 2.0, 3.0]

    def test_values_consolidates_chunks(self):
        c = make()
        for _ in range(5):
            c.append(np.arange(2.0))
        v = c.values()
        assert v.size == 10
        assert c.values() is v  # consolidated in place

    def test_invalid_schedule(self):
        with pytest.raises(ValueError):
            make(schedule="bogus")


class TestScheduledCompaction:
    def test_requires_full_buffer(self):
        c = make(k=4, sections=3)
        c.append(np.arange(10.0))
        with pytest.raises(RuntimeError):
            c.compact(np.random.default_rng(0))

    def test_first_compaction_one_section(self):
        """State 0 -> z=0 -> compact exactly the top k items."""
        c = make(k=4, sections=3)
        B = c.capacity
        c.append(np.arange(float(B)))
        out = c.compact(np.random.default_rng(0))
        assert out.size == 2  # k/2 promoted
        assert len(c) == B - 4
        assert c.state == 1
        # Promoted items come from the top section [B-4, B).
        assert set(out).issubset(set(range(B - 4, B)))
        # The protected lower part is untouched.
        assert list(np.sort(c.values())) == list(np.arange(float(B - 4)))

    def test_second_compaction_two_sections(self):
        c = make(k=4, sections=3, state=1)  # z(1)=1 -> 2 sections
        B = c.capacity
        c.append(np.arange(float(B)))
        out = c.compact(np.random.default_rng(0))
        assert out.size == 4
        assert len(c) == B - 8

    @pytest.mark.parametrize("state", range(16))
    def test_L_matches_schedule(self, state):
        k, sections = 4, 5
        c = make(k=k, sections=sections, state=state)
        B = c.capacity
        c.append(np.arange(float(B)))
        out = c.compact(np.random.default_rng(1))
        L = sections_to_compact(state, sections) * k
        assert out.size == L // 2
        assert len(c) == B - L

    def test_never_compacts_protected_half(self):
        """Even at the max section count, the lowest B/2 items survive."""
        c = make(k=4, sections=3, state=0b111)  # z=3 capped at 3 sections
        B = c.capacity
        c.append(np.arange(float(B)))
        c.compact(np.random.default_rng(2))
        assert len(c) == B // 2
        assert set(c.values()) == set(np.arange(float(B // 2)))

    def test_even_odd_both_occur(self):
        """The coin flip selects even or odd indices with both outcomes seen."""
        seen = set()
        for seed in range(20):
            c = make(k=4, sections=3)
            B = c.capacity
            c.append(np.arange(float(B)))
            out = c.compact(np.random.default_rng(seed))
            seen.add(tuple(out))
        assert len(seen) == 2  # {B-4, B-2} and {B-3, B-1}

    def test_overfull_buffer_tail_included(self):
        """Merge case: items beyond slot B are always compacted."""
        c = make(k=4, sections=3)
        B = c.capacity
        c.append(np.arange(float(2 * B)))
        out = c.compact(np.random.default_rng(3))
        # Range is [B-4, 2B) (one section + the extra B items), even length.
        assert len(c) == B - 4
        assert out.size == (B + 4) // 2

    def test_parity_fix_even_range(self):
        """An odd-length compaction range is trimmed by one from below."""
        c = make(k=4, sections=3)
        B = c.capacity
        c.append(np.arange(float(B + 1)))  # range B+1-(B-4)=5 -> trimmed to 4
        before = len(c)
        out = c.compact(np.random.default_rng(4))
        removed = before - len(c)
        assert removed % 2 == 0
        assert out.size * 2 == removed

    def test_weight_preserved_by_compaction(self):
        """2 * |promoted| == |removed| for every compaction."""
        rng = np.random.default_rng(5)
        for trial in range(25):
            c = make(k=6, sections=4, state=trial)
            B = c.capacity
            extra = int(rng.integers(0, B))
            c.append(rng.random(B + extra))
            before = len(c)
            out = c.compact(rng)
            assert 2 * out.size == before - len(c)


class TestSpecialCompaction:
    def test_noop_below_half(self):
        c = make(k=4, sections=3)
        c.append(np.arange(float(c.capacity // 2)))
        out = c.compact(np.random.default_rng(0), special=True)
        assert out.size == 0 and c.state == 0

    def test_noop_single_item_above_half(self):
        c = make(k=4, sections=3)
        c.append(np.arange(float(c.capacity // 2 + 1)))
        out = c.compact(np.random.default_rng(0), special=True)
        assert out.size == 0  # even range impossible

    def test_compacts_down_to_half(self):
        c = make(k=4, sections=3)
        B = c.capacity
        c.append(np.arange(float(B - 2)))  # below capacity, above half
        out = c.compact(np.random.default_rng(0), special=True)
        assert len(c) == B // 2
        assert out.size == (B - 2 - B // 2) // 2
        assert c.state == 1
        assert set(c.values()) == set(np.arange(float(B // 2)))


class TestAllSchedule:
    @pytest.mark.parametrize("state", [0, 1, 7, 12])
    def test_always_half(self, state):
        c = make(k=4, sections=3, schedule="all", state=state)
        B = c.capacity
        c.append(np.arange(float(B)))
        out = c.compact(np.random.default_rng(0))
        assert len(c) == B // 2
        assert out.size == B // 4

