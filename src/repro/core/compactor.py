"""The relative-compactor buffer (paper Algorithm 1 + Algorithm 4 pieces).

A relative-compactor holds up to B = 2 * k * num_sections items.  When
full, it compacts only its *largest* L items, where L = (z(C)+1) * k is
chosen by the trailing-ones schedule — the lowest-ranked half of the
buffer is never compacted, which is what makes the overall sketch's
error *relative* instead of additive.  A selection (``np.partition``)
splits the buffer at the compacted range's first slot, and only that
range is sorted; the kept items stay unsorted.  The compaction outputs
every other item of the sorted range (even or odd indices with equal
probability); the output is fed to the next level, where each item
counts with twice the weight.

This class is also used by the merge procedure (paper Algorithm 4):

* a *scheduled* compaction may run on an over-full buffer (> B items);
  items beyond slot B are then included in the compaction automatically;
* a *special* compaction (parameter-growth time) compacts everything
  above the smallest B/2 items regardless of the schedule state.

The naive Θ(ε⁻²·log(ε²n)) baseline from the paper ("protect B/2, always
compact the entire top half") is this same class with
``schedule="all"`` — the only behavioural difference is L = B/2 always.
"""
from __future__ import annotations

from typing import List

import numpy as np

from repro.core.params import CompactorParams
from repro.core.schedule import sections_to_compact


class RelativeCompactor:
    """One level's buffer with its compaction-schedule state.

    Buffers are kept *unsorted* between compactions (appends are O(1)
    amortized).  A compaction selects the compacted range and sorts only
    that range, O(B + L log L) instead of a full O(B log B) sort.
    Queries read the unsorted items through the sketch's sorted view,
    and the wire format sorts each level on encode (``serde``).

    Invariant: no code writes into a buffered array in place.
    ``compact`` partitions into a new array (``np.partition`` returns a
    copy) and ``values`` concatenates into one, so a merge may append
    another sketch's level arrays without copying them, and both
    sketches stay independent.
    """

    __slots__ = ("params", "state", "schedule", "_chunks", "_count")

    def __init__(
        self,
        params: CompactorParams,
        *,
        schedule: str = "req",
        state: int = 0,
    ) -> None:
        if schedule not in ("req", "all"):
            raise ValueError(f"schedule must be 'req' or 'all', got {schedule!r}")
        self.params = params
        self.state = int(state)
        self.schedule = schedule
        self._chunks: List[np.ndarray] = []
        self._count = 0

    # ------------------------------------------------------------------ sizing

    def __len__(self) -> int:
        return self._count

    @property
    def capacity(self) -> int:
        return self.params.B

    def special_moves(self) -> bool:
        """Whether a special compaction would move any item: more than
        one item sits above the protected half (an even range needs two)."""
        return self._count > self.params.B // 2 + 1

    # ------------------------------------------------------------------ content

    def append(self, values: np.ndarray) -> None:
        """Add a batch of items (any order)."""
        arr = np.asarray(values, dtype=np.float64).ravel()
        if arr.size == 0:
            return
        self._chunks.append(arr)
        self._count += arr.size

    def values(self) -> np.ndarray:
        """All buffered items, unsorted."""
        if not self._chunks:
            return np.empty(0, dtype=np.float64)
        if len(self._chunks) > 1:
            merged = np.concatenate(self._chunks)
            self._chunks = [merged]
        return self._chunks[0]

    def sorted_values(self, start: int = 0) -> np.ndarray:
        """All buffered items (copy), non-descending from slot ``start``
        on; the first ``start`` slots hold the smallest items, in any
        order.  With ``start=0`` the whole copy is sorted."""
        v = self.values()
        if not 0 < start < v.size:
            return np.sort(v)
        arr = np.partition(v, start)
        arr[start:].sort()
        return arr

    # ------------------------------------------------------------------ compaction

    def compact(self, rng: np.random.Generator, *, special: bool = False) -> np.ndarray:
        """Run one compaction; return the items promoted to the next level.

        Scheduled compactions (``special=False``) require a full buffer
        and compact from slot ``s = B - L`` (0-based) to the end, with
        L = (z(C)+1)*k under the "req" schedule, or L = B/2 under the
        "all" schedule.  Special compactions (Algorithm 4, parameter
        growth) compact from slot B/2 whenever more than B/2 items are
        buffered.  Both increment the schedule state.
        """
        p = self.params
        if special:
            if not self.special_moves():
                return np.empty(0, dtype=np.float64)
            start = p.B // 2
        else:
            if self._count < p.B:
                raise RuntimeError(
                    f"scheduled compaction on non-full buffer ({self._count} < {p.B})"
                )
            if self.schedule == "all":
                n_sec = p.num_sections
            else:
                n_sec = sections_to_compact(self.state, p.num_sections)
            start = p.B - n_sec * p.k
        # Force an even compaction range so total weight is conserved
        # exactly (Observation 3's +-1 drift only arises for odd ranges;
        # the paper permits odd ranges, production implementations do
        # this same parity fix).  Moving start UP never weakens the
        # protected-prefix guarantee.
        if (self._count - start) % 2 == 1:
            start += 1
        # start >= B/2 always: n_sec <= num_sections and B = 2*k*num_sections.
        assert start >= p.B // 2, (start, p.B)

        arr = self.sorted_values(start)
        kept, tail = arr[:start], arr[start:]
        offset = int(rng.integers(0, 2))
        promoted = tail[offset::2].copy()
        self._chunks = [kept]
        self._count = kept.size
        self.state += 1
        return promoted
