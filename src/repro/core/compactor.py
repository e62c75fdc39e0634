"""One level of a sketch: its items and its schedule state C (paper
Algorithm 1).

A relative-compactor is a level's buffer plus the state C that the
trailing-ones schedule reads.  Its geometry is not its own: the section
size k, the section count and B = 2 * k * num_sections belong to the
sketch's parameter epoch and change for every level at once when N
squares (§5, App. C).  So ``ReqSketch`` alone decides when a level
compacts and from which slot, and passes that slot to ``compact``: a
scheduled compaction of a full level starts at B - (z(C)+1) * k (B/2
under the naive ``schedule="all"``), so the lowest-ranked half of the
buffer is never compacted, which is what makes the sketch's error
*relative* instead of additive; App. C's special compaction starts at
B/2.  An over-full level, as a merge leaves it, compacts its items
beyond slot B as well.

A compaction selects its range with ``np.partition`` at the range's
first slot and sorts only that range; the kept items stay unsorted.  It
promotes every other item of the sorted range (even or odd indices with
equal probability) to the next level, where each item counts with twice
the weight.

The KLL baseline keeps its levels in this class too, with its own
compaction rule (``baselines.kll``).
"""
from __future__ import annotations

from typing import List, Optional

import numpy as np


class RelativeCompactor:
    """One level's buffer with its compaction-schedule state.

    Buffers are kept *unsorted* between compactions (appends are O(1)
    amortized).  A compaction selects the compacted range and sorts only
    that range, O(B + L log L) instead of a full O(B log B) sort.
    Queries read the unsorted items through the sketch's sorted view,
    and the wire format sorts each level on encode (``serde``).

    Invariant: no code writes into a buffered array in place, and every
    array a level holds is the sketch's own (``update`` copies what it
    receives, ``estimator.Queries._intake``).  ``compact`` partitions
    into a new array (``np.partition`` returns a copy) and ``values``
    concatenates into one, so a merge may append another sketch's level
    arrays without copying them, a snapshot of a sketch's levels stays
    valid while the sketch changes, and both sketches stay independent.
    """

    __slots__ = ("state", "_chunks", "_count")

    def __init__(self, state: int = 0, items: Optional[np.ndarray] = None) -> None:
        self.state = int(state)
        self._chunks: List[np.ndarray] = []
        self._count = 0
        if items is not None:
            self.append(items)

    def __len__(self) -> int:
        return self._count

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

    def compact(self, rng: np.random.Generator, start: int) -> np.ndarray:
        """Compact the items from slot ``start`` (0-based, in sorted order)
        to the end; return the ones promoted to the next level.  Keeps
        the smallest ``start`` items and increments the schedule state."""
        # Force an even compaction range so total weight is conserved
        # exactly (Observation 3's +-1 drift only arises for odd ranges;
        # the paper permits odd ranges, production implementations do
        # this same parity fix).  Moving start UP never weakens the
        # protected-prefix guarantee.
        if (self._count - start) % 2 == 1:
            start += 1
        arr = self.sorted_values(start)
        kept, tail = arr[:start], arr[start:]
        offset = int(rng.integers(0, 2))
        promoted = tail[offset::2].copy()
        self._chunks = [kept]
        self._count = kept.size
        self.state += 1
        return promoted
