"""KLL sketch — the optimal *additive*-error baseline (Karnin-Lang-Liberty,
FOCS'16; paper reference [12]).

The paper's algorithm starts from the KLL compactor but changes which
items a compaction touches.  We implement classic KLL here as the
additive-error comparator: level-h buffers have geometrically decaying
capacities k * c^(H-h) (c = 2/3, minimum 2); a full buffer sorts itself
and emits every other item to level h+1.  Unlike the relative-compactor,
*every* item in the buffer participates, including the smallest — which
is exactly why KLL's error is a uniform +-eps*n additive band, and its
*relative* error at rank r blows up like eps*n/r in the tails (the
paper's Table T3 contrast).

Merging concatenates levels then restores capacities bottom-up, making
the summary fully mergeable like the original.  A level is stored in the
REQ sketch's level buffer (``RelativeCompactor``); only the compaction
rule is KLL's own.
"""
from __future__ import annotations

import math
from typing import Iterable, List

import numpy as np

from repro.core import estimator
from repro.core.compactor import RelativeCompactor


class KllSketch(estimator.Queries):
    """Additive-error streaming quantiles sketch (constant-factor KLL)."""

    DECAY = 2.0 / 3.0
    MIN_CAP = 2

    def __init__(self, k: int = 200, *, seed: int = 0) -> None:
        if k < 4:
            raise ValueError(f"k must be >= 4, got {k}")
        self.k = int(k)
        self.levels: List[RelativeCompactor] = [RelativeCompactor()]
        self.n = 0
        self.rng = np.random.default_rng(seed)

    # ------------------------------------------------------------------ sizing

    def capacity(self, h: int) -> int:
        """Capacity of level h given current height (top level gets k)."""
        height = len(self.levels) - 1
        return max(self.MIN_CAP, int(math.ceil(self.k * self.DECAY ** (height - h))))

    def num_retained(self) -> int:
        return sum(len(lv) for lv in self.levels)

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    # ------------------------------------------------------------------ update

    def update(self, values: Iterable[float] | np.ndarray | float) -> "KllSketch":
        arr = self._intake(values)
        pos, total = 0, arr.size
        while pos < total:
            room = self.capacity(0) - len(self.levels[0])
            if room <= 0:
                self._compress()
                continue
            take = min(room, total - pos)
            self.levels[0].append(arr[pos : pos + take])
            pos += take
            self.n += take
        if len(self.levels[0]) >= self.capacity(0):
            self._compress()
        return self

    def _compress(self) -> None:
        """Bottom-up: compact every level at its capacity (at least 2)."""
        h = 0
        while h < len(self.levels):
            if len(self.levels[h]) >= self.capacity(h):
                arr = self.levels[h].sorted_values()
                offset = int(self.rng.integers(0, 2))
                # An odd-length buffer keeps one item behind (classic KLL
                # keeps the unpaired item at level h to conserve weight).
                keep = arr[:0]
                if arr.size % 2 == 1:
                    keep, arr = (arr[-1:], arr[:-1]) if offset == 0 else (arr[:1], arr[1:])
                self.levels[h] = RelativeCompactor(items=keep)
                if h + 1 == len(self.levels):
                    self.levels.append(RelativeCompactor())
                self.levels[h + 1].append(arr[offset::2].copy())
            h += 1

    # ------------------------------------------------------------------- merge

    def merge(self, other: "KllSketch") -> "KllSketch":
        if not isinstance(other, KllSketch):
            raise TypeError(f"cannot merge KllSketch with {type(other).__name__}")
        if self.k != other.k:
            raise ValueError(f"k mismatch: {self.k} != {other.k}")
        self._view = None
        while len(self.levels) < len(other.levels):
            self.levels.append(RelativeCompactor())
        # No code writes into a level array in place, so they are shared.
        for dst, src in zip(self.levels, other.levels):
            dst.append(src.values())
        self.n += other.n
        self._compress()
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"KllSketch(k={self.k}, n={self.n}, retained={self.num_retained()})"
