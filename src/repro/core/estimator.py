"""Rank / CDF / quantile queries over one sorted view of a sketch.

The REQ sketch and the KLL baseline keep their items in ``levels``, one
``RelativeCompactor`` per level, and ``Queries.level_arrays()`` reads
them as ``(weight, unsorted items)`` per level, weight 2^h at level h
(Algorithm 2, Estimate-Rank).  ``SortedView`` sorts that weighted
coreset once into values plus cumulative weights, so every query is a
``numpy.searchsorted``; ``Queries`` caches one view per sketch.

Rank convention: R(y) = |{x_i : x_i <= y}| (paper §1), i.e. inclusive
rank, found with ``searchsorted(..., side="right")``.
"""
from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


def check_fractions(phis: Sequence[float]) -> np.ndarray:
    """``phis`` as a float64 array; ValueError unless each lies in [0, 1]."""
    ph = np.asarray(phis, dtype=np.float64).ravel()
    if not np.all((ph >= 0) & (ph <= 1)):  # also false for NaN
        raise ValueError("quantile fractions must lie in [0, 1]")
    return ph


class SortedView:
    """Every retained item in non-descending order (``values``) with the
    total weight of the items up to and including each (``cum``)."""

    def __init__(self, levels: Sequence[Tuple[int, np.ndarray]]) -> None:
        values = np.concatenate([np.empty(0)] + [a for _, a in levels])
        sizes = [a.size for _, a in levels]
        weights = np.repeat(np.array([w for w, _ in levels], dtype=np.int64), sizes)
        order = np.argsort(values)
        # _below[i] is the weight of values[:i]; it starts with a 0 so an
        # index from searchsorted reads a rank directly.
        self._below = np.zeros(values.size + 1, dtype=np.int64)
        np.cumsum(weights[order], out=self._below[1:])
        self.values = values[order]
        self.cum = self._below[1:]

    @property
    def total_weight(self) -> int:
        """Sum of item weights — the sketch's notion of the stream length."""
        return int(self._below[-1])

    def ranks(self, ys: Sequence[float]) -> np.ndarray:
        """Estimated inclusive ranks R-hat(y) for each query y (int64 array)."""
        qs = np.asarray(ys, dtype=np.float64).ravel()
        if np.isnan(qs).any():
            raise ValueError("NaN query points have no rank")
        return self._below[np.searchsorted(self.values, qs, side="right")]

    def cdf(self, ys: Sequence[float]) -> np.ndarray:
        """Estimated CDF value R-hat(y)/W at each query, W = total weight."""
        w = self.total_weight
        if w == 0:
            raise ValueError("empty sketch has no CDF")
        return self.ranks(ys) / float(w)

    def quantiles(self, phis: Sequence[float]) -> np.ndarray:
        """For each phi in [0, 1], the smallest stored item whose estimated
        normalized rank is >= phi (the classic mergeable-summary quantile query)."""
        ph = check_fractions(phis)
        if self.values.size == 0:
            raise ValueError("empty sketch has no quantiles")
        w = self.cum[-1]
        targets = np.clip(np.ceil(ph * w), 1, w)
        return self.values[np.searchsorted(self.cum, targets, side="left")]


class Queries:
    """Rank, CDF, quantile and size methods for a sketch with ``levels``.

    The queries read one ``SortedView`` cached in ``_view``; every method
    that changes the retained items must reset ``_view`` to None.
    """

    _view: Optional[SortedView] = None

    def _intake(self, values) -> np.ndarray:
        """An ``update``'s items (a scalar, a sequence or an array) as a
        new 1-d float64 array, which the caller cannot write into once a
        level keeps it; resets the view.  Raises ``ValueError`` on a NaN."""
        arr = np.array(values, dtype=np.float64).reshape(-1)
        if np.isnan(arr).any():
            raise ValueError("NaN items are not totally ordered; refusing to insert")
        self._view = None
        return arr

    @property
    def num_levels(self) -> int:
        return len(self.levels)

    def num_retained(self) -> int:
        """Universe items currently stored — the paper's space measure."""
        return sum(len(lv) for lv in self.levels)

    def level_arrays(self) -> List[Tuple[int, np.ndarray]]:
        """(weight, unsorted items) per level — the Estimate-Rank coreset."""
        return [(1 << h, lv.values()) for h, lv in enumerate(self.levels)]

    def _sorted_view(self) -> SortedView:
        if self._view is None:
            self._view = SortedView(self.level_arrays())
        return self._view

    # The scalar forms read the view directly rather than through the
    # vector methods, so each public call is exactly one query.
    def rank(self, y: float) -> int:
        return int(self._sorted_view().ranks([y])[0])

    def ranks(self, ys: Sequence[float]) -> np.ndarray:
        return self._sorted_view().ranks(ys)

    def cdf(self, ys: Sequence[float]) -> np.ndarray:
        return self._sorted_view().cdf(ys)

    def quantile(self, phi: float) -> float:
        return float(self._sorted_view().quantiles([phi])[0])

    def quantiles(self, phis: Sequence[float]) -> np.ndarray:
        return self._sorted_view().quantiles(phis)

    def total_weight(self) -> int:
        return self._sorted_view().total_weight
