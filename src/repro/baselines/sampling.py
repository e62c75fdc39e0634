"""Subsampling rank estimators — the paper's footnote-1 negative example.

Additive-error sketches may subsample ~eps^-2 items and sketch the
sample; the sampling error is +-eps*n additive.  For *relative* error
this fails: at rank r the sampling noise is ~ sqrt(r/p)/r = 1/sqrt(p*r)
relative, unbounded as r -> 0.  Table T3 measures exactly that blow-up.

``BernoulliSampler(p)`` keeps each item independently w.p. p and
estimates R-hat(y) = |{sampled x <= y}| / p; two samples at the same
rate merge by concatenation.
"""
from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np


class BernoulliSampler:
    """Keep each stream item independently with probability p."""

    def __init__(self, p: float, *, seed: int = 0) -> None:
        if not (0 < p <= 1):
            raise ValueError(f"p must be in (0, 1], got {p}")
        self.p = float(p)
        self.n = 0
        self._kept: List[np.ndarray] = []
        self.rng = np.random.default_rng(seed)

    def update(self, values: Iterable[float] | np.ndarray) -> "BernoulliSampler":
        arr = np.asarray(values, dtype=np.float64).ravel()
        mask = self.rng.random(arr.size) < self.p
        if mask.any():
            self._kept.append(arr[mask])
        self.n += arr.size
        return self

    def merge(self, other: "BernoulliSampler") -> "BernoulliSampler":
        if abs(self.p - other.p) > 1e-12:
            raise ValueError(f"rate mismatch: {self.p} != {other.p}")
        self._kept.append(other.sample())
        self.n += other.n
        return self

    def sample(self) -> np.ndarray:
        if not self._kept:
            return np.empty(0, dtype=np.float64)
        if len(self._kept) > 1:
            self._kept = [np.concatenate(self._kept)]
        return self._kept[0]

    def num_retained(self) -> int:
        return self.sample().size

    def ranks(self, ys: Sequence[float]) -> np.ndarray:
        s = np.sort(self.sample())
        qs = np.asarray(ys, dtype=np.float64).ravel()
        return np.round(np.searchsorted(s, qs, side="right") / self.p).astype(np.int64)

    def rank(self, y: float) -> int:
        return int(self.ranks([y])[0])
