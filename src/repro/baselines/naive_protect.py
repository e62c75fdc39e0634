"""The paper's naive strawman: protect B/2, always compact the top half.

§2 ("Challenges and techniques"): giving each KLL-style buffer of size B
a protected lower half and compacting the *entire* upper half every time
achieves the relative-error guarantee but needs k ~ 1/eps^2, i.e. space
Theta(eps^-2 * log(eps^2 n)) — matching Zhang et al. [24] and quadratically
worse in 1/eps than the paper's schedule.  The REQ sketch's one new idea
is the trailing-ones schedule; everything else is identical.  We therefore
express the baseline as ``ReqSketch(schedule="all")`` so the comparison in
tables T1-T3 isolates exactly that idea.
"""
from __future__ import annotations

import math

from repro.core import params as P
from repro.core.req_sketch import ReqSketch


def naive_protect_sketch(k: int, *, seed: int = 0, N0: int | None = None) -> ReqSketch:
    """A protect-half / compact-all-sections sketch with section size k."""
    return ReqSketch(k, seed=seed, schedule="all", N0=N0)


def k_naive_for_error(eps: float, delta: float) -> int:
    """Section size needed by the naive schedule for eps relative error.

    Worst-case analysis of the always-L=B/2 schedule gives variance
    ~ R(y)^2 / k per level-at-the-top, so k ~ ln(1/delta)/eps^2 items —
    the quadratic dependence the paper eliminates.  The constant mirrors
    Eq. (6)'s 4^2 = 16 with the sqrt removed.
    """
    if not (0 < eps <= 1) or not (0 < delta <= 0.5):
        raise ValueError(f"bad (eps, delta) = ({eps}, {delta})")
    return 2 * math.ceil((4.0 / eps ** 2) * math.log(1.0 / delta) / 2.0)


def naive_for_error(eps: float, delta: float, n: int, *, seed: int = 0) -> ReqSketch:
    """Naive baseline parameterized to target eps relative error on n items."""
    k = k_naive_for_error(eps, delta)
    return naive_protect_sketch(k, seed=seed, N0=max(n, P.initial_N(k)))
