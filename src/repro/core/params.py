"""Parameter formulas of the REQ sketch (paper Eqs. (6), (15), (25), (36)).

Terminology (matching the paper):

* ``k``   — section size; each compaction removes a multiple of k items.
            Must be an even integer >= 2.
* ``num_sections`` — sections per buffer: ceil(log2(N / k)) in the
            streaming setting (Algorithm 1), one more in the mergeable
            setting (Eq. 15).
* ``B``   — buffer capacity per level: 2 * k * num_sections.
* ``N``   — current upper bound on the total input size; the unknown-n
            schedule squares it (N_{i+1} = N_i^2) whenever n exceeds it.

The theorem constants (2^5 * k-hat, N_0 = 2^8 * k-hat, ...) are proof
artifacts; the experiment factories default to the streaming constant of
Eq. (6), and tests pin both sets of formulas exactly as printed.
"""
from __future__ import annotations

import math
from functools import lru_cache


def _even_at_least(x: float, lo: int = 2) -> int:
    """Round up to an even integer, at least ``lo`` (itself even)."""
    k = 2 * math.ceil(x / 2)
    return max(k, lo)


def k_streaming(eps: float, delta: float, n: int) -> int:
    """Section size per Eq. (6): k = 2 * ceil((4/eps) * sqrt(ln(1/delta) / log2(eps*n))).

    Valid for eps*n > 1 (otherwise the whole stream fits in O(1/eps) and
    we clamp the log at 1).
    """
    _check_eps_delta(eps, delta)
    log_en = max(1.0, math.log2(max(2.0, eps * n)))
    return 2 * math.ceil((4.0 / eps) * math.sqrt(math.log(1.0 / delta) / log_en))


def khat_mergeable(eps: float, delta: float) -> float:
    """k-hat of Eq. (25): (1/eps) * sqrt(ln(1/delta)); constant across growth."""
    _check_eps_delta(eps, delta)
    return (1.0 / eps) * math.sqrt(math.log(1.0 / delta))


def k_of_N(khat: float, N: int, *, const: int = 2 ** 5) -> int:
    """Section size per Eq. (15): k(N) = const * ceil(khat / sqrt(log2(N/khat))).

    ``const`` defaults to the paper's 2^5; experiments may pass a smaller
    constant (documented in DESIGN.md) since theorem constants are loose.
    """
    if khat <= 0:
        raise ValueError(f"khat must be positive, got {khat}")
    log_term = max(1.0, math.log2(max(2.0, N / khat)))
    return _even_at_least(const * math.ceil(khat / math.sqrt(log_term)))


def k_small_delta(eps: float, delta: float) -> int:
    """Section size per Eq. (36) (Theorem 2 / Appendix D): 2^4 * ceil((1/eps)*log2(ln(1/delta)))."""
    _check_eps_delta(eps, delta)
    log_ln = max(1.0, math.log2(max(2.0, math.log(1.0 / delta))))
    return _even_at_least(16 * math.ceil(log_ln / eps))


def num_sections_mergeable(N: int, k: int) -> int:
    """ceil(log2(N/k) + 1) per Eq. (15), at least 2."""
    _check_k(k)
    return max(2, math.ceil(math.log2(max(2.0, N / k)) + 1.0))


def buffer_size(k: int, num_sections: int) -> int:
    """B = 2 * k * num_sections (Algorithm 1 line 1 / Eq. (15))."""
    _check_k(k)
    if num_sections < 1:
        raise ValueError(f"num_sections must be >= 1, got {num_sections}")
    return 2 * k * num_sections


def initial_N(k: int) -> int:
    """First upper bound N_0 of the growth schedule.

    The paper uses N_0 = ceil(2^8 * khat) (App. C); with a fixed
    user-chosen k we start at 8*k — three sections — so small inputs get
    small buffers and N squares from there.
    """
    _check_k(k)
    return 8 * k


def next_N(N: int) -> int:
    """Growth schedule N_{i+1} = N_i^2 (Section 5 / Appendix C)."""
    if N < 2:
        raise ValueError(f"N must be >= 2, got {N}")
    return N * N


@lru_cache(maxsize=1024)
def geometry(k: int, N: int) -> int:
    """The buffer size B of the epoch with section size ``k`` and bound
    ``N``: ``num_sections_mergeable(N, k)`` sections of ``k`` items, so
    the section count is ``B // (2 * k)``.

    The one place an epoch's geometry is derived: the ``ReqSketch``
    constructor, its growth step, its merge of a lagging operand and the
    decoder's capacity checks all call it.  Cached: a rollup decodes
    thousands of blobs from the same few epochs.
    """
    return buffer_size(k, num_sections_mergeable(N, k))


def _check_eps_delta(eps: float, delta: float) -> None:
    if not (0 < eps <= 1):
        raise ValueError(f"eps must be in (0, 1], got {eps}")
    if not (0 < delta <= 0.5):
        raise ValueError(f"delta must be in (0, 0.5], got {delta}")


def _check_k(k: int) -> None:
    if k < 2 or k % 2 != 0:
        raise ValueError(f"k must be an even integer >= 2, got {k}")
