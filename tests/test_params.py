"""Unit tests pinning the paper's parameter formulas (Eqs. 6, 15, 25, 36)."""
import math

import pytest

from repro.core import params as P


class TestKStreaming:
    def test_formula_pinned(self):
        # Eq. (6): k = 2*ceil((4/eps) * sqrt(ln(1/delta)/log2(eps*n))).
        eps, delta, n = 0.1, 0.05, 1 << 20
        expected = 2 * math.ceil(
            (4 / eps) * math.sqrt(math.log(1 / delta) / math.log2(eps * n))
        )
        assert P.k_streaming(eps, delta, n) == expected

    @pytest.mark.parametrize("eps", [0.01, 0.05, 0.1, 0.5, 1.0])
    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.5])
    def test_even_and_positive(self, eps, delta):
        k = P.k_streaming(eps, delta, 1 << 16)
        assert k >= 2 and k % 2 == 0

    def test_decreasing_in_eps(self):
        ks = [P.k_streaming(e, 0.05, 1 << 20) for e in (0.02, 0.05, 0.1, 0.2)]
        assert ks == sorted(ks, reverse=True)

    def test_increasing_as_delta_shrinks(self):
        assert P.k_streaming(0.1, 0.001, 1 << 20) >= P.k_streaming(0.1, 0.2, 1 << 20)

    def test_decreasing_in_n(self):
        # Larger n -> larger log2(eps n) denominator -> smaller k.
        assert P.k_streaming(0.1, 0.05, 1 << 30) <= P.k_streaming(0.1, 0.05, 1 << 14)

    @pytest.mark.parametrize("eps,delta", [(0, 0.1), (1.5, 0.1), (0.1, 0), (0.1, 0.6)])
    def test_rejects_bad_ranges(self, eps, delta):
        with pytest.raises(ValueError):
            P.k_streaming(eps, delta, 1000)


class TestKhatAndKofN:
    def test_khat_formula(self):
        # Eq. (25): khat = (1/eps) * sqrt(ln(1/delta)).
        assert P.khat_mergeable(0.1, math.exp(-1)) == pytest.approx(10.0)

    def test_k_of_n_formula_pinned(self):
        # Eq. (15) with the paper's constant 2^5.
        khat, N = 100.0, 1 << 20
        expected = 2 ** 5 * math.ceil(khat / math.sqrt(math.log2(N / khat)))
        got = P.k_of_N(khat, N)
        assert got == expected or got == expected + 1  # evenness rounding
        assert got % 2 == 0

    def test_k_of_n_shrinks_with_n(self):
        assert P.k_of_N(50.0, 1 << 40) <= P.k_of_N(50.0, 1 << 12)

    def test_custom_const(self):
        assert P.k_of_N(10.0, 1 << 16, const=2) < P.k_of_N(10.0, 1 << 16, const=32)

    def test_bad_khat(self):
        with pytest.raises(ValueError):
            P.k_of_N(0, 1024)


class TestKSmallDelta:
    def test_formula_pinned(self):
        # Eq. (36): k = 2^4 * ceil((1/eps) * log2(ln(1/delta))).
        eps, delta = 0.1, 1e-9
        expected = 16 * math.ceil(math.log2(math.log(1 / delta)) / eps)
        assert P.k_small_delta(eps, delta) == expected

    def test_loglog_growth(self):
        # Squaring 1/delta adds only ~ +1 inside log2 -> tiny growth.
        k1 = P.k_small_delta(0.1, 1e-6)
        k2 = P.k_small_delta(0.1, 1e-12)
        assert k2 <= k1 * 1.5

    def test_even(self):
        assert P.k_small_delta(0.07, 0.01) % 2 == 0


class TestGeometry:
    @pytest.mark.parametrize("k", [2, 4, 16, 100])
    @pytest.mark.parametrize("n", [10, 1000, 1 << 20])
    def test_num_sections_streaming(self, k, n):
        # Algorithm 1's streaming count ceil(log2(n/k)), at least 1: the
        # mergeable geometry of Eq. (15) is that count plus one section.
        s = P.num_sections_mergeable(n, k) - 1
        assert s >= 1
        if n / k >= 2:
            assert s == math.ceil(math.log2(n / k))

    def test_num_sections_mergeable_plus_one(self):
        # Eq. (15) geometry has one extra section vs Algorithm 1.
        assert P.num_sections_mergeable(1 << 16, 16) == math.ceil(
            math.log2((1 << 16) / 16) + 1
        )

    @pytest.mark.parametrize("k,s", [(2, 1), (4, 3), (32, 10)])
    def test_buffer_size(self, k, s):
        assert P.buffer_size(k, s) == 2 * k * s

    def test_buffer_size_rejects_odd_k(self):
        with pytest.raises(ValueError):
            P.buffer_size(3, 4)

    def test_initial_and_next_N(self):
        assert P.initial_N(16) == 128
        assert P.next_N(128) == 128 * 128
        with pytest.raises(ValueError):
            P.next_N(1)

    def test_geometry(self):
        """B of an epoch: num_sections_mergeable(N, k) sections of k items."""
        for k, N in ((8, 64), (8, 1 << 20), (2, 3), (64, 10 ** 30)):
            assert P.geometry(k, N) == P.buffer_size(k, P.num_sections_mergeable(N, k))
        assert P.geometry(8, 128) == 80  # ceil(log2(16) + 1) = 5 sections
        with pytest.raises(ValueError):
            P.geometry(7, 128)
        with pytest.raises(ValueError):
            P.buffer_size(8, 0)

    def test_L_max_is_half_buffer(self):
        """Observation 17 consequence: compacting all sections takes
        exactly the top half of the buffer, never more; the section count
        is B // (2k)."""
        for k in (2, 8, 64):
            for s in (1, 3, 9):
                B = P.buffer_size(k, s)
                assert s * k == B // 2 and B // (2 * k) == s
