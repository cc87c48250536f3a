"""Frozen expectations for the threshold arithmetic.

Expected values were computed by hand / with exact rational arithmetic
before the module was written, then pinned here.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from rangemaj.params import (
    AlphaConfig,
    beta_of,
    ceil_frac,
    gamma_lower_bound,
    query_candidate_bound,
    rebuild_threshold,
    stored_list_size,
    top_levels,
)

F = Fraction


class TestBetaOf:
    @pytest.mark.parametrize(
        "alpha,expected",
        [
            (0.5, F(1, 21)),
            (0.999, F(1, 11)),
            (0.1, F(1, 103)),
            (F(1, 3), F(1, 31)),
            (F(1, 4), F(1, 41)),
            (F(1, 10), F(1, 103)),
            # exact boundary: 10.24 / (1/100) is the integer 1024
            (F(1, 100), F(1, 1024)),
        ],
    )
    def test_frozen(self, alpha, expected):
        assert beta_of(alpha) == expected

    @pytest.mark.parametrize("alpha", [0, 1, -0.5, 1.5, F(7, 7)])
    def test_domain(self, alpha):
        with pytest.raises(ValueError):
            beta_of(alpha)


class TestQueryCandidateBound:
    @pytest.mark.parametrize(
        "alpha,expected",
        [(0.5, 20), (0.1, 102), (0.999, 10), (F(1, 4), 40), (F(1, 100), 1023)],
    )
    def test_frozen(self, alpha, expected):
        assert query_candidate_bound(alpha) == expected

    def test_matches_beta(self):
        for alpha in (0.5, 0.37, F(3, 7), F(1, 64), 0.93):
            assert query_candidate_bound(alpha) == 1 / beta_of(alpha) - 1


class TestStoredListSize:
    @pytest.mark.parametrize(
        "beta,expected",
        [
            (F(1, 2), 3),
            (F(1, 21), 41),
            (F(1, 11), 21),
            (F(1, 41), 81),
            (F(1, 103), 205),
            (F(1, 1024), 2047),
            # non-unit numerators exercise the general integer predicate
            (F(2, 5), 4),  # (3/5 + sqrt(3/5)) / (2/5) = (3 + sqrt(15)) / 2 ~ 3.436
            (F(3, 7), 4),  # (4 + sqrt(28)) / 3 ~ 3.097
        ],
    )
    def test_frozen(self, beta, expected):
        assert stored_list_size(beta) == expected

    @pytest.mark.parametrize("beta", [0, F(2, 3), 0.6, -1])
    def test_domain(self, beta):
        with pytest.raises(ValueError):
            stored_list_size(beta)

    def test_cap(self):
        rng = random.Random(0xC0)
        for _ in range(10_000):
            beta = beta_of(rng.uniform(1e-4, 1 - 1e-9))
            assert 0 < beta <= F(1, 2)
            assert stored_list_size(beta) <= ceil_frac(2 / beta)


class TestTopLevels:
    @pytest.mark.parametrize(
        "alpha,expected",
        [
            (0.5, 3),
            (F(1, 8), 4),
            (F(1, 64), 5),
            (F(1, 4), 3),
            (F(1, 10), 4),
            (F(1, 100), 5),
            (0.999, 3),
        ],
    )
    def test_frozen(self, alpha, expected):
        assert top_levels(alpha) == expected

    @given(st.fractions(min_value=F(1, 10**6), max_value=F(999, 1000)))
    def test_matches_float_formula_away_from_boundaries(self, alpha):
        exact = top_levels(alpha)
        x = math.log2(1 / float(alpha)) / 3 + 2.05
        # the float estimate can only disagree within rounding slack
        assert math.floor(x - 1e-9) <= exact <= math.ceil(x + 1e-9)


class TestRebuildThreshold:
    @pytest.mark.parametrize(
        "ell,beta,expected",
        [
            (42, F(1, 21), 1),
            (420, F(1, 21), 10),
            (1, F(1, 2), 1),
            (420, F(1, 41), 6),
            (419, F(1, 21), 10),
        ],
    )
    def test_frozen(self, ell, beta, expected):
        assert rebuild_threshold(ell, beta) == expected

    def test_domain(self):
        with pytest.raises(ValueError):
            rebuild_threshold(0, F(1, 2))


class TestGammaLowerBound:
    def test_frozen(self):
        assert gamma_lower_bound(21, 0, F(1, 2)) == 21
        assert gamma_lower_bound(100, 10, F(1, 4)) == 20

    def test_hypothesis_boundary(self):
        # at ell = 2m + 1 the bound stays finite and nonnegative iff
        # beta * ell >= m
        for m in range(0, 8):
            ell = 2 * m + 1
            v = gamma_lower_bound(ell, m, F(1, 2))
            assert v >= 0

    def test_domain(self):
        with pytest.raises(ValueError):
            gamma_lower_bound(20, 10, F(1, 2))
        with pytest.raises(ValueError):
            gamma_lower_bound(5, -1, F(1, 2))


class TestAlphaConfig:
    @pytest.mark.parametrize("alpha", [F(1, 2), F(1, 4), F(1, 10), F(1, 100), 0.73])
    def test_consistent(self, alpha):
        cfg = AlphaConfig.from_alpha(alpha)
        assert cfg.beta == beta_of(alpha)
        assert cfg.candidate_bound == query_candidate_bound(alpha)
        assert cfg.list_size == stored_list_size(cfg.beta)
        assert cfg.top_count == top_levels(alpha)
        assert cfg.candidate_bound <= cfg.list_size

    def test_random_alphas_keep_invariants(self):
        rng = random.Random(7)
        for _ in range(2000):
            cfg = AlphaConfig.from_alpha(rng.uniform(1e-3, 1 - 1e-6))
            assert 0 < cfg.beta <= F(1, 2)


class TestMonotonicity:
    def test_nonincreasing_in_alpha(self):
        rng = random.Random(99)
        alphas = sorted(rng.uniform(1e-3, 1 - 1e-6) for _ in range(500))
        ks = [query_candidate_bound(a) for a in alphas]
        sizes = [stored_list_size(beta_of(a)) for a in alphas]
        for left, right in zip(ks, ks[1:]):
            assert left >= right
        for left, right in zip(sizes, sizes[1:]):
            assert left >= right


class TestGammaAgainstOracle:
    def test_analytic_bound_holds_small(self):
        # trimmed sweep; the exhaustive version runs with the acceptance gate
        from rangemaj.oracle import naive_gamma

        for beta in (F(1, 2), F(1, 3), F(1, 5), F(1, 10)):
            for ell in range(1, 25):
                for m in range(0, (ell - 1) // 2 + 1):
                    got = naive_gamma(ell, m, beta)
                    assert got >= gamma_lower_bound(ell, m, beta)
