"""Threshold arithmetic shared by every index variant.

All derived quantities (the relaxed per-node threshold beta, candidate list
sizes, rebuild budgets, the level cut-off) live here so each formula is
independently testable. Ceilings are evaluated in exact integer
arithmetic, with no floats, so boundary inputs land on the correct side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[int, float, str, Fraction]

# Tuning constants for the whole package. The frozen expectations in the
# test suite are only valid for these exact values.
CANDIDATE_RATIO = Fraction(256, 25)  # scales 1/alpha to 1/beta (10.24)
FILTER_MARGIN = Fraction(64, 25)  # missed-mass allowance per colour (2.56)
LEVEL_PAD = Fraction(41, 20)  # additive pad in the level cut-off (2.05)
LEVEL_MASS_FACTOR = 31  # per-level canonical mass multiplier
BRANCH = 8  # tree branching parameter
MIN_DEGREE = 2
MAX_DEGREE = 4 * BRANCH


def as_fraction(value: RationalLike) -> Fraction:
    """Exact rational view of ``value``; floats convert by binary expansion."""
    if isinstance(value, Fraction):
        return value
    return Fraction(value)


def ceil_frac(x: Fraction) -> int:
    return -((-x.numerator) // x.denominator)


def _check_alpha(alpha: RationalLike) -> Fraction:
    a = as_fraction(alpha)
    if not 0 < a < 1:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha!r}")
    return a


def _check_beta(beta: RationalLike) -> Fraction:
    b = as_fraction(beta)
    if not 0 < b <= Fraction(1, 2):
        raise ValueError(f"beta must lie in (0, 1/2], got {beta!r}")
    return b


def beta_of(alpha: RationalLike) -> Fraction:
    """Relaxed per-node majority threshold derived from alpha."""
    a = _check_alpha(alpha)
    return Fraction(1, ceil_frac(CANDIDATE_RATIO / a))


def query_candidate_bound(alpha: RationalLike) -> int:
    """How many top colours per node the query analysis charges against."""
    a = _check_alpha(alpha)
    return ceil_frac(CANDIDATE_RATIO / a) - 1


def stored_list_size(beta: RationalLike) -> int:
    """Entries kept in a node's candidate list: ceil((1-b+sqrt(1-b))/b)."""
    b = _check_beta(beta)
    p, q = b.numerator, b.denominator
    # ceil of ((q-p) + sqrt(q(q-p))) / p, taken exactly: n is large enough
    # iff n*p - (q-p) >= sqrt(q(q-p)), which for an integer left side holds
    # iff it is >= the integer ceiling of that root. q > p, so q(q-p) >= 1.
    root = 1 + math.isqrt(q * (q - p) - 1)
    return -(-(q - p + root) // p)


def top_levels(alpha: RationalLike) -> int:
    """Distinct canonical heights inspected per query."""
    a = _check_alpha(alpha)
    p, q = a.numerator, a.denominator
    # ceil of log2(q/p)/3 + 41/20. n suffices iff
    # 2^(60n - 123) >= (q/p)^20, compared in exact integers.
    pad_num, pad_den = LEVEL_PAD.numerator, LEVEL_PAD.denominator

    def big_enough(n: int) -> bool:
        e = 3 * (n * pad_den - pad_num)  # = 60n - 123 for pad 41/20
        if e >= 0:
            return p**pad_den * 2**e >= q**pad_den
        return p**pad_den >= q**pad_den * 2**-e

    n = 1
    while not big_enough(n):
        n += 1
    return n


def rebuild_threshold(ell: int, beta: RationalLike) -> int:
    """Updates a node's subtree tolerates before its list must be rebuilt."""
    if ell < 1:
        raise ValueError(f"ell must be positive, got {ell!r}")
    b = _check_beta(beta)
    # ceil(b * ell / 2) in integers: this runs on every list rebuild
    return -(-b.numerator * ell // (2 * b.denominator))


def gamma_lower_bound(ell: int, m: int, beta: RationalLike) -> Fraction:
    """Analytic floor on the updates needed to promote a colour.

    With ``ell`` points in a range and ``m`` of them carrying some colour,
    at least this many insertions plus deletions must hit the range before
    that colour can exceed a beta fraction. Only valid for ell >= 2m + 1.
    """
    b = _check_beta(beta)
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m!r}")
    if ell < 2 * m + 1:
        raise ValueError(f"need ell >= 2m + 1, got ell={ell!r} m={m!r}")
    return (b * ell - m) / (1 - b)


@dataclass(frozen=True)
class AlphaConfig:
    """Frozen bundle of the thresholds derived from one alpha."""

    alpha: Fraction
    beta: Fraction
    candidate_bound: int
    list_size: int
    top_count: int

    @classmethod
    def from_alpha(cls, alpha: RationalLike) -> "AlphaConfig":
        a = _check_alpha(alpha)
        beta = beta_of(a)
        cfg = cls(
            alpha=a,
            beta=beta,
            candidate_bound=query_candidate_bound(a),
            list_size=stored_list_size(beta),
            top_count=top_levels(a),
        )
        # The stored list must be at least as long as the analysed top-k,
        # and no longer than the 2/beta cap.
        assert cfg.candidate_bound == 1 / beta - 1
        assert cfg.candidate_bound <= cfg.list_size <= ceil_frac(2 / beta)
        return cfg
