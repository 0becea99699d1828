"""Ground truth for the closed forms, computed without them.

The census enumerates every function of n <= 4 variables and classifies
each one with `truth_table.classify` alone; none of the counting or
probability formulas are consulted, so agreement between the two routes
is evidence, not circularity. Weight enumerators (class member counts by
number of ones) turn the census into exact probabilities at any rational
bias.

For n = 5 the count of canalizing tables comes from a DP over half-table
profiles instead: the status (all-0, all-1 or mixed) of every half of a
table follows from the statuses in its two halves under the top variable,
so tables are counted by profile level by level, again without any
closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy  # noqa: F401  unused; perfbench's import-time report reads numpy's entry

from .limits import RangeError
from .probability import _direction_positive, validate_bias
from .truth_table import TruthTable, classify

__all__ = [
    "ClassCensus",
    "enumerate_classify",
    "prob_from_census",
    "class_prob_from_census",
    "both_ways_prob_from_census",
    "census_to_json",
    "deep_count_n5",
    "N5_CANALIZING_COUNT",
]

ORACLE_MAX_N = 4
N5_CANALIZING_COUNT = 1292276  # published value the profile DP must reproduce


@dataclass
class ClassCensus:
    """Exhaustive classification tallies for all functions of n variables."""

    n: int
    total_functions: int
    canalizing: int = 0
    by_exact_k: dict[int, int] = field(default_factory=dict)
    both_ways: int = 0
    pce_by_k: dict[int, int] = field(default_factory=dict)
    nce_by_k: dict[int, int] = field(default_factory=dict)
    weight_enum_canalizing: dict[int, int] = field(default_factory=dict)
    weight_enum_pce: dict[tuple[int, int], int] = field(default_factory=dict)
    weight_enum_nce: dict[tuple[int, int], int] = field(default_factory=dict)


def enumerate_classify(n: int) -> ClassCensus:
    """Classify all 2^(2^n) functions; only feasible for n <= 4."""
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= ORACLE_MAX_N:
        raise RangeError(
            f"exhaustive classification supports 1 <= n <= {ORACLE_MAX_N} "
            f"(use deep_count_n5 for n = 5), got {n!r}"
        )
    census = ClassCensus(n=n, total_functions=1 << (1 << n))
    census.by_exact_k = {k: 0 for k in range(1, n + 1)}
    census.pce_by_k = {k: 0 for k in range(1, n + 1)}
    census.nce_by_k = {k: 0 for k in range(1, n + 1)}
    census.weight_enum_canalizing = {w: 0 for w in range((1 << n) + 1)}

    for bits in range(census.total_functions):
        profile = classify(TruthTable(n, bits))
        if not profile.canalizing:
            continue
        weight = bits.bit_count()
        census.canalizing += 1
        census.by_exact_k[profile.num_canalizing_vars] += 1
        census.weight_enum_canalizing[weight] += 1
        if profile.is_constant:
            k = n
            if profile.constant_value == 1:
                census.pce_by_k[k] += 1
                _bump(census.weight_enum_pce, (k, weight))
            else:
                census.nce_by_k[k] += 1
                _bump(census.weight_enum_nce, (k, weight))
        elif profile.positive and profile.negative:
            census.both_ways += 1
        elif profile.positive:
            k = profile.num_canalizing_vars
            census.pce_by_k[k] += 1
            _bump(census.weight_enum_pce, (k, weight))
        else:
            k = profile.num_canalizing_vars
            census.nce_by_k[k] += 1
            _bump(census.weight_enum_nce, (k, weight))
    return census


def _bump(counter: dict, key) -> None:
    counter[key] = counter.get(key, 0) + 1


def _weighted_prob(pairs, n: int, p: Fraction) -> Fraction:
    """Sum of count * p^w (1-p)^(2^n - w) over (w, count) pairs."""
    q = 1 - p
    size = 1 << n
    return sum((count * p**w * q ** (size - w) for w, count in pairs), Fraction(0))


def prob_from_census(census: ClassCensus, p) -> Fraction:
    """Exact probability of the canalizing class from the weight enumerator."""
    p = validate_bias(p)
    return _weighted_prob(census.weight_enum_canalizing.items(), census.n, p)


def class_prob_from_census(census: ClassCensus, k: int, direction, p) -> Fraction:
    """Exact probability of one exactly-k single-direction class."""
    p = validate_bias(p)
    enum = census.weight_enum_pce if _direction_positive(direction) else census.weight_enum_nce
    pairs = [(w, c) for (kk, w), c in enum.items() if kk == k]
    return _weighted_prob(pairs, census.n, p)


def both_ways_prob_from_census(census: ClassCensus, p) -> Fraction:
    """Probability of the both-ways class, derived by subtraction so the
    census never consults a closed form."""
    p = validate_bias(p)
    total = prob_from_census(census, p)
    for k in range(1, census.n + 1):
        total -= class_prob_from_census(census, k, "positive", p)
        total -= class_prob_from_census(census, k, "negative", p)
    return total


def census_to_json(census: ClassCensus) -> dict:
    """JSON-ready census document; every count is a decimal string."""
    return {
        "n": census.n,
        "total_functions": str(census.total_functions),
        "canalizing": str(census.canalizing),
        "by_exact_k": {str(k): str(v) for k, v in sorted(census.by_exact_k.items())},
        "both_ways": str(census.both_ways),
        "pce_by_k": {str(k): str(v) for k, v in sorted(census.pce_by_k.items())},
        "nce_by_k": {str(k): str(v) for k, v in sorted(census.nce_by_k.items())},
        "weight_enum_canalizing": {
            str(w): str(c) for w, c in sorted(census.weight_enum_canalizing.items())
        },
        "weight_enum_pce": {
            str(k): {
                str(w): str(c)
                for (kk, w), c in sorted(census.weight_enum_pce.items())
                if kk == k
            }
            for k in range(1, census.n + 1)
        },
        "weight_enum_nce": {
            str(k): {
                str(w): str(c)
                for (kk, w), c in sorted(census.weight_enum_nce.items())
                if kk == k
            }
            for k in range(1, census.n + 1)
        },
    }


# ---------------------------------------------------------------------------
# n = 5 profile DP


def _profile_counts(n: int) -> dict[tuple[int, int], int]:
    """Number of n-variable tables with each profile (whole, halves).

    A status is 0 mixed, 1 all-0 or 2 all-1, so the AND of two statuses is
    the status of the union of the two parts. ``whole`` is the table's
    status; ``halves`` holds the status of the half x_i = s in bits
    4i + 2s. A table of m + 1 variables is a pair (f0, f1) split at x_m:
    its halves under x_m are f0 and f1 themselves, and each other half is
    the union of the same half in f0 and in f1.
    """
    level = {(1, 0): 1, (2, 0): 1}
    for m in range(n):
        items = list(level.items())
        nxt: dict[tuple[int, int], int] = {}
        for (w0, h0), c0 in items:
            for (w1, h1), c1 in items:
                key = (w0 & w1, (h0 & h1) | w0 << 4 * m | w1 << 4 * m + 2)
                nxt[key] = nxt.get(key, 0) + c0 * c1
        level = nxt
    return level


def deep_count_n5() -> int:
    """Count the canalizing five-variable tables, those with some constant
    half, by the profile DP; no closed form is consulted."""
    return sum(count for (_, halves), count in _profile_counts(5).items() if halves)
