"""Ground truth for the closed forms, computed without them.

Two counters tally tables by profile: the table's status, the status of
each of its 2n halves x_i = s, and its weight. A status is 0 mixed, 1
all-0 or 2 all-1, so a half of status 2 forces output 1 and one of
status 1 forces output 0. One reader, `_census`, turns either tally into
every class count and weight enumerator; none of the counting or
probability formulas are consulted, so agreement with them is evidence,
not circularity. Weight enumerators (class member counts by number of
ones) turn a census into exact probabilities at any rational bias: the
sum of count * p^w (1-p)^(2^n - w) is formed as an integer numerator
over b^(2^n) on `probability._BiasPowers`, which holds only powers of a,
b - a and b, not the inclusion-exclusion sums.

`profile_census` gets the tally for 1 <= n <= 6 from a DP: the statuses
of every half of a table follow from the statuses in its two halves
under the top variable, so tables are counted by profile level by level.
`enumerate_classify` reads the profile of every table of n <= 4
variables off its half-cube masks instead; the tests hold the DP to it
key for key.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

import numpy  # noqa: F401  unused; perfbench's import-time report reads numpy's entry

from .limits import RangeError, is_integer
from .probability import _BiasPowers, _direction_positive, validate_bias
from .truth_table import variable_mask

__all__ = [
    "ClassCensus",
    "enumerate_classify",
    "profile_census",
    "prob_from_census",
    "class_prob_from_census",
    "both_ways_prob_from_census",
    "census_to_json",
]

ENUMERATE_MAX_N = 4
ORACLE_MAX_N = 6  # the reach of the profile DP, and of `verify --max-n`


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
    if not is_integer(n) or not 1 <= n <= ENUMERATE_MAX_N:
        raise RangeError(
            f"exhaustive classification supports 1 <= n <= {ENUMERATE_MAX_N} "
            f"(use profile_census for n <= {ORACLE_MAX_N}), got {n!r}"
        )
    return _census(n, Counter(key for _, key in _table_profiles(n)))


def _table_profiles(n: int):
    """Yield (bits, (whole, halves, weight)) for every n-variable table,
    with the profile laid out as in `_profile_counts`."""
    fields = [(variable_mask(n, i, s), 4 * i + 2 * s) for i in range(n) for s in (0, 1)]
    for bits in range(1 << (1 << n)):
        halves = 0
        for mask, shift in fields:
            half = bits & mask
            if half == mask:
                halves |= 2 << shift
            elif not half:
                halves |= 1 << shift
        # the whole table is the union of its two halves under x_0
        yield bits, (halves & halves >> 2 & 3, halves, bits.bit_count())


def _census(n: int, tally) -> ClassCensus:
    """Read every class count and weight enumerator off a profile tally.

    A table is canalizing iff some half forces, and both-ways iff halves
    force in both directions; otherwise its direction is the one its
    forcing halves share, and k counts the variables with a forcing half.
    A constant needs no special case: each of its 2n halves forces its
    value, so it lands in one direction with k = n.
    """
    census = ClassCensus(n=n, total_functions=1 << (1 << n))
    census.by_exact_k = dict.fromkeys(range(1, n + 1), 0)
    census.pce_by_k = dict.fromkeys(range(1, n + 1), 0)
    census.nce_by_k = dict.fromkeys(range(1, n + 1), 0)
    census.weight_enum_canalizing = dict.fromkeys(range((1 << n) + 1), 0)
    low = int("01" * 2 * n, 2)  # the low bit of every status field
    for (_, halves, weight), count in tally.items():
        if not halves:
            continue
        k = sum(1 for i in range(n) if halves >> 4 * i & 15)
        census.canalizing += count
        census.by_exact_k[k] += count
        census.weight_enum_canalizing[weight] += count
        forces_1, forces_0 = halves & low << 1, halves & low
        if forces_1 and forces_0:
            census.both_ways += count
            continue
        if forces_1:
            by_k, enum = census.pce_by_k, census.weight_enum_pce
        else:
            by_k, enum = census.nce_by_k, census.weight_enum_nce
        by_k[k] += count
        enum[k, weight] = enum.get((k, weight), 0) + count
    return census


def _at_k(enum: dict[tuple[int, int], int], k: int) -> dict[int, int]:
    """The weight enumerator of one exactly-k class."""
    return {w: c for (kk, w), c in enum.items() if kk == k}


def _weighted_num(ctx: _BiasPowers, pairs) -> int:
    """Numerator over b^(2^n) of the sum of count * p^w (1-p)^(2^n - w)
    over (w, count) pairs."""
    return sum(count * ctx.term(w, ctx.size - w) for w, count in pairs)


def prob_from_census(census: ClassCensus, p) -> Fraction:
    """Exact probability of the canalizing class from the weight enumerator."""
    ctx = _BiasPowers(census.n, validate_bias(p))
    return ctx.fraction(_weighted_num(ctx, census.weight_enum_canalizing.items()))


def class_prob_from_census(census: ClassCensus, k: int, direction, p) -> Fraction:
    """Exact probability of one exactly-k single-direction class."""
    ctx = _BiasPowers(census.n, validate_bias(p))
    enum = census.weight_enum_pce if _direction_positive(direction) else census.weight_enum_nce
    return ctx.fraction(_weighted_num(ctx, _at_k(enum, k).items()))


def both_ways_prob_from_census(census: ClassCensus, p) -> Fraction:
    """Probability of the both-ways class, derived by subtraction so the
    census never consults a closed form."""
    ctx = _BiasPowers(census.n, validate_bias(p))
    num = _weighted_num(ctx, census.weight_enum_canalizing.items())
    for enum in (census.weight_enum_pce, census.weight_enum_nce):
        num -= _weighted_num(ctx, ((w, count) for (_, w), count in enum.items()))
    return ctx.fraction(num)


def census_to_json(census: ClassCensus) -> dict:
    """JSON-ready census document; every count is a decimal string."""

    def strings(counts: dict[int, int]) -> dict[str, str]:
        return {str(key): str(value) for key, value in sorted(counts.items())}

    def by_k(enum: dict[tuple[int, int], int]) -> dict[str, dict[str, str]]:
        return {str(k): strings(_at_k(enum, k)) for k in range(1, census.n + 1)}

    return {
        "n": census.n,
        "total_functions": str(census.total_functions),
        "canalizing": str(census.canalizing),
        "by_exact_k": strings(census.by_exact_k),
        "both_ways": str(census.both_ways),
        "pce_by_k": strings(census.pce_by_k),
        "nce_by_k": strings(census.nce_by_k),
        "weight_enum_canalizing": strings(census.weight_enum_canalizing),
        "weight_enum_pce": by_k(census.weight_enum_pce),
        "weight_enum_nce": by_k(census.weight_enum_nce),
    }


# ---------------------------------------------------------------------------
# profile DP


def _profile_counts(n: int) -> dict[tuple[int, int, int], int]:
    """Number of n-variable tables with each profile (whole, halves, weight).

    A status is 0 mixed, 1 all-0 or 2 all-1, so the AND of two statuses is
    the status of the union of the two parts. ``whole`` is the table's
    status; ``halves`` holds the status of the half x_i = s in bits
    4i + 2s; ``weight`` is the number of ones. A table of m + 1 variables
    is a pair (f0, f1) split at x_m: its halves under x_m are f0 and f1
    themselves, each other half is the union of the same half in f0 and
    in f1, and its weight is the sum of theirs.
    """
    level = {(1, 0, 0): 1, (2, 0, 1): 1}
    for m in range(n):
        items = list(level.items())
        nxt: dict[tuple[int, int, int], int] = {}
        for (s0, h0, w0), c0 in items:
            for (s1, h1, w1), c1 in items:
                key = (s0 & s1, (h0 & h1) | s0 << 4 * m | s1 << 4 * m + 2, w0 + w1)
                nxt[key] = nxt.get(key, 0) + c0 * c1
        level = nxt
    return level


def profile_census(n: int) -> ClassCensus:
    """The census of all 2^(2^n) functions read off the profile DP, for
    1 <= n <= 6; n = 6 takes about 1 s."""
    if not is_integer(n) or not 1 <= n <= ORACLE_MAX_N:
        raise RangeError(f"the profile census supports 1 <= n <= {ORACLE_MAX_N}, got {n!r}")
    return _census(n, _profile_counts(n))
