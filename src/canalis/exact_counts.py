"""Closed-form counts of canalizing functions, exact at every n.

Every count is the p = 1/2 numerator, over 2^(2^n), of the one
inclusion-exclusion sum in ``probability``: there all functions are equally
likely. All values are plain Python integers built with bit shifts, so
precision is unbounded and floating point never enters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .limits import DEFAULT_COUNT_MAX_N, RangeError, check_n
from .probability import _BiasPowers, _canalizing_num, _exactly_num

__all__ = [
    "count_canalizing",
    "count_exact_k",
    "count_both_ways",
    "AsymptoticBounds",
    "asymptotic_bounds",
    "scientific_string",
]


def _nonnegative(total: int) -> int:
    """A count from an alternating sum; a negative one means a wrong formula."""
    if total < 0:
        raise ArithmeticError("alternating sum gave a negative count")
    return total


def count_canalizing(n: int) -> int:
    """Number of canalizing functions of ``n`` variables: the numerator of
    Pr[canalizing] at p = 1/2 over 2^(2^n), which equals
    2((-1)^n - n) + sum over k=1..n of
    (-1)^(k+1) * C(n,k) * 2^(k+1) * 2^(2^(n-k)).
    """
    check_n(n, DEFAULT_COUNT_MAX_N)
    return _nonnegative(_canalizing_num(_BiasPowers(n, Fraction(1, 2))))


def count_exact_k(n: int, k: int) -> int:
    """Number of functions canalizing on exactly ``k`` of ``n`` variables.

    At p = 1/2 the two directions have equal numerators, so this is twice
    the one-direction numerator, plus the 2n projections and negations
    (canalizing both ways, on one variable) at k = 1. The two constant
    functions are counted at k = n.
    """
    check_n(n, DEFAULT_COUNT_MAX_N)
    if not 1 <= k <= n:
        raise RangeError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    both_ways = 2 * n if k == 1 else 0
    return _nonnegative(2 * _exactly_num(_BiasPowers(n, Fraction(1, 2)), k) + both_ways)


def count_both_ways(n: int) -> int:
    """Number of functions canalizing in both directions: the 2n
    projections and negations."""
    check_n(n, DEFAULT_COUNT_MAX_N)
    return 2 * n


def _alternating_term(n: int, k: int) -> int:
    """Magnitude of the k-th term of the count's alternating sum:
    C(n,k) * 2^(k+1) * 2^(2^(n-k))."""
    return comb(n, k) << (k + 1 + (1 << (n - k)))


@dataclass(frozen=True)
class AsymptoticBounds:
    """First- and second-term partial-sum bounds around the exact count.

    ``s1`` equals 4n * 2^(2^(n-1)), the known upper bound on the count,
    which the count approaches as n grows.
    """

    n: int
    s1: int
    s2: int
    lower: int
    upper: int


def asymptotic_bounds(n: int) -> AsymptoticBounds:
    """Sandwich bounds 2((-1)^n - n) + S1 - S2 <= count <= 2((-1)^n - n) + S1."""
    check_n(n, DEFAULT_COUNT_MAX_N)
    if n < 2:
        raise RangeError(f"asymptotic bounds need n >= 2, got {n}")
    s1 = _alternating_term(n, 1)
    s2 = _alternating_term(n, 2)
    base = 2 * ((-1) ** n - n)
    return AsymptoticBounds(n=n, s1=s1, s2=s2, lower=base + s1 - s2, upper=base + s1)


def scientific_string(value: int, digits: int = 10) -> str:
    """Round an exact count to scientific notation with ``digits``
    significant digits (half-even), e.g. '4.168515213e+78'.

    The digits are found in integers, in time near linear in the size of
    ``value``: with ``e`` the number of dropped digits, the leading digits
    are value // 10^e = (value >> e) // 5^e, and the dropped part is the
    remainder times 2^e plus the low e bits. The divisor 5^e is 30% shorter
    than 10^e, and the division's cost grows with it. A value of at most
    ``digits`` digits is written out in full, as ``decimal`` does ('1.20e+2').
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    sign, value = ("-", -value) if value < 0 else ("", value)
    limit = 10**digits
    if value < limit:
        text = str(value)
        exponent = len(text) - 1
    else:
        # (b - 1) log10(2) >= (b - 1) * 30102999566 / 10^11 digits follow
        # the first: a lower bound on the digit count, corrected upwards
        e = max(1, (value.bit_length() - 1) * 30102999566 // 10**11 + 1 - digits)
        while True:
            five = 5**e
            head, rest = divmod(value >> e, five)
            if head < limit:
                break
            e += 1
        dropped = rest << e | (value & ((1 << e) - 1))
        half = five << (e - 1)  # 10^e / 2
        if dropped > half or (dropped == half and head & 1):
            head += 1
            if head == limit:
                head //= 10
                e += 1
        text = str(head)
        exponent = e + digits - 1
    mantissa = (text[0] + "." + text[1:]) if len(text) > 1 else text
    return f"{sign}{mantissa}e+{exponent}"
