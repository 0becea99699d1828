"""Closed-form counts of canalizing functions, exact at every n.

All values are plain Python integers, so precision is unbounded. The
double exponentials 2^(2^(n-k)) are built with bit shifts; floating point
never enters. The alternating sums pass through negative partial values,
so accumulation is signed and the nonnegative final result is asserted.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .limits import DEFAULT_COUNT_MAX_N, RangeError, check_n

__all__ = [
    "count_canalizing",
    "count_exact_k",
    "count_both_ways",
    "AsymptoticBounds",
    "asymptotic_bounds",
    "alternating_term",
    "scientific_string",
]


def _nonnegative(total: int) -> int:
    """A count from an alternating sum; a negative one means a wrong formula."""
    if total < 0:
        raise ArithmeticError("alternating sum gave a negative count")
    return total


def count_canalizing(n: int, *, max_n: int | None = None) -> int:
    """Number of canalizing functions of ``n`` variables.

    Evaluates 2((-1)^n - n) + sum over k=1..n of
    (-1)^(k+1) * C(n,k) * 2^(k+1) * 2^(2^(n-k)).
    """
    check_n(n, DEFAULT_COUNT_MAX_N, explicit_cap=max_n)
    total = 2 * ((-1) ** n - n)
    for k in range(1, n + 1):
        term = comb(n, k) << (k + 1 + (1 << (n - k)))
        total += term if k % 2 == 1 else -term
    return _nonnegative(total)


def count_exact_k(n: int, k: int, *, max_n: int | None = None) -> int:
    """Number of functions canalizing on exactly ``k`` of ``n`` variables.

    Four closed forms cover the cases, dispatched in the order
    (k=1,n=1), (k=n>1), (k=1<n), (1<k<n). The two constant functions are
    counted at k = n only.
    """
    check_n(n, DEFAULT_COUNT_MAX_N, explicit_cap=max_n)
    if not 1 <= k <= n:
        raise RangeError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    if k == 1 and n == 1:
        return 4
    if k == n:
        return 2 + (1 << (n + 1))
    if k == 1:
        total = 2 * n * ((1 << (1 + (1 << (n - 1)))) - 3)
        for r in range(2, n + 1):
            term = r * comb(n, r) * ((1 << (1 << (n - r))) - 1) << (r + 1)
            total += term if r % 2 == 1 else -term
        return _nonnegative(total)
    total = 0
    for r in range(k, n + 1):
        term = comb(r, k) * comb(n, r) * ((1 << (1 << (n - r))) - 1) << (r + 1)
        total += term if (r - k) % 2 == 0 else -term
    return _nonnegative(total)


def count_both_ways(n: int) -> int:
    """Number of functions canalizing in both directions: the 2n
    projections and negations."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise RangeError(f"n must be a positive integer, got {n!r}")
    return 2 * n


def alternating_term(n: int, k: int) -> int:
    """Magnitude of the k-th term of the count's alternating sum:
    C(n,k) * 2^(k+1) * 2^(2^(n-k))."""
    if not 1 <= k <= n:
        raise RangeError(f"k must satisfy 1 <= k <= n={n}, got {k}")
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


def asymptotic_bounds(n: int, *, max_n: int | None = None) -> AsymptoticBounds:
    """Sandwich bounds 2((-1)^n - n) + S1 - S2 <= count <= 2((-1)^n - n) + S1."""
    check_n(n, DEFAULT_COUNT_MAX_N, explicit_cap=max_n)
    if n < 2:
        raise RangeError(f"asymptotic bounds need n >= 2, got {n}")
    s1 = alternating_term(n, 1)
    s2 = alternating_term(n, 2)
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
