"""Reference computations the benchmark checks canalis against.

Nothing here imports canalis. Forcing is decided from half-table masks
built entry by entry, counts come from an exhaustive census over every
table of n <= 4 variables, the sampler's target law is enumerated table
by table, and rounding is checked with exact rationals. Agreement with
the library is therefore evidence from a second route, not a replay of
the library's own code.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, log10

# Canalizing functions of five variables, as published (Just, Shmulevich
# and Konvalina 2004, Table 1); 2^32 tables are too many to census here.
N5_CANALIZING_COUNT = 1292276
CENSUS_MAX_N = 4

# One-sided standard normal quantile for a false-alarm rate of 1e-6 per
# goodness-of-fit test, so thousands of benchmark runs raise no false alarm.
GOF_Z = 4.753
GOF_MIN_EXPECTED = 5.0

_MASKS: dict[int, dict[tuple[int, int], int]] = {}


def half_masks(n: int) -> dict[tuple[int, int], int]:
    """Mask of the table entries whose input has variable i equal to s,
    for every (i, s); bit e of a table is its output on input e."""
    if n not in _MASKS:
        masks = {}
        for i in range(n):
            for s in (0, 1):
                m = 0
                for e in range(1 << n):
                    if (e >> i) & 1 == s:
                        m |= 1 << e
                masks[i, s] = m
        _MASKS[n] = masks
    return _MASKS[n]


def forcing_pairs(bits: int, n: int) -> tuple[frozenset, frozenset]:
    """(positive, negative): the pairs (i, s) such that fixing x_i = s
    forces output 1, respectively output 0."""
    masks = half_masks(n)
    positive = frozenset(key for key, m in masks.items() if bits & m == m)
    negative = frozenset(key for key, m in masks.items() if bits & m == 0)
    return positive, negative


def table_class(bits: int, n: int):
    """None (not canalizing), "both" (a projection or its negation), or
    (direction, k) with k the number of canalizing variables; the constants
    fall in (direction, n) of their own output."""
    positive, negative = forcing_pairs(bits, n)
    if positive and negative:
        return "both"
    pairs = positive or negative
    if not pairs:
        return None
    return ("pos" if positive else "neg", len({i for i, _ in pairs}))


def record_matches(bits: int, n: int, q: int, r, subset, values) -> bool:
    """A drawn table agrees with its draw record: it is canalizing exactly
    on ``subset`` with the recorded forcing values in direction ``r``, and
    not in the other direction (q = 0 is the both-ways branch)."""
    positive, negative = forcing_pairs(bits, n)
    if q == 0:
        (i,) = subset
        return positive == {(i, values[i])} and negative == {(i, 1 - values[i])}
    full = (1 << (1 << n)) - 1
    if bits in (0, full):
        return q == n and bits == (full if r == 1 else 0) and not any(values.values())
    expected = {(i, values[i]) for i in subset}
    mine, other = (positive, negative) if r == 1 else (negative, positive)
    return len(subset) == q and mine == expected and not other


class Census:
    """Every canalizing table of n variables with its class and weight."""

    def __init__(self, n: int):
        if not 1 <= n <= CENSUS_MAX_N:
            raise ValueError(f"census needs 1 <= n <= {CENSUS_MAX_N}, got {n}")
        self.n = n
        self.tables = {}
        for bits in range(1 << (1 << n)):
            cls = table_class(bits, n)
            if cls is not None:
                self.tables[bits] = cls

    def count(self, cls=None) -> int:
        """Canalizing tables in total, or in one class; classes are "both"
        and (direction, k) as returned by `table_class`."""
        if cls is None:
            return len(self.tables)
        return sum(1 for c in self.tables.values() if c == cls)

    def prob(self, p: Fraction, cls=None) -> Fraction:
        """Exact bias-p probability of the canalizing set or of one class."""
        size = 1 << self.n
        by_weight: dict[int, int] = {}
        for bits, c in self.tables.items():
            if cls is None or c == cls:
                w = bits.bit_count()
                by_weight[w] = by_weight.get(w, 0) + 1
        q = 1 - p
        return sum((m * p**w * q ** (size - w) for w, m in by_weight.items()), Fraction(0))

    def law(self, p: Fraction) -> dict[int, Fraction]:
        """The bias-p law conditioned on being canalizing, table by table."""
        size = 1 << self.n
        q = 1 - p
        raw = {bits: p ** bits.bit_count() * q ** (size - bits.bit_count()) for bits in self.tables}
        total = sum(raw.values())
        return {bits: v / total for bits, v in raw.items()}


def chi2_critical(df: int, z: float = GOF_Z) -> float:
    """Upper chi-square quantile by the Wilson-Hilferty approximation."""
    h = 2.0 / (9.0 * df)
    return df * (1.0 - h + z * h**0.5) ** 3


def goodness_of_fit(observed: dict[int, int], law: dict[int, Fraction]) -> tuple[float, float]:
    """Pearson chi-square of observed table counts against an exact law.

    Cells expected to hold fewer than five draws are pooled into one cell.
    Returns (statistic, critical value); draws outside the law's support
    make the statistic infinite.
    """
    total = sum(observed.values())
    if any(bits not in law for bits in observed):
        return float("inf"), 0.0
    cells = []
    pooled_obs, pooled_exp = 0, 0.0
    for bits, prob in law.items():
        expected = total * float(prob)
        if expected < GOF_MIN_EXPECTED:
            pooled_obs += observed.get(bits, 0)
            pooled_exp += expected
        else:
            cells.append((observed.get(bits, 0), expected))
    if pooled_exp > 0:
        cells.append((pooled_obs, pooled_exp))
    stat = sum((o - e) ** 2 / e for o, e in cells)
    return stat, chi2_critical(max(len(cells) - 1, 1))


def count_bounds(n: int) -> tuple[int, int]:
    """Partial-sum sandwich around the count for n >= 2: the first term of
    the inclusion-exclusion sum bounds it above, the first two below."""
    base = 2 * ((-1) ** n - n)
    s1 = n * 2**2 * 2 ** (2 ** (n - 1))
    s2 = comb(n, 2) * 2**3 * 2 ** (2 ** (n - 2))
    return base + s1 - s2, base + s1


def _decimal_exponent(value: Fraction) -> int:
    """The e with 10^e <= value < 10^(e+1), for value > 0."""
    a, b = value.numerator, value.denominator
    e = int((a.bit_length() - b.bit_length()) * log10(2))
    while _ge_pow10(a, b, e + 1):
        e += 1
    while not _ge_pow10(a, b, e):
        e -= 1
    return e


def _ge_pow10(a: int, b: int, e: int) -> bool:
    return a >= b * 10**e if e >= 0 else a * 10**-e >= b


def round_significant(value: Fraction, digits: int) -> Fraction:
    """``value`` rounded half-even to ``digits`` significant digits."""
    if value < 0:
        raise ValueError(f"expected a value >= 0, got {value}")
    if value == 0:
        return value
    shift = digits - 1 - _decimal_exponent(value)
    num, den = value.numerator, value.denominator
    if shift >= 0:
        num *= 10**shift
    else:
        den *= 10**-shift
    whole, rest = divmod(num, den)
    if 2 * rest > den or (2 * rest == den and whole % 2):
        whole += 1
    return Fraction(whole, 10**shift) if shift >= 0 else Fraction(whole * 10**-shift)


def significant_digits(text: str) -> int:
    """Number of significant digits written in a decimal string."""
    mantissa = text.lower().lstrip("+-").split("e")[0].replace(".", "")
    return len(mantissa.lstrip("0")) or 1


def correctly_rounded(text: str, value: Fraction, digits: int) -> bool:
    """``text`` is ``value`` rounded half-even to ``digits`` significant
    digits, written with no more digits than that."""
    return (
        significant_digits(text) <= digits
        and Fraction(text) == round_significant(value, digits)
    )
