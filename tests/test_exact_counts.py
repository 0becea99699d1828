from decimal import ROUND_HALF_EVEN, Context, Decimal
from fractions import Fraction

import pytest

import naive_ref as ref
from canalis import (
    RangeError,
    asymptotic_bounds,
    count_both_ways,
    count_canalizing,
    count_exact_k,
    scientific_string,
)

# exact published values
TABLE1 = {
    1: 4,
    2: 14,
    3: 120,
    4: 3514,
    5: 1292276,
    6: 103071426294,
    7: 516508833342349371376,
    8: 10889035741470030826695916769153787968498,
}


@pytest.mark.parametrize("n,expected", sorted(TABLE1.items()))
def test_count_matches_published_values(n, expected):
    assert count_canalizing(n) == expected


def test_count_rounded_rows():
    assert scientific_string(count_canalizing(9)) == "4.168515213e+78"
    assert scientific_string(count_canalizing(10)) == "5.363123172e+155"


def test_count_out_of_range():
    with pytest.raises(RangeError):
        count_canalizing(0)
    with pytest.raises(RangeError):
        count_canalizing(25)


def test_counts_equal_hand_derived_sums():
    # the library takes its counts from the p = 1/2 probability numerators;
    # the reference keeps the hand-derived closed forms
    for n in range(1, 25):
        assert count_canalizing(n) == ref.count_canalizing(n), n
        for k in range(1, n + 1):
            assert count_exact_k(n, k) == ref.count_exact_k(n, k), (n, k)


def _brute_exact_k(n):
    """Tally num-canalizing-variables over all functions, naive semantics."""
    tally = {k: 0 for k in range(1, n + 1)}
    for value in range(1 << (1 << n)):
        bits = ref.bits_list(n, value)
        if ref.is_canalizing(bits, n):
            tally[ref.num_canalizing_vars(bits, n)] += 1
    return tally


@pytest.mark.parametrize("n", [1, 2, 3])
def test_count_exact_k_matches_brute_force(n):
    tally = _brute_exact_k(n)
    for k in range(1, n + 1):
        assert count_exact_k(n, k) == tally[k], (n, k)
    assert sum(tally.values()) == count_canalizing(n)


def test_count_exact_k_known_values():
    assert count_exact_k(1, 1) == 4
    assert count_exact_k(2, 1) == 4
    assert count_exact_k(2, 2) == 10
    assert count_exact_k(3, 1) == 78
    assert count_exact_k(3, 2) == 24
    assert count_exact_k(3, 3) == 18  # 2 + 2^(n+1) at k = n


def test_count_exact_k_range_errors():
    with pytest.raises(RangeError):
        count_exact_k(3, 0)
    with pytest.raises(RangeError):
        count_exact_k(3, 4)
    with pytest.raises(RangeError):
        count_exact_k(0, 1)
    for k in (True, 1.5):
        with pytest.raises(RangeError):
            count_exact_k(3, k)


@pytest.mark.parametrize("n", range(1, 17))
def test_partition_identity(n):
    assert sum(count_exact_k(n, k) for k in range(1, n + 1)) == count_canalizing(n)


def test_count_both_ways():
    assert count_both_ways(1) == 2
    assert count_both_ways(2) == 4
    assert count_both_ways(10) == 20
    assert count_both_ways(24) == 48
    with pytest.raises(RangeError):
        count_both_ways(0)
    with pytest.raises(RangeError):
        count_both_ways(25)


def test_count_both_ways_cap_follows_env(monkeypatch):
    monkeypatch.setenv("CANALIS_MAX_N", "30")
    assert count_both_ways(25) == 50


def test_asymptotic_bounds_examples():
    b3 = asymptotic_bounds(3)
    assert (b3.s1, b3.s2, b3.lower, b3.upper) == (192, 96, 88, 184)
    assert b3.lower <= count_canalizing(3) <= b3.upper

    b2 = asymptotic_bounds(2)
    assert (b2.s1, b2.s2, b2.lower, b2.upper) == (32, 16, 14, 30)
    assert count_canalizing(2) == b2.lower  # tight at n = 2


@pytest.mark.parametrize("n", range(2, 17))
def test_sandwich_bounds(n):
    b = asymptotic_bounds(n)
    assert b.lower <= count_canalizing(n) <= b.upper
    assert b.s2 < b.s1
    assert b.s1 == 4 * n * (1 << (1 << (n - 1)))


def test_asymptotic_bounds_requires_two_variables():
    with pytest.raises(RangeError):
        asymptotic_bounds(1)


def test_ratio_convergence_to_first_term():
    # 1 - |C|/S1 is bounded by (S2 + 2(n - (-1)^n))/S1 and both shrink
    # monotonically over the tested range
    previous_gap = None
    previous_bound = None
    for n in range(2, 17):
        b = asymptotic_bounds(n)
        gap = 1 - Fraction(count_canalizing(n), b.s1)
        bound = Fraction(b.s2 + 2 * (n - (-1) ** n), b.s1)
        assert gap <= bound
        if previous_gap is not None:
            assert gap < previous_gap
            assert bound < previous_bound
        previous_gap, previous_bound = gap, bound


def test_scientific_string_basics():
    assert scientific_string(1500, 2) == "1.5e+3"
    assert scientific_string(10**12, 4) == "1.000e+12"
    with pytest.raises(ValueError):
        scientific_string(5, 0)


def _scientific_by_decimal(value, digits):
    """Half-even rounding by the decimal module, whose int conversion is
    quadratic but has no digit limit; ``value`` may already be a Decimal."""
    return format(Context(prec=digits, rounding=ROUND_HALF_EVEN).plus(Decimal(value)), "e")


def test_scientific_string_equals_decimal_for_every_row():
    for n in range(1, 21):
        for value in [count_canalizing(n)] + [count_exact_k(n, k) for k in range(1, n + 1)]:
            exact = Decimal(value)
            for digits in (1, 10, 25):
                assert scientific_string(value, digits) == _scientific_by_decimal(exact, digits), (
                    n,
                    digits,
                )


def test_scientific_string_ties_carries_and_short_values():
    values = [0, 1, 9, 10, 120, -5, -12345, 10**30, 10**30 - 1]
    for e in (1, 2, 7, 40, 300):
        half = 5 * 10 ** (e - 1)
        for head in (1000, 1234, 1235, 9998, 9999):
            values += [head * 10**e + half + d for d in (-1, 0, 1)]
    for d in (1, 4, 10, 60):
        values += [int("9" * d + "5"), int("9" * d + "49"), int("9" * d + "51") * 10**9]
    for value in values:
        for digits in (1, 3, 4, 5, 10, 70):
            assert scientific_string(value, digits) == _scientific_by_decimal(value, digits), (
                value,
                digits,
            )
