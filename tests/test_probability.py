import random
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction

import pytest

from canalis import (
    RangeError,
    category_weights,
    count_canalizing,
    decimal_string,
    parse_bias,
    prob_both_ways,
    prob_breakdown,
    prob_canalizing,
    prob_canalizing_on_block,
    prob_exactly_k,
)
from canalis import probability

HALF = Fraction(1, 2)
BIAS_GRID = [Fraction(0), Fraction(1, 10), Fraction(1, 4), HALF, Fraction(9, 10), Fraction(1)]


def test_prob_canalizing_examples():
    assert prob_canalizing(2, HALF) == Fraction(7, 8)
    # only XOR and XNOR are non-canalizing at n = 2
    assert prob_canalizing(2, Fraction(1, 4)) == Fraction(119, 128)
    for p in (Fraction(0), Fraction(2, 7), HALF, Fraction(1)):
        assert prob_canalizing(1, p) == 1


def test_prob_canalizing_boundary_bias():
    for n in (1, 2, 5, 16):
        assert prob_canalizing(n, Fraction(0)) == 1
        assert prob_canalizing(n, Fraction(1)) == 1


def test_prob_both_ways_examples():
    assert prob_both_ways(2, HALF) == Fraction(1, 4)
    assert prob_both_ways(1, HALF) == Fraction(1, 2)
    assert prob_both_ways(5, Fraction(0)) == 0
    p = Fraction(2, 7)
    assert prob_both_ways(3, p) == 6 * p**4 * (1 - p) ** 4


def test_prob_block_examples():
    assert prob_canalizing_on_block(2, 1, HALF, "positive") == Fraction(3, 8)
    assert prob_canalizing_on_block(2, 2, HALF, "positive") == Fraction(1, 4)
    assert prob_canalizing_on_block(4, 2, Fraction(1), "positive") == 0
    # negative direction is the positive one at complemented bias
    p = Fraction(3, 10)
    assert prob_canalizing_on_block(3, 2, p, "negative") == prob_canalizing_on_block(
        3, 2, 1 - p, "positive"
    )


def test_prob_block_at_one_variable():
    # nonconstant functions canalizing positively on one fixed variable:
    # 2 forcing values x (2^(2^(n-1)) - 1) free fills
    p = HALF
    n = 2
    assert prob_canalizing_on_block(n, 1, p) == Fraction(6, 16)


def test_prob_exactly_k_examples():
    assert prob_exactly_k(2, 2, HALF, "positive") == Fraction(5, 16)
    assert prob_exactly_k(2, 1, HALF, "positive") == 0
    assert prob_exactly_k(1, 1, Fraction(1, 3), "positive") == Fraction(1, 9)
    assert prob_exactly_k(1, 1, Fraction(1, 3), "negative") == Fraction(4, 9)


def test_prob_exactly_k_positive_zero_everywhere_at_n2_k1():
    for p in BIAS_GRID:
        assert prob_exactly_k(2, 1, p, "positive") == 0
        assert prob_exactly_k(2, 1, p, "negative") == 0


def test_complementation_symmetry():
    for n in (1, 2, 3, 5, 8):
        for p in (Fraction(1, 10), Fraction(1, 4), Fraction(3, 5)):
            for k in range(1, n + 1):
                assert prob_exactly_k(n, k, p, "positive") == prob_exactly_k(
                    n, k, 1 - p, "negative"
                )


def test_direction_spellings():
    assert prob_exactly_k(2, 2, HALF, "pos") == prob_exactly_k(2, 2, HALF, "positive")
    assert prob_exactly_k(2, 2, HALF, "neg") == prob_exactly_k(2, 2, HALF, "negative")
    with pytest.raises(ValueError):
        prob_exactly_k(2, 2, HALF, "sideways")


def test_breakdown_examples():
    b = prob_breakdown(2, HALF)
    assert b.pr_bc == Fraction(1, 4)
    assert b.pr_pce == {1: Fraction(0), 2: Fraction(5, 16)}
    assert b.pr_nce == {1: Fraction(0), 2: Fraction(5, 16)}
    assert b.pr_c == Fraction(7, 8)

    b1 = prob_breakdown(1, HALF)
    assert b1.pr_bc == Fraction(1, 2)
    assert b1.pr_pce == {1: Fraction(1, 4)}
    assert b1.pr_nce == {1: Fraction(1, 4)}
    assert b1.pr_c == 1


@pytest.mark.parametrize("n", range(1, 11))
def test_partition_identity(n):
    for p in BIAS_GRID:
        b = prob_breakdown(n, p)
        total = b.pr_bc + sum(b.pr_pce.values()) + sum(b.pr_nce.values())
        assert total == b.pr_c == prob_canalizing(n, p)


def test_class_numerators_refuse_broken_partition(monkeypatch):
    # the one partition check guards both the probabilities and the
    # sampler's cut points, which are built from the same numerators
    exactly_num = probability._exactly_num
    monkeypatch.setattr(probability, "_exactly_num", lambda ctx, k: exactly_num(ctx, k) + (k == 2))
    with pytest.raises(ArithmeticError):
        prob_breakdown(3, HALF)
    with pytest.raises(ArithmeticError):
        category_weights(3, HALF)


@pytest.mark.parametrize(
    "p", [HALF, Fraction(1, 3), Fraction(6, 35), Fraction(1, 12), Fraction(99, 100)]
)
def test_breakdown_in_lowest_terms_as_fraction_reduces(p):
    # the breakdown divides out only b's primes; Fraction's full gcd is the reference
    zero_classes = 0
    for n in range(1, 13):
        c, bc, pce, nce = probability._class_numerators(n, p)
        b = prob_breakdown(n, p)
        pairs = [(b.pr_c, c), (b.pr_bc, bc)]
        pairs += [(b.pr_pce[k], pce[k]) for k in pce] + [(b.pr_nce[k], nce[k]) for k in nce]
        for value, num in pairs:
            want = Fraction(num, p.denominator ** (1 << n))
            assert (value.numerator, value.denominator) == (want.numerator, want.denominator)
        zero_classes += sum(1 for _, num in pairs if not num)
    assert zero_classes


@pytest.mark.parametrize("n", range(1, 17))
def test_uniform_measure_identity(n):
    assert prob_canalizing(n, HALF) * (1 << (1 << n)) == count_canalizing(n)


def test_probabilities_stay_in_unit_interval():
    for n in (1, 2, 3, 6):
        for p in BIAS_GRID:
            assert 0 <= prob_canalizing(n, p) <= 1
            assert 0 <= prob_both_ways(n, p) <= 1
            for k in range(1, n + 1):
                for direction in ("positive", "negative"):
                    assert 0 <= prob_exactly_k(n, k, p, direction) <= 1


def test_range_errors():
    with pytest.raises(RangeError):
        prob_canalizing(17, HALF)
    with pytest.raises(RangeError):
        prob_canalizing(0, HALF)
    with pytest.raises(RangeError):
        prob_exactly_k(3, 4, HALF)
    with pytest.raises(RangeError):
        prob_canalizing_on_block(3, 0, HALF)
    with pytest.raises(RangeError):
        prob_exactly_k(3, 1.5, HALF)
    with pytest.raises(RangeError):
        prob_canalizing_on_block(3, 2.0, Fraction(1, 3))
    with pytest.raises(RangeError):
        prob_exactly_k(3, True, HALF)


def test_bias_validation():
    with pytest.raises(ValueError):
        prob_canalizing(3, Fraction(3, 2))
    with pytest.raises(ValueError):
        prob_canalizing(3, Fraction(-1, 2))


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("CANALIS_MAX_N", "17")
    assert prob_canalizing(17, HALF) * (1 << (1 << 17)) == count_canalizing(17)
    monkeypatch.setenv("CANALIS_MAX_N", "2")
    with pytest.raises(RangeError):
        prob_canalizing(3, HALF)


def test_parse_bias():
    assert parse_bias("1/2") == HALF
    assert parse_bias("0.25") == Fraction(1, 4)
    assert parse_bias("0.3") == Fraction(3, 10)  # exact, not binary float
    assert parse_bias(" 1 ") == 1
    with pytest.raises(ValueError):
        parse_bias("7/4")
    with pytest.raises(ValueError):
        parse_bias("one half")
    with pytest.raises(ValueError):
        parse_bias("1/0")


def test_decimal_string():
    assert decimal_string(Fraction(7, 8), 3) == "0.875"
    assert decimal_string(Fraction(1, 3), 4) == "0.3333"
    assert decimal_string(Fraction(119, 128), 6) == "0.929688"
    with pytest.raises(ValueError):
        decimal_string(Fraction(1, 2), 0)


def _decimal_by_division(value, digits):
    """The rendering by the decimal module's division, whose int conversion
    is quadratic but whose rounding and format are the reference."""
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(value.numerator) / Decimal(value.denominator))


def test_decimal_string_equals_decimal_division_on_random_rationals():
    rng = random.Random(20241018)
    values = []
    for _ in range(1000):
        sign = rng.choice((1, -1))
        values += [
            Fraction(sign * rng.randrange(10**6), rng.randrange(1, 10**6)),
            Fraction(sign * rng.getrandbits(rng.randrange(1, 400)), rng.getrandbits(300) | 1),
            # terminating decimals, many of them exact at the tested digits
            Fraction(rng.randrange(1, 10**4) * 10 ** rng.randrange(30), 2 ** rng.randrange(40)),
            Fraction(rng.randrange(1000), 5 ** rng.randrange(8)),
        ]
    for value in values:
        for digits in (1, 2, 3, 6, 12, 25):
            assert decimal_string(value, digits) == _decimal_by_division(value, digits), (
                value,
                digits,
            )


def test_decimal_string_equals_decimal_division_on_every_class_probability():
    for n in range(1, 13):
        for p in (Fraction(1, 10), Fraction(1, 3), HALF, Fraction(3, 5), Fraction(9, 10)):
            b = prob_breakdown(n, p)
            for value in [b.pr_c, b.pr_bc, *b.pr_pce.values(), *b.pr_nce.values()]:
                for digits in (1, 6, 12, 30):
                    assert decimal_string(value, digits) == _decimal_by_division(value, digits), (
                        n,
                        p,
                        digits,
                    )


def test_decimal_string_ties_exact_values_and_signs():
    values = [Fraction(0), Fraction(1), Fraction(10), Fraction(100), Fraction(12345678)]
    values += [Fraction(-7, 8), Fraction(-5, 2), Fraction(-1, 3), Fraction(1, 10**9)]
    # ties at the last kept digit, both parities, and carries into a new digit
    for head in (12, 15, 25, 99, 995, 9995):
        for e in (-9, -1, 0, 3):
            values += [Fraction(2 * head + 1, 2) * Fraction(10) ** e]
            values += [Fraction(head) * Fraction(10) ** e]
    for value in values:
        for digits in (1, 2, 3, 4, 8, 12):
            assert decimal_string(value, digits) == _decimal_by_division(value, digits), (
                value,
                digits,
            )
    assert decimal_string(Fraction(5, 2), 1) == "2"
    assert decimal_string(Fraction(100), 2) == "1.0E+2"
    assert decimal_string(Fraction(1, 2), 12) == "0.5"


def test_decimal_string_above_int_str_digit_limit():
    for value in (Fraction(1, 3), Fraction(2**20000, 7), Fraction(-(10**6000) - 1, 3)):
        assert decimal_string(value, 5000) == _decimal_by_division(value, 5000)
