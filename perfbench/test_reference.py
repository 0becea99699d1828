"""Tests of the benchmark's reference checker: python -m pytest perfbench"""

from fractions import Fraction

import pytest

import reference as ref

PUBLISHED_COUNTS = {1: 4, 2: 14, 3: 120, 4: 3514, 5: 1292276, 6: 103071426294}


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_reproduces_published_counts(n):
    assert ref.Census(n).count() == PUBLISHED_COUNTS[n]


def test_census_classes_partition_the_canalizing_set():
    census = ref.Census(3)
    classes = ["both"] + [(d, k) for d in ("pos", "neg") for k in (1, 2, 3)]
    assert sum(census.count(c) for c in classes) == census.count()
    assert census.count("both") == 6  # x_i and not x_i for three variables
    assert census.count(("pos", 3)) == census.count(("neg", 3))


def test_forcing_pairs_of_or_and_projection():
    # x0 OR x1: inputs 1, 2 and 3 give 1, so x0 = 1 and x1 = 1 force 1
    assert ref.forcing_pairs(0b1110, 2) == ({(0, 1), (1, 1)}, frozenset())
    assert ref.table_class(0b1110, 2) == ("pos", 2)
    # x0 itself forces 1 at x0 = 1 and 0 at x0 = 0
    assert ref.table_class(0b1010, 2) == "both"
    assert ref.table_class(0b0110, 2) is None  # XOR


def test_law_is_uniform_at_one_half_and_sums_to_one():
    law = ref.Census(3).law(Fraction(1, 2))
    assert len(law) == 120
    assert set(law.values()) == {Fraction(1, 120)}
    skewed = ref.Census(2).law(Fraction(1, 100))
    assert sum(skewed.values()) == 1
    assert skewed[0] == max(skewed.values())


def test_prob_mirrors_under_complement():
    census = ref.Census(3)
    p = Fraction(3, 10)
    assert census.prob(p) == census.prob(1 - p)
    assert census.prob(p, ("pos", 2)) == census.prob(1 - p, ("neg", 2))
    assert census.prob(Fraction(1, 2)) * 2**8 == 120


def test_record_matches():
    # x0 AND x1 is canalizing negatively on both variables at value 0
    assert ref.record_matches(0b1000, 2, 2, 0, (0, 1), {0: 0, 1: 0})
    assert not ref.record_matches(0b1000, 2, 1, 0, (0,), {0: 0})
    assert not ref.record_matches(0b1000, 2, 2, 1, (0, 1), {0: 0, 1: 0})
    assert ref.record_matches(0b1111, 2, 2, 1, (0, 1), {0: 0, 1: 0})
    assert not ref.record_matches(0b1111, 2, 2, 1, (0, 1), {0: 1, 1: 0})
    assert ref.record_matches(0b1010, 2, 0, None, (0,), {0: 1})


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_count_bounds_hold_for_published_counts(n):
    lower, upper = ref.count_bounds(n)
    assert lower <= PUBLISHED_COUNTS[n] <= upper


def test_round_significant_half_even():
    assert ref.round_significant(Fraction(2, 3), 3) == Fraction(667, 1000)
    assert ref.round_significant(Fraction(1, 8), 2) == Fraction(12, 100)
    assert ref.round_significant(Fraction(3, 8), 2) == Fraction(38, 100)
    assert ref.round_significant(Fraction(99999, 1), 3) == 100000
    assert ref.round_significant(Fraction(1, 10**40 + 1), 5) == Fraction(1, 10**40)


def test_correctly_rounded_strings():
    assert ref.correctly_rounded("0.667", Fraction(2, 3), 3)
    assert ref.correctly_rounded("6.67E-7", Fraction(2, 3 * 10**6), 3)
    assert ref.correctly_rounded("4.168515213e+78", Fraction(4168515213 * 10**69 + 1), 10)
    assert not ref.correctly_rounded("0.666", Fraction(2, 3), 3)
    assert not ref.correctly_rounded("0.6667", Fraction(2, 3), 3)
    assert ref.correctly_rounded("0.875", Fraction(7, 8), 12)


def test_goodness_of_fit_accepts_the_law_and_rejects_a_skew():
    law = ref.Census(2).law(Fraction(1, 2))
    exact = {bits: 1000 for bits in law}
    stat, crit = ref.goodness_of_fit(exact, law)
    assert stat == 0 and crit > 0
    skewed = dict(exact)
    first = next(iter(skewed))
    skewed[first] += 400
    stat, crit = ref.goodness_of_fit(skewed, law)
    assert stat > crit
    assert ref.goodness_of_fit({0b0110: 1}, law)[0] == float("inf")
