import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import canalis
from canalis import (
    RangeError,
    census_to_json,
    class_prob_from_census,
    count_both_ways,
    count_canalizing,
    count_exact_k,
    prob_both_ways,
    prob_canalizing,
    prob_exactly_k,
    prob_from_census,
)
from canalis.oracle import _profile_counts, both_ways_prob_from_census

HALF = Fraction(1, 2)
BIASES = [Fraction(1, 10), Fraction(1, 4), HALF, Fraction(3, 5), Fraction(9, 10)]


def test_census_n2_counts(census):
    c = census(2)
    assert c.total_functions == 16
    assert c.canalizing == 14
    assert c.by_exact_k == {1: 4, 2: 10}
    assert c.both_ways == 4
    # the two weight-2 non-canalizing functions are XOR and XNOR
    assert c.weight_enum_canalizing == {0: 1, 1: 4, 2: 4, 3: 4, 4: 1}


def test_census_n3_counts(census):
    c = census(3)
    assert c.canalizing == 120
    assert c.by_exact_k == {1: 78, 2: 24, 3: 18}
    assert c.both_ways == 6


def test_census_internal_partitions(census):
    for n in range(1, 5):
        c = census(n)
        assert sum(c.by_exact_k.values()) == c.canalizing
        assert c.both_ways + sum(c.pce_by_k.values()) + sum(c.nce_by_k.values()) == c.canalizing
        assert sum(c.weight_enum_canalizing.values()) == c.canalizing


def test_census_complement_symmetry(census):
    # complementing a function swaps the directional classes and weights
    for n in range(1, 5):
        c = census(n)
        size = 1 << n
        assert c.pce_by_k == c.nce_by_k
        flipped = {(k, size - w): count for (k, w), count in c.weight_enum_nce.items()}
        assert c.weight_enum_pce == flipped


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_matches_closed_forms(n, census):
    c = census(n)
    assert c.canalizing == count_canalizing(n)
    assert c.both_ways == count_both_ways(n)
    for k in range(1, n + 1):
        assert c.by_exact_k[k] == count_exact_k(n, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_census_matches_probability_formulas(n, census):
    c = census(n)
    for p in BIASES:
        assert prob_from_census(c, p) == prob_canalizing(n, p)
        assert both_ways_prob_from_census(c, p) == prob_both_ways(n, p)
        for k in range(1, n + 1):
            for direction in ("positive", "negative"):
                assert class_prob_from_census(c, k, direction, p) == prob_exactly_k(
                    n, k, p, direction
                ), (n, k, direction, p)


def test_prob_from_census_examples(census):
    c2 = census(2)
    assert prob_from_census(c2, HALF) == Fraction(7, 8)
    assert prob_from_census(c2, Fraction(1, 4)) == Fraction(119, 128)
    c1 = census(1)
    for p in (Fraction(1, 10), HALF, Fraction(9, 10)):
        assert prob_from_census(c1, p) == 1


def test_enumerate_range_error():
    with pytest.raises(RangeError):
        from canalis import enumerate_classify

        enumerate_classify(5)


def test_census_json_document(census):
    doc = census_to_json(census(2))
    text = json.dumps(doc)
    parsed = json.loads(text)
    assert parsed["n"] == 2
    assert parsed["canalizing"] == "14"
    assert parsed["by_exact_k"] == {"1": "4", "2": "10"}
    assert parsed["both_ways"] == "4"
    assert parsed["weight_enum_canalizing"]["2"] == "4"
    assert parsed["pce_by_k"] == {"1": "0", "2": "5"}
    # every count rendered as a decimal string, never a number
    assert all(isinstance(v, str) for v in parsed["by_exact_k"].values())


def _tallies_from_profiles(n):
    """Canalizing count, by_exact_k and both_ways read off the profile DP.

    A half with status 2 (all-1) forces output 1, one with status 1 forces
    0; constants canalize on all n variables, in one direction only.
    """
    canalizing, both_ways = 0, 0
    by_exact_k = {k: 0 for k in range(1, n + 1)}
    for (whole, halves), count in _profile_counts(n).items():
        fields = [halves >> 2 * j & 3 for j in range(2 * n)]
        if not any(fields):
            continue
        canalizing += count
        by_exact_k[sum(1 for i in range(n) if fields[2 * i] or fields[2 * i + 1])] += count
        if not whole and 1 in fields and 2 in fields:
            both_ways += count
    return canalizing, by_exact_k, both_ways


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_profile_dp_matches_census(n, census):
    c = census(n)
    assert _tallies_from_profiles(n) == (c.canalizing, c.by_exact_k, c.both_ways)


def test_profile_dp_counts_every_table_once():
    for n in range(1, 6):
        assert sum(_profile_counts(n).values()) == 1 << (1 << n)


def test_profile_dp_matches_closed_form_n6():
    # an independent route one size above the published n = 5 value
    dp = sum(count for (_, halves), count in _profile_counts(6).items() if halves)
    assert dp == count_canalizing(6) == 103071426294


def test_import_leaves_multiprocessing_unloaded():
    # the n = 5 count needs no process pool
    env = {**os.environ, "PYTHONPATH": str(Path(canalis.__file__).parents[1])}
    code = "import sys, canalis; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
