import functools
import json
import os
import subprocess
import sys
from collections import Counter
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
    profile_census,
)
from canalis.cli import VERIFY_BIASES
from canalis.oracle import _profile_counts, _table_profiles, both_ways_prob_from_census

HALF = Fraction(1, 2)


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


@functools.cache
def _dp_census(n):
    """The census read off the profile DP; n = 6 takes about 1.5 s."""
    return profile_census(n)


# n = 5 and 6, beyond the enumeration's reach, read the census off the DP
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_census_matches_closed_forms(n, census):
    c = census(n) if n <= 4 else _dp_census(n)
    assert c.canalizing == count_canalizing(n)
    assert c.both_ways == count_both_ways(n)
    for k in range(1, n + 1):
        assert c.by_exact_k[k] == count_exact_k(n, k)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_census_matches_probability_formulas(n, census):
    c = census(n) if n <= 4 else _dp_census(n)
    for p in VERIFY_BIASES:
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
    from canalis import enumerate_classify

    with pytest.raises(RangeError, match="profile_census"):
        enumerate_classify(5)
    for n in (0, 7, True):
        with pytest.raises(RangeError):
            profile_census(n)


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


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_profile_dp_matches_census(n):
    # the DP and the enumeration behind the census tally the same
    # (whole, halves, weight) keys, key for key
    enumerated = Counter(key for _, key in _table_profiles(n))
    assert _profile_counts(n) == dict(enumerated)


def test_profile_dp_counts_every_table_once():
    for n in range(1, 6):
        assert sum(_profile_counts(n).values()) == 1 << (1 << n)


def test_import_leaves_multiprocessing_unloaded():
    # the n = 5 count needs no process pool
    env = {**os.environ, "PYTHONPATH": str(Path(canalis.__file__).parents[1])}
    code = "import sys, canalis; print('multiprocessing' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "False"
