"""Checks of sampled tables: consistency with the draw record, and
chi-squares of drawn tables, or of their (q, r, weight), against the
exact law from the census."""

from fractions import Fraction
from functools import lru_cache

import scipy.stats as st

from canalis import classify, prob_from_census, profile_census
from canalis.oracle import _table_profiles


def record_consistent(table, record):
    """The record's (q, r, subset, values) must agree with classification.

    Both-ways draws report the shared variable; constants are only legal
    at q = n in their own direction with the canonical all-zeros values.
    """
    profile = classify(table)
    if record.q == 0:
        return (
            record.r is None
            and profile.both_ways_variable == record.subset[0]
            and profile.positive
            == frozenset({(record.subset[0], record.values[record.subset[0]])})
        )
    if profile.is_constant:
        return (
            record.q == table.n
            and profile.constant_value == record.r
            and not any(record.values.values())
        )
    expected_pairs = frozenset((i, record.values[i]) for i in record.subset)
    if record.r == 1:
        return not profile.negative and profile.positive == expected_pairs
    return not profile.positive and profile.negative == expected_pairs


@lru_cache(maxsize=None)
def _canalizing_tables(n):
    """Every canalizing n-variable table of the exhaustive census, n <= 4:
    those with a forcing half."""
    return tuple(bits for bits, (_, halves, _) in _table_profiles(n) if halves)


def canalizing_law(n, p):
    """The exact bias-p law conditioned on the canalizing class, n <= 4,
    as {table bits: probability}."""
    size = 1 << n
    raw = {
        bits: p ** bits.bit_count() * (1 - p) ** (size - bits.bit_count())
        for bits in _canalizing_tables(n)
    }
    total = sum(raw.values(), Fraction(0))
    return {bits: weight / total for bits, weight in raw.items()}


@lru_cache(maxsize=None)
def _census(n):
    return profile_census(n)


def category_weight_law(n, p):
    """The exact bias-p law of a draw's (q, r, weight) conditioned on the
    canalizing class, n <= 6, read off the profile census: the cells
    (k, 1, w) and (k, 0, w) from the exactly-k weight enumerators of the
    positive and negative directions, and the both-ways cell
    (0, None, 2^(n-1)) as the rest."""
    census = _census(n)
    size = 1 << n
    pr_c = prob_from_census(census, p)
    law = {}
    for r, enum in ((1, census.weight_enum_pce), (0, census.weight_enum_nce)):
        for (k, w), count in enum.items():
            law[k, r, w] = count * p**w * (1 - p) ** (size - w) / pr_c
    law[0, None, size // 2] = 1 - sum(law.values())
    return law


def chi_square_passes(observed, law, quantile=0.999, min_expected=5.0):
    """Pearson chi-square of observed table counts against an exact law at
    the given quantile. Cells are taken in ascending order of probability
    and pooled until each pool expects at least ``min_expected`` draws; the
    pools depend on the law alone. A draw outside the law's support fails."""
    if not observed.keys() <= law.keys():
        return False
    total = sum(observed.values())
    pools, obs, exp = [], 0, 0.0
    for bits, prob in sorted(law.items(), key=lambda item: (item[1], item[0])):
        obs += observed.get(bits, 0)
        exp += total * float(prob)
        if exp >= min_expected:
            pools.append((obs, exp))
            obs, exp = 0, 0.0
    if exp:
        # the last cells expect too few draws: join them to the last pool
        last_obs, last_exp = pools.pop()
        pools.append((obs + last_obs, exp + last_exp))
    statistic = sum((o - e) ** 2 / e for o, e in pools)
    return statistic < st.chi2.ppf(quantile, len(pools) - 1)
