"""Brute-force ground truth for the closed forms.

The census enumerates every function of n <= 4 variables and classifies
each one with `truth_table.classify` alone; none of the counting or
probability formulas are consulted, so agreement between the two routes
is evidence, not circularity. Weight enumerators (class member counts by
number of ones) turn the census into exact probabilities at any rational
bias.

For n = 5 the 2^32 truth tables fit in 32-bit words; the deep scan checks
each word against 10 half-table masks (all-ones or all-zeros under each)
in vectorized blocks, optionally across processes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from fractions import Fraction
from multiprocessing import Pool

import numpy as np

from .limits import RangeError
from .probability import _direction_positive, validate_bias
from .truth_table import TruthTable, classify, variable_mask

__all__ = [
    "ClassCensus",
    "enumerate_classify",
    "prob_from_census",
    "class_prob_from_census",
    "both_ways_prob_from_census",
    "census_to_json",
    "word_is_canalizing_n5",
    "count_canalizing_in_range",
    "deep_count_n5",
    "N5_CANALIZING_COUNT",
]

ORACLE_MAX_N = 4
N5_CANALIZING_COUNT = 1292276  # published value the deep scan must reproduce


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
    if not isinstance(n, int) or isinstance(n, bool) or not 1 <= n <= ORACLE_MAX_N:
        raise RangeError(
            f"exhaustive classification supports 1 <= n <= {ORACLE_MAX_N} "
            f"(use deep_count_n5 for n = 5), got {n!r}"
        )
    census = ClassCensus(n=n, total_functions=1 << (1 << n))
    census.by_exact_k = {k: 0 for k in range(1, n + 1)}
    census.pce_by_k = {k: 0 for k in range(1, n + 1)}
    census.nce_by_k = {k: 0 for k in range(1, n + 1)}
    census.weight_enum_canalizing = {w: 0 for w in range((1 << n) + 1)}

    for bits in range(census.total_functions):
        profile = classify(TruthTable(n, bits))
        if not profile.canalizing:
            continue
        weight = bits.bit_count()
        census.canalizing += 1
        census.by_exact_k[profile.num_canalizing_vars] += 1
        census.weight_enum_canalizing[weight] += 1
        if profile.is_constant:
            k = n
            if profile.constant_value == 1:
                census.pce_by_k[k] += 1
                _bump(census.weight_enum_pce, (k, weight))
            else:
                census.nce_by_k[k] += 1
                _bump(census.weight_enum_nce, (k, weight))
        elif profile.positive and profile.negative:
            census.both_ways += 1
        elif profile.positive:
            k = profile.num_canalizing_vars
            census.pce_by_k[k] += 1
            _bump(census.weight_enum_pce, (k, weight))
        else:
            k = profile.num_canalizing_vars
            census.nce_by_k[k] += 1
            _bump(census.weight_enum_nce, (k, weight))
    return census


def _bump(counter: dict, key) -> None:
    counter[key] = counter.get(key, 0) + 1


def _weighted_prob(pairs, n: int, p: Fraction) -> Fraction:
    """Sum of count * p^w (1-p)^(2^n - w) over (w, count) pairs."""
    q = 1 - p
    size = 1 << n
    return sum((count * p**w * q ** (size - w) for w, count in pairs), Fraction(0))


def prob_from_census(census: ClassCensus, p) -> Fraction:
    """Exact probability of the canalizing class from the weight enumerator."""
    p = validate_bias(p)
    return _weighted_prob(census.weight_enum_canalizing.items(), census.n, p)


def class_prob_from_census(census: ClassCensus, k: int, direction, p) -> Fraction:
    """Exact probability of one exactly-k single-direction class."""
    p = validate_bias(p)
    enum = census.weight_enum_pce if _direction_positive(direction) else census.weight_enum_nce
    pairs = [(w, c) for (kk, w), c in enum.items() if kk == k]
    return _weighted_prob(pairs, census.n, p)


def both_ways_prob_from_census(census: ClassCensus, p) -> Fraction:
    """Probability of the both-ways class, derived by subtraction so the
    census never consults a closed form."""
    p = validate_bias(p)
    total = prob_from_census(census, p)
    for k in range(1, census.n + 1):
        total -= class_prob_from_census(census, k, "positive", p)
        total -= class_prob_from_census(census, k, "negative", p)
    return total


def census_to_json(census: ClassCensus) -> dict:
    """JSON-ready census document; every count is a decimal string."""
    return {
        "n": census.n,
        "total_functions": str(census.total_functions),
        "canalizing": str(census.canalizing),
        "by_exact_k": {str(k): str(v) for k, v in sorted(census.by_exact_k.items())},
        "both_ways": str(census.both_ways),
        "pce_by_k": {str(k): str(v) for k, v in sorted(census.pce_by_k.items())},
        "nce_by_k": {str(k): str(v) for k, v in sorted(census.nce_by_k.items())},
        "weight_enum_canalizing": {
            str(w): str(c) for w, c in sorted(census.weight_enum_canalizing.items())
        },
        "weight_enum_pce": {
            str(k): {
                str(w): str(c)
                for (kk, w), c in sorted(census.weight_enum_pce.items())
                if kk == k
            }
            for k in range(1, census.n + 1)
        },
        "weight_enum_nce": {
            str(k): {
                str(w): str(c)
                for (kk, w), c in sorted(census.weight_enum_nce.items())
                if kk == k
            }
            for k in range(1, census.n + 1)
        },
    }


# ---------------------------------------------------------------------------
# n = 5 deep scan


def _n5_masks() -> tuple[int, ...]:
    return tuple(variable_mask(5, i, s) for i in range(5) for s in (0, 1))


_MASKS_N5 = _n5_masks()


def word_is_canalizing_n5(word: int) -> bool:
    """Reference per-word test: some half table is constant."""
    if not 0 <= word < (1 << 32):
        raise ValueError(f"word out of 32-bit range: {word}")
    for mask in _MASKS_N5:
        half = word & mask
        if half == 0 or half == mask:
            return True
    return False


def count_canalizing_in_range(start: int, stop: int, block_size: int = 1 << 22) -> int:
    """Count canalizing 5-variable tables among words in [start, stop)."""
    if not 0 <= start <= stop <= (1 << 32):
        raise ValueError(f"range [{start}, {stop}) outside [0, 2^32]")
    masks = np.array(_MASKS_N5, dtype=np.uint32)
    total = 0
    for lo in range(start, stop, block_size):
        hi = min(lo + block_size, stop)
        words = np.arange(lo, hi, dtype=np.uint32)
        hit = np.zeros(hi - lo, dtype=bool)
        masked = np.empty(hi - lo, dtype=np.uint32)
        for mask in masks:
            np.bitwise_and(words, mask, out=masked)
            hit |= masked == 0
            hit |= masked == mask
        total += int(np.count_nonzero(hit))
    return total


def _range_worker(bounds: tuple[int, int]) -> int:
    return count_canalizing_in_range(bounds[0], bounds[1])


def deep_count_n5(workers: int | None = None, progress=None, block_bits: int = 24) -> int:
    """Scan all 2^32 five-variable tables and count the canalizing ones.

    The range splits into 2^(32 - block_bits) disjoint blocks whose partial
    counts are summed, so any worker count gives the same result. With
    ``workers`` None the process count follows os.cpu_count(); ``progress``,
    if given, is called as progress(done_blocks, total_blocks) after every
    block.
    """
    if not 16 <= block_bits <= 30:
        raise ValueError(f"block_bits must be in [16, 30], got {block_bits}")
    step = 1 << block_bits
    bounds = [(lo, lo + step) for lo in range(0, 1 << 32, step)]
    total_blocks = len(bounds)
    if workers is None:
        workers = os.cpu_count() or 1
    total = 0
    if workers <= 1:
        for done, chunk in enumerate(bounds, start=1):
            total += _range_worker(chunk)
            if progress is not None:
                progress(done, total_blocks)
        return total
    with Pool(processes=workers) as pool:
        for done, partial in enumerate(pool.imap_unordered(_range_worker, bounds), start=1):
            total += partial
            if progress is not None:
                progress(done, total_blocks)
    return total
