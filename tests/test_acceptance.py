"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -s` to see the lines. Criterion 4
counts the canalizing five-variable tables with the profile DP of
`canalis.oracle`, which consults no closed form.
"""

import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import scipy.stats as st

from canalis import (
    CanalizingGenerator,
    GeneratorConfig,
    TruthTable,
    asymptotic_bounds,
    class_prob_from_census,
    count_both_ways,
    count_canalizing,
    count_exact_k,
    deep_count_n5,
    is_canalizing,
    prob_breakdown,
    prob_canalizing,
    prob_exactly_k,
    prob_from_census,
    scientific_string,
)
import naive_ref
from conftest import cached_census
from sampler_checks import record_consistent

HALF = Fraction(1, 2)
ORACLE_BIASES = [Fraction(1, 10), Fraction(1, 4), HALF, Fraction(3, 5), Fraction(9, 10)]

TABLE1_EXACT = {
    1: 4,
    2: 14,
    3: 120,
    4: 3514,
    5: 1292276,
    6: 103071426294,
    7: 516508833342349371376,
    8: 10889035741470030826695916769153787968498,
}
TABLE1_ROUNDED = {9: "4.168515213e+78", 10: "5.363123172e+155"}
CHI2_QUANTILE = 0.999


def report(index, ok, description, elapsed=None):
    timing = f" ({elapsed:.2f}s)" if elapsed is not None else ""
    print(f"[criterion {index:02d}] {'PASS' if ok else 'FAIL'}{timing} - {description}")
    assert ok, f"acceptance criterion {index} failed: {description}"


def test_c01_table1_exact_rows():
    start = time.perf_counter()
    failures = [n for n, want in TABLE1_EXACT.items() if count_canalizing(n) != want]
    elapsed = time.perf_counter() - start
    ok = not failures and elapsed < 1.0
    report(1, ok, f"exact counts match the published table for n=1..8 (bad: {failures})", elapsed)


def test_c02_table1_rounded_rows():
    start = time.perf_counter()
    rendered = {n: scientific_string(count_canalizing(n)) for n in (9, 10)}
    elapsed = time.perf_counter() - start
    ok = rendered == TABLE1_ROUNDED and elapsed < 1.0
    report(2, ok, f"n=9,10 round to {rendered}", elapsed)


def test_c03_oracle_equivalence_counts():
    start = time.perf_counter()
    bad = []
    for n in range(1, 5):
        census = cached_census(n)
        if census.canalizing != count_canalizing(n):
            bad.append((n, "total"))
        if census.both_ways != count_both_ways(n):
            bad.append((n, "both_ways"))
        for k in range(1, n + 1):
            if census.by_exact_k[k] != count_exact_k(n, k):
                bad.append((n, k))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    report(3, ok, f"exhaustive census reproduces every count for n=1..4 (bad: {bad})", elapsed)


def test_c04_deep_count_n5():
    start = time.perf_counter()
    count = deep_count_n5()
    elapsed = time.perf_counter() - start
    ok = count == 1292276 and elapsed < 10.0
    report(4, ok, f"the profile DP over all 2^32 five-variable tables gives {count} canalizing", elapsed)


def test_c05_oracle_equivalence_probabilities():
    start = time.perf_counter()
    bad = []
    for n in range(1, 5):
        census = cached_census(n)
        for p in ORACLE_BIASES:
            if prob_from_census(census, p) != prob_canalizing(n, p):
                bad.append((n, str(p), "C"))
            for k in range(1, n + 1):
                for direction in ("positive", "negative"):
                    if class_prob_from_census(census, k, direction, p) != prob_exactly_k(
                        n, k, p, direction
                    ):
                        bad.append((n, str(p), k, direction))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 10.0
    report(
        5, ok, f"census weight enumerators equal every probability formula (bad: {bad})", elapsed
    )


def test_c06_partition_identity():
    start = time.perf_counter()
    bad = []
    for n in range(1, 17):
        for p in ORACLE_BIASES:
            b = prob_breakdown(n, p)
            if b.pr_bc + sum(b.pr_pce.values()) + sum(b.pr_nce.values()) != b.pr_c:
                bad.append((n, str(p)))
    elapsed = time.perf_counter() - start
    ok = not bad and elapsed < 30.0
    report(6, ok, f"class probabilities partition Pr(C) exactly for n=1..16 (bad: {bad})", elapsed)


def test_c07_uniform_identity():
    start = time.perf_counter()
    bad = [
        n
        for n in range(1, 17)
        if prob_canalizing(n, HALF) * (1 << (1 << n)) != naive_ref.count_canalizing(n)
    ]
    elapsed = time.perf_counter() - start
    report(
        7,
        not bad,
        f"Pr(C) at p=1/2 scales to the hand-derived count for n=1..16 (bad: {bad})",
        elapsed,
    )


def test_c08_asymptotic_sandwich():
    start = time.perf_counter()
    bad = []
    for n in range(2, 17):
        bounds = asymptotic_bounds(n)
        if not bounds.lower <= count_canalizing(n) <= bounds.upper:
            bad.append(n)
    elapsed = time.perf_counter() - start
    report(8, not bad, f"partial-sum sandwich holds for n=2..16 (bad: {bad})", elapsed)


def test_c09_generator_soundness():
    start = time.perf_counter()
    gen = CanalizingGenerator(GeneratorConfig(n=8, p=HALF, seed=20240601))
    failures = 0
    for _ in range(100_000):
        table, record = gen.draw()
        if not (is_canalizing(table) and record_consistent(table, record)):
            failures += 1
    elapsed = time.perf_counter() - start
    report(
        9,
        failures == 0,
        f"100000 draws at n=8, p=1/2: {failures} soundness/record failures",
        elapsed,
    )


def _law_chi_square(p, seed, draws):
    gen = CanalizingGenerator(GeneratorConfig(n=3, p=p, seed=seed))
    counts = Counter()
    q_tally = Counter()
    for table, record in gen.draws(draws):
        counts[table.bits] += 1
        q_tally[record.q] += 1

    pr_c = prob_canalizing(3, p)
    observed, expected = [], []
    for bits in range(256):
        if not is_canalizing(TruthTable(3, bits)):
            assert counts[bits] == 0
            continue
        w = bits.bit_count()
        observed.append(counts[bits])
        expected.append(float(p**w * (1 - p) ** (8 - w) / pr_c) * draws)
    assert len(observed) == 120
    func_stat, _ = st.chisquare(observed, expected)

    b = prob_breakdown(3, p)
    keys, q_expected = [], []
    for q in range(4):
        share = (b.pr_bc if q == 0 else b.pr_pce[q] + b.pr_nce[q]) / b.pr_c
        if share:
            keys.append(q)
            q_expected.append(float(share) * draws)
    q_observed = [q_tally[q] for q in keys]
    q_stat, _ = st.chisquare(q_observed, q_expected)
    return func_stat, len(observed) - 1, q_stat, len(keys) - 1


def test_c10_generator_distribution():
    start = time.perf_counter()
    results = {}
    ok = True
    for p, seed in ((HALF, 1001), (Fraction(1, 4), 1002)):
        func_stat, func_dof, q_stat, q_dof = _law_chi_square(p, seed, 200_000)
        func_crit = st.chi2.ppf(CHI2_QUANTILE, func_dof)
        q_crit = st.chi2.ppf(CHI2_QUANTILE, q_dof)
        results[str(p)] = f"chi2={func_stat:.1f}<{func_crit:.1f}, q-chi2={q_stat:.2f}<{q_crit:.2f}"
        ok = ok and func_stat < func_crit and q_stat < q_crit
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    report(10, ok, f"2x200000 draws at n=3 match the exact conditional law: {results}", elapsed)


def test_c11_generate_byte_identical():
    start = time.perf_counter()
    argv = [
        sys.executable, "-m", "canalis",
        "generate", "--n", "4", "--p", "1/3", "--count", "50", "--seed", "31337",
        "--records",
    ]
    first = subprocess.run(argv, capture_output=True, check=True)
    second = subprocess.run(argv, capture_output=True, check=True)
    elapsed = time.perf_counter() - start
    ok = first.stdout == second.stdout and first.stdout
    report(11, bool(ok), "two identical generate invocations emit identical bytes", elapsed)
