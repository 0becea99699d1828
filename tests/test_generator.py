import hashlib
import random
from itertools import combinations
from collections import Counter
from fractions import Fraction

import pytest
import scipy.stats as st

from canalis import (
    CanalizingGenerator,
    GeneratorConfig,
    RejectionLimitExceeded,
    category_weights,
    generate,
    is_canalizing,
    prob_canalizing,
    sample_category,
    to_hex,
)
import naive_ref
from canalis.generator import _accepts, _deposit, _fill, sample_index
from sampler_checks import record_consistent

HALF = Fraction(1, 2)


class ScriptedBits:
    """rng stub with a fixed script of getrandbits return values."""

    def __init__(self, script):
        self.script = list(script)

    def getrandbits(self, k):
        if not self.script:
            raise AssertionError("script exhausted")
        width, value = self.script.pop(0)
        assert width == k, f"expected getrandbits({width}), got getrandbits({k})"
        return value


class ConstantBits:
    """rng stub returning all-ones words of any width forever."""

    def getrandbits(self, k):
        return (1 << k) - 1


def test_category_weights_n1():
    w = category_weights(1, HALF)
    assert w.w_bc == HALF
    assert w.w_pce == {1: Fraction(1, 4)}
    assert w.w_nce == {1: Fraction(1, 4)}
    assert w.total == 1


def test_category_weights_n2():
    w = category_weights(2, HALF)
    assert w.w_bc == Fraction(1, 4)
    assert w.w_pce == {1: 0, 2: Fraction(5, 16)}
    assert w.w_nce == {1: 0, 2: Fraction(5, 16)}
    assert w.total == prob_canalizing(2, HALF) == Fraction(7, 8)
    # cumulative cuts over q = 0..2, normalized
    assert w.q_cuts == (Fraction(2, 7), Fraction(2, 7), Fraction(1))


def test_category_weights_rejects_degenerate_bias():
    with pytest.raises(ValueError):
        category_weights(2, Fraction(0))
    with pytest.raises(ValueError):
        category_weights(2, Fraction(1))


def test_sample_index_scripted():
    cuts = (Fraction(2, 7), Fraction(2, 7), Fraction(1))
    # bits 0,0 pin the expansion into [0, 1/4) inside [0, 2/7)
    assert sample_index(cuts, ScriptedBits([(1, 0), (1, 0)])) == 0
    # a single 1 bit pins [1/2, 1) past both 2/7 cuts
    assert sample_index(cuts, ScriptedBits([(1, 1)])) == 2


def test_sample_index_skips_empty_category():
    cuts = (Fraction(1, 2), Fraction(1, 2), Fraction(1))
    for script in ([(1, 0), (1, 0)], [(1, 1)], [(1, 0), (1, 1)]):
        idx = sample_index(cuts, ScriptedBits(list(script)))
        assert idx != 1


def test_sample_index_rejects_cuts_not_ending_at_one():
    with pytest.raises(ArithmeticError):
        sample_index((Fraction(1, 2), Fraction(3, 4)), ScriptedBits([]))


def test_sample_index_degenerate_no_bits():
    # single category taking all mass resolves without consuming bits
    assert sample_index((Fraction(1),), ScriptedBits([])) == 0
    assert sample_index((Fraction(0), Fraction(1)), ScriptedBits([])) == 1


def test_sample_category_scripted():
    w = category_weights(2, HALF)
    # q: one 1 bit lands in category 2; r: a 0 bit picks positive
    q, r = sample_category(w, ScriptedBits([(1, 1), (1, 0)]))
    assert (q, r) == (2, 1)
    # q: two 0 bits land in the both-ways category; no r draw
    q, r = sample_category(w, ScriptedBits([(1, 0), (1, 0)]))
    assert (q, r) == (0, None)


def test_sample_category_never_draws_zero_weight():
    w = category_weights(2, HALF)  # category q = 1 has zero weight
    rng = random.Random(3)
    for _ in range(2000):
        q, _ = sample_category(w, rng)
        assert q in (0, 2)


def test_generate_soundness_and_records():
    config = GeneratorConfig(n=3, p=HALF, seed=42)
    gen = CanalizingGenerator(config)
    for table, record in gen.draws(1500):
        assert is_canalizing(table)
        assert record_consistent(table, record)
        assert record.rejections < config.max_rejections


def test_generate_asymmetric_bias_soundness():
    config = GeneratorConfig(n=4, p=Fraction(1, 5), seed=9)
    gen = CanalizingGenerator(config)
    for table, record in gen.draws(400):
        assert is_canalizing(table)
        assert record_consistent(table, record)


def test_generate_n1_support():
    gen = CanalizingGenerator(GeneratorConfig(n=1, p=HALF, seed=1))
    seen = Counter()
    for table, record in gen.draws(1500):
        seen[table.bits] += 1
        if record.q == 1 and record.r == 1:
            # the only positively-exactly-1 function at n = 1 is constant 1
            assert table.bits == 0b11
        if record.q == 1 and record.r == 0:
            assert table.bits == 0b00
    assert set(seen) == {0b00, 0b01, 0b10, 0b11}


def test_generate_deterministic_sequence():
    config = GeneratorConfig(n=4, p=Fraction(1, 3), seed=77)
    first = [to_hex(t) for t, _ in CanalizingGenerator(config).draws(200)]
    second = [to_hex(t) for t, _ in CanalizingGenerator(config).draws(200)]
    assert first == second


# (n, p, seed, draws, SHA-256 of the stream). The seed -> output mapping
# is stable API: these digests may change only with a deliberate, recorded
# break of the stream. The cases cover the constants at q = n (n = 1, 2),
# both fill directions, wide fills (n = 12, 14) and a bias whose
# denominator exceeds 2^32, so that each fill coin is a multi-word
# getrandbits call.
GOLDEN_STREAMS = [
    (1, Fraction(1, 2), 1, 1000, "9464fdd4f4f041d69440cff66bbd93c857f86e2af1c0aaba0e76d8696fa4df71"),
    (2, Fraction(1, 2), 2, 1000, "fd0c0f5b10b91b6319e2d3d4f43e900771f840e06df71a275ac18f5eb1e45997"),
    (3, Fraction(1, 2), 3, 1000, "6739a92fc3d34ca442941476b3c35488157b2635da3a37608305c919f5fadff7"),
    (4, Fraction(1, 3), 31337, 1000, "4a75061c2667d72bcafc166ab591ba48ffb1c26bec54f5a1dd0c51a1357125f7"),
    (8, Fraction(1, 3), 8, 200, "4cfa6f09784681ecc1ade07d0f8698cc67576ea41f883292cd89f39490ca3812"),
    (14, Fraction(1, 3), 14, 6, "ab332cc70f4b6e39d69c46fa8f234bcbacad1520fca97f039da342765c24ebf7"),
    (12, Fraction(2, 3), 12, 6, "bfdebe44ef473166d1b5e5615e2b8572c394065233d1e59d2e074ba4410d47ef"),
    (5, Fraction(6103515625, 12207031251), 5, 300, "44762333a476359426d1837aec9a70f7961e4360a8ac6f75dbb1ac6f1bfbdde8"),
    (6, Fraction(3, 4), 6, 300, "bbbef1cd80ba50ba9f9bbb56e6e08a58d751463affc879090718fb5d00942bc3"),
    (10, Fraction(1, 2), 10, 30, "c1e33b896ee1ab1e89e2b5971ad4f803a9fc3adafaf4f906a156f0bcf0c29420"),
]


def _stream_digest(n, p, seed, draws):
    """Digest of the first draws' tables (hex: str() of an n = 14 table
    exceeds the int digit limit) and records, then the next 64 bits of the
    generator's rng, which pins the number of random words consumed."""
    gen = CanalizingGenerator(GeneratorConfig(n=n, p=p, seed=seed))
    h = hashlib.sha256()
    for table, rec in gen.draws(draws):
        item = (to_hex(table), rec.q, rec.r, rec.subset, sorted(rec.values.items()), rec.rejections)
        h.update(repr(item).encode())
    h.update(repr(gen.rng.getrandbits(64)).encode())
    return h.hexdigest()


@pytest.mark.parametrize(
    "n, p, seed, draws, digest",
    GOLDEN_STREAMS,
    ids=[f"n{n}-p{p}-seed{seed}" for n, p, seed, _, _ in GOLDEN_STREAMS],
)
def test_golden_stream(n, p, seed, draws, digest):
    assert _stream_digest(n, p, seed, draws) == digest


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_fill_accept_and_deposit_match_classified_attempt(n):
    # every attempt at n <= 4: the accept test on the fill alone and the
    # deposited table equal the old walk over the inputs plus a
    # classification of the whole table
    for q in range(1, n + 1):
        m = n - q
        tables = 1 << (1 << m)
        for subset in combinations(range(n), q):
            for s_bits in range(1 << q):
                for g in range(tables):
                    for r in (0, 1):
                        accepted, bits = naive_ref.attempt_outcome(n, q, r, subset, s_bits, g)
                        case = (n, q, r, subset, s_bits, g)
                        assert _accepts(g, r, m, q, s_bits) == accepted, case
                        table = sum(b << e for e, b in enumerate(bits))
                        assert _deposit(g, n, subset, s_bits, r) == table, case


def _coins_one_call_per_value(rng, numer, denom, count):
    width = (denom - 1).bit_length()
    coins = bytearray()
    while len(coins) < count:
        v = rng.getrandbits(width)
        if v < denom:
            coins.append(48 + (v < numer))
    return bytes(coins)


# widths 1, 2, 8 (the byte table), 9, 32, 33, 34, 64 and 65 bits, with
# rejection rates from none to almost one half
FILL_BIASES = [
    Fraction(1, 2),
    Fraction(1, 3),
    Fraction(2, 5),
    Fraction(100, 129),
    Fraction(7, 256),
    Fraction(128, 257),
    Fraction(333, 1000),
    Fraction(5, 2**32),
    Fraction(2**31, 2**32 + 1),
    Fraction(6103515625, 12207031251),
    Fraction(3, 2**64),
    Fraction(2**63, 2**64 + 1),
]


@pytest.mark.parametrize("p", FILL_BIASES, ids=str)
@pytest.mark.parametrize("count", [1, 3, 500])
def test_fill_equals_one_getrandbits_call_per_value(p, count):
    batched, single = random.Random(count), random.Random(count)
    coins = _fill(batched, p.numerator, p.denominator, count)
    assert coins == _coins_one_call_per_value(single, p.numerator, p.denominator, count)
    assert batched.getstate() == single.getstate()


def test_generate_function_signature_uses_external_stream():
    config = GeneratorConfig(n=2, p=HALF, seed=0)
    rng = random.Random(5)
    table, record = generate(config, rng)
    assert is_canalizing(table)
    assert record_consistent(table, record)


@pytest.mark.parametrize("n", [1, 2, 4, 8])
def test_mean_rejections_bounded(n):
    gen = CanalizingGenerator(GeneratorConfig(n=n, p=HALF, seed=5))
    records = [r for _, r in gen.draws(400)]
    assert sum(r.rejections for r in records) / len(records) < 3


def test_rejection_limit_exceeded():
    # all-ones bits: q lands at 2, r = 0; every fill then makes the
    # non-canonical constant 0, which is rejected forever
    config = GeneratorConfig(n=2, p=HALF, seed=0, max_rejections=5)
    with pytest.raises(RejectionLimitExceeded) as info:
        generate(config, ConstantBits())
    assert info.value.rejections == 5
    assert info.value.q == 2 and info.value.r == 0


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n=2, p=Fraction(1), seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(n=2, p=HALF, seed=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=2, p=HALF, seed=1 << 64)
    with pytest.raises(ValueError):
        GeneratorConfig(n=2, p=HALF, seed=0, max_rejections=0)
    with pytest.raises(Exception):
        GeneratorConfig(n=0, p=HALF, seed=0)


def test_conditional_law_n2_chi_square():
    # empirical per-function frequencies against the exact conditional law
    p = Fraction(1, 3)
    gen = CanalizingGenerator(GeneratorConfig(n=2, p=p, seed=7))
    draws = 40000
    counts = Counter(t.bits for t, _ in gen.draws(draws))
    pr_c = prob_canalizing(2, p)
    observed, expected = [], []
    for bits in range(16):
        from canalis import TruthTable

        if not is_canalizing(TruthTable(2, bits)):
            assert counts[bits] == 0
            continue
        w = bits.bit_count()
        law = p**w * (1 - p) ** (4 - w) / pr_c
        observed.append(counts[bits])
        expected.append(float(law) * draws)
    statistic, _ = st.chisquare(observed, expected)
    assert statistic < st.chi2.ppf(0.999, len(observed) - 1)


def test_category_marginal_n2_chi_square():
    p = Fraction(1, 4)
    weights = category_weights(2, p)
    gen = CanalizingGenerator(GeneratorConfig(n=2, p=p, seed=13))
    draws = 30000
    tally = Counter()
    for _, record in gen.draws(draws):
        tally[(record.q, record.r)] += 1
    keys, expected = [], []
    for q in range(3):
        if q == 0:
            keys.append((0, None))
            expected.append(float(weights.w_bc / weights.total) * draws)
            continue
        for r, w in ((1, weights.w_pce[q]), (0, weights.w_nce[q])):
            if w:
                keys.append((q, r))
                expected.append(float(w / weights.total) * draws)
    observed = [tally[k] for k in keys]
    assert sum(observed) == draws  # zero-weight categories never drawn
    statistic, _ = st.chisquare(observed, expected)
    assert statistic < st.chi2.ppf(0.999, len(keys) - 1)
