import hashlib
import random
from itertools import accumulate, combinations
from math import comb
from collections import Counter
from fractions import Fraction

import pytest
import scipy.stats as st

from canalis import (
    CanalizingGenerator,
    GeneratorConfig,
    RangeError,
    RejectionLimitExceeded,
    TruthTable,
    category_weights,
    classify,
    generate,
    generator,
    is_canalizing,
    prob_breakdown,
    prob_canalizing,
    sample_category,
    to_hex,
    variable_mask,
)
import naive_ref
from canalis.generator import (
    DIRECT_MAX_M,
    _accepted_fills,
    _accepts,
    _deposit,
    _Cuts,
    _direct_table,
    _fill,
)
from sampler_checks import (
    canalizing_law,
    category_weight_law,
    chi_square_passes,
    record_consistent,
)

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


class SingleBits:
    """rng stub over ``random.Random(seed)`` that serves only
    ``getrandbits(1)`` and counts the calls."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.calls = 0

    def getrandbits(self, k):
        assert k == 1, f"expected getrandbits(1), got getrandbits({k})"
        self.calls += 1
        return self.rng.getrandbits(1)


def _cuts(cuts):
    return [Fraction(v, cuts.denom) for v in cuts.numerators]


def test_category_weights_n1():
    w = category_weights(1, HALF)
    # both-ways 1/2, then the positive and negative q = 1 classes 1/4 each
    assert _cuts(w.q) == [HALF, 1]
    assert _cuts(w.share[1]) == [HALF, 1]


def test_category_weights_n2():
    w = category_weights(2, HALF)
    # Pr[C] = 7/8 = 1/4 both-ways + 0 at q = 1 + 5/16 + 5/16 at q = 2
    assert _cuts(w.q) == [Fraction(2, 7), Fraction(2, 7), 1]
    # the empty category q = 1 gets no direction cut
    assert set(w.share) == {2}
    assert _cuts(w.share[2]) == [HALF, 1]


CUT_BIASES = [HALF, Fraction(1, 3), Fraction(2, 3), Fraction(1, 100), Fraction(99, 100)]


@pytest.mark.parametrize(
    "n, p",
    [(n, p) for n in range(1, 13) for p in CUT_BIASES] + [(16, Fraction(1, 3))],
    ids=str,
)
def test_cut_points_equal_class_probabilities(n, p):
    w = category_weights(n, p)
    b = prob_breakdown(n, p)
    sizes = [b.pr_bc] + [b.pr_pce[k] + b.pr_nce[k] for k in range(1, n + 1)]
    assert _cuts(w.q) == [s / b.pr_c for s in accumulate(sizes)]
    assert set(w.share) == {k for k in range(1, n + 1) if sizes[k]}
    for k, cuts in w.share.items():
        assert _cuts(cuts) == [b.pr_pce[k] / sizes[k], 1]


@pytest.mark.parametrize("n", [0, 17, True])
def test_category_weights_rejects_n_out_of_range(n):
    with pytest.raises(RangeError):
        category_weights(n, HALF)


def test_category_weights_rejects_degenerate_bias():
    with pytest.raises(ValueError):
        category_weights(2, Fraction(0))
    with pytest.raises(ValueError):
        category_weights(2, Fraction(1))


def test_generate_rejects_weights_of_another_law():
    config = GeneratorConfig(n=4, p=HALF)
    for n, p in ((3, HALF), (4, Fraction(1, 3)), (3, Fraction(1, 3))):
        with pytest.raises(ValueError):
            generate(config, random.Random(1), category_weights(n, p))
    weights = category_weights(4, HALF)
    # the same bias object keeps the per-draw check to identity tests
    assert weights.p is config.p
    generate(config, random.Random(1), weights)


def test_sample_index_scripted():
    scaled = ((2, 2, 7), 7)
    # bits 0,0 pin the expansion into [0, 1/4) inside [0, 2/7)
    assert _Cuts(*scaled).draw(ScriptedBits([(1, 0), (1, 0)])) == 0
    # a single 1 bit pins [1/2, 1) past both 2/7 cuts
    assert _Cuts(*scaled).draw(ScriptedBits([(1, 1)])) == 2


def test_sample_index_skips_empty_category():
    scaled = ((1, 1, 2), 2)
    for script in ([(1, 0), (1, 0)], [(1, 1)], [(1, 0), (1, 1)]):
        idx = _Cuts(*scaled).draw(ScriptedBits(list(script)))
        assert idx != 1


def test_sample_index_degenerate_no_bits():
    # single category taking all mass resolves without consuming bits
    assert _Cuts((1,), 1).draw(ScriptedBits([])) == 0
    assert _Cuts((0, 5), 5).draw(ScriptedBits([])) == 1


@pytest.mark.parametrize("p", CUT_BIASES, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 8, 14, 16])
def test_memoized_draw_index_matches_integer_walk(n, p):
    # every cut set of the weights, the q cuts and each direction's, with
    # a cold trie per draw and with the weights' own trie warming up: the
    # same index after the same number of one-bit calls as the plain walk
    w = category_weights(n, p)
    for c, cuts in enumerate([w.q, *w.share.values()]):
        numerators = cuts.numerators
        scaled = (numerators, cuts.denom)
        ref, cold, warm = SingleBits(c), SingleBits(c), SingleBits(c)
        for _ in range(200):
            idx = naive_ref.draw_index(scaled, ref)
            assert _Cuts(*scaled).draw(cold) == idx
            assert cuts.draw(warm) == idx
            assert ref.calls == cold.calls == warm.calls
            # an empty category (a repeated cut, as q = 1 at n = 2) is never drawn
            assert numerators[idx] > (numerators[idx - 1] if idx else 0)


def test_draw_index_memo_stays_small():
    w = category_weights(16, Fraction(1, 3))
    rng = random.Random(16)
    for _ in range(10**4):
        sample_category(w, rng)
    nodes = len(w.q.trie) + sum(len(cuts.trie) for cuts in w.share.values())
    assert 0 < nodes <= 300


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


@pytest.mark.parametrize("n", [12, 16])
@pytest.mark.parametrize("p", [HALF, Fraction(1, 3)], ids=str)
def test_generate_soundness_and_records_at_wide_n(n, p):
    gen = CanalizingGenerator(GeneratorConfig(n=n, p=p, seed=n))
    for table, record in gen.draws(20):
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


# (n, p, seed, draws, SHA-256 of the stream) of stream version 4. The
# seed -> output mapping is stable API: these digests may change only with
# a deliberate, recorded break of the stream, which bumps STREAM_VERSION.
# The cases cover the constants at q = n (n = 1, 2), the direct draw of
# every category at n <= 4 and both draws at n = 5, 6, both fill
# directions, wide fills (n = 12, 14), the largest cut points (n = 16,
# p = 1/3: 85 kbit), a dyadic bias whose fills stop on remainder 0
# (n = 6, p = 3/4), and at n = 5 a bias just below 1/2 with a long
# non-dyadic expansion (0.0 then 33 ones: it departs from 1/2 = 0.0111...
# at digit 35), whose fills compare with p digit after digit. The n = 1
# and n = 2 digests are those of version 2: their free side has at most
# one variable, so the order the deposit gives the free variables does
# not show.
GOLDEN_STREAMS = [
    (1, Fraction(1, 2), 1, 1000, "b9f2e8a6e3524ce418b38dd2c835b3c7ebcd42beb2b7b20e9ce5680c278e2237"),
    (2, Fraction(1, 2), 2, 1000, "f82199979739f7bfe3d99bff842b66053d287a54373807a909513378bcec0fd8"),
    (3, Fraction(1, 2), 3, 1000, "6eb8cb690825363fc209e4e7c06e01e58f9929dfcfa89df2dc2a20288bdddba5"),
    (4, Fraction(1, 3), 31337, 1000, "ff2e64c64338da263f2539b32464465445ed7e4cfe70380de3bb0b2ba4f715b5"),
    (8, Fraction(1, 3), 8, 200, "2bd68e2038b2d101ea745fced97ee620dc6440e2b49586211fc39a4c92fc6773"),
    (14, Fraction(1, 3), 14, 6, "fa58cb7ebff99cfd573cb58139531e7ee2827903b97ab9be139218d853f0ab77"),
    (12, Fraction(2, 3), 12, 6, "04f14944794e91db0ba3202746e114dec5a38d1d68cb0ede2867bdfb3ce17d30"),
    (5, Fraction(6103515625, 12207031251), 5, 300, "ef35a6a899e460b018e4d67ff4176907f7f37cb8ae3fef61f4cd233f6da62b64"),
    (6, Fraction(3, 4), 6, 300, "1b1291db06c594e5bc657bd518df1fa7b48a7b5363a0a61a45ec992af2d8646e"),
    (10, Fraction(1, 2), 10, 30, "3589b78e0dffb14b40d8d21773534f29e82d45f64e8945229bbd47f0896de3ec"),
    (16, Fraction(1, 3), 16, 20, "854c32aeb9b37d493473518376fdceecb21185ace61de3a6ece41adf4d2a780d"),
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


@pytest.mark.parametrize("n", [8, 12, 16])
def test_deposit_at_wide_n_matches_walk_and_classification(n):
    # random attempts, half of them with a half-cube of the fill planted
    # r everywhere: the deposited table equals the naive walk, and it
    # canalizes in direction r alone and on exactly the subset iff the
    # accept test on the fill alone takes the attempt
    rng = random.Random(n)
    outcomes = set()
    for q in (1, 2, 3, n - 4):
        m = n - q
        ones = (1 << (1 << m)) - 1
        for r in (0, 1):
            subset = tuple(sorted(rng.sample(range(n), q)))
            s_bits = rng.getrandbits(q)
            h = rng.getrandbits(1 << m)
            if rng.getrandbits(1):
                h |= variable_mask(m, rng.randrange(m), rng.getrandbits(1))
            g = h if r == 1 else h ^ ones
            case = (n, q, r, subset, s_bits)
            table = _deposit(g, n, subset, s_bits, r)
            walk = naive_ref.deposit_walk(n, r, subset, s_bits, g)
            assert f"{table:0{1 << n}b}"[::-1] == "".join(map(str, walk)), case
            profile = classify(TruthTable(n, table))
            same, other = (
                (profile.positive, profile.negative) if r == 1 else (profile.negative, profile.positive)
            )
            pairs = {(i, (s_bits >> j) & 1) for j, i in enumerate(subset)}
            accepted = _accepts(g, r, m, q, s_bits)
            assert (not other and same == pairs) == accepted, case
            outcomes.add(accepted)
    assert outcomes == {False, True}


def _edge_fills(m):
    """Fills of the m-cube that sit on the accept test's edges: all zeros,
    all ones, one-hot, and for each half-cube the half alone, the half
    over a random rest, the half less one entry, and all ones less one
    entry outside the half."""
    rng = random.Random(m)
    size = 1 << m
    full = (1 << size) - 1
    yield from (0, full, 1, 1 << (size - 1), 1 << rng.randrange(size))
    for mask in naive_ref.half_cube_masks(m):
        yield mask
        yield mask | rng.getrandbits(size)
        yield mask ^ (1 << rng.choice([e for e in range(size) if mask >> e & 1]))
        yield full ^ (1 << rng.choice([e for e in range(size) if not mask >> e & 1]))
    for _ in range(20):
        yield rng.getrandbits(size)


@pytest.mark.parametrize("m", range(5, 14))
def test_folded_accept_equals_mask_test(m):
    fills = list(_edge_fills(m))
    for g in fills + [f ^ ((1 << (1 << m)) - 1) for f in fills]:
        for r in (0, 1):
            for q in (1, 2):
                s_bits = g & ((1 << q) - 1)
                expected = naive_ref.accepts_by_masks(g, r, m, q, s_bits)
                assert _accepts(g, r, m, q, s_bits) == expected, (m, r, q, hex(g))


# (p, script of getrandbits(4) rounds, coins) for fills of 4 coins, with
# p written in binary: each round decides the undecided coins whose digit
# differs from p's, and the script ends where the last coin is decided or
# p's expansion ends
FILL_SCRIPTS = [
    # p = 0.1: one round, the coins are the complement of u
    (HALF, [0b0110], 0b1001),
    # p = 0.11, dyadic: digit 1 makes the 0-bit coins 1 in each round, and
    # coin 0, undecided when the remainder reaches 0, is 0
    (Fraction(3, 4), [0b0101, 0b0011], 0b1110),
    # p = 0.0101...: coin 0 is 0 in round 1, coins 2 and 3 are 1 in round
    # 2, round 3 decides nothing, and coin 1 is 1 in round 4
    (Fraction(1, 3), [0b0001, 0b0010, 0b0000, 0b0000], 0b1110),
    # p = 0.0...011 with 62 leading zeros: coins 1 and 3 are 0 in round 1,
    # rounds 2..62 decide nothing, coin 2 is 1 in round 63, coin 0 in 64
    (Fraction(3, 2**64), [0b1010] + [0] * 61 + [0b0001, 0b0000], 0b0101),
    # the same p with every coin 0 in its first round
    (Fraction(3, 2**64), [0b1111], 0b0000),
]


@pytest.mark.parametrize(
    "p, rounds, coins", FILL_SCRIPTS, ids=["1/2", "3/4", "1/3", "3/2^64", "3/2^64-one-round"]
)
def test_fill_scripted_rounds(p, rounds, coins):
    # ScriptedBits fails on a call of another width or past the script's end
    rng = ScriptedBits([(4, u) for u in rounds])
    assert _fill(rng, p.numerator, p.denominator, 4) == coins
    assert rng.script == []


class RecordingBits:
    """rng stub over ``random.Random(seed)`` that records every
    ``getrandbits`` call as (width, value)."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.calls = []

    def getrandbits(self, k):
        value = self.rng.getrandbits(k)
        self.calls.append((k, value))
        return value


def _coin_by_digits(rounds, x, numer, denom):
    """Coin x of a fill, decided on its own: U_x's digits are bit x of
    each round, compared with p's digits one at a time. Returns the coin
    and the number of rounds it read."""
    for read, u in enumerate(rounds, 1):
        numer *= 2
        digit = int(numer >= denom)
        numer -= digit * denom
        if u >> x & 1 != digit:
            return digit, read
        if numer == 0:
            return 0, read
    raise AssertionError(f"coin {x} undecided after {len(rounds)} rounds")


# widths of p's denominator from 1 to 65 bits, dyadic and not, with
# expansions from one digit to 64 leading zeros
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
    # each value (coin) of the sliced fill equals the coin decided alone
    # from the same getrandbits(count) rounds, and the fill draws no round
    # after the last coin is decided or p's expansion ends
    rng = RecordingBits(count)
    coins = _fill(rng, p.numerator, p.denominator, count)
    assert {k for k, _ in rng.calls} == {count}
    rounds = [u for _, u in rng.calls]
    decided = [_coin_by_digits(rounds, x, p.numerator, p.denominator) for x in range(count)]
    assert coins == sum(coin << x for x, (coin, _) in enumerate(decided))
    assert len(rounds) == max(read for _, read in decided)


LAW_BIASES = [Fraction(1, 100), Fraction(1, 3), HALF, Fraction(99, 100)]


def _binomial_law(size, p):
    return {w: comb(size, w) * p**w * (1 - p) ** (size - w) for w in range(size + 1)}


@pytest.mark.parametrize("m", range(4, 9))
def test_fill_weight_law_is_binomial(m):
    # the weight of a fill of 2^m coins against the exact binomial law
    size = 1 << m
    for p in LAW_BIASES:
        rng = random.Random(m * 1000 + p.denominator)
        counts = Counter(_fill(rng, p.numerator, p.denominator, size).bit_count() for _ in range(4000))
        assert chi_square_passes(counts, _binomial_law(size, p)), (m, p)


def test_fill_weight_law_rejects_a_skewed_bias():
    # a fill of bias 1/3 + 15/1000 fails the binomial law of bias 1/3
    p, skewed = Fraction(1, 3), Fraction(1, 3) + Fraction(15, 1000)
    rng = random.Random(8)
    counts = Counter(_fill(rng, skewed.numerator, skewed.denominator, 256).bit_count() for _ in range(4000))
    assert not chi_square_passes(counts, _binomial_law(256, p))


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
    if n <= DIRECT_MAX_M + 1:
        # every category has at most DIRECT_MAX_M free variables
        assert sum(r.rejections for r in records) == 0
    else:
        assert sum(r.rejections for r in records) / len(records) < 3


def test_rejection_limit_exceeded():
    # n = 5, p = 1/2: category bits 0, 1 land in q = 1, whose m = 4 free
    # variables are rejection-sampled, and direction bit 0 picks r = 1.
    # Each attempt then takes the variable-set rank, the forcing value and
    # one fill round of 16 coins, all 0 as the complement of 0xFFFF; an
    # all-zeros fill makes h all zeros, which q = 1 rejects
    attempt = [(3, 0), (1, 0), (16, 0xFFFF)]
    script = [(1, 0), (1, 1), (1, 0)] + attempt * 5
    config = GeneratorConfig(n=5, p=HALF, seed=0, max_rejections=5)
    with pytest.raises(RejectionLimitExceeded) as info:
        generate(config, ScriptedBits(script))
    assert info.value.rejections == 5
    assert info.value.q == 1 and info.value.r == 1


@pytest.mark.parametrize("p", LAW_BIASES, ids=str)
@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("q", [1, 2, 3])
@pytest.mark.parametrize("m", range(DIRECT_MAX_M + 1))
def test_direct_cuts_equal_accepted_route_sums(m, q, r, p):
    # the direct draw's groups hold exactly the (forcing values, fill)
    # routes that the accept test takes, and each cut point is the running
    # integer sum of their bias-p weights a^|g| (b - a)^(2^m - |g|)
    a, b = p.numerator, p.denominator
    size = 1 << m
    accepted = {
        (s, g) for s in range(1 << q) for g in range(1 << size) if _accepts(g, r, m, q, s)
    }
    groups, cuts = _direct_table(category_weights(m + q, p), q, r)
    routes, running = set(), 0
    for (free, fills), cut in zip(groups, cuts.numerators, strict=True):
        assert len({g.bit_count() for g in fills}) == 1
        group = {(s, g) for s in range(1 << free) for g in fills}
        assert not group & routes
        routes |= group
        running += sum(a ** g.bit_count() * (b - a) ** (size - g.bit_count()) for _, g in group)
        assert cut == running
    assert routes == accepted
    assert cuts.denom == running


@pytest.mark.parametrize("p", LAW_BIASES, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_direct_law_matches_census_chi_square(n, p):
    # the whole table law against the exhaustive census, with no rejected
    # attempt: every category at n <= 4 is drawn directly
    gen = CanalizingGenerator(GeneratorConfig(n=n, p=p, seed=100 * n + p.denominator))
    counts = Counter()
    for table, record in gen.draws(20000):
        assert record.rejections == 0
        counts[table.bits] += 1
    assert chi_square_passes(counts, canalizing_law(n, p))


def _category_weight_counts(n, p, draws=20000):
    gen = CanalizingGenerator(GeneratorConfig(n=n, p=p, seed=100 * n + p.denominator))
    return Counter((record.q, record.r, table.bits.bit_count()) for table, record in gen.draws(draws))


@pytest.mark.parametrize("p", [HALF, Fraction(1, 3)], ids=str)
@pytest.mark.parametrize("n", [5, 6])
def test_rejection_law_matches_census_chi_square(n, p):
    # the joint law of (q, r, weight) at n = 5, 6, where the categories
    # with m >= 4 free variables are rejection-sampled, against the exact
    # law of the profile census
    assert chi_square_passes(_category_weight_counts(n, p), category_weight_law(n, p))


def test_rejection_law_rejects_a_skewed_fill(monkeypatch):
    # the same test fails when every rejection-sampled fill has bias
    # p + 15/1000; the directly drawn categories are untouched
    fill = generator._fill

    def skewed(rng, numer, denom, size):
        biased = Fraction(numer, denom) + Fraction(15, 1000)
        return fill(rng, biased.numerator, biased.denominator, size)

    monkeypatch.setattr(generator, "_fill", skewed)
    p = Fraction(1, 3)
    assert not chi_square_passes(_category_weight_counts(5, p), category_weight_law(5, p))


@pytest.mark.parametrize("n, p", [(3, HALF), (8, Fraction(1, 3))], ids=str)
def test_shared_weights_give_each_stream_its_own_draws(n, p):
    # two seeded streams interleaved draw by draw over one weights object
    # equal each stream run alone with weights of its own; at n = 3 every
    # category is direct, so the lazily built direct tables are shared too
    configs = [GeneratorConfig(n=n, p=p, seed=seed) for seed in (1, 2)]
    alone = []
    for config in configs:
        rng, weights = random.Random(config.seed), category_weights(n, p)
        alone.append([generate(config, rng, weights) for _ in range(300)])
    shared = category_weights(n, p)
    rngs = [random.Random(config.seed) for config in configs]
    for j in range(300):
        for config, rng, draws in zip(configs, rngs, alone):
            assert generate(config, rng, shared) == draws[j]
    if n == 3:
        assert shared.direct


def test_category_weights_build_no_direct_tables():
    # the direct tables are built on a category's first draw, never by
    # category_weights, and the wide draws at n = 14 never reach one
    _accepted_fills.cache_clear()
    for n, p in ((16, Fraction(1, 3)), (14, HALF)):
        assert category_weights(n, p).direct == {}
    assert _accepted_fills.cache_info().currsize == 0
    for p in (HALF, Fraction(1, 3)):
        gen = CanalizingGenerator(GeneratorConfig(n=14, p=p, seed=14))
        assert all(record.q < 14 - DIRECT_MAX_M for _, record in gen.draws(30))
        assert gen.weights.direct == {}
    assert _accepted_fills.cache_info().currsize == 0


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n=2, p=Fraction(1), seed=0)
    with pytest.raises(ValueError):
        GeneratorConfig(n=2, p=HALF, seed=-1)
    with pytest.raises(ValueError):
        GeneratorConfig(n=2, p=HALF, seed=1 << 64)
    with pytest.raises(ValueError):
        GeneratorConfig(n=2, p=HALF, seed=0, max_rejections=0)
    # integers follow check_n's rule: a bool, a float or a string is no count
    for bad in ({"seed": True}, *({"max_rejections": v} for v in (True, 2.5, "9"))):
        with pytest.raises(ValueError):
            GeneratorConfig(n=2, p=HALF, **bad)
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
    b = prob_breakdown(2, p)
    gen = CanalizingGenerator(GeneratorConfig(n=2, p=p, seed=13))
    draws = 30000
    tally = Counter()
    for _, record in gen.draws(draws):
        tally[(record.q, record.r)] += 1
    keys, expected = [(0, None)], [float(b.pr_bc / b.pr_c) * draws]
    for q in range(1, 3):
        for r, w in ((1, b.pr_pce[q]), (0, b.pr_nce[q])):
            if w:
                keys.append((q, r))
                expected.append(float(w / b.pr_c) * draws)
    observed = [tally[k] for k in keys]
    assert sum(observed) == draws  # zero-weight categories never drawn
    statistic, _ = st.chisquare(observed, expected)
    assert statistic < st.chi2.ppf(0.999, len(keys) - 1)
