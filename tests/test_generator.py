import gc
import hashlib
import random
import sys
import threading
from itertools import combinations, pairwise
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
    count_canalizing,
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
    _both_ways_tables,
    _deposit,
    _Cuts,
    _direct_table,
    _fill,
    _route_outcomes,
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


class ByteBits:
    """rng stub over ``random.Random(seed)`` that serves only
    ``getrandbits(8)`` and counts the calls."""

    def __init__(self, seed):
        self.rng = random.Random(seed)
        self.calls = 0

    def getrandbits(self, k):
        assert k == 8, f"expected getrandbits(8), got getrandbits({k})"
        self.calls += 1
        return self.rng.getrandbits(8)


def _cells(cuts):
    """The cells of a cut set, the gaps between its running sums, as
    exact shares of its denominator."""
    return [Fraction(b - a, cuts.denom) for a, b in pairwise((0, *cuts.numerators))]


def _class_cells(b):
    """The classes of a breakdown in cell order, as shares of Pr[C]:
    both-ways, then positive and negative for q = 1..n."""
    classes = [b.pr_bc]
    for k in range(1, b.n + 1):
        classes += [b.pr_pce[k], b.pr_nce[k]]
    return [c / b.pr_c for c in classes]


def test_category_weights_n1():
    w = category_weights(1, HALF)
    # both-ways 1/2, then the positive and negative q = 1 classes 1/4 each
    assert _cells(w.cuts) == [HALF, Fraction(1, 4), Fraction(1, 4)]
    assert _cells(w.cuts) == _class_cells(prob_breakdown(1, HALF))


def test_category_weights_n2():
    w = category_weights(2, HALF)
    # Pr[C] = 7/8 = 1/4 both-ways + 0 at q = 1 + 5/16 + 5/16 at q = 2
    assert _cells(w.cuts) == [Fraction(2, 7), 0, 0, Fraction(5, 14), Fraction(5, 14)]
    assert _cells(w.cuts) == _class_cells(prob_breakdown(2, HALF))


CUT_BIASES = [HALF, Fraction(1, 3), Fraction(2, 3), Fraction(1, 100), Fraction(99, 100)]


@pytest.mark.parametrize(
    "n, p",
    [(n, p) for n in range(1, 13) for p in CUT_BIASES] + [(16, Fraction(1, 3))],
    ids=str,
)
def test_cut_points_equal_class_probabilities(n, p):
    w = category_weights(n, p)
    assert len(w.cuts.numerators) == 2 * n + 1
    assert w.cuts.numerators[-1] == w.cuts.denom
    assert _cells(w.cuts) == _class_cells(prob_breakdown(n, p))


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
    # the cut 2/7 lies inside byte 73 (2/7 * 256 = 73.14)
    scaled = ((2, 2, 7), 7)
    assert _Cuts(*scaled).draw(ScriptedBits([(8, 0)])) == 0
    assert _Cuts(*scaled).draw(ScriptedBits([(8, 200)])) == 2
    # in byte 73 the walk descends to depth 16, where the cut lies inside
    # child 36 (2/7 * 2^16 = 73 * 256 + 36.57)
    cuts = _Cuts(*scaled)
    assert cuts.draw(ScriptedBits([(8, 73), (8, 35)])) == 0
    assert cuts.draw(ScriptedBits([(8, 73), (8, 37)])) == 2
    assert cuts.draw(ScriptedBits([(8, 73), (8, 36), (8, 0)])) == 0
    assert set(cuts.tables) == {1, 256 | 73, (256 | 73) << 8 | 36}
    assert cuts.tables[1] == (0,) * 73 + (-1,) + (2,) * 182
    assert cuts.tables[256 | 73] == (0,) * 36 + (-1,) + (2,) * 219


def test_sample_index_skips_empty_category():
    # the cut 1/2 is the edge of bytes 127 and 128: no byte is split, and
    # the empty category between the repeated cuts is never drawn
    scaled = ((1, 1, 2), 2)
    cuts = _Cuts(*scaled)
    assert cuts.draw(ScriptedBits([(8, 127)])) == 0
    assert cuts.draw(ScriptedBits([(8, 128)])) == 2
    assert cuts.tables == {1: (0,) * 128 + (2,) * 128}
    # a cut on an edge at depth 16 only: 21846 / 2^16 lies in byte 85, on
    # the edge of its children 85 and 86
    cuts = _Cuts((21846, 1 << 16), 1 << 16)
    assert cuts.draw(ScriptedBits([(8, 85), (8, 85)])) == 0
    assert cuts.draw(ScriptedBits([(8, 85), (8, 86)])) == 1
    assert cuts.tables[256 | 85] == (0,) * 86 + (1,) * 170


def _expand_split_nodes(scaled, max_bits):
    """Expand the root of a fresh cut set and every split node below it
    down to depth ``max_bits``, checking each table against 256 answers of
    the plain interval test."""
    cuts = _Cuts(*scaled)
    nodes = [1]
    while nodes:
        node = nodes.pop()
        table = cuts._expand(node)
        assert table == tuple(naive_ref.resolve(scaled, (node << 8) | v) for v in range(256))
        if node.bit_length() <= max_bits:
            nodes += [(node << 8) | v for v, idx in enumerate(table) if idx < 0]
    return cuts.tables


def test_wide_denominator_cuts_on_and_beside_child_edges():
    # a 333-bit D, 269 bits more than a root child's depth and 64, so each
    # cut is placed from its leading bits: a cut on the edge of bytes 76
    # and 77 and one on that of children 12 and 13 of byte 200 split
    # nothing, though their floor bounds disagree
    denom = 3**200 << 16
    e8, e16 = 77 * denom >> 8, (200 << 8 | 13) * denom >> 16
    tables = _expand_split_nodes(((e8, e16, denom), denom), 33)
    assert tables[1] == (0,) * 77 + (1,) * 123 + (-1,) + (2,) * 55
    assert tables[256 | 200] == (1,) * 13 + (2,) * 243
    assert len(tables) == 2
    # flanked by cuts one unit of 1/D away, within 2^-300 of the edges:
    # those split the children on either side, down to depth 40
    scaled = ((e8 - 1, e8, e8 + 1, e16 - 1, e16, e16 + 1, denom), denom)
    tables = _expand_split_nodes(scaled, 33)
    assert tables[1][76] == tables[1][77] == tables[1][200] == -1
    assert tables[256 | 76][255] == tables[256 | 77][0] == -1
    assert tables[256 | 200][12] == tables[256 | 200][13] == -1
    # the root, bytes 76, 77 and 200, then four split nodes per depth
    assert len(tables) == 1 + 3 + 4 * 4


def test_sample_index_degenerate_no_bits():
    # single category taking all mass resolves without consuming bits
    for scaled, idx in ((((1,), 1), 0), (((0, 5), 5), 1), (((0, 0, 3, 3), 3), 2)):
        cuts = _Cuts(*scaled)
        assert cuts.draw(ScriptedBits([])) == idx
        assert cuts.tables == {}


TABLE_BIASES = [
    HALF, Fraction(1, 3), Fraction(1, 100), Fraction(99, 100), Fraction(1, 1000), Fraction(999, 1000)
]


@pytest.mark.parametrize("p", TABLE_BIASES, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 14, 16])
def test_byte_tables_equal_resolved_children(n, p):
    # every table that 300 draws expand, of the category cut set and of
    # the weight groups of the direct categories they land in, and that of
    # every child the category root splits, holds what the plain interval
    # test says of each child
    w = category_weights(n, p)
    rng = random.Random(n)
    for _ in range(300):
        q, r = sample_category(w, rng)
        if q and n - q <= DIRECT_MAX_M:
            _, cuts = w.direct.get((q, r)) or _direct_table(w, q, r)
            cuts.draw(rng)
    for v, idx in enumerate(w.cuts.tables[1]):
        if idx < 0:
            w.cuts._expand(256 | v)
    cut_sets = [w.cuts] + [cuts for _, cuts in w.direct.values()]
    expanded = 0
    for cuts in cut_sets:
        scaled = (cuts.numerators, cuts.denom)
        for node, table in cuts.tables.items():
            assert table == tuple(naive_ref.resolve(scaled, (node << 8) | v) for v in range(256))
            expanded += 1
    assert expanded >= 1


@pytest.mark.parametrize("p", CUT_BIASES, ids=str)
@pytest.mark.parametrize("n", [1, 2, 3, 8, 14, 16])
def test_memoized_draw_index_matches_integer_walk(n, p):
    # the category cut set with a cold trie per draw and with the weights'
    # own trie warming up: the same index after the same number of
    # getrandbits(8) calls as the plain walk
    w = category_weights(n, p)
    numerators = w.cuts.numerators
    scaled = (numerators, w.cuts.denom)
    ref, cold, warm = ByteBits(n), ByteBits(n), ByteBits(n)
    for _ in range(200):
        idx = naive_ref.draw_index(scaled, ref)
        assert _Cuts(*scaled).draw(cold) == idx
        assert w.cuts.draw(warm) == idx
        assert ref.calls == cold.calls == warm.calls
        # an empty category (a repeated cut, as q = 1 at n = 2) is never drawn
        assert numerators[idx] > (numerators[idx - 1] if idx else 0)


def test_draw_index_memo_stays_small():
    # the root's table and those of the children that its at most 2n
    # inner cuts split; a deeper table needs a draw that ends in a split
    # child of a split child, chance below 2n / 2^16 per draw. Every table
    # is a tuple of small ints, which a collection stops tracking, so the
    # memo adds no work to later collections
    n = 16
    w = category_weights(n, Fraction(1, 3))
    rng = random.Random(16)
    for _ in range(10**4):
        sample_category(w, rng)
    gc.collect()
    tables = w.cuts.tables
    assert 1 < len(tables) <= 1 + 2 * n
    assert not any(gc.is_tracked(table) for table in tables.values())


def test_sample_category_scripted():
    w = category_weights(2, HALF)
    # the cells 2/7, 0, 0, 5/14, 5/14 span bytes 0..72, none, none,
    # 74..163 and 165..255; bytes 73 and 164 hold a cut
    assert sample_category(w, ScriptedBits([(8, 0)])) == (0, None)
    assert sample_category(w, ScriptedBits([(8, 100)])) == (2, 1)
    assert sample_category(w, ScriptedBits([(8, 200)])) == (2, 0)


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


# (n, p, seed, draws, SHA-256 of the stream) of stream version 5. The
# seed -> output mapping is stable API: these digests may change only with
# a deliberate, recorded break of the stream, which bumps STREAM_VERSION.
# The cases cover the constants at q = n (n = 1, 2), the direct draw of
# every category at n <= 4 and both draws at n = 5, 6, both fill
# directions, wide fills (n = 12, 14), the largest cut points (n = 16,
# p = 1/3: 85 kbit), a dyadic bias whose fills stop on remainder 0
# (n = 6, p = 3/4), and at n = 5 a bias just below 1/2 with a long
# non-dyadic expansion (0.0 then 33 ones: it departs from 1/2 = 0.0111...
# at digit 35), whose fills compare with p digit after digit. Version 5
# draws every category and weight group a byte at a time, so every digest
# changed.
GOLDEN_STREAMS = [
    (1, Fraction(1, 2), 1, 1000, "4a01c9068c320f6ae5cb13aed072559a84d3e4a00da500060f9fad410797f620"),
    (2, Fraction(1, 2), 2, 1000, "c5c848488b4eaa7b3b97c610d388ba439398e6628b9254662a425f9ecd4edca9"),
    (3, Fraction(1, 2), 3, 1000, "21fbe239c812019ad6eb1e29575d8a3e488e9c33fb76582853d31fcd6d6dd015"),
    (4, Fraction(1, 3), 31337, 1000, "910d0297b5fbb4ed5f6ce70e8ee73a3d373a2c937239b343cf2cabb02bc5f1da"),
    (8, Fraction(1, 3), 8, 200, "41f3fa3c444f61afdb83d08543cd03adf4376e6283fabee15e79635df69e82e0"),
    (14, Fraction(1, 3), 14, 6, "f44e3c960be44664a4900091520bff7b15c36d4c9b58883e3e6ddefca9f605ee"),
    (12, Fraction(2, 3), 12, 6, "3f3ad972089ff08fcc289893d67f6b0ffcc7d928464131620c5c66d8d0f5414f"),
    (5, Fraction(6103515625, 12207031251), 5, 300, "5f05428ae70c04a62f007d1f3fd49c232985a787764e2fe0647febbf7b294538"),
    (6, Fraction(3, 4), 6, 300, "735879035c3c6404fca890f033f014bcbf80c3f73fa0a551a908a9bd669b2b5b"),
    (10, Fraction(1, 2), 10, 30, "d09d3afa7880a76020a1620f227358395ac3f8e63f7d054ea53acc1c7d4bd996"),
    (16, Fraction(1, 3), 16, 20, "80e10bca190b03ed0a199428d73d406b0014b178d782a2b8354102fdd514f6c9"),
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
    # n = 5, p = 1/2: category byte 64 lands in the cell of q = 1 and
    # r = 1, bytes 1..125, whose m = 4 free variables are rejection-sampled.
    # Each attempt then takes the variable-set rank, the forcing value and
    # one fill round of 16 coins, all 0 as the complement of 0xFFFF; an
    # all-zeros fill makes h all zeros, which q = 1 rejects
    attempt = [(3, 0), (1, 0), (16, 0xFFFF)]
    script = [(8, 64)] + attempt * 5
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
    # the direct tables and route tables are built on a category's first
    # draw, never by category_weights, and the wide draws at n = 14 never
    # reach one
    _accepted_fills.cache_clear()
    _route_outcomes.cache_clear()
    for n, p in ((16, Fraction(1, 3)), (14, HALF)):
        assert category_weights(n, p).direct == {}
    assert _accepted_fills.cache_info().currsize == 0
    assert _route_outcomes.cache_info().currsize == 0
    for p in (HALF, Fraction(1, 3)):
        gen = CanalizingGenerator(GeneratorConfig(n=14, p=p, seed=14))
        assert all(record.q < 14 - DIRECT_MAX_M for _, record in gen.draws(30))
        assert gen.weights.direct == {}
    assert _accepted_fills.cache_info().currsize == 0
    assert _route_outcomes.cache_info().currsize == 0


def _route_entries(n):
    """Every entry of the route tables at n as ``(q, r, group, route,
    outcome)``, over every direct category (q, r)."""
    for q in range(1, n + 1):
        for r in (0, 1):
            for j, outcomes in enumerate(_route_outcomes(n, q, r)):
                for route, outcome in enumerate(outcomes):
                    yield q, r, j, route, outcome


@pytest.mark.parametrize("n", range(1, DIRECT_MAX_M + 2))
def test_route_tables_cover_the_class_exactly_once(n):
    # the route tables of every direct category and the 2n both-ways
    # tables hold each canalizing function once, each with a record that
    # its classification confirms
    records = [
        (table, generator.DrawRecord(q, r, subset, values, 0))
        for q, r, _, _, (table, subset, values) in _route_entries(n)
    ]
    assert len(records) == count_canalizing(n) - 2 * n
    for i, pair in enumerate(_both_ways_tables(n)):
        records += [(table, generator.DrawRecord(0, None, (i,), {i: s}, 0)) for s, table in enumerate(pair)]
    assert len({table.bits for table, _ in records}) == len(records) == count_canalizing(n)
    assert all(table.n == n and record_consistent(table, record) for table, record in records)


@pytest.mark.parametrize("n", range(1, DIRECT_MAX_M + 2))
def test_route_tables_equal_unranked_deposits(n):
    # entry (q, r, group, route) is the route's unranking, as the module
    # docstring states it, deposited by _deposit and by the naive walk;
    # each group holds C(n, q) * (fills in the group) * 2^free routes
    for q in range(1, n + 1):
        subsets = list(combinations(range(n), q))
        for r in (0, 1):
            groups, _ = _direct_table(category_weights(n, HALF), q, r)
            outcomes = _route_outcomes(n, q, r)
            assert len(outcomes) == len(groups)
            for (free, fills), group in zip(groups, outcomes):
                assert len(group) == len(subsets) * len(fills) << free
                for route, (table, subset, values) in enumerate(group):
                    rest, rank = divmod(route, len(subsets))
                    s_bits, at = divmod(rest, len(fills))
                    case = (n, q, r, route)
                    assert subset == subsets[rank], case
                    assert values == {i: (s_bits >> j) & 1 for j, i in enumerate(subset)}, case
                    assert table.bits == _deposit(fills[at], n, subset, s_bits, r), case
                    walk = naive_ref.deposit_walk(n, r, subset, s_bits, fills[at])
                    assert table.bits == sum(b << e for e, b in enumerate(walk)), case


def test_drawn_values_do_not_alias_the_route_tables():
    # a record's values may be changed by its owner: a later draw of the
    # same route still reports the route's own forcing values
    config = GeneratorConfig(n=3, p=HALF, seed=9)
    expected = [dict(record.values) for _, record in CanalizingGenerator(config).draws(300)]
    tables = set()
    for (table, record), values in zip(CanalizingGenerator(config).draws(300), expected):
        assert record.values == values
        record.values[record.subset[0]] ^= 1
        tables.add(table.bits)
    # 300 draws over 120 functions repeat routes
    assert len(tables) < 300


def test_route_tables_are_shared_across_biases():
    # the outcomes do not depend on p: draws at two biases read one cached
    # route table per category and hand out the same table objects
    _route_outcomes.cache_clear()
    seen = {}
    for p in (HALF, Fraction(1, 3)):
        gen = CanalizingGenerator(GeneratorConfig(n=3, p=p, seed=3))
        for table, _ in gen.draws(400):
            assert seen.setdefault(table.bits, table) is table
        # the six direct categories at n = 3, built by the first bias alone
        assert _route_outcomes.cache_info().misses == 6


def test_threads_building_route_tables_draw_their_own_streams():
    # four threads at n = 4 start on empty route and both-ways caches and
    # switch every microsecond, so they build and read the tables at once:
    # each still draws exactly what its stream draws alone
    configs = [GeneratorConfig(n=4, p=p, seed=seed) for seed, p in enumerate((HALF, Fraction(1, 3)) * 2)]
    alone = [list(CanalizingGenerator(config).draws(300)) for config in configs]
    _route_outcomes.cache_clear()
    _both_ways_tables.cache_clear()
    results = [None] * len(configs)

    def run(j):
        results[j] = list(CanalizingGenerator(configs[j]).draws(300))

    threads = [threading.Thread(target=run, args=(j,)) for j in range(len(configs))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == alone


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
