import copy
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import naive_ref as ref
from canalis import (
    RangeError,
    TruthTable,
    classify,
    from_hex,
    is_canalizing,
    is_canalizing_on,
    make_table,
    to_hex,
    variable_mask,
)
from canalis.oracle import _table_profiles

# canonical small functions (packed ints, bit e = output on input e)
OR2 = 0b1110
XOR2 = 0b0110
IDENTITY1 = 0b10
X0_OR_X1X2 = make_table(3, [1 if (e & 1) or (e >> 1 & 1 and e >> 2 & 1) else 0 for e in range(8)]).bits


def test_make_table_identity():
    t = make_table(1, [0, 1])
    assert t.bits == IDENTITY1
    assert [t.evaluate(e) for e in range(2)] == [0, 1]


def test_make_table_disjunction():
    t = make_table(2, [0, 1, 1, 1])
    assert t.bits == OR2
    assert t.weight == 3


def test_make_table_length_mismatch():
    with pytest.raises(ValueError):
        make_table(2, [0, 1, 1])


def test_make_table_bad_entry():
    with pytest.raises(ValueError):
        make_table(1, [0, 2])


@pytest.mark.parametrize("n", [0, -1, 25])
def test_make_table_n_out_of_range(n):
    with pytest.raises(RangeError):
        make_table(n, [0] * (1 << max(n, 0)))


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("CANALIS_MAX_N", "3")
    with pytest.raises(RangeError):
        make_table(4, [0] * 16)
    monkeypatch.setenv("CANALIS_MAX_N", "26")
    assert make_table(4, [0] * 16).n == 4


def test_variable_mask_matches_naive_membership():
    for n in (1, 2, 3, 5):
        for i in range(n):
            for s in (0, 1):
                mask = variable_mask(n, i, s)
                for e in range(1 << n):
                    assert ((mask >> e) & 1) == (((e >> i) & 1) == s)


def test_is_canalizing_on_known_functions():
    # x0 or (x1 and x2): fixing x0 = 1 forces output 1
    t = TruthTable(3, X0_OR_X1X2)
    assert is_canalizing_on(t, 0, 1, 1)
    assert not is_canalizing_on(t, 0, 0, 0)
    assert is_canalizing(t)

    xor = TruthTable(2, XOR2)
    for i in range(2):
        for s in (0, 1):
            for v in (0, 1):
                assert not is_canalizing_on(xor, i, s, v)
    assert not is_canalizing(xor)

    ones = TruthTable(2, 0b1111)
    for i in range(2):
        for s in (0, 1):
            assert is_canalizing_on(ones, i, s, 1)
            assert not is_canalizing_on(ones, i, s, 0)


def test_is_canalizing_on_index_error():
    t = TruthTable(2, OR2)
    with pytest.raises(RangeError):
        is_canalizing_on(t, 2, 0, 1)


def test_classify_or_forcing_structure():
    # x0 or x1 forces 1 at either variable's 1, and 0 only when both are 0,
    # which is not a single-variable forcing; negative must be empty
    profile = classify(make_table(2, [0, 1, 1, 1]))
    assert profile.positive == frozenset({(0, 1), (1, 1)})
    assert profile.negative == frozenset()
    assert profile.both_ways_variable is None
    assert not profile.is_constant
    assert profile.num_canalizing_vars == 2


def test_classify_projection_both_ways():
    profile = classify(TruthTable(1, IDENTITY1))
    assert profile.positive == frozenset({(0, 1)})
    assert profile.negative == frozenset({(0, 0)})
    assert profile.both_ways_variable == 0


def test_classify_xor_empty():
    profile = classify(TruthTable(2, XOR2))
    assert profile.positive == frozenset()
    assert profile.negative == frozenset()
    assert profile.num_canalizing_vars == 0
    assert not profile.canalizing


@pytest.mark.parametrize("value,direction", [(0, "negative"), (1, "positive")])
def test_classify_constants(value, direction):
    n = 3
    bits = ((1 << (1 << n)) - 1) if value else 0
    profile = classify(TruthTable(n, bits))
    assert profile.is_constant and profile.constant_value == value
    pairs = frozenset((i, s) for i in range(n) for s in (0, 1))
    if value:
        assert profile.positive == pairs and profile.negative == frozenset()
    else:
        assert profile.negative == pairs and profile.positive == frozenset()
    assert profile.num_canalizing_vars == n
    assert profile.both_ways_variable is None
    assert profile.canalizing


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_matches_naive_exhaustively(n):
    for value in range(1 << (1 << n)):
        bits = ref.bits_list(n, value)
        profile = classify(TruthTable(n, value))
        pos, neg = ref.forcing_pairs(bits, n)
        assert profile.positive == frozenset(pos)
        assert profile.negative == frozenset(neg)
        assert is_canalizing(TruthTable(n, value)) == ref.is_canalizing(bits, n)
        assert profile.num_canalizing_vars == ref.num_canalizing_vars(bits, n)


def test_classify_matches_naive_sampled_n4_n5():
    rng = random.Random(2024)
    for n in (4, 5):
        for _ in range(300):
            value = rng.getrandbits(1 << n)
            bits = ref.bits_list(n, value)
            profile = classify(TruthTable(n, value))
            pos, neg = ref.forcing_pairs(bits, n)
            assert profile.positive == frozenset(pos)
            assert profile.negative == frozenset(neg)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_classify_matches_profile_statuses_exhaustively(n):
    # the census reads every class off these half statuses, never off
    # classify, so the two are tied here table by table: a status-2 half
    # forces 1, a status-1 half forces 0, and a variable whose halves
    # force opposite values (fields 6 and 9) is a both-ways variable
    for bits, (whole, halves, _) in _table_profiles(n):
        profile = classify(TruthTable(n, bits))
        status = {(i, s): halves >> 4 * i + 2 * s & 3 for i in range(n) for s in (0, 1)}
        fields = [halves >> 4 * i & 15 for i in range(n)]
        assert profile.positive == {pair for pair, st in status.items() if st == 2}
        assert profile.negative == {pair for pair, st in status.items() if st == 1}
        assert profile.num_canalizing_vars == sum(1 for f in fields if f)
        assert profile.both_ways_variable == next(
            (i for i, f in enumerate(fields) if f in (6, 9)), None
        )
        assert profile.is_constant == (whole != 0)
        assert profile.constant_value == {0: None, 1: 0, 2: 1}[whole]


def _nonconstant_values(n):
    full = (1 << (1 << n)) - 1
    return (v for v in range(full + 1) if v not in (0, full))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_intersection_property_and_signature_uniqueness(n):
    # positively canalizing on a set with a common signature iff on each
    # singleton, and the signature is then unique
    subsets = [
        tuple(i for i in range(n) if (mask >> i) & 1) for mask in range(1, 1 << n)
    ]
    for value in _nonconstant_values(n):
        bits = ref.bits_list(n, value)
        single = {i: ref.signatures_on(bits, n, (i,)) for i in range(n)}
        for subset in subsets:
            sigs = ref.signatures_on(bits, n, subset)
            assert len(sigs) <= 1
            if all(single[i] for i in subset):
                assert len(sigs) == 1
                merged = {}
                for i in subset:
                    merged.update(single[i][0])
                assert sigs[0] == merged
            else:
                assert sigs == []


def test_intersection_property_sampled_n4():
    rng = random.Random(7)
    n = 4
    subsets = [
        tuple(i for i in range(n) if (mask >> i) & 1) for mask in range(1, 1 << n)
    ]
    for _ in range(150):
        value = rng.getrandbits(16)
        if value in (0, 0xFFFF):
            continue
        bits = ref.bits_list(n, value)
        single = {i: bool(ref.signatures_on(bits, n, (i,))) for i in range(n)}
        for subset in subsets:
            sigs = ref.signatures_on(bits, n, subset)
            assert len(sigs) <= 1
            assert bool(sigs) == all(single[i] for i in subset)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_both_ways_exclusive_to_single_variable(n):
    # over all nonconstant functions, positive and negative pairs coexist
    # only on one shared variable, and only for the 2n projection/negations
    count = 0
    for value in _nonconstant_values(n):
        profile = classify(TruthTable(n, value))
        if profile.positive and profile.negative:
            count += 1
            pos_vars = {i for i, _ in profile.positive}
            neg_vars = {i for i, _ in profile.negative}
            assert pos_vars == neg_vars and len(pos_vars) == 1
            assert profile.both_ways_variable in pos_vars
            assert value in (
                variable_mask(n, profile.both_ways_variable, 1),
                variable_mask(n, profile.both_ways_variable, 0),
            )
        else:
            assert profile.both_ways_variable is None
    assert count == 2 * n


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=4))
def test_classify_commutes_with_variable_permutation(data, n):
    value = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    perm = data.draw(st.permutations(range(n)))
    inverse = {perm[j]: j for j in range(n)}
    bits = ref.bits_list(n, value)
    permuted = make_table(n, ref.permute_variables(bits, n, list(perm)))
    original = classify(TruthTable(n, value))
    moved = classify(permuted)
    assert moved.positive == frozenset((inverse[i], s) for i, s in original.positive)
    assert moved.negative == frozenset((inverse[i], s) for i, s in original.negative)
    assert moved.num_canalizing_vars == original.num_canalizing_vars


@settings(max_examples=80, deadline=None)
@given(data=st.data(), n=st.integers(min_value=1, max_value=6))
def test_hex_round_trip(data, n):
    value = data.draw(st.integers(min_value=0, max_value=(1 << (1 << n)) - 1))
    table = TruthTable(n, value)
    text = to_hex(table)
    assert len(text) == -(-(1 << n) // 4)
    assert text == text.lower()
    assert from_hex(n, text) == table


def test_hex_known_values():
    assert to_hex(TruthTable(2, OR2)) == "e"
    assert to_hex(TruthTable(2, XOR2)) == "6"
    assert to_hex(TruthTable(1, IDENTITY1)) == "2"
    assert from_hex(2, "E").bits == OR2  # tolerant of case on input
    assert to_hex(TruthTable(3, X0_OR_X1X2)) == "ea"


def test_from_hex_malformed():
    with pytest.raises(ValueError):
        from_hex(2, "z")  # not hex
    with pytest.raises(ValueError):
        from_hex(3, "e")  # wrong digit count
    with pytest.raises(ValueError):
        from_hex(1, "f")  # bits beyond the 2-entry table
    for text in ("-fff", "+fff", "0xff", "f_ff"):  # int(.., 16) takes these
        with pytest.raises(ValueError):
            from_hex(4, text)


def test_evaluate_bounds():
    t = TruthTable(2, OR2)
    with pytest.raises(IndexError):
        t.evaluate(4)


def test_table_is_a_frozen_slotted_value():
    table, same = TruthTable(3, X0_OR_X1X2), TruthTable(3, X0_OR_X1X2)
    with pytest.raises(FrozenInstanceError):
        table.bits = 0
    assert not hasattr(table, "__dict__")
    assert table == same and table is not same and hash(table) == hash(same)
    assert len({table, same, TruthTable(4, X0_OR_X1X2), TruthTable(3, OR2)}) == 3
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(table, protocol)) == table
    assert copy.deepcopy(table) == table
