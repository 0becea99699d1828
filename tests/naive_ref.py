"""Deliberately naive reference semantics for cross-checking.

Everything here works on plain lists with explicit quantifier loops and no
bit masks, so a shared bug with the packed implementations is unlikely.
Forcing values follow the same orientation as the library: a pair (i, s)
in a direction means fixing variable i to input value s pins the output.
Constant functions count as canalizing on all n variables, one direction.

``count_canalizing`` and ``count_exact_k`` are the counts' hand-derived
closed forms, written apart from the library's inclusion-exclusion
evaluator, so that checks of the counts compare two different sums.

``resolve``, ``draw_index`` and ``accepts_by_masks`` keep sampler steps
in their plain integer forms: the interval test of one trie node, the
category walk recomputing that test at every byte from the cut points,
and the accept test of one mask per half-cube. The library's byte tables,
memoized walk and folded accept test must agree with them.
"""

from bisect import bisect_right
from functools import lru_cache
from itertools import product
from math import comb


def bits_list(n, value):
    return [(value >> e) & 1 for e in range(1 << n)]


def forces(bits, n, i, s, v):
    """True iff every input with variable i equal to s maps to v."""
    return all(bits[e] == v for e in range(1 << n) if ((e >> i) & 1) == s)


def forcing_pairs(bits, n):
    """(positive, negative) pair sets, constants included."""
    positive = {(i, s) for i in range(n) for s in (0, 1) if forces(bits, n, i, s, 1)}
    negative = {(i, s) for i in range(n) for s in (0, 1) if forces(bits, n, i, s, 0)}
    return positive, negative


def is_canalizing(bits, n):
    positive, negative = forcing_pairs(bits, n)
    return bool(positive or negative)


def num_canalizing_vars(bits, n):
    if all(b == bits[0] for b in bits):
        return n
    positive, negative = forcing_pairs(bits, n)
    return len({i for i, _ in positive} | {i for i, _ in negative})


def signatures_on(bits, n, subset):
    """All value maps s on `subset` with: some x_i = s(i) forces output 1.

    Nonconstant functions positively canalizing on `subset` must have
    exactly one; used to check uniqueness and the intersection property.
    """
    found = []
    for choice in product((0, 1), repeat=len(subset)):
        s = dict(zip(subset, choice))
        if all(
            bits[e] == 1
            for e in range(1 << n)
            if any(((e >> i) & 1) == s[i] for i in subset)
        ):
            found.append(s)
    return found


def permute_variables(bits, n, perm):
    """Table of g(x) = f(y) with y[perm[j]] = x[j].

    If f canalizes on (i, s) then g canalizes on (perm^-1(i), s).
    """
    out = []
    for e in range(1 << n):
        y = 0
        for j in range(n):
            if (e >> j) & 1:
                y |= 1 << perm[j]
        out.append(bits[y])
    return out


def fill_order(n, subset):
    """The variables that read the fill's index bits 0..m-1, m = n - q.

    The generator starts from a list of positions holding the fill's index
    bits 0..m-1 and then the chosen variables, and for j = 0..q-1 swaps
    the entries at positions m + j and subset[j]; index bit k is then read
    by the variable at the position where k ended."""
    m = n - len(subset)
    at = list(range(n))
    for j, i in enumerate(subset):
        at[m + j], at[i] = at[i], at[m + j]
    return [at.index(k) for k in range(m)]


def deposit_walk(n, r, subset, s_bits, g):
    """The table of one generator attempt as a list of bits: walk the
    inputs, give each one where some variable in ``subset`` takes its
    forcing value (bit j of ``s_bits`` for the j-th variable) the output
    r, and each other input the bit of the fill ``g`` that its free
    variables index in ``fill_order``."""
    s = {i: (s_bits >> j) & 1 for j, i in enumerate(subset)}
    order = fill_order(n, subset)
    fill = bits_list(n - len(subset), g)
    return [
        r
        if any(((e >> i) & 1) == s[i] for i in subset)
        else fill[sum(((e >> i) & 1) << k for k, i in enumerate(order))]
        for e in range(1 << n)
    ]


def attempt_outcome(n, q, r, subset, s_bits, g):
    """(accepted, table) of one generator attempt: the ``deposit_walk``
    table, then a classification of the whole table. A constant is
    accepted only at q = n, in direction r, with all-zeros forcing values;
    any other table only if it canalizes in direction r alone and on
    exactly the variables of ``subset``."""
    bits = deposit_walk(n, r, subset, s_bits, g)
    if all(b == bits[0] for b in bits):
        return q == n and bits[0] == r and s_bits == 0, bits
    positive, negative = forcing_pairs(bits, n)
    same, other = (positive, negative) if r == 1 else (negative, positive)
    return not other and {i for i, _ in same} == set(subset), bits


def count_canalizing(n):
    """2((-1)^n - n) + sum over k=1..n of
    (-1)^(k+1) * C(n,k) * 2^(k+1) * 2^(2^(n-k))."""
    total = 2 * ((-1) ** n - n)
    for k in range(1, n + 1):
        term = comb(n, k) << (k + 1 + (1 << (n - k)))
        total += term if k % 2 == 1 else -term
    return total


def count_exact_k(n, k):
    """Four closed forms cover the cases, dispatched in the order
    (k=1,n=1), (k=n>1), (k=1<n), (1<k<n). The two constant functions are
    counted at k = n only."""
    if k == 1 and n == 1:
        return 4
    if k == n:
        return 2 + (1 << (n + 1))
    if k == 1:
        total = 2 * n * ((1 << (1 + (1 << (n - 1)))) - 3)
        for r in range(2, n + 1):
            term = r * comb(n, r) * ((1 << (1 << (n - r))) - 1) << (r + 1)
            total += term if r % 2 == 1 else -term
        return total
    total = 0
    for r in range(k, n + 1):
        term = comb(r, k) * comb(n, r) * ((1 << (1 << (n - r))) - 1) << (r + 1)
        total += term if (r - k) % 2 == 0 else -term
    return total


def resolve(scaled, node):
    """The category whose cut points N_j / D, given as ``(N, D)``, contain
    the dyadic interval [numer, numer + 1) / 2^bits of the trie node
    ``(1 << bits) | numer``, or -1 if a cut splits it. The cuts at or below
    the interval's low end are those N_j <= numer * D >> bits, and the
    interval fits under N_idx iff (numer + 1) * D <= N_idx << bits."""
    numerators, denom = scaled
    bits = node.bit_length() - 1
    lo = (node ^ (1 << bits)) * denom
    idx = bisect_right(numerators, lo >> bits)
    return idx if lo + denom <= numerators[idx] << bits else -1


def draw_index(scaled, rng):
    """Categorical draw against cut points N_j / D given as ``(N, D)``:
    extend a uniform bit expansion a byte at a time, one
    ``getrandbits(8)`` each, until its dyadic interval lies under a single
    cut, testing every interval with ``resolve``."""
    node = 1
    while True:
        idx = resolve(scaled, node)
        if idx >= 0:
            return idx
        node = (node << 8) | rng.getrandbits(8)


@lru_cache(maxsize=None)
def half_cube_masks(m):
    """The 2m half-cubes {x_j = t} of the m-cube as integer masks."""
    return tuple(
        sum(1 << e for e in range(1 << m) if ((e >> j) & 1) == t) for j in range(m) for t in (0, 1)
    )


def accepts_by_masks(g, r, m, q, s_bits):
    """The sampler's accept test of a fill ``g`` on m free variables, one
    full-width mask test per half-cube: h (g, complemented for r = 0) all
    ones is the constant, kept only at m = 0 with all-zeros forcing
    values; h all zeros is rejected at q = 1 only; otherwise no half-cube
    of h may be all ones."""
    full = (1 << (1 << m)) - 1
    h = g if r == 1 else g ^ full
    if h == full:
        return m == 0 and s_bits == 0
    if h == 0:
        return q != 1
    return not any(h & mask == mask for mask in half_cube_masks(m))
