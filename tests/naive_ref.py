"""Deliberately naive reference semantics for cross-checking.

Everything here works on plain lists with explicit quantifier loops and no
bit masks, so a shared bug with the packed implementations is unlikely.
Forcing values follow the same orientation as the library: a pair (i, s)
in a direction means fixing variable i to input value s pins the output.
Constant functions count as canalizing on all n variables, one direction.
"""

from itertools import product


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


def attempt_outcome(n, q, r, subset, s_bits, g):
    """(accepted, table) of one generator attempt, by the generator's
    former rule: walk the inputs in ascending order, give each one where
    some variable in ``subset`` takes its forcing value (bit j of
    ``s_bits`` for the j-th variable) the output r and each other input
    the next bit of the fill ``g``, then classify the whole table. A
    constant is accepted only at q = n, in direction r, with all-zeros
    forcing values; any other table only if it canalizes in direction r
    alone and on exactly the variables of ``subset``."""
    s = {i: (s_bits >> j) & 1 for j, i in enumerate(subset)}
    fill = iter(bits_list(n - q, g))
    bits = [
        r if any(((e >> i) & 1) == s[i] for i in subset) else next(fill)
        for e in range(1 << n)
    ]
    if all(b == bits[0] for b in bits):
        return q == n and bits[0] == r and s_bits == 0, bits
    positive, negative = forcing_pairs(bits, n)
    same, other = (positive, negative) if r == 1 else (negative, positive)
    return not other and {i for i, _ in same} == set(subset), bits
