"""Random canalizing functions with an exactly correct conditional law.

A draw proceeds in the class decomposition's order: pick the category
(both-ways, or one direction with an exact variable count q) and its
direction with their exact rational probability, then draw inside the
category a route: the canalizing variable set, its forcing values, and
the fill of the remaining 2^m entries, m = n - q. A route gives one table,
and it is accepted iff that table lands in the chosen class.

A category with m >= 4 free variables rejection-samples its routes: draw
the variable set and forcing values uniformly, fill the free entries
independently with bias p, and start the attempt over if the route is
rejected. Redrawing the variable set and forcing values together with
the fill makes every attempt an independent sample of the whole category,
so acceptance renormalizes all members by one common factor and the
conditional law is exact. (Refilling only the free entries under a pinned
signature would renormalize each signature's route separately; the
exactly-n classes are then skewed, because the constant function shares
routes with nonconstant members.)

A category with m <= 3 free variables draws an accepted route directly
from the same conditional law, with no rejected attempt. The accepted
fills of the m-cube, at most 2^8 candidates, are enumerated once with the
accept test and grouped by weight; a route's bias-p weight depends only on
its fill's weight, so the category draws a group with the exact integer
weights (number of routes) * p_r^w * (1 - p_r)^(2^m - w), then one route
of the group uniformly: one uniform integer split into the variable-set
rank, the fill and the forcing values.

At n <= DIRECT_MAX_M + 1 = 4 every category is direct, and each category
(q, r) keeps a route table: the outcome of every route (table, variable
set, forcing values) in route order, built on the category's first draw
by the same unranking that draws at n >= 5 run per draw. A draw then
indexes the table with its group and route, and copies only the forcing
values into its record. The tables do not depend on p, so one module-level
cache serves every bias; they hold count_canalizing(n) - 2n routes in all,
3506 at n = 4 (about 1.3 MB), and are never written once built, so threads
share them safely. The 2n both-ways tables are cached the same way at
every n.

Constants need one more care point: the constant function belongs to the
exactly-n classes but would be reachable through every choice of forcing
values, overweighting it by 2^n. A constant result is therefore accepted
only when the drawn forcing values are the canonical all-zeros map, which
restores the one-accepting-route-per-function property.

No floating point is involved anywhere: category draws compare a lazily
extended uniform bit expansion against cumulative cut points, precomputed
once per (n, p). The cut points are the class numerators themselves, the
integers over b^(2^n) that ``probability`` sums for p = a/b: the running
sums of the 2n + 1 classes (both-ways, then positive and negative for
q = 1..n) over the numerator of Pr[C], so one draw picks the category and
its direction. A biased fill compares a uniform bit expansion per coin
with the binary expansion of p, for all of its coins at once (see
``_fill``).

The bit expansion grows a byte at a time and walks a trie whose nodes are
the byte-aligned dyadic intervals. Each cut set, a ``_Cuts``, owns its
trie: the first draw that reaches a node stores the categories of the
node's 256 children as one tuple, -1 for a child that a cut splits,
computed from the cuts inside the node alone. Once a path has been
walked, a draw along it costs one ``getrandbits(8)`` and one tuple index
per byte and no arithmetic on the cut points, which reach 85 kbit at
n = 16, p = 1/3. The tables consume no random bits and change no draw.
Their entries are deterministic, so threads that share one
``CategoryWeights`` at worst store the same table twice.

An attempt works on its fill alone. The fill is the table g of the free
inputs, the m = n - q variables outside the chosen set, each reading one
bit of g's index in a fixed order per variable set (see ``_deposit``).
It is drawn in rounds of one ``getrandbits(2^m)`` call each, every round
deciding the coins whose expansion first differs from p's at that digit;
p = 1/2 takes one round, other biases about m + 2. With the forced
outputs r, the table lands in its class iff no free variable canalizes
in direction r, that is, no half-cube of g is r everywhere; two edge
cases (the constants, and the lone variable at q = 1 canalizing both
ways) are decided when g is r everywhere or nowhere. Only the accepted
attempt becomes a table: g fills the block of the n-table where the
chosen variables, parked at the top positions, take their non-forcing
values, and one delta swap per chosen variable moves it to its own
position. The coins are independent and the accept test and the weight
groups do not change when the free variables are permuted, so the order
they read g's index in leaves the law exact.

Every random bit comes from ``rng.getrandbits``; with ``random.Random``
(the Mersenne Twister, Python's default) a fixed seed therefore
reproduces the exact output sequence across runs and Python releases,
which tests/test_generator.py locks with golden digests. Any other source
of uniform ``getrandbits`` bits keeps the law exact. ``STREAM_VERSION``
names the seed -> output mapping; it changes only with a deliberate break
of the stream. The per-draw consumption order is: the category bytes,
which pick the direction too, then either the both-ways variable and its
forcing value, or
- for m <= 3, the weight group's bytes (none for a category with one
  group) and one uniform integer below
  C(n, q) * (fills in the group) * 2^(free forcing bits), whose remainders
  by C(n, q) and by the group size are the variable-set rank and the fill,
  and whose quotient is the forcing values;
- for m >= 4, per attempt the variable-set rank, forcing values, and fill
  rounds.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, combinations

from .limits import DEFAULT_GEN_MAX_N, check_n, is_integer
from .probability import _BiasPowers, _class_numerators, validate_bias
# classify is not called here: perfbench's traced run wraps
# canalis.generator.classify by name and reads its call count, which stays
# importable until that run reads counters instead
from .truth_table import TruthTable, classify, variable_mask  # noqa: F401

__all__ = [
    "STREAM_VERSION",
    "RejectionLimitExceeded",
    "GeneratorConfig",
    "CategoryWeights",
    "DrawRecord",
    "category_weights",
    "sample_category",
    "generate",
    "CanalizingGenerator",
]


# version 5 draws the category and its direction in one walk, a byte at a
# time; version 4 deposits a fill by one delta swap per chosen variable,
# which reorders the free variables; version 3 draws each fill in rounds of one
# getrandbits(2^m) call; version 2 draws the categories with at most
# DIRECT_MAX_M free variables directly; version 1 rejection-sampled every
# category
STREAM_VERSION = 5
DIRECT_MAX_M = 3


class RejectionLimitExceeded(RuntimeError):
    """Raised when one draw rejects ``max_rejections`` fills in a row."""

    def __init__(self, q: int, r: int | None, rejections: int):
        super().__init__(
            f"gave up after {rejections} rejected fills in category "
            f"(q={q}, direction={'positive' if r == 1 else 'negative'})"
        )
        self.q = q
        self.r = r
        self.rejections = rejections


@dataclass(frozen=True)
class GeneratorConfig:
    n: int
    p: Fraction
    seed: int = 0
    max_rejections: int = 10000

    def __post_init__(self):
        check_n(self.n, DEFAULT_GEN_MAX_N)
        object.__setattr__(self, "p", validate_bias(self.p, strict=True))
        if not is_integer(self.seed) or not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if not is_integer(self.max_rejections) or self.max_rejections < 1:
            raise ValueError(f"max_rejections must be an integer >= 1, got {self.max_rejections!r}")


@dataclass(frozen=True)
class _Cuts:
    """Exact categorical draw against cut points N_j / D: ascending
    integer ``numerators``, the last equal to ``denom``.

    ``draw`` extends a uniform bit expansion numer / 2^bits a byte at a
    time until the dyadic interval it pins down lies inside a single
    category; empty categories (repeated cuts) are never selected, and a
    cut set whose mass lies in one category, ``only``, draws it with no
    bits. Expected bit usage is O(1 + entropy of the law).

    The interval of a byte-aligned expansion is the trie node
    ``(1 << bits) | numer``, and ``tables`` maps each node reached to the
    categories of its 256 children, -1 for a child that a cut splits.
    """

    numerators: tuple[int, ...]
    denom: int
    only: int = field(init=False, compare=False, repr=False)
    tables: dict[int, tuple[int, ...]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )

    def __post_init__(self):
        # the mass lies in one category iff the cuts below the first at D are 0
        idx = bisect_left(self.numerators, self.denom)
        object.__setattr__(self, "only", -1 if idx and self.numerators[idx - 1] else idx)

    def draw(self, rng) -> int:
        if self.only >= 0:
            return self.only
        tables = self.tables
        node = 1
        while True:
            table = tables.get(node) or self._expand(node)
            v = rng.getrandbits(8)
            idx = table[v]
            if idx >= 0:
                return idx
            node = (node << 8) | v

    def _expand(self, node: int) -> tuple[int, ...]:
        """The table of trie node ``node``, whose dyadic interval
        [numer, numer + 1) / 2^bits has the children
        [256 numer + v, 256 numer + v + 1) / 2^k, v = 0..255, k = bits + 8.

        Only the cuts strictly inside the interval are visited, those with
        numer * D < N_j 2^bits < (numer + 1) * D. Cut N_j lies in child
        v = w - 256 numer, rem / D of the way in, for
        (w, rem) = divmod(N_j 2^k, D). The children below v lie under N_j,
        child v is split unless rem is 0 (a cut on a child's edge splits
        nothing), and the children above the last of them lie under the
        first cut at or past the interval's high end.

        Each full division takes time linear in the length of D: at
        n = 16, p = 1/1000 they cost about 5 ms per table. With x and d
        the cut and D less their low s bits, N_j 2^k / D lies strictly
        between x 2^k / (d + 1) and (x + 1) 2^k / d, and strictly between
        256 numer and 256 numer + 256. Its floor w therefore lies between
        the floor of the larger lower bound and that of the smaller upper
        bound; where the two agree, that is w, and rem is not 0. Keeping 64
        bits of D more than k, they differ only for a cut within about
        2^-62 of an edge between two children, or where D is short enough
        for the division to be cheap. The node's own edges count too: at
        n = 16, p = 1/3, 30 of the 33 category cuts lie that close to 1."""
        numerators, denom = self.numerators, self.denom
        bits = node.bit_length() - 1
        numer = node ^ (1 << bits)
        lo, first, shift = numer * denom, numer << 8, bits + 8
        s = max(denom.bit_length() - shift - 64, 0)
        d = denom >> s
        inside = range(
            bisect_right(numerators, lo >> bits), bisect_left(numerators, -(-(lo + denom) >> bits))
        )
        entries: list[int] = []
        for idx in inside:
            cut = numerators[idx]
            x = cut >> s
            w, rem = max((x << shift) // (d + 1), first), 1
            if w != min(((x + 1) << shift) // d, first + 255):
                w, rem = divmod(cut << shift, denom)
            v = w - first
            entries += [idx] * (v - len(entries))
            if rem and len(entries) == v:
                entries.append(-1)
        entries += [inside.stop] * (256 - len(entries))
        table = self.tables[node] = tuple(entries)
        return table


@dataclass(frozen=True)
class CategoryWeights:
    """The cut set of the category draw for one (n, p), as integer
    numerators over the numerator of Pr[C]: ``cuts`` holds the running
    sums of the 2n + 1 cells both-ways, then positive and negative for
    each q = 1..n. ``direct[q, r]`` holds the route groups and weight cuts
    of a category with at most ``DIRECT_MAX_M`` free variables, built on
    its first draw (see ``_direct_table``)."""

    n: int
    p: Fraction
    cuts: _Cuts = field(repr=False)
    direct: dict[tuple[int, int], tuple[tuple, _Cuts]] = field(
        default_factory=dict, init=False, compare=False, repr=False
    )


def category_weights(n: int, p) -> CategoryWeights:
    """The cut points, straight from the class numerators over b^(2^n):
    the cells' running sums over the numerator of Pr[C]."""
    check_n(n, DEFAULT_GEN_MAX_N)
    p = validate_bias(p, strict=True)
    c, bc, pce, nce = _class_numerators(n, p)
    cells = [bc]
    for k in range(1, n + 1):
        cells += (pce[k], nce[k])
    # the partition check makes the last running sum c
    return CategoryWeights(n=n, p=p, cuts=_Cuts(tuple(accumulate(cells)), c))


@dataclass(slots=True)
class DrawRecord:
    """How one table was produced: category q (0 = both-ways), direction r
    (1 positive, 0 negative, None in the both-ways branch), the chosen
    variable subset, the forcing input values, and the rejected-fill count.
    In the both-ways branch ``values`` maps the variable to the input value
    that forces output 1."""

    q: int
    r: int | None
    subset: tuple[int, ...]
    values: dict[int, int]
    rejections: int


def _uniform_below(rng, m: int) -> int:
    """Exact uniform integer in [0, m) from raw bits (rejection on the top
    range); consumes no bits when m == 1."""
    if m == 1:
        return 0
    k = (m - 1).bit_length()
    while True:
        v = rng.getrandbits(k)
        if v < m:
            return v


@lru_cache(maxsize=128)
def _subsets(n: int, q: int) -> tuple[tuple[int, ...], ...]:
    """The q-subsets of range(n), indexed by their lexicographic rank."""
    return tuple(combinations(range(n), q))


def sample_category(weights: CategoryWeights, rng) -> tuple[int, int | None]:
    """Draw (q, r): q = 0 for the both-ways category, else the exact
    variable count and the direction r, in one draw of the cells."""
    cell = weights.cuts.draw(rng)
    # cells 2q - 1 and 2q are category q's positive and negative direction
    return ((cell + 1) >> 1, cell & 1) if cell else (0, None)


def _fill(rng, numer: int, denom: int, size: int) -> int:
    """``size`` independent coins of bias p = numer / denom, coin x as
    bit x of the result.

    Coin x is 1 iff a uniform U_x in [0, 1) lies below p. Every coin still
    undecided compares its U_x with p one binary digit at a time: p's next
    digit comes from doubling the remainder, and one round draws the next
    digit of every U_x at once as the bits of ``getrandbits(size)``. Where
    p's digit is 1 and U_x's is 0, U_x < p and the coin is 1; where p's
    digit is 0 and U_x's is 1, U_x > p and the coin is 0; elsewhere the
    coin stays undecided. The rounds stop when no coin is undecided, or
    when the remainder is 0: p's expansion has ended, so an undecided U_x
    is at least p and its coin is 0. Each round decides about half of the
    undecided coins, so a fill takes about log2(size) + 2 rounds, and one
    round at p = 1/2.
    """
    coins, undecided = 0, (1 << size) - 1
    while undecided and numer:
        numer <<= 1
        u = rng.getrandbits(size)
        ones = undecided & u
        if numer >= denom:
            numer -= denom
            coins |= undecided ^ ones
            undecided = ones
        else:
            undecided ^= ones
    return coins


def _accepts(g: int, r: int, m: int, q: int, s_bits: int) -> bool:
    """Accept test of an attempt from its fill ``g`` on the m = n - q
    free variables alone, in direction r.

    With h the fill complemented when the direction is negative, a 1 in h
    is an output equal to the forced one. The attempt lands in its class
    iff the forced variables are the only canalizing ones and all in the
    drawn direction: no free variable may have a half-cube of h that is
    all ones, and at q = 1 the free side may not be all the other value
    (that makes the lone variable canalize both ways). If h is all ones
    the table is constant, which is kept on the one route of q = n with
    the all-zeros forcing values.

    The half-cubes are tested by folding: the top variable's halves are
    the low and high halves of h, and a half-cube of a lower variable is
    all ones in h iff it is all ones in the AND of those two halves, so
    the test goes on in that table of one variable fewer. That is O(2^m)
    bit work in all, against 2m tests of full-width masks.
    """
    full = (1 << (1 << m)) - 1
    h = g if r == 1 else g ^ full
    if h == full:
        return m == 0 and s_bits == 0
    if h == 0:
        return q != 1
    # h is neither all ones nor all zeros, so m >= 1; once the AND of the
    # halves is empty, no half-cube below can be all ones
    while h:
        m -= 1
        width = 1 << m
        ones = (1 << width) - 1
        lo, hi = h & ones, h >> width
        if lo == ones or hi == ones:
            return False
        h = lo & hi
    return True


@lru_cache(maxsize=None)
def _swap_mask(n: int, a: int, v: int) -> int:
    """The entries of an n-variable table with x_a = 1 and x_v = 0."""
    return variable_mask(n, a, 1) & variable_mask(n, v, 0)


def _deposit(g: int, n: int, subset: tuple[int, ...], s_bits: int, r: int) -> int:
    """The n-variable table of an attempt: the fill ``g`` on the free
    inputs, and the drawn direction r wherever a variable in ``subset``
    takes its forcing value (bit j of ``s_bits`` for the j-th variable).

    The table is first laid out with the j-th chosen variable at position
    m + j, m = n - q: ``g`` fills the one block of 2^m entries where every
    chosen variable takes its non-forcing value, and every other block is
    r. Then, for j = 0..q-1 in ascending order, one delta swap exchanges
    the variables at positions m + j and a_j = subset[j]: the entries with
    x_{a_j} = 1 and x_{m+j} = 0 trade places with those d = 2^(m+j) - 2^a_j
    above them. As a_j <= m + j, no swap moves a chosen variable already
    placed, nor one still waiting at its position m + j'. So bit x of
    ``g`` is the output on the free input whose free variables, in the
    order the swaps leave them, spell x: a fixed permutation of the free
    variables for each subset.
    """
    q = len(subset)
    m = n - q
    off = (((1 << q) - 1) ^ s_bits) << m
    if r == 1:
        x = ((g ^ ((1 << (1 << m)) - 1)) << off) ^ ((1 << (1 << n)) - 1)
    else:
        x = g << off
    for v, a in enumerate(subset, m):
        if a != v:
            d = (1 << v) - (1 << a)
            t = ((x >> d) ^ x) & _swap_mask(n, a, v)
            x ^= t ^ (t << d)
    return x


def _unrank(
    n: int, r: int, subsets: tuple, fills: tuple[int, ...], route: int
) -> tuple[TruthTable, tuple[int, ...], dict[int, int]]:
    """The outcome ``(table, subset, values)`` of route ``route`` of a
    direct weight group with the fills ``fills``: its remainders by
    C(n, q) and by the group size are the variable-set rank and the fill,
    its quotient the forcing values."""
    route, rank = divmod(route, len(subsets))
    s_bits, at = divmod(route, len(fills))
    subset = subsets[rank]
    table = TruthTable(n, _deposit(fills[at], n, subset, s_bits, r))
    # a loop, not a comprehension: before Python 3.12 (PEP 709) each
    # comprehension is a function call, paid once per draw at n >= 5
    values = {}
    for i in subset:
        values[i] = s_bits & 1
        s_bits >>= 1
    return table, subset, values


@lru_cache(maxsize=None)
def _accepted_fills(m: int, lone: bool) -> tuple[tuple[int, bool, tuple[int, ...]], ...]:
    """The fills h of the m-cube that the accept test takes in direction
    r = 1, with q = 1 when ``lone`` and q > 1 otherwise, as groups
    ``(w, pinned, fills)`` of one weight w. A pinned fill (the constant)
    is accepted only with the all-zeros forcing values, any other fill
    with every forcing value. The accept test sees r only through h, so
    direction 0 accepts the same h as the complemented fills."""
    q = 1 if lone else 2
    groups: dict[tuple[int, bool], list[int]] = {}
    for h in range(1 << (1 << m)):
        if _accepts(h, 1, m, q, 0):
            pinned = not _accepts(h, 1, m, q, 1)
            groups.setdefault((h.bit_count(), pinned), []).append(h)
    return tuple((w, pinned, tuple(fills)) for (w, pinned), fills in sorted(groups.items()))


def _route_groups(m: int, q: int, r: int) -> list[tuple[int, int, tuple[int, ...]]]:
    """The accepted weight groups of category (q, r) with m free
    variables in draw order, as ``(w, free, fills)``: the weight w in
    r-space, the number of free forcing bits of each route (q, or 0 for
    the constant), and the fills as tables g."""
    flip = 0 if r == 1 else (1 << (1 << m)) - 1
    return [
        (w, 0 if pinned else q, tuple(h ^ flip for h in fills))
        for w, pinned, fills in _accepted_fills(m, q == 1)
    ]


def _direct_table(weights: CategoryWeights, q: int, r: int) -> tuple[tuple, _Cuts]:
    """The direct draw of category (q, r) with m = n - q <= DIRECT_MAX_M
    free variables, stored on ``weights``: ``(groups, cuts)``.

    ``groups[j]`` is ``(free, fills)`` of the j-th group of
    ``_route_groups``. A group of weight w in r-space holds
    len(fills) * 2^free routes per variable set, each of bias-p weight
    p_r^w * (1 - p_r)^(2^m - w); the cut points ``cuts`` are the running
    sums of those counts times that weight's integer numerator over
    b^(2^m), for p_r = a_r / b."""
    m = weights.n - q
    size = 1 << m
    powers = _BiasPowers(m, weights.p if r == 1 else 1 - weights.p)
    groups, cuts, total = [], [], 0
    for w, free, fills in _route_groups(m, q, r):
        total += (len(fills) << free) * powers.term(w, size - w)
        cuts.append(total)
        groups.append((free, fills))
    table = weights.direct[q, r] = (tuple(groups), _Cuts(tuple(cuts), total))
    return table


@lru_cache(maxsize=None)
def _route_outcomes(n: int, q: int, r: int) -> tuple[tuple[tuple, ...], ...]:
    """The outcomes of the direct category (q, r) at n <= DIRECT_MAX_M + 1:
    ``outcomes[j][route]`` is ``_unrank``'s ``(table, subset, values)``
    for every route of the j-th weight group, in route order. They do not
    depend on p, so every bias and thread shares one copy; a draw hands
    out a copy of ``values``, the rest is immutable."""
    subsets = _subsets(n, q)
    return tuple(
        tuple(
            _unrank(n, r, subsets, fills, route)
            for route in range(len(subsets) * len(fills) << free)
        )
        for _, free, fills in _route_groups(n - q, q, r)
    )


@lru_cache(maxsize=None)
def _both_ways_tables(n: int) -> tuple[tuple[TruthTable, TruthTable], ...]:
    """The 2n both-ways tables, ``tables[i][s]`` the one whose output is 1
    exactly where x_i = s."""
    return tuple(tuple(TruthTable(n, variable_mask(n, i, s)) for s in (0, 1)) for i in range(n))


def generate(
    config: GeneratorConfig, rng, weights: CategoryWeights | None = None
) -> tuple[TruthTable, DrawRecord]:
    """One draw from the bias-p law conditioned on the canalizing class.

    ``rng`` is any object with ``getrandbits``; pass ``weights`` to reuse
    the category weights of the same (n, p) across draws. Raises
    ValueError for weights of another (n, p), and RejectionLimitExceeded
    after ``config.max_rejections`` consecutive rejected fills, which only
    a category with more than ``DIRECT_MAX_M`` free variables can reach.
    """
    n = config.n
    if weights is None:
        weights = category_weights(n, config.p)
    # tuples compare identical items by identity, and the config and the
    # weights usually hold the same bias object, so a draw pays no
    # Fraction comparison for this check
    elif (weights.n, weights.p) != (n, config.p):
        raise ValueError(
            f"weights are for n={weights.n}, p={weights.p}, not n={n}, p={config.p}"
        )
    q, r = sample_category(weights, rng)

    if q == 0:
        i = _uniform_below(rng, n)
        s = rng.getrandbits(1)
        return _both_ways_tables(n)[i][s], DrawRecord(0, None, (i,), {i: s}, 0)

    m = n - q
    subsets = _subsets(n, q)
    if m <= DIRECT_MAX_M:
        groups, cuts = weights.direct.get((q, r)) or _direct_table(weights, q, r)
        group = cuts.draw(rng)
        free, fills = groups[group]
        route = _uniform_below(rng, len(subsets) * len(fills) << free)
        if n <= DIRECT_MAX_M + 1:
            table, subset, values = _route_outcomes(n, q, r)[group][route]
            return table, DrawRecord(q, r, subset, values.copy(), 0)
        table, subset, values = _unrank(n, r, subsets, fills, route)
        return table, DrawRecord(q, r, subset, values, 0)

    numer, denom = config.p.numerator, config.p.denominator
    rejections = 0
    while True:
        # a fresh (subset, values, fill) triple every attempt: rejection
        # then renormalizes over the whole category at once, which is
        # what makes the conditional law exact (per-route refilling
        # would skew the exactly-n classes, where the constant breaks
        # route symmetry)
        subset = subsets[_uniform_below(rng, len(subsets))]
        s_bits = rng.getrandbits(q)
        g = _fill(rng, numer, denom, 1 << m)
        if _accepts(g, r, m, q, s_bits):
            break
        rejections += 1
        if rejections >= config.max_rejections:
            raise RejectionLimitExceeded(q, r, rejections)
    table = TruthTable(n, _deposit(g, n, subset, s_bits, r))
    # the same loop as in _unrank, inline: a call would add per-draw work
    values = {}
    for i in subset:
        values[i] = s_bits & 1
        s_bits >>= 1
    return table, DrawRecord(q, r, subset, values, rejections)


class CanalizingGenerator:
    """Stateful wrapper owning the seeded stream and cached weights.

    Instances are single-threaded; run several with independent seeds for
    parallel sampling.
    """

    def __init__(self, config: GeneratorConfig):
        self.config = config
        self.weights = category_weights(config.n, config.p)
        self.rng = random.Random(config.seed)

    def draw(self) -> tuple[TruthTable, DrawRecord]:
        return generate(self.config, self.rng, self.weights)

    def draws(self, count: int) -> Iterator[tuple[TruthTable, DrawRecord]]:
        """The next ``count`` draws, each made when it is asked for."""
        for _ in range(count):
            yield self.draw()
