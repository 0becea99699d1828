"""Random canalizing functions with an exactly correct conditional law.

A draw proceeds in the class decomposition's order: pick the category
(both-ways, or one direction with an exact variable count q) with its
exact rational probability, pick the direction, then rejection-sample
inside the category: draw the canalizing variable set and its forcing
values uniformly, force the corresponding half tables, fill the remaining
2^(n-q) entries independently with bias p, and start the attempt over if
the result lands outside the chosen class. Redrawing the variable set and
forcing values together with the fill makes every attempt an independent
sample of the whole category, so acceptance renormalizes all members by
one common factor and the conditional law is exact. (Refilling only the
free entries under a pinned signature would renormalize each signature's
route separately; the exactly-n classes are then skewed, because the
constant function shares routes with nonconstant members.)

Constants need one more care point: the constant function belongs to the
exactly-n classes but would be reachable through every choice of forcing
values, overweighting it by 2^n. A constant result is therefore accepted
only when the drawn forcing values are the canonical all-zeros map, which
restores the one-accepting-route-per-function property.

No floating point is involved anywhere: category draws compare a lazily
extended uniform bit expansion against cumulative cut points held as
integer numerators over one common denominator, precomputed once per
(n, p), and each biased fill bit is an exact integer comparison of a
``width``-bit value against the bias numerator, with rejection of values
at or above its denominator.

An attempt works on its fill alone. The fill is the table g of the free
inputs (the m = n - q variables outside the chosen set, in ascending
order), with its coins in ascending input order. Its values are drawn in
batches: one ``getrandbits`` call of a multiple of 32 bits gives the
32-bit words that the missing values would take from one
``getrandbits(width)`` call each, and a call is repeated only for the
values rejected. With the forced outputs r, the table lands in its class
iff no free variable canalizes in direction r, that is, no half-cube of
g is r everywhere; two edge cases (the constants, and the lone variable
at q = 1 canalizing both ways) are decided when g is r everywhere or
nowhere. Only the accepted attempt becomes a table, by inserting the
chosen variables into the index of g with mask shifts.

Every random bit comes from ``rng.getrandbits``; with ``random.Random``
(the Mersenne Twister, Python's default) a fixed seed therefore
reproduces the exact output sequence across runs and Python releases,
which tests/test_generator.py locks with golden digests. Any other source
of uniform ``getrandbits`` words keeps the law exact. The per-draw
consumption order is: category bits, direction bits, then per attempt
the variable-set rank, forcing values, and fill words.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb, lcm

from .limits import DEFAULT_GEN_MAX_N, check_n
from .probability import prob_breakdown, validate_bias
# classify is not called here: perfbench's traced run wraps
# canalis.generator.classify by name and reads its call count, which stays
# importable until that run reads counters instead
from .truth_table import TruthTable, classify, variable_mask  # noqa: F401

__all__ = [
    "RejectionLimitExceeded",
    "GeneratorConfig",
    "CategoryWeights",
    "DrawRecord",
    "category_weights",
    "sample_index",
    "sample_category",
    "generate",
    "CanalizingGenerator",
]


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
        if not isinstance(self.seed, int) or not 0 <= self.seed < (1 << 64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if self.max_rejections < 1:
            raise ValueError(f"max_rejections must be >= 1, got {self.max_rejections}")


@dataclass(frozen=True)
class CategoryWeights:
    """Class weights for one (n, p) plus the precomputed cut points used
    for sampling, as integer numerators over one common denominator:
    ``q_scaled`` for the categories q = 0..n (``q_cuts`` shows them as
    fractions) and ``share_scaled[k]`` for the positive direction's share
    inside category k."""

    n: int
    p: Fraction
    w_bc: Fraction
    w_pce: dict[int, Fraction]
    w_nce: dict[int, Fraction]
    total: Fraction
    q_scaled: tuple[tuple[int, ...], int] = field(repr=False)
    share_scaled: dict[int, tuple[tuple[int, ...], int]] = field(repr=False)

    @property
    def q_cuts(self) -> tuple[Fraction, ...]:
        """``q_cuts[j]`` is the cumulative share of categories q <= j of
        the total."""
        numerators, denom = self.q_scaled
        return tuple(Fraction(a, denom) for a in numerators)


def _scaled(cuts) -> tuple[tuple[int, ...], int]:
    """Ascending cumulative cuts (the last equal to 1) as integer
    numerators over their least common denominator."""
    denom = lcm(*(c.denominator for c in cuts))
    numerators = tuple(c.numerator * (denom // c.denominator) for c in cuts)
    if numerators[-1] != denom:
        raise ArithmeticError("the last cumulative cut is not 1")
    return numerators, denom


def category_weights(n: int, p) -> CategoryWeights:
    """Assemble the category weights from the exact class probabilities."""
    breakdown = prob_breakdown(n, validate_bias(p, strict=True))
    w_bc = breakdown.pr_bc
    w_pce = dict(breakdown.pr_pce)
    w_nce = dict(breakdown.pr_nce)
    total = breakdown.pr_c

    cuts = []
    acc = w_bc / total
    cuts.append(acc)
    shares = {}
    for k in range(1, n + 1):
        both = w_pce[k] + w_nce[k]
        acc += both / total
        cuts.append(acc)
        shares[k] = w_pce[k] / both if both else Fraction(0)
    return CategoryWeights(
        n=n,
        p=breakdown.p,
        w_bc=w_bc,
        w_pce=w_pce,
        w_nce=w_nce,
        total=total,
        q_scaled=_scaled(cuts),
        share_scaled={k: _scaled((share, 1)) for k, share in shares.items()},
    )


@dataclass
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


def _draw_index(scaled: tuple[tuple[int, ...], int], rng) -> int:
    """Exact categorical draw against cut points N_j / D given as
    ``(N, D)``: ascending integer numerators, the last equal to D.

    Extends a uniform bit expansion numer / 2^bits until the dyadic
    interval it pins down lies inside a single category; empty categories
    (repeated cuts) are never selected. Both tests are integer: the cuts
    at or below the interval's low end are those N_j <= numer * D >> bits,
    and the interval fits under N_idx iff (numer + 1) * D <= N_idx << bits.
    Expected bit usage is O(1 + entropy of the law).
    """
    numerators, denom = scaled
    numer, bits = 0, 0
    while True:
        lo = numer * denom
        idx = bisect_right(numerators, lo >> bits)
        if lo + denom <= numerators[idx] << bits:
            return idx
        numer = (numer << 1) | rng.getrandbits(1)
        bits += 1


def sample_index(cuts, rng) -> int:
    """Exact categorical draw against ascending cumulative ``cuts``
    (rationals; the last cut must equal 1). Consumes the same bits as a
    draw against the precomputed cuts of ``CategoryWeights``."""
    return _draw_index(_scaled(cuts), rng)


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


def _subset_unrank(rank: int, n: int, k: int) -> tuple[int, ...]:
    """The ``rank``-th k-subset of range(n) in lexicographic order."""
    out = []
    v = 0
    while k:
        c = comb(n - v - 1, k - 1)
        if rank < c:
            out.append(v)
            k -= 1
        else:
            rank -= c
        v += 1
    return tuple(out)


def sample_category(weights: CategoryWeights, rng) -> tuple[int, int | None]:
    """Draw (q, r): q = 0 for the both-ways category, else the exact
    variable count, with r the direction drawn inside category q."""
    q = _draw_index(weights.q_scaled, rng)
    if q == 0:
        return 0, None
    r = 1 if _draw_index(weights.share_scaled[q], rng) == 0 else 0
    return q, r


@lru_cache(maxsize=128)
def _byte_coins(numer: int, denom: int) -> tuple[bytes, bytes]:
    """``bytes.translate`` arguments that turn the top bytes of 32-bit
    words into coins of bias numer / denom, for a denominator of at most
    2^8: the word's value v is its top ``width`` bits, the byte maps to
    b"1" if v < numer and to b"0" if v < denom, and is deleted otherwise."""
    drop = 8 - (denom - 1).bit_length()
    table = bytes(48 + ((b >> drop) < numer) for b in range(256))
    rejected = bytes(b for b in range(256) if (b >> drop) >= denom)
    return table, rejected


def _fill(rng, numer: int, denom: int, count: int) -> bytes:
    """``count`` exact coins of bias numer / denom as the characters
    b"0" / b"1", in draw order.

    Each coin is one value v of ``width`` = bit length of denom - 1 bits,
    rejected when v >= denom, exactly as ``getrandbits(width)`` would give
    it: CPython's Mersenne Twister builds ``getrandbits(k)`` from
    ceil(k / 32) 32-bit words, least significant first, keeping the top
    bits of the last word, and ``getrandbits(32 * N)`` returns N words
    packed the same way. So the words of all the values still missing are
    drawn in one call and the accepted coins kept; a value gives at most
    one coin, so no word is drawn past the last coin and the stream is the
    one a call per value consumes.
    """
    width = (denom - 1).bit_length()
    span = -(-width // 32)  # words per value
    chunks = []
    while count:
        data = rng.getrandbits(32 * span * count).to_bytes(4 * span * count, "little")
        if width <= 8:
            chunk = data[3::4].translate(*_byte_coins(numer, denom))
        else:
            chunk = bytes([48 + (v < numer) for v in _word_values(data, width, span) if v < denom])
        chunks.append(chunk)
        count -= len(chunk)
    return b"".join(chunks)


def _word_values(data: bytes, width: int, span: int) -> list[int]:
    """The ``width``-bit values of little-endian words, ``span`` words
    per value, as ``getrandbits(width)`` builds each from its words."""
    drop = 32 * span - width
    low = 32 * (span - 1)
    keep = (1 << low) - 1
    step = 4 * span
    words = (int.from_bytes(data[at : at + step], "little") for at in range(0, len(data), step))
    return [(v & keep) | (v >> (low + drop)) << low for v in words]


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
    """
    full = (1 << (1 << m)) - 1
    h = g if r == 1 else g ^ full
    if h == full:
        return m == 0 and s_bits == 0
    if h == 0:
        return q != 1
    return not any(h & (mask := variable_mask(m, j, t)) == mask for j in range(m) for t in (0, 1))


def _deposit(g: int, n: int, subset: tuple[int, ...], s_bits: int, r: int) -> int:
    """The n-variable table of an attempt: the fill ``g`` on the free
    inputs, and the drawn direction r wherever a variable in ``subset``
    takes its forcing value (bit j of ``s_bits`` for the j-th variable).

    Each chosen variable i, in ascending order, is inserted into the
    index of ``g`` as a new bit i: the index bits k-1 .. i move up by one,
    top first (each step moves the entries whose bit b is set up by 2^b),
    and the whole table moves up by 2^i when the free side is x_i = 1.
    """
    x, k = g, n - len(subset)
    forced = 0
    for j, i in enumerate(subset):
        for b in range(k - 1, i - 1, -1):
            x = (x & variable_mask(k + 1, b, 0)) | (x & variable_mask(k + 1, b, 1)) << (1 << b)
        s = (s_bits >> j) & 1
        if not s:
            x <<= 1 << i
        forced |= variable_mask(n, i, s)
        k += 1
    return x | forced if r == 1 else x


def generate(
    config: GeneratorConfig, rng, weights: CategoryWeights | None = None
) -> tuple[TruthTable, DrawRecord]:
    """One draw from the bias-p law conditioned on the canalizing class.

    ``rng`` is any object with ``getrandbits``; pass ``weights`` to reuse
    the category weights across draws. Raises RejectionLimitExceeded after
    ``config.max_rejections`` consecutive rejected fills.
    """
    n = config.n
    if weights is None:
        weights = category_weights(n, config.p)
    q, r = sample_category(weights, rng)

    if q == 0:
        i = _uniform_below(rng, n)
        s = rng.getrandbits(1)
        table = TruthTable(n, variable_mask(n, i, s))
        return table, DrawRecord(q=0, r=None, subset=(i,), values={i: s}, rejections=0)

    numer, denom = config.p.numerator, config.p.denominator
    m = n - q
    n_choose_q = comb(n, q)

    rejections = 0
    while True:
        # a fresh (subset, values, fill) triple every attempt: rejection
        # then renormalizes over the whole category at once, which is what
        # makes the conditional law exact (per-route refilling would skew
        # the exactly-n classes, where the constant breaks route symmetry)
        rank = _uniform_below(rng, n_choose_q)
        subset = _subset_unrank(rank, n, q)
        s_bits = rng.getrandbits(q)
        # bit x of g is the output on the x-th free input in ascending
        # order; int(..., 2) reads the most significant digit first
        g = int(_fill(rng, numer, denom, 1 << m)[::-1], 2)
        if _accepts(g, r, m, q, s_bits):
            table = TruthTable(n, _deposit(g, n, subset, s_bits, r))
            values = {i: (s_bits >> j) & 1 for j, i in enumerate(subset)}
            return table, DrawRecord(
                q=q, r=r, subset=subset, values=values, rejections=rejections
            )
        rejections += 1
        if rejections >= config.max_rejections:
            raise RejectionLimitExceeded(q, r, rejections)


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

    def draws(self, count: int) -> list[tuple[TruthTable, DrawRecord]]:
        return [self.draw() for _ in range(count)]
