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
(n, p), and each biased fill bit is an exact integer comparison of one
``getrandbits`` word against the bias numerator (with rejection of words
at or above its denominator). The free entries of an attempt are the
inputs e with ``e & pinned == base`` (``pinned`` the chosen variables'
bits, ``base`` their non-forcing values), walked in ascending order; the
forced and filled outputs go into one character buffer that becomes the
table integer in a single linear conversion. Every random bit comes from
``rng.getrandbits``; with ``random.Random`` (the Mersenne Twister,
Python's default) a fixed seed therefore reproduces the exact output
sequence across runs and Python releases, which tests/test_generator.py
locks with golden digests. The per-draw consumption order is: category
bits, direction bits, then per attempt the variable-set rank, forcing
values, and fill bits.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, lcm

from .limits import DEFAULT_GEN_MAX_N, check_n
from .probability import prob_breakdown, validate_bias
from .truth_table import TruthTable, classify, variable_mask

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

    size = 1 << n
    numer, denom = config.p.numerator, config.p.denominator
    width = (denom - 1).bit_length()
    getrandbits = rng.getrandbits
    n_choose_q = comb(n, q)
    # output character of the forced entries: b"1" for the positive
    # direction; a fill bit b is stored as the character 48 + b
    forced = b"1" if r == 1 else b"0"

    rejections = 0
    while True:
        # a fresh (subset, values, fill) triple every attempt: rejection
        # then renormalizes over the whole category at once, which is what
        # makes the conditional law exact (per-route refilling would skew
        # the exactly-n classes, where the constant breaks route symmetry)
        rank = _uniform_below(rng, n_choose_q)
        subset = _subset_unrank(rank, n, q)
        s_bits = getrandbits(q)

        # free entries: inputs e whose x_i differs from the forcing value
        # (bit j of s_bits) on every chosen variable i, i.e. e & pinned ==
        # base; walking the submasks x of the other variables with
        # x -> (x - rest) & rest visits them in ascending order, the order
        # the fill bits are drawn in
        pinned = base = 0
        for j, i in enumerate(subset):
            pinned |= 1 << i
            if not (s_bits >> j) & 1:
                base |= 1 << i
        rest = (size - 1) ^ pinned

        # buf[e] is the output on input e; one exact coin per free entry
        buf = bytearray(forced) * size
        x = 0
        while True:
            v = getrandbits(width)
            while v >= denom:
                v = getrandbits(width)
            buf[base | x] = 48 + (v < numer)
            x = (x - rest) & rest
            if not x:
                break
        # int(..., 2) reads the most significant digit first
        table = TruthTable(n, int(buf[::-1], 2))
        profile = classify(table)
        if profile.is_constant:
            ok = q == n and profile.constant_value == r and s_bits == 0
        elif r == 1:
            ok = not profile.negative and profile.positive_variables() == set(subset)
        else:
            ok = not profile.positive and profile.negative_variables() == set(subset)
        if ok:
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
