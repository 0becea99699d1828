"""Exact rational probabilities of canalizing-function classes.

Every public value is a ``fractions.Fraction``; the alternating sums here
cancel catastrophically in floating point, so no float is ever formed
internally. For a bias p = a/b, each product p^i (1-p)^j that appears has
i + j <= 2^n, so all terms share the denominator b^(2^n); the evaluators
accumulate plain integer numerators over that fixed denominator and
reduce once at the end. These numerators are the only implementation of
the paper's inclusion-exclusion sums: at p = 1/2 the denominator is
2^(2^n), so each numerator is a count of functions, and
``exact_counts`` takes its counts from here. Decimal output is rounding
of the exact value (half-even).

Direction handling: every negative-direction formula is the positive one
with the bias complemented (the lone mixed term p^h (1-p)^h is symmetric),
so negative variants delegate to the positive evaluator at 1-p.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from math import comb, gcd

from .limits import DEFAULT_PROB_MAX_N, RangeError, check_n

__all__ = [
    "parse_bias",
    "validate_bias",
    "prob_canalizing",
    "prob_both_ways",
    "prob_canalizing_on_block",
    "prob_exactly_k",
    "ProbBreakdown",
    "prob_breakdown",
    "decimal_string",
]

POSITIVE_NAMES = frozenset({"pos", "positive", "+", "1"})
NEGATIVE_NAMES = frozenset({"neg", "negative", "-", "0"})


def parse_bias(text: str) -> Fraction:
    """Parse 'a/b' or a finite decimal into an exact bias in [0, 1]."""
    try:
        value = Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"cannot parse bias {text!r}: expected a/b or a decimal") from exc
    return validate_bias(value)


def validate_bias(p, *, strict: bool = False) -> Fraction:
    """Coerce to Fraction and enforce 0 <= p <= 1 (0 < p < 1 when strict).
    A Fraction is returned as given, so a bias keeps its identity."""
    value = p if type(p) is Fraction else Fraction(p)
    if strict:
        if not 0 < value < 1:
            raise ValueError(f"bias must satisfy 0 < p < 1, got {value}")
    elif not 0 <= value <= 1:
        raise ValueError(f"bias must satisfy 0 <= p <= 1, got {value}")
    return value


def _direction_positive(direction) -> bool:
    name = str(direction).strip().lower()
    if name in POSITIVE_NAMES:
        return True
    if name in NEGATIVE_NAMES:
        return False
    raise ValueError(f"direction must be 'positive' or 'negative', got {direction!r}")


class _BiasPowers:
    """Power cache for one (n, p): integer numerators over b^(2^n).

    ``term(i, j)`` is the numerator of p^i (1-p)^j, valid for i+j <= 2^n.
    """

    __slots__ = ("n", "size", "a", "b", "c", "_pa", "_pc", "_pb")

    def __init__(self, n: int, p: Fraction):
        self.n = n
        self.size = 1 << n
        self.a = p.numerator
        self.b = p.denominator
        self.c = self.b - self.a
        self._pa: dict[int, int] = {0: 1, 1: self.a}
        self._pc: dict[int, int] = {0: 1, 1: self.c}
        self._pb: dict[int, int] = {0: 1, 1: self.b}

    @staticmethod
    def _pow(cache: dict[int, int], base: int, e: int) -> int:
        got = cache.get(e)
        if got is None:
            # a shift is linear in the result's size: 1 << 2^24 takes 1.4 ms, 2**2^24 110 ms
            if base > 0 and base & (base - 1) == 0:
                got = 1 << (base.bit_length() - 1) * e
            else:
                got = base**e
            cache[e] = got
        return got

    def term(self, i: int, j: int) -> int:
        rest = self.size - i - j
        if rest < 0:
            raise ArithmeticError(f"p^{i} (1-p)^{j} has degree above 2^n = {self.size}")
        return (
            self._pow(self._pa, self.a, i)
            * self._pow(self._pc, self.c, j)
            * self._pow(self._pb, self.b, rest)
        )

    def fraction(self, numerator: int) -> Fraction:
        """numerator / b^(2^n) in lowest terms.

        Only b's primes divide the denominator, so common factors are found
        by gcds against b, each checked against the denominator with one
        small operand; Fraction's own gcd of the two whole integers is
        never formed.
        """
        if not numerator:
            return Fraction(0)
        den = self._pow(self._pb, self.b, self.size)
        while (g := gcd(den, gcd(numerator, self.b))) > 1:
            numerator //= g
            den //= g
        value = Fraction.__new__(Fraction)
        # already coprime: set the slots instead of letting Fraction reduce
        value._numerator, value._denominator = numerator, den
        return value

    def complemented(self) -> "_BiasPowers":
        # gcd(a, b) = 1 implies gcd(b - a, b) = 1, so no renormalization
        return _BiasPowers(self.n, Fraction(self.c, self.b))


def _canalizing_num(ctx: _BiasPowers) -> int:
    n, size = ctx.n, ctx.size
    half = size >> 1
    acc = (ctx.term(size, 0) + ctx.term(0, size)) * (-1 if n % 2 else 1)
    acc -= 2 * n * ctx.term(half, half)
    for k in range(1, n + 1):
        e = size - (size >> k)
        term = comb(n, k) * (1 << k) * (ctx.term(e, 0) + ctx.term(0, e))
        acc += term if k % 2 == 1 else -term
    return acc


def _both_ways_num(ctx: _BiasPowers) -> int:
    half = ctx.size >> 1
    return 2 * ctx.n * ctx.term(half, half)


def _block_num(ctx: _BiasPowers, k: int) -> int:
    size = ctx.size
    return (1 << k) * (ctx.term(size - (size >> k), 0) - ctx.term(size, 0))


def _exactly_num(ctx: _BiasPowers, k: int) -> int:
    """Numerator of the exactly-k probability in the direction of ctx's bias.

    The generalized inclusion-exclusion sum over the blocks of r >= k
    variables, sum_r (-1)^(r-k) C(r,k) C(n,r) Pr[block of r]. The constant
    in ctx's direction belongs to k = n, and the both-ways functions, which
    every block of one variable counts, are taken out of k = 1; at n = 1
    both corrections apply and leave p^2.
    """
    n, size = ctx.n, ctx.size
    acc = 0
    for r in range(k, n + 1):
        term = comb(r, k) * comb(n, r) * _block_num(ctx, r)
        acc += term if (r - k) % 2 == 0 else -term
    if k == n:
        acc += ctx.term(size, 0)
    if k == 1:
        acc -= _both_ways_num(ctx)
    return acc


def _checked(n: int, p) -> tuple[int, Fraction]:
    check_n(n, DEFAULT_PROB_MAX_N)
    return n, validate_bias(p)


def prob_canalizing(n: int, p) -> Fraction:
    """Probability that a bias-p random function of n variables is canalizing."""
    n, p = _checked(n, p)
    ctx = _BiasPowers(n, p)
    return ctx.fraction(_canalizing_num(ctx))


def prob_both_ways(n: int, p) -> Fraction:
    """Probability of the both-ways class: 2n p^(2^(n-1)) (1-p)^(2^(n-1))."""
    n, p = _checked(n, p)
    ctx = _BiasPowers(n, p)
    return ctx.fraction(_both_ways_num(ctx))


def prob_canalizing_on_block(n: int, k: int, p, direction="positive") -> Fraction:
    """Probability of nonconstant functions canalizing, in one direction,
    on a fixed block of k variables: 2^k (p^(2^n - 2^(n-k)) - p^(2^n)),
    with p complemented for the negative direction."""
    n, p = _checked(n, p)
    if not 1 <= k <= n:
        raise RangeError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    ctx = _BiasPowers(n, p)
    if not _direction_positive(direction):
        ctx = ctx.complemented()
    return ctx.fraction(_block_num(ctx, k))


def prob_exactly_k(n: int, k: int, p, direction="positive") -> Fraction:
    """Probability of canalizing in one direction (and not the other) on
    exactly k variables; constants belong to the k = n classes."""
    n, p = _checked(n, p)
    if not 1 <= k <= n:
        raise RangeError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    ctx = _BiasPowers(n, p)
    if not _direction_positive(direction):
        ctx = ctx.complemented()
    return ctx.fraction(_exactly_num(ctx, k))


def _class_numerators(n: int, p: Fraction) -> tuple[int, int, dict[int, int], dict[int, int]]:
    """Numerators over b^(2^n) of Pr[C], the both-ways class and the
    positive and negative exactly-k classes (k = 1..n) of a validated
    (n, p), checked to partition Pr[C]."""
    pos = _BiasPowers(n, p)
    neg = pos.complemented()
    c = _canalizing_num(pos)
    bc = _both_ways_num(pos)
    pce = {k: _exactly_num(pos, k) for k in range(1, n + 1)}
    nce = {k: _exactly_num(neg, k) for k in range(1, n + 1)}
    # shared denominator makes the partition identity an integer equality
    if bc + sum(pce.values()) + sum(nce.values()) != c:
        raise ArithmeticError(f"class probabilities at n={n}, p={p} do not sum to Pr[canalizing]")
    return c, bc, pce, nce


@dataclass(frozen=True)
class ProbBreakdown:
    """All class probabilities for one (n, p), satisfying exactly
    pr_bc + sum_k (pr_pce[k] + pr_nce[k]) = pr_c."""

    n: int
    p: Fraction
    pr_c: Fraction
    pr_bc: Fraction
    pr_pce: dict[int, Fraction]
    pr_nce: dict[int, Fraction]


def prob_breakdown(n: int, p) -> ProbBreakdown:
    """Evaluate every class probability at once, as the Fractions of the
    class numerators."""
    n, p = _checked(n, p)
    c, bc, pce, nce = _class_numerators(n, p)
    frac = _BiasPowers(n, p).fraction
    return ProbBreakdown(
        n=n,
        p=p,
        pr_c=frac(c),
        pr_bc=frac(bc),
        pr_pce={k: frac(v) for k, v in pce.items()},
        pr_nce={k: frac(v) for k, v in nce.items()},
    )


def decimal_string(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering of an exact rational, rounded half-even to
    ``digits`` significant digits, formatted as ``decimal``'s division at
    that precision gives it (e.g. '0.875', '1.0E+2').

    Only the ``digits`` leading digits of a / b are formed, in integers, in
    time near linear in the size of ``value``. An exact quotient keeps
    trailing zeros down to the units digit (``decimal``'s ideal exponent 0).
    """
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    a, b = abs(value.numerator), value.denominator
    if not a:
        return "0"
    limit = 10**digits
    # a / b > 2^d for d = len(a) - len(b) - 1 bits, so floor(d log10(2)) - 1 <= floor(log10(a / b))
    # (1 to spare for log10(2) rounded down at d < 0): e is at most the last kept digit's exponent
    e = (a.bit_length() - b.bit_length() - 1) * 30102999566 // 10**11 - digits
    num, den = (a, b * 10**e) if e >= 0 else (a * 10**-e, b)
    head, rest = divmod(num, den)
    while head >= limit:
        head, low = divmod(head, 10)
        rest += low * den
        den *= 10
        e += 1
    if 2 * rest > den or (2 * rest == den and head & 1):
        head += 1
        if head == limit:
            head //= 10
            e += 1
    while not rest and e < 0 and head % 10 == 0:
        head //= 10
        e += 1
    return str(Decimal((int(value < 0), Decimal(head).as_tuple().digits, e)))
