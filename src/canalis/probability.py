"""Exact rational probabilities of canalizing-function classes.

Every public value is a ``fractions.Fraction``; the alternating sums here
cancel catastrophically in floating point, so no float is ever formed
internally. For a bias p = a/b, each product p^i (1-p)^j that appears has
i + j <= 2^n, so all terms share the denominator b^(2^n); the evaluators
accumulate plain integer numerators over that fixed denominator and
reduce once at the end. Decimal output is rounding of the exact value
(half-even).

Direction handling: every negative-direction formula is the positive one
with the bias complemented (the lone mixed term p^h (1-p)^h is symmetric),
so negative variants delegate to the positive evaluator at 1-p.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Decimal, localcontext
from fractions import Fraction
from math import comb

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
    """Coerce to Fraction and enforce 0 <= p <= 1 (0 < p < 1 when strict)."""
    value = Fraction(p)
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
            got = cache[e] = base**e
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
        return Fraction(numerator, self._pow(self._pb, self.b, self.size))

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

    Cases: k = n = 1 is the enumeration special case p^2 (the constant-1
    function is the entire class there); k = n folds in the constant; k = 1
    subtracts the both-ways share; 1 < k < n is the plain generalized
    inclusion-exclusion sum.
    """
    n, size = ctx.n, ctx.size
    if n == 1:
        return ctx.term(2, 0)
    if k == n:
        return (1 << n) * (ctx.term(size - 1, 0) - ctx.term(size, 0)) + ctx.term(size, 0)
    if k == 1:
        half = size >> 1
        acc = 2 * n * (ctx.term(half, 0) - ctx.term(size, 0) - ctx.term(half, half))
        for r in range(2, n + 1):
            e = size - (size >> r)
            term = r * comb(n, r) * (1 << r) * (ctx.term(e, 0) - ctx.term(size, 0))
            acc += term if r % 2 == 1 else -term
        return acc
    acc = 0
    for r in range(k, n + 1):
        e = size - (size >> r)
        term = comb(r, k) * comb(n, r) * (1 << r) * (ctx.term(e, 0) - ctx.term(size, 0))
        acc += term if (r - k) % 2 == 0 else -term
    return acc


def _checked(n: int, p, *, max_n: int | None = None) -> tuple[int, Fraction]:
    check_n(n, DEFAULT_PROB_MAX_N, explicit_cap=max_n)
    return n, validate_bias(p)


def prob_canalizing(n: int, p, *, max_n: int | None = None) -> Fraction:
    """Probability that a bias-p random function of n variables is canalizing."""
    n, p = _checked(n, p, max_n=max_n)
    ctx = _BiasPowers(n, p)
    return ctx.fraction(_canalizing_num(ctx))


def prob_both_ways(n: int, p, *, max_n: int | None = None) -> Fraction:
    """Probability of the both-ways class: 2n p^(2^(n-1)) (1-p)^(2^(n-1))."""
    n, p = _checked(n, p, max_n=max_n)
    ctx = _BiasPowers(n, p)
    return ctx.fraction(_both_ways_num(ctx))


def prob_canalizing_on_block(
    n: int, k: int, p, direction="positive", *, max_n: int | None = None
) -> Fraction:
    """Probability of nonconstant functions canalizing, in one direction,
    on a fixed block of k variables: 2^k (p^(2^n - 2^(n-k)) - p^(2^n)),
    with p complemented for the negative direction."""
    n, p = _checked(n, p, max_n=max_n)
    if not 1 <= k <= n:
        raise RangeError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    ctx = _BiasPowers(n, p)
    if not _direction_positive(direction):
        ctx = ctx.complemented()
    return ctx.fraction(_block_num(ctx, k))


def prob_exactly_k(
    n: int, k: int, p, direction="positive", *, max_n: int | None = None
) -> Fraction:
    """Probability of canalizing in one direction (and not the other) on
    exactly k variables; constants belong to the k = n classes."""
    n, p = _checked(n, p, max_n=max_n)
    if not 1 <= k <= n:
        raise RangeError(f"k must satisfy 1 <= k <= n={n}, got {k}")
    ctx = _BiasPowers(n, p)
    if not _direction_positive(direction):
        ctx = ctx.complemented()
    return ctx.fraction(_exactly_num(ctx, k))


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


def prob_breakdown(n: int, p, *, max_n: int | None = None) -> ProbBreakdown:
    """Evaluate every class probability at once, sharing power caches."""
    n, p = _checked(n, p, max_n=max_n)
    pos = _BiasPowers(n, p)
    neg = pos.complemented()
    num_c = _canalizing_num(pos)
    num_bc = _both_ways_num(pos)
    pce_nums = {k: _exactly_num(pos, k) for k in range(1, n + 1)}
    nce_nums = {k: _exactly_num(neg, k) for k in range(1, n + 1)}
    # shared denominator makes the partition identity an integer equality
    if num_bc + sum(pce_nums.values()) + sum(nce_nums.values()) != num_c:
        raise ArithmeticError(f"class probabilities at n={n}, p={p} do not sum to Pr[canalizing]")
    return ProbBreakdown(
        n=n,
        p=p,
        pr_c=pos.fraction(num_c),
        pr_bc=pos.fraction(num_bc),
        pr_pce={k: pos.fraction(v) for k, v in pce_nums.items()},
        pr_nce={k: pos.fraction(v) for k, v in nce_nums.items()},
    )


def decimal_string(value: Fraction, digits: int = 12) -> str:
    """Decimal rendering of an exact rational, rounded half-even to
    ``digits`` significant digits."""
    if digits < 1:
        raise ValueError(f"digits must be >= 1, got {digits}")
    with localcontext() as ctx:
        ctx.prec = digits
        ctx.rounding = ROUND_HALF_EVEN
        return str(Decimal(value.numerator) / Decimal(value.denominator))
