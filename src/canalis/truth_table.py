"""Packed truth tables and canalizing classification of single functions.

A Boolean function of n variables is stored as one integer: bit e of the
integer is the output on the input vector encoded by e, where variable i
supplies bit i of e (variable 0 is the least significant bit). Under this
convention the 2^(n-1) inputs with variable i fixed to a value s form a
precomputable bit mask, so every forcing question ("does x_i = s pin the
output?") is a single mask-and-compare against an all-ones or all-zeros
half table.

The text form of a table is a lowercase hex string of ceil(2^n / 4)
digits, most significant digit first; it round-trips bit-exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .limits import DEFAULT_TABLE_MAX_N, RangeError, check_n

__all__ = [
    "TruthTable",
    "CanalizingProfile",
    "variable_mask",
    "make_table",
    "from_hex",
    "to_hex",
    "is_canalizing_on",
    "is_canalizing",
    "classify",
]


@dataclass(frozen=True, slots=True)
class TruthTable:
    """A Boolean function of ``n`` variables as a packed bit vector."""

    n: int
    bits: int

    def __len__(self) -> int:
        return 1 << self.n

    def evaluate(self, e: int) -> int:
        """Output on the input vector encoded by index ``e``."""
        if not 0 <= e < (1 << self.n):
            raise IndexError(f"input index {e} out of range for n={self.n}")
        return (self.bits >> e) & 1

    @property
    def weight(self) -> int:
        """Number of ones in the table."""
        return self.bits.bit_count()


@dataclass(frozen=True)
class CanalizingProfile:
    """Complete forcing structure of one function.

    ``positive`` holds every pair (i, s) such that x_i = s forces output 1,
    ``negative`` the pairs forcing output 0; ``s`` is always the forcing
    *input* value. Constants canalize for every variable and both values in
    their output's direction, so their pair set has all 2n entries.
    """

    positive: frozenset[tuple[int, int]]
    negative: frozenset[tuple[int, int]]
    both_ways_variable: int | None
    is_constant: bool
    constant_value: int | None
    num_canalizing_vars: int

    @property
    def canalizing(self) -> bool:
        return bool(self.positive or self.negative)


@lru_cache(maxsize=None)
def variable_mask(n: int, i: int, s: int) -> int:
    """Bitmask over table entries whose input has variable ``i`` equal to ``s``.

    Built by doubling so construction is O(n) big-int operations even for
    large tables.
    """
    if not 0 <= i < n:
        raise RangeError(f"variable index {i} out of range for n={n}")
    if s not in (0, 1):
        raise ValueError(f"variable value must be 0 or 1, got {s}")
    size = 1 << i
    ones = (1 << size) - 1
    mask = ones << size if s == 1 else ones
    span = size << 1
    total = 1 << n
    while span < total:
        mask |= mask << span
        span <<= 1
    return mask


def make_table(n: int, bits) -> TruthTable:
    """Pack a sequence of 2^n output bits into a table.

    ``bits[e]`` is the output on the input encoded by e. Raises RangeError
    for n outside [1, cap] and ValueError on length mismatch or non-bit
    entries.
    """
    check_n(n, DEFAULT_TABLE_MAX_N)
    seq = list(bits)
    if len(seq) != (1 << n):
        raise ValueError(f"expected {1 << n} table entries for n={n}, got {len(seq)}")
    packed = 0
    for e, b in enumerate(seq):
        if b not in (0, 1, False, True):
            raise ValueError(f"table entry {e} must be 0 or 1, got {b!r}")
        if b:
            packed |= 1 << e
    return TruthTable(n, packed)


_HEX_DIGITS = frozenset("0123456789abcdef")


def hex_width(n: int) -> int:
    """Number of hex digits in the text form of an n-variable table."""
    return -(-(1 << n) // 4)


def to_hex(table: TruthTable) -> str:
    return format(table.bits, f"0{hex_width(table.n)}x")


def from_hex(n: int, text: str) -> TruthTable:
    check_n(n, DEFAULT_TABLE_MAX_N)
    expected = hex_width(n)
    cleaned = text.strip().lower()
    if len(cleaned) != expected:
        raise ValueError(
            f"expected {expected} hex digits for n={n}, got {len(cleaned)} in {text!r}"
        )
    # int(.., 16) alone would also take a sign, a 0x prefix and underscores
    if not set(cleaned) <= _HEX_DIGITS:
        raise ValueError(f"not a hex string: {text!r}")
    value = int(cleaned, 16)
    if value >= (1 << (1 << n)):
        raise ValueError(f"hex value {text!r} has bits beyond table size 2^{n}")
    return TruthTable(n, value)


def is_canalizing_on(table: TruthTable, i: int, s: int, v: int) -> bool:
    """True iff fixing variable ``i`` to ``s`` forces the output to ``v``."""
    if v not in (0, 1):
        raise ValueError(f"output value must be 0 or 1, got {v}")
    mask = variable_mask(table.n, i, s)
    half = table.bits & mask
    return half == mask if v == 1 else half == 0


def is_canalizing(table: TruthTable) -> bool:
    """True iff some (variable, value) pair forces the output.

    Constants are canalizing: every half of a constant forces its value.
    """
    bits = table.bits
    for i in range(table.n):
        for s in (0, 1):
            half = bits & variable_mask(table.n, i, s)
            if half == 0 or half == variable_mask(table.n, i, s):
                return True
    return False


def classify(table: TruthTable) -> CanalizingProfile:
    """Decide every forcing triple (variable, input value, direction).

    For a nonconstant function each variable contributes at most one pair
    per direction, and a variable canalizing in both directions (only the
    2n projection/negation functions) excludes every other variable; the
    positive pairs then carry the unique signature of the function on its
    canalizing set.
    """
    n, bits = table.n, table.bits
    positive = set()
    negative = set()
    for i in range(n):
        for s in (0, 1):
            mask = variable_mask(n, i, s)
            half = bits & mask
            if half == mask:
                positive.add((i, s))
            elif half == 0:
                negative.add((i, s))

    both_ways = None
    if positive and negative:
        shared = {i for i, _ in positive} & {i for i, _ in negative}
        # only a projection or its negation: one shared variable
        both_ways = next(iter(shared))

    is_constant = bits in (0, (1 << (1 << n)) - 1)
    variables = {i for i, _ in positive} | {i for i, _ in negative}
    return CanalizingProfile(
        positive=frozenset(positive),
        negative=frozenset(negative),
        both_ways_variable=both_ways,
        is_constant=is_constant,
        constant_value=(1 if bits else 0) if is_constant else None,
        num_canalizing_vars=len(variables),
    )
