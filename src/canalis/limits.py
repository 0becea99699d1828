"""Size caps shared by the public entry points.

Every cap bounds the variable count ``n``. The defaults keep memory and
latency predictable (a packed table has 2^n bits; exact probabilities
carry numerators of roughly 2^n * log2(denominator) bits). Setting the
environment variable ``CANALIS_MAX_N`` replaces all of them at once.
"""

from __future__ import annotations

import os

ENV_MAX_N = "CANALIS_MAX_N"

DEFAULT_TABLE_MAX_N = 24
DEFAULT_COUNT_MAX_N = 24
DEFAULT_PROB_MAX_N = 16
DEFAULT_GEN_MAX_N = 16


class RangeError(ValueError):
    """A size or index argument is outside the supported range."""


def effective_cap(default: int) -> int:
    """Return the cap to enforce: the env override if set, else `default`."""
    raw = os.environ.get(ENV_MAX_N)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise RangeError(f"{ENV_MAX_N} must be an integer, got {raw!r}") from exc
    if value < 1:
        raise RangeError(f"{ENV_MAX_N} must be positive, got {value}")
    return value


def check_n(n: int, default_cap: int) -> None:
    """Validate ``1 <= n <= cap`` for the effective cap."""
    cap = effective_cap(default_cap)
    if not isinstance(n, int) or isinstance(n, bool):
        raise RangeError(f"n must be an integer, got {n!r}")
    if not 1 <= n <= cap:
        raise RangeError(f"n must satisfy 1 <= n <= {cap}, got {n}")
