"""Exact per-level constants of the stopping-time structure.

Everything here compares powers of 2 and 3 as big integers.  Floating-point
logarithms are never used: near n = 40 the operands leave the double range
and floor(n * log2(3)) computed in doubles starts to drift.  Both refusals,
`_refuse_below` for a too-small parameter and `_refuse_above` for a too-large
request, live here because this module imports no other module of the package.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, NamedTuple

MAX_LADDER_TERMS = 100_000
MAX_KAPPA_LEVEL = 10**6  # kappa(10**6): 0.09 s cold on a 2-core VM; ladder_rows reads kappa(100_001)


def _refuse_above(what: str, request: int, bound: int, limit: Callable[[], str]) -> None:
    """Raise ValueError when request > bound, stating the bound as limit()
    and then the request.  The bound is fixed before the call, so a refusal
    costs the same whatever was requested; limit() runs only when refusing."""
    if request > bound:
        raise ValueError(f"{what} bounded at {limit()}; requested {request}")


def _refuse_below(what: str, value: int, least: int) -> None:
    """Raise ValueError when value < least, stating both."""
    if value < least:
        raise ValueError(f"{what} must be >= {least}, got {value}")


class LadderRow(NamedTuple):
    """The constants attached to one level n."""

    n: int
    d: int
    kappa: int
    sigma: int


# The last (n, 3^n) kappa computed; one tuple, so n and its power stay paired.
_last_power = (0, 1)


@lru_cache(maxsize=None)
def kappa(n: int) -> int:
    """Greatest k with 2^k < 3^n; kappa(0) = 0.

    For n >= 1, 3^n is never a power of two, so the bit length b of 3^n
    satisfies 2^(b-1) < 3^n < 2^b exactly, giving kappa(n) = b - 1 (and
    b - 1 = 0 for 3^0 = 1).  Ascending calls reuse the previous power.
    """
    global _last_power
    _refuse_below("level", n, 0)
    _refuse_above("kappa levels are", n, MAX_KAPPA_LEVEL, lambda: f"n <= {MAX_KAPPA_LEVEL}")
    m, power = _last_power
    power = power * 3 if m == n - 1 else 3**n
    _last_power = (n, power)
    return power.bit_length() - 1


def sigma_n(n: int) -> int:
    """Stopping time of every starting value whose stopping prefix contains
    n odd terms after the first: kappa(n+1) + 1, for n < MAX_KAPPA_LEVEL."""
    _refuse_below("level", n, 1)
    _refuse_above("sigma levels are", n, MAX_KAPPA_LEVEL - 1, lambda: f"n <= {MAX_KAPPA_LEVEL - 1}")
    return kappa(n + 1) + 1


def d(n: int) -> int:
    """kappa(n) - kappa(n-1): the number of powers of 2 strictly between
    3^(n-1) and 3^n.  Always 1 or 2."""
    _refuse_below("level", n, 1)
    _refuse_above("kappa gaps are", n, MAX_KAPPA_LEVEL, lambda: f"n <= {MAX_KAPPA_LEVEL}")
    gap = kappa(n) - kappa(n - 1)
    if gap not in (1, 2):
        raise RuntimeError(f"kappa gap at level {n} is {gap}, not 1 or 2")
    return gap


@lru_cache(maxsize=None)
def min_surviving_n(k: int) -> int:
    """Smallest n with 2^k < 3^n, i.e. with kappa(n) >= k.

    This is the leftmost populated column of row k of the count triangle:
    a residue (mod 2^k) with fewer odd steps has already stopped.  As 1.585 >
    log2(3), 3^n < 2^k at n = k * 1000 // 1585; kappa ascends from there.
    """
    _refuse_below("bit depth", k, 1)
    _refuse_above("bit depths are", k, MAX_KAPPA_LEVEL, lambda: f"k <= {MAX_KAPPA_LEVEL}")
    n = k * 1000 // 1585
    while kappa(n) < k:
        n += 1
    return n


def ladder_rows(max_n: int) -> list[LadderRow]:
    """Rows (n, d(n), kappa(n), sigma_n(n)) for n = 1..max_n <= MAX_LADDER_TERMS."""
    _refuse_below("max_n", max_n, 1)
    _refuse_above("ladder rows are", max_n, MAX_LADDER_TERMS, lambda: f"n <= {MAX_LADDER_TERMS}")
    return [LadderRow(n, d(n), kappa(n), sigma_n(n)) for n in range(1, max_n + 1)]
