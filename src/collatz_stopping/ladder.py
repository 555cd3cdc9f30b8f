"""Exact per-level constants of the stopping-time structure.

Everything here compares powers of 2 and 3 as big integers.  Floating-point
logarithms are never used: near n = 40 the operands leave the double range
and floor(n * log2(3)) computed in doubles starts to drift.  The one size
refusal, `_refuse_above`, lives here because this module imports no other
module of the package.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import Callable, NamedTuple

MAX_LADDER_TERMS = 100_000


def _refuse_above(what: str, request: int, bound: int, limit: Callable[[], str]) -> None:
    """Raise ValueError when request > bound, stating the bound as limit()
    and then the request.  The bound is fixed before the call, so a refusal
    costs the same whatever was requested; limit() runs only when refusing."""
    if request > bound:
        raise ValueError(f"{what} bounded at {limit()}; requested {request}")


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
    if n < 0:
        raise ValueError(f"level must be >= 0, got {n}")
    m, power = _last_power
    power = power * 3 if m == n - 1 else 3**n
    _last_power = (n, power)
    return power.bit_length() - 1


def sigma_n(n: int) -> int:
    """Stopping time of every starting value whose stopping prefix contains
    n odd terms after the first: kappa(n+1) + 1."""
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    return kappa(n + 1) + 1


def d(n: int) -> int:
    """kappa(n) - kappa(n-1): the number of powers of 2 strictly between
    3^(n-1) and 3^n.  Always 1 or 2."""
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    gap = kappa(n) - kappa(n - 1)
    if gap not in (1, 2):
        raise RuntimeError(f"kappa gap at level {n} is {gap}, not 1 or 2")
    return gap


@lru_cache(maxsize=None)
def min_surviving_n(k: int) -> int:
    """Smallest n with 2^k < 3^n, i.e. with kappa(n) >= k.

    This is the leftmost populated column of row k of the count triangle:
    a residue (mod 2^k) with fewer odd steps has already stopped.  kappa is
    increasing and kappa(k) >= k, so a bisection over 1..k finds it.
    """
    if k < 1:
        raise ValueError(f"bit depth must be >= 1, got {k}")
    return bisect_left(range(1, k + 1), k, key=kappa) + 1


def ladder_rows(max_n: int) -> list[LadderRow]:
    """Rows (n, d(n), kappa(n), sigma_n(n)) for n = 1..max_n <= MAX_LADDER_TERMS."""
    if max_n < 1:
        raise ValueError(f"max_n must be >= 1, got {max_n}")
    _refuse_above("ladder rows are", max_n, MAX_LADDER_TERMS, lambda: f"n <= {MAX_LADDER_TERMS}")
    return [LadderRow(n, d(n), kappa(n), sigma_n(n)) for n in range(1, max_n + 1)]
