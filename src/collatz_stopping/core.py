"""The accelerated 3x+1 map, its exact trajectory bookkeeping, and the lane
engine: _step, which verify's sieve takes per chunk of children, and _walk,
which ptree's class check and verify's scan both read.

All functions are pure and use Python's arbitrary-precision integers, so
there is no overflow at any input size and concurrent calls are safe.
"""

from __future__ import annotations

import struct

from . import ladder

Bits = tuple[int, ...]

MAX_STOPPING_BITS = 16_384  # x's bits in stopping_time and trajectory: past the CLI's 4,300 digits


def t_step(x: int) -> int:
    """One map application: x/2 for even x, (3x+1)/2 for odd x."""
    ladder._refuse_below("x", x, 1)
    return x // 2 if x % 2 == 0 else (3 * x + 1) // 2


def trajectory(x: int, steps: int) -> list[int]:
    """The terms T^0(x) .. T^steps(x), steps <= kappa(MAX_LADDER_TERMS).

    All steps + 1 terms are kept, so x is refused past MAX_STOPPING_BITS bits
    (read per call) as well: at both bounds, trajectory(2^16384 - 1, 158_496)
    holds 273 MB and takes about 1 s."""
    ladder._refuse_below("x", x, 1)
    ladder._refuse_below("steps", steps, 0)
    n = ladder.MAX_LADDER_TERMS
    bound = ladder.kappa(n)
    ladder._refuse_above("trajectories are", steps, bound, lambda: f"{bound} steps (kappa({n}))")
    bits = MAX_STOPPING_BITS
    ladder._refuse_above("trajectory inputs are", x.bit_length(), bits, lambda: f"{bits} bits")
    terms, t = [x], x
    for _ in range(steps):
        t = t // 2 if t % 2 == 0 else (3 * t + 1) // 2
        terms.append(t)
    return terms


def stopping_time(x: int, cap: int) -> int | None:
    """Least s with T^s(x) < x, or None when not reached within cap steps,
    cap <= kappa(MAX_LADDER_TERMS) like trajectory's steps.

    None is the explicit "unknown" outcome: a hypothetical divergent orbit
    exhausts the budget instead of looping forever.  x = 1 is excluded
    (T(1) = 2 never drops below 1).  Each step costs time linear in x's bits,
    so x is refused past MAX_STOPPING_BITS bits (read per call) before the
    walk: x = 2^16384 - 1 stops at step 63,635 in about 0.7 s.
    """
    if x < 2:
        raise ValueError(f"stopping time is undefined for x < 2, got {x}")
    ladder._refuse_below("cap", cap, 1)
    n = ladder.MAX_LADDER_TERMS
    bound = ladder.kappa(n)
    ladder._refuse_above("step caps are", cap, bound, lambda: f"{bound} steps (kappa({n}))")
    bits = MAX_STOPPING_BITS
    ladder._refuse_above("stopping time inputs are", x.bit_length(), bits, lambda: f"{bits} bits")
    t = x
    for s in range(1, cap + 1):
        t = t // 2 if t % 2 == 0 else (3 * t + 1) // 2
        if t < x:
            return s
    return None


def parity_vector_of(x: int, n: int) -> Bits:
    """Parities of T^0(x) .. T^kappa(n)(x), a 0/1 tuple of length kappa(n)+1."""
    ladder._refuse_below("level", n, 1)
    bound = ladder.MAX_LADDER_TERMS
    ladder._refuse_above("parity vectors are", n, bound, lambda: f"n <= {bound}")
    return tuple(t & 1 for t in trajectory(x, ladder.kappa(n)))


def forward_map(r: int, k: int) -> tuple[int, int]:
    """Push the residue r through k steps: (q, n) with q = T^k(r) and n the
    number of odd terms among T^0(r) .. T^(k-1)(r), both read off
    trajectory(r, k), whose step and bit bounds it inherits; r = 0 gives (0, 0).

    For every m >= 0, T^k(r + m*2^k) = q + m*3^n: the whole class r (mod 2^k)
    shares the parity prefix, so the class moves rigidly onto q (mod 3^n).
    """
    ladder._refuse_below("step count", k, 1)
    if r < 0 or r.bit_length() > k:
        raise ValueError(f"residue must satisfy 0 <= r < 2^{k}, got {r}")
    if not r:
        return 0, 0
    *head, q = trajectory(r, k)
    return q, sum(t & 1 for t in head)


WALK_LANES = 1024  # lanes per packed int: 8 KB walking a level's classes or scanning near 2^48


def _lane_masks(size: int, lanes: int) -> tuple[int, int]:
    """Masks for lanes of size bytes packed into one int: each lane's low
    bit and each lane's top bit (the guard)."""
    low = int.from_bytes(b"\1".ljust(size, b"\0") * lanes, "little")
    return low, low << (8 * size - 1)


def _pack(xs, size: int) -> int:
    """The ints xs, each below 2^min(64, 8 * size), as size-byte lanes of one
    int, zero-padded past 8 bytes: one struct.pack, then one slice per lane
    byte.  A larger x raises struct.error; none spills into the next lane."""
    raw = struct.pack(f"<{len(xs)}Q", *xs)
    if size == 8:
        return int.from_bytes(raw, "little")
    out, zeros = bytearray(len(xs) * size), bytes(len(xs))
    for j in range(8):
        if j < size:
            out[j::size] = raw[j::8]
        elif raw[j::8] != zeros:  # some x has a byte above its lane
            raise struct.error(f"a value is not below 2^{8 * size}")
    return int.from_bytes(out, "little")


def _unpack(lanes: int, count: int) -> list[int]:
    """The count ints in the 8-byte lanes of lanes, _pack's inverse at size 8.
    A value past the count lanes raises OverflowError."""
    return list(struct.unpack(f"<{count}Q", lanes.to_bytes(8 * count, "little")))


def _step(t: int, low: int, w: int) -> int:
    """T on every lane of t at once, lanes w bits wide: (t + odd) / 2, plus t
    where a lane is odd, masked by (odd << w) - odd without a multiply, is
    (3t + 1) / 2 there and t / 2 elsewhere.  Every lane of t + odd is even and
    3t + 1 fits its lane, so no bit crosses into the next lane."""
    odd = t & low
    return ((t + odd) >> 1) + (t & ((odd << w) - odd))


def _lane_bytes(steps: int, hi: int) -> int:
    """Lane width W, in whole bytes of bit_length(B), B = 3^steps * hi >>
    (steps - 1), for walking steps steps from any 0 <= x < hi.

    T(t) + 1 <= 3(t + 1)/2 gives T^j(x) + 1 <= (3/2)^j * hi.  Each 3t + 1 is
    added before a step j + 1 <= steps, so 3t + 3 <= 3^steps * hi / 2^(steps-1)
    and 3t + 1 < B < 2^W: no lane carries into the next.  Up to j = steps,
    2t + 2 <= 3^steps * hi / 2^(steps-1), so 2t < B and t < 2^(W-1): the
    lane's top bit stays free as the guard of the t >= x test."""
    return ((3**steps * hi >> (steps - 1)).bit_length() + 7) >> 3


def _walk(t: int, x: int, ones: int, guard: int, w: int, budget: int) -> tuple[int, int, int]:
    """(steps, full, walked) over the W-bit lanes of t (ones, guard:
    _lane_masks), each lane T^k of x's for one k, with no lane below its x
    at steps 1..k (k = 0: t = x).  steps + full * ones holds in each lane
    the j in 1..budget with T^(k+j)(x) >= x before its stop k + s, s - 1
    or budget if none; walked is the last s, or budget.  steps == 0 exactly
    when every lane stopped at one step or none stopped: then every lane
    counts full, walked - 1 or budget.  As t < 2^(W-1), a lane of t +
    (guard - x) keeps its guard bit exactly where t >= x.  Until a lane
    stops, one scalar counts for all."""
    live, below, steps, full = guard, guard - x, 0, 0
    for walked in range(1, budget + 1):
        t = _step(t, ones, w)
        live &= t + below  # guard kept while t >= x
        if live == guard:
            full += 1
        elif live:
            steps += live >> (w - 1)
        else:
            break
    return steps, full, walked
