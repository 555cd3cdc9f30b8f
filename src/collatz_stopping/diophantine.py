"""Per-vector residue solving and the parent-child residue recurrences.

A well-formed vector v at level n fixes the weighted sum
S = sum over its one-positions a_1 < ... < a_(n+1) of 3^(n+1-i) * 2^(a_i),
and the integers whose trajectory prefix has parities v are exactly the x
with 2^sigma_n | 3^(n+1) * x + S.  Since 3^(n+1) is odd it is invertible
mod 2^sigma_n, so each vector has one solution x in (0, 2^sigma_n), found
here by modular inverse rather than by an odd-multiplier scan; the scan
survives as lambda_step, an independent cross-check route.  Membership is
decided by walking x's own trajectory once in place, with no list of terms:
the same walk confirms the solution reproduces v bit by bit and keeps the
running minimum; the consistency checks raise RuntimeError.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import compress
from typing import TYPE_CHECKING, NamedTuple

from . import ladder
from .core import Bits, parity_vector_of
from .ladder import _refuse_above, _refuse_below, d, kappa, sigma_n

if TYPE_CHECKING:
    from .ptree import VSetEntry


class Solution(NamedTuple):
    """The unique in-range solution of one vector's divisibility condition.

    member is True when x really has stopping time sigma_n, decided by
    simulating its trajectory; candidate tuples outside the level set solve
    the same kind of equation but stop earlier.  Immutable and hashable; a
    NamedTuple because one is built per solve.
    """

    x: int
    y: int
    vector: Bits
    member: bool


def _level(v: Bits) -> int:
    """Validate a vector and return its level n (ones count minus one).
    A list is refused: the parity checks compare vectors as tuples."""
    if not isinstance(v, tuple):
        raise ValueError(f"vector must be a tuple, got {type(v).__name__}")
    if len(v) < 2 or v[0] != 1 or v[1] != 1:
        raise ValueError(f"vector must start with two 1s, got {v}")
    ones = v.count(1)
    if ones + v.count(0) != len(v):
        raise ValueError(f"vector must contain only 0s and 1s, got {v}")
    n = ones - 1
    if len(v) != kappa(n) + 1:
        raise ValueError(
            f"vector with {n + 1} ones must have length {kappa(n) + 1}, got {len(v)}"
        )
    return n


def alphas(v: Bits) -> tuple[int, ...]:
    """Positions of the odd terms: the indices s with v[s] == 1, ascending."""
    _level(v)
    return tuple(i for i, b in enumerate(v) if b)


def _weighted_sum(v: Bits) -> int:
    # Horner over the ascending one-positions: sum of 3^(n+1-i) * 2^(alpha_i).
    s = 0
    for a in compress(range(len(v)), v):
        s = s * 3 + (1 << a)
    return s


@lru_cache(maxsize=None)
def _level_constants(n: int) -> tuple[int, int, int, int]:
    sig = sigma_n(n)
    mod = 1 << sig
    p3 = 3 ** (n + 1)
    return sig, mod, p3, pow(p3, -1, mod)


def stopping_term(v: Bits, x: int) -> int:
    """Exact T^sigma_n(x) = (3^(n+1) * x + S) / 2^sigma_n for an x whose
    trajectory prefix has parities v."""
    n = _level(v)
    if parity_vector_of(x, n) != v:
        raise ValueError(f"trajectory prefix of {x} does not match the vector")
    sig, mod, p3, _ = _level_constants(n)
    q, rem = divmod(p3 * x + _weighted_sum(v), mod)
    if rem:
        raise RuntimeError(f"{x} matches the prefix {v} but does not solve it")
    return q


def solve_vector(v: Bits) -> Solution:
    """The unique odd x in (0, 2^sigma_n) solving the vector's divisibility,
    with its image y.  One in-place walk T^0(x) .. T^sigma_n(x) must show
    the parities v (forced by the congruence), and x is a member when the
    walk first drops below x at step sigma_n."""
    n = _level(v)
    sig, mod, p3, inv = _level_constants(n)
    s = _weighted_sum(v)
    x = (-s * inv) % mod
    y, rem = divmod(p3 * x + s, mod)
    if rem:
        raise RuntimeError(f"solution {x} does not reproduce the vector {v}")
    # t runs through T^0(x) .. T^sigma_n(x); low is min(T^0 .. T^(sigma_n - 1)).
    t = low = x
    for b in v:
        if t & 1 != b:
            raise RuntimeError(f"solution {x} does not reproduce the vector {v}")
        if t < low:
            low = t
        t = (3 * t + 1) >> 1 if b else t >> 1
    for _ in range(sig - len(v)):
        if t < low:
            low = t
        t = (3 * t + 1) >> 1 if t & 1 else t >> 1
    return Solution(x, y, v, t < x <= low)


def check_corollary1(x: int, h: int) -> bool:
    """Leading-ones congruence: x = 2^h - 1 (mod 2^(h+1)) for a solution
    whose vector starts with h ones, read off x + 1's lowest set bit."""
    _refuse_below("h", h, 2)
    if x % 2 == 0:
        raise ValueError(f"solutions are odd, got {x}")
    return ((x + 1) & -(x + 1)).bit_length() == h + 1


def lambda_step(x_prev: int, n: int) -> tuple[int, int]:
    """Residue recurrence across a step-1 edge.

    Scans the odd multipliers lam in {1, 3, 5, 7} for the one making
    x_prev + lam * 2^kappa(n) solve the right-extended vector, reducing by
    2^sigma_n on overflow.  Returns (x, lam) for the smallest working lam;
    when sigma_n(n) = kappa(n) + 2 the multipliers lam and lam + 4 name the
    same residue.  Agreement with solve_vector is checked.
    """
    _refuse_below("level", n, 2)
    child = parity_vector_of(x_prev, n - 1) + ((1,) if d(n) == 1 else (0, 1))
    solved = solve_vector(child).x  # also validates the child
    _, mod, p3, _ = _level_constants(n)
    s = _weighted_sum(child)
    step = 1 << kappa(n)
    for lam in (1, 3, 5, 7):
        cand = x_prev + lam * step
        if (p3 * cand + s) % mod == 0:
            if cand % mod != solved:
                raise RuntimeError(f"scan gives {cand % mod}, solver gives {solved}")
            return solved, lam
    raise RuntimeError(
        f"no odd multiplier solves the step-1 child of {x_prev} at level {n}"
    )


def check_corollary3_delta(
    x_parent: int, x_child: int, n: int, j: int
) -> tuple[int, bool]:
    """Quotient across a step-2 edge and its congruence-class check.

    delta = (x_child - x_parent) / 2^(kappa(n)-j) must divide exactly (a
    non-exact division means the pairing is structurally wrong, hence the
    raise); ok is True when delta = 1 (mod 8) for odd n and delta = 3
    (mod 8) for even n.  j is the child's trailing-zero run.  n above
    ladder.MAX_LADDER_TERMS (read per call) is refused before kappa(n) runs.
    """
    _refuse_below("level", n, 2)
    bound = ladder.MAX_LADDER_TERMS
    _refuse_above("step-2 quotients are", n, bound, lambda: f"n <= {bound}")
    _refuse_below("trailing-zero run", j, 1)
    base = 1 << (kappa(n) - j)
    diff = x_child - x_parent
    if diff % base:
        raise ValueError(
            f"{x_child} - {x_parent} is not divisible by 2^{kappa(n) - j}; "
            "not a step-2 pair"
        )
    delta = diff // base
    ok = delta % 8 == (1 if n % 2 else 3)
    return delta, ok


class Corollary3Prediction(NamedTuple):
    """Outcome of one explicit step-2 formula evaluation against ground truth."""

    n: int
    j: int
    d_n: int
    parent: int
    predicted: int
    actual: int
    matches: bool


def _step2_child_solution(x_parent: int, n: int, j: int) -> int:
    """Ground truth for the step-2 successor of x_parent: move the final 1
    of its vector one position left and solve."""
    vec = list(parity_vector_of(x_parent, n))
    pos = max(i for i, b in enumerate(vec) if b)
    if pos < 2 or vec[pos - 1] != 0:
        raise ValueError(f"vector of {x_parent} admits no step-2 successor")
    vec[pos - 1], vec[pos] = 1, 0
    child = tuple(vec)
    run = len(child) - pos
    if run != j:
        raise ValueError(f"child has trailing-zero run {run}, expected j={j}")
    return solve_vector(child).x


def predict_corollary3_explicit(
    x_parent: int, n: int, j: int, d_n: int
) -> Corollary3Prediction:
    """Evaluate the explicit step-2 construction rules (defined for levels
    2..8) and compare against the solver's ground truth.

    Mismatches are reported, never silently accepted: the record carries the
    predicted and actual solutions so discrepancies can be studied offline.
    """
    if not 2 <= n <= 8:
        raise ValueError(f"explicit rules are stated for 2 <= n <= 8, got {n}")
    _refuse_below("trailing-zero run", j, 1)
    if d_n not in (1, 2):
        raise ValueError(f"d_n must be 1 or 2, got {d_n}")
    kn = kappa(n)
    cand = x_parent + (1 << (kn - j)) + (2 - d_n) * (1 << (kn - j + 3))
    if n % 2 == 0:
        cand += 1 << (kn - j + 1)
    mod = 1 << sigma_n(n)
    if cand > mod:
        cand -= mod
    actual = _step2_child_solution(x_parent, n, j)
    return Corollary3Prediction(
        n=n, j=j, d_n=d_n, parent=x_parent, predicted=cand, actual=actual,
        matches=cand == actual,
    )


def check_corollary4(entries: list["VSetEntry"], solutions: list[Solution]) -> bool:
    """Level closing rule: the final (all-leading-ones) entry solves to
    2x + 1 of the last h = n entry, reduced once by 2^sigma_n on overflow."""
    if not entries or len(entries) != len(solutions):
        raise ValueError("entries and solutions must be parallel and non-empty")
    n = entries[0].n
    _refuse_below("level", n, 2)
    if (entries[-1].h, entries[-1].p) != (n + 1, 1):
        raise ValueError(f"the last entry must be level {n}'s all-leading-ones vector")
    idx = max(i for i, e in enumerate(entries) if e.h == n)
    cand = 2 * solutions[idx].x + 1
    mod = 1 << sigma_n(n)
    if cand > mod:
        cand -= mod
    return solutions[-1].x == cand
