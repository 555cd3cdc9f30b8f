"""Parity-vector level sets generated by the three-step tree construction.

Level 1 is the single vector (1, 1).  Level n grows out of level n-1 in the
order the construction emits vectors:

  step 1  extend each level-(n-1) vector on the right with "1" when d(n) = 1
          and with "0, 1" when d(n) = 2;
  step 2  while the freshly emitted vector has a 0 immediately left of its
          final 1, emit a copy with that 1 moved one position left;
  step 3  the level closes once the vector with n+1 leading ones followed by
          all zeros has been emitted.

Emission order is the contract: per-h ranks p, the candidate-tuple ordering
and the residue recurrences all refer to it.  Every public reader refuses
levels above MAX_RESIDUE_LEVEL (read per call) before it builds one.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from math import comb
from typing import NamedTuple

from .core import Bits
from .diophantine import solve_vector
from .ladder import _refuse_above, d, kappa
from .triangle import class_counts

MAX_RESIDUE_LEVEL = 14  # verify_range's table at this level: 2^sigma_14 bytes, 16 MB


def _level_limit() -> str:
    return f"n <= {MAX_RESIDUE_LEVEL} ({tree_node_count(MAX_RESIDUE_LEVEL)} classes)"


def _check_level(n: int, what: str = "residue levels are", limit=_level_limit) -> None:
    """Refuse a level below 1 or above MAX_RESIDUE_LEVEL, stated by limit()."""
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    _refuse_above(what, n, MAX_RESIDUE_LEVEL, limit)


class VSetEntry(NamedTuple):
    """One generated vector with its labels and provenance.

    h is the count of leading consecutive 1s, p the 1-based rank within the
    equal-h group in emission order.  parent is ("step1", i) pointing into
    level n-1, ("step2", i) pointing at the immediately preceding entry of
    the same level, or None for the root.
    """

    vector: Bits
    n: int
    h: int
    p: int
    parent: tuple[str, int] | None


ROOT = VSetEntry(vector=(1, 1), n=1, h=2, p=1, parent=None)


def leading_ones(bits: Bits) -> int:
    h = 0
    for b in bits:
        if b != 1:
            break
        h += 1
    return h


def trailing_zeros(bits: Bits) -> int:
    j = 0
    for b in reversed(bits):
        if b != 0:
            break
        j += 1
    return j


def _extend_level(prev: tuple[VSetEntry, ...], n: int) -> tuple[VSetEntry, ...]:
    suffix = (1,) if d(n) == 1 else (0, 1)
    terminal = (1,) * (n + 1) + (0,) * (kappa(n) - n)
    raw: list[tuple[Bits, tuple[str, int]]] = []
    for pi, entry in enumerate(prev):
        child = entry.vector + suffix
        raw.append((child, ("step1", pi)))
        cur = list(child)
        pos = len(cur) - 1
        while pos >= 1 and cur[pos - 1] == 0:
            cur[pos - 1], cur[pos] = 1, 0
            pos -= 1
            raw.append((tuple(cur), ("step2", len(raw) - 1)))
        if raw[-1][0] == terminal:
            break
    if raw[-1][0] != terminal:
        raise RuntimeError(f"level {n} did not close on the all-leading-ones vector")
    out = []
    per_h: dict[int, int] = {}
    for vec, parent in raw:
        h = leading_ones(vec)
        per_h[h] = per_h.get(h, 0) + 1
        out.append(VSetEntry(vector=vec, n=n, h=h, p=per_h[h], parent=parent))
    return tuple(out)


@lru_cache(maxsize=None)
def _built_level(n: int) -> tuple[VSetEntry, ...]:
    """Level n, extended from level n-1 once per process and kept."""
    return (ROOT,) if n == 1 else _extend_level(_built_level(n - 1), n)


def vset_levels(n_max: int) -> dict[int, list[VSetEntry]]:
    """Levels 1..n_max, each in emission order."""
    _check_level(n_max)
    return {n: list(_built_level(n)) for n in range(1, n_max + 1)}


def generate_vset(n: int) -> list[VSetEntry]:
    """The level-n vector set in emission order."""
    _check_level(n)
    return list(_built_level(n))


def phn_counts(n: int) -> dict[int, int]:
    """Histogram of leading-ones counts h over the level-n set."""
    _check_level(n)
    counts: dict[int, int] = {}
    for entry in _built_level(n):
        counts[entry.h] = counts.get(entry.h, 0) + 1
    return counts


def ln_count(n: int) -> int:
    """Number of candidate tuples at level n: C(kappa(n)-1, n-1), exact."""
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    return comb(kappa(n) - 1, n - 1)


def lex_tuples(n: int) -> list[Bits]:
    """Every candidate vector at level n in lexicographic order: two leading
    1s followed by each arrangement of (kappa(n)-n) zeros and (n-1) ones.

    Enumerating the zero positions with combinations() yields the bit tuples
    in ascending lexicographic order directly.  The refusal of levels above
    MAX_RESIDUE_LEVEL states the tuple count of the last level allowed.
    """
    tuples = lambda: f"n <= {MAX_RESIDUE_LEVEL} ({ln_count(MAX_RESIDUE_LEVEL)} tuples)"
    _check_level(n, "candidate tuples are", tuples)
    m = kappa(n) - 1
    zeros = kappa(n) - n
    out = []
    for zpos in combinations(range(m), zeros):
        tail = [1] * m
        for i in zpos:
            tail[i] = 0
        out.append((1, 1, *tail))
    return out


DEFAULT_MAX_NODES = 2000


def tree_node_count(n: int) -> int:
    """Node count of an export over levels 1..n, without generating it."""
    return sum(class_counts(n))


def export_tree(n: int, *, with_solutions: bool = False) -> str:
    """Graphviz DOT text of the generation tree over levels 1..n.

    Levels become same-rank columns; step-1 edges run between columns and
    step-2 edges run inside a column (drawn dashed).  Levels deeper than the
    deepest whose export fits DEFAULT_MAX_NODES nodes (read per call) are
    refused with a ValueError; node counts rise with n, so that level is found
    by counting levels only until the guard is passed.
    """
    if n < 1:
        raise ValueError(f"level must be >= 1, got {n}")
    fits, nodes = 0, 0
    while (more := tree_node_count(fits + 1)) <= DEFAULT_MAX_NODES:
        fits, nodes = fits + 1, more
    _refuse_above("tree exports are", n, fits, lambda: f"n <= {fits} ({nodes} nodes)")
    lines = [
        "digraph parity_vector_tree {",
        "  rankdir=LR;",
        '  node [shape=box fontname="monospace"];',
    ]
    for level in range(1, n + 1):
        lines.append(f"  {{ rank=same; /* level {level} */")
        for i, entry in enumerate(_built_level(level)):
            label = "(" + ",".join(map(str, entry.vector)) + ")"
            if with_solutions:
                label += f"\\nx={solve_vector(entry.vector).x}"
            lines.append(f'    v{level}_{i} [label="{label}"];')
        lines.append("  }")
    for level in range(2, n + 1):
        for i, entry in enumerate(_built_level(level)):
            kind, pi = entry.parent
            if kind == "step1":
                lines.append(f"  v{level - 1}_{pi} -> v{level}_{i};")
            else:
                lines.append(f"  v{level}_{pi} -> v{level}_{i} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
