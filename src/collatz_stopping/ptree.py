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
and the residue recurrences all refer to it.  One walker, _tree_level,
applies the steps and keeps each level as three byte columns: the weighted
sums as 8-byte values, and one byte each for the final-1 position and h.
Every reader here reads it, and _walked_classes derives each level's
residues from its sums column, without solving each vector, into a column of
8-byte values like it, sorted once by _ascending.  Each level's h histogram
is counted once per process by _h_counts, keyed on its heads column.  Every
public reader refuses levels above MAX_RESIDUE_LEVEL (read per call) before
it builds one.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from io import BytesIO
from itertools import combinations
from math import comb
from typing import NamedTuple

from . import ladder
from .core import WALK_LANES, Bits, _ints, _lane_masks, _walk
from .diophantine import _level_constants, solve_vector
from .ladder import _refuse_above, _refuse_below, kappa
from .triangle import class_counts

MAX_RESIDUE_LEVEL = 14  # verify_range's table at this level: 2^sigma_14 bytes, 16 MB


def _level_limit() -> str:
    return f"n <= {MAX_RESIDUE_LEVEL} ({tree_node_count(MAX_RESIDUE_LEVEL)} classes)"


def _check_level(n: int, what: str = "residue levels are", limit=_level_limit) -> None:
    """Refuse a level below 1 or above MAX_RESIDUE_LEVEL, stated by limit()."""
    _refuse_below("level", n, 1)
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


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _bits_str(bits: Bits, sep: str = ",") -> str:
    """A 0/1 vector's digits joined by sep, one C-level pass per vector."""
    return sep.join(bytes(bits).translate(_DIGITS).decode())


def leading_ones(bits: Bits) -> int:
    h = 0
    for b in bits:
        if b != 1:
            break
        h += 1
    return h


MAX_TREE_LEVEL = 20  # S <= 2^kappa(n) * (3^(n+1) - 1) / 2 < 2^64 through level 20, not at 21


@lru_cache(maxsize=None)
def _tree_level(n: int) -> tuple[bytes, bytes, bytes]:
    """Level n in emission order as three byte columns: each entry's weighted
    sum S (diophantine's docstring) as 8-byte little-endian values, and one
    byte each for its final-1 position and leading-ones count h (kappa(n) <
    256).  Extended from level n-1 once per process, WALK_LANES parents at a
    time: one struct.unpack_from reads their sums, and one struct.pack writes
    their children's to a BytesIO, whose getvalue() hands its buffer over
    uncopied, so no level's sums are held as a list of ints or copied whole.
    Levels 1..14 take 0.83 MB, and their cached _walked_classes 0.65 MB more.
    Levels above MAX_TREE_LEVEL (read per call), whose S could reach 2^64,
    are refused before any level is built."""
    bound = MAX_TREE_LEVEL
    _refuse_above("tree levels in 8-byte sums are", n, bound, lambda: f"n <= {bound}")
    if n == 1:
        return struct.pack("<Q", 5), b"\x01", b"\x02"  # the root (1, 1): S = 3 * 2^0 + 2^1
    top = kappa(n)
    bit = 1 << top
    parent_sums, parent_ends, parent_heads = _tree_level(n - 1)
    sums, ends, heads = BytesIO(), bytearray(), bytearray()
    end, head = ends.append, heads.append
    for start in range(0, len(parent_ends), WALK_LANES):
        qs, hs = parent_ends[start : start + WALK_LANES], parent_heads[start : start + WALK_LANES]
        chunk = []
        add = chunk.append
        # the parent's final 1 is the child's q
        for s, q, h in zip(struct.unpack_from(f"<{len(qs)}Q", parent_sums, 8 * start), qs, hs):
            s, p = 3 * s + bit, top  # step 1: the final 1 lands at kappa(n)
            add(s)
            end(p)
            head(h)
            while p - 1 > q:  # step 2: the final 1 moves one place left
                p -= 1
                s -= 1 << p
                if p == h:  # it joins the leading ones
                    h += 1
                add(s)
                end(p)
                head(h)
            if p == n:  # step 3: ones fill 0..n, so h = n + 1 and the level closes
                break
        sums.write(struct.pack(f"<{len(chunk)}Q", *chunk))
        if p == n:
            return sums.getvalue(), bytes(ends), bytes(heads)
    raise RuntimeError(f"level {n} did not close on the all-leading-ones vector")


def _first_nonmember(lanes: int, count: int, sig: int) -> int | None:
    """Index of the first of the count 8-byte lanes of lanes (each x < 2^sig,
    sig <= 39, so _lane_bytes(sig, 2^sig) <= 8) that is not a member at sig,
    or None: a member has T^sig(x) < x <= min(T^0 .. T^(sig-1)), so it
    stops exactly at sig and _walk counts sig - 1 in its lane."""
    ones, guard = _lane_masks(8, count)
    steps, full = _walk(lanes, lanes, ones, guard, 64, sig)
    bad = (steps + full * ones) ^ (sig - 1) * ones  # lanes that did not count sig - 1
    return ((bad & -bad).bit_length() - 1) >> 6 if bad else None


@lru_cache(maxsize=None)
def _walked_classes(n: int) -> bytes:
    """Level n's residues (mod 2^sigma_n) in emission order as a column of
    8-byte little-endian values like its sums, derived and walked once per
    process and cached like _tree_level.  No vector is solved: x = -S *
    3^-(n+1) (mod 2^sigma_n) for each entry's weighted sum S.  Each 8 KB
    slice of the sums column is WALK_LANES 8-byte lanes in one
    int.from_bytes, cut to S mod 2^sigma_n; one multiply by -3^-(n+1) mod
    2^sigma_n and one mask derive them all: for sigma_n <= 32 (n <= 19) no
    lane's product reaches 2^64, and a deeper level is refused before it is
    built.  The lanes are then walked in place (_lane_bytes(32, 2^32) = 7)
    and written with one to_bytes: every x must be a member (solve_vector's
    predicate), stopping exactly at sigma_n, or RuntimeError names the first
    offender in emission order (_first_nonmember).
    """
    sig, mod, _, inv = _level_constants(n)
    _refuse_above("classes in 8-byte lanes are", sig, 32, lambda: "sigma_n <= 32")
    sums = _tree_level(n)[0]
    keep = (mod - 1) * _lane_masks(8, WALK_LANES)[0]  # each lane mod 2^sigma_n
    c = -inv % mod
    column = BytesIO()
    for start in range(0, len(sums), 8 * WALK_LANES):
        chunk = sums[start : start + 8 * WALK_LANES]
        lanes = (int.from_bytes(chunk, "little") & keep) * c & keep
        if (bad := _first_nonmember(lanes, len(chunk) >> 3, sig)) is not None:
            x = (lanes >> 64 * bad) & (mod - 1)
            raise RuntimeError(f"level {n} holds a class {x} that is not a member")
        column.write(lanes.to_bytes(len(chunk), "little"))
    return column.getvalue()


def _level_classes(n: int) -> bytes:
    """Level n's residues in emission order: the column _walked_classes
    derives and walks once per process, certified on every call.  The
    solved closing vector must be a member equal to the level's last
    residue, or RuntimeError; this one solve per level per call stays
    outside the cache."""
    column = _walked_classes(n)
    last = int.from_bytes(column[-8:], "little")
    closing = solve_vector((1,) * (n + 1) + (0,) * (kappa(n) - n))
    if not closing.member or closing.x != last:
        raise RuntimeError(
            f"level {n} closes on {last}, but its vector solves to {closing.x}"
            + ("" if closing.member else ", which is not a member")
        )
    return column


def _level_solutions(n: int) -> list[tuple[int, int]]:
    """(x, y) of each level-n entry in emission order: x from _level_classes
    and its image y = T^sigma_n(x) = (3^(n+1) * x + S) / 2^sigma_n, exact."""
    sig, _, p3, _ = _level_constants(n)
    xs, sums = _ints(_level_classes(n)), _ints(_tree_level(n)[0])
    return [(x, (p3 * x + s) >> sig) for x, s in zip(xs, sums)]


@lru_cache(maxsize=None)
def _ascending(column: bytes) -> tuple[int, ...]:
    """A class column's values sorted, once per distinct column: bytes cache
    their hash, and a forged class column is a new key."""
    xs = _ints(column)
    xs.sort()
    return tuple(xs)


def level_residues(n: int) -> tuple[int, ...]:
    """Ascending residues (mod 2^sigma_n) of the level-n classes: _level_classes(n),
    certified on every call, walked and sorted (_ascending) once per process."""
    _check_level(n)
    return _ascending(_level_classes(n))


def _entry_levels(n_max: int):
    """Yield levels 1..n_max as VSetEntry lists rebuilt from _tree_level.
    An entry whose final 1 sits at kappa(n) is the step-1 child of the next
    level-(n-1) entry; any other is the step-2 move of the entry before it.
    Either way its vector is its level-(n-1) ancestor's, padded with zeros to
    kappa(n) + 1 bits, with a 1 at its final position."""
    level = [ROOT]
    yield level
    for n in range(2, n_max + 1):
        prev, level, ranks = level, [], {}
        top = kappa(n)
        pad = (0,) * (top - kappa(n - 1))  # d(n) zeros: level n-1's length to top + 1
        parent = -1
        for p, h in zip(*_tree_level(n)[1:]):
            if p == top:
                parent += 1
                base = prev[parent].vector + pad
                link = ("step1", parent)
            else:
                link = ("step2", len(level) - 1)
            ranks[h] = rank = ranks.get(h, 0) + 1
            vector = base[:p] + (1,) + base[p + 1 :]
            level.append(VSetEntry(vector, n, h, rank, link))
        yield level


def vset_levels(n_max: int) -> dict[int, list[VSetEntry]]:
    """Levels 1..n_max, each in emission order.  The VSetEntrys are rebuilt
    on every call, only the compact levels being cached: about 0.14 s at
    n_max = 14, so a caller that reads them again should keep the dict."""
    _check_level(n_max)
    return dict(enumerate(_entry_levels(n_max), start=1))


def generate_vset(n: int) -> list[VSetEntry]:
    """The level-n vector set in emission order.  Levels 1..n are rebuilt as
    VSetEntrys on every call, only the compact levels being cached: about
    0.13 s at n = 14, so a caller that reads it again should keep the list."""
    _check_level(n)
    for level in _entry_levels(n):
        pass
    return level


@lru_cache(maxsize=None)
def _h_counts(heads: bytes) -> tuple[tuple[int, int], ...]:
    """A heads column's (h, count) pairs in ascending h, one bytes.count per
    h in 2..max(heads), once per distinct column like _ascending."""
    return tuple((h, c) for h in range(2, max(heads) + 1) if (c := heads.count(h)))


def phn_counts(n: int) -> dict[int, int]:
    """Histogram of leading-ones counts h (2..n+1) in level n's heads column,
    ascending in h: counted once per process (_h_counts, keyed on the column,
    so a forged column is counted afresh), copied into a new dict per call."""
    _check_level(n)
    return dict(_h_counts(_tree_level(n)[2]))


def ln_count(n: int) -> int:
    """Candidate tuples at level n <= MAX_LADDER_TERMS: C(kappa(n)-1, n-1), exact."""
    _refuse_below("level", n, 1)
    bound = ladder.MAX_LADDER_TERMS
    _refuse_above("candidate tuple counts are", n, bound, lambda: f"n <= {bound}")
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
    by counting levels only until the guard is passed.  Like vset_levels, it
    rebuilds the VSetEntrys of levels 1..n on every call.
    """
    _refuse_below("level", n, 1)
    fits, nodes = 0, 0
    while (more := tree_node_count(fits + 1)) <= DEFAULT_MAX_NODES:
        fits, nodes = fits + 1, more
    _refuse_above("tree exports are", n, fits, lambda: f"n <= {fits} ({nodes} nodes)")
    lines = [
        "digraph parity_vector_tree {",
        "  rankdir=LR;",
        '  node [shape=box fontname="monospace"];',
    ]
    levels = list(_entry_levels(n))
    for level, entries in enumerate(levels, start=1):
        lines.append(f"  {{ rank=same; /* level {level} */")
        xs = _ints(_level_classes(level)) if with_solutions else None
        for i, entry in enumerate(entries):
            label = f"({_bits_str(entry.vector)})"
            if xs:
                label += f"\\nx={xs[i]}"
            lines.append(f'    v{level}_{i} [label="{label}"];')
        lines.append("  }")
    for level, entries in enumerate(levels[1:], start=2):
        for i, entry in enumerate(entries):
            kind, pi = entry.parent
            if kind == "step1":
                lines.append(f"  v{level - 1}_{pi} -> v{level}_{i};")
            else:
                lines.append(f"  v{level}_{pi} -> v{level}_{i} [style=dashed];")
    lines.append("}")
    return "\n".join(lines) + "\n"
