"""The survivor-count triangle.

R(k, n) counts the residues (mod 2^k) that are still unstopped after k steps
and whose k-step image lies in a class mod 3^n.  Doubling a surviving class
splits it into one class that takes an even step and one that takes an odd
step, hence the Pascal-like recurrence

    R(k+1, n) = R(k, n) + R(k, n-1),    seed R(2, 2) = 1,

with cells existing only while 2^k < 3^n (stopped classes leave the pool).
Rows are rolled one at a time; row sums give the surviving-residue counts
w(k) and running column sums the class counts z(n), without the (k, n) table.
Each reader returns at most MAX_TRIANGLE_TERMS (read per call) columns or
w values, and refuses a larger request before it rolls a row.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

from .ladder import _refuse_above, kappa, min_surviving_n

MAX_TRIANGLE_TERMS = 1_000  # build_triangle(1000): 293,273 cells, 57 MB as CSV


class TriangleTable(NamedTuple):
    """Sparse triangle keyed by (k, n); missing cells are zero by the cut rule."""

    max_n: int
    cells: dict[tuple[int, int], int]

    def cell(self, k: int, n: int) -> int:
        return self.cells.get((k, n), 0)


def _rows(max_n: int):
    """Rows k = 2 .. kappa(max_n) over columns n <= max_n, one at a time, as
    (k, lo, row) with row[i] = R(k, lo + i) for lo = min_surviving_n(k)."""
    lo, row = 2, [1]
    for k in range(2, kappa(max_n) + 1):
        yield k, lo, row
        # columns below min_surviving_n(k + 1) have stopped at depth k + 1
        new_lo = min_surviving_n(k + 1)
        row = [a + b for a, b in zip(row + [0], [0] + row)][new_lo - lo : max_n - lo + 1]
        lo = new_lo


def build_triangle(max_n: int) -> TriangleTable:
    """Every cell of columns 2..max_n; column n holds rows k = n .. kappa(n)."""
    if max_n < 2:
        raise ValueError(f"max_n must be >= 2, got {max_n}")
    bound = MAX_TRIANGLE_TERMS
    _refuse_above("triangle columns are", max_n, bound, lambda: f"n <= {bound}")
    cells = {(k, n): v for k, lo, row in _rows(max_n) for n, v in enumerate(row, lo)}
    return TriangleTable(max_n=max_n, cells=cells)


def survivor_counts(k_max: int) -> list[int]:
    """[w(2), .., w(k_max)]: the sums of rows 2..k_max, one row held at a time."""
    if k_max < 2:
        raise ValueError(f"row must be >= 2, got {k_max}")
    rows = MAX_TRIANGLE_TERMS + 1  # w(2) .. w(rows) are MAX_TRIANGLE_TERMS values
    _refuse_above("triangle rows are", k_max, rows, lambda: f"k <= {rows} ({rows - 1} values)")
    return [sum(row) for _, _, row in islice(_rows(k_max), k_max - 1)]


def class_counts(n_max: int) -> list[int]:
    """[z(1), .., z(n_max)]: z(1) = 1 for the tree's root, then column sums."""
    if n_max < 1:
        raise ValueError(f"column must be >= 1, got {n_max}")
    bound = MAX_TRIANGLE_TERMS
    _refuse_above("triangle columns are", n_max, bound, lambda: f"n <= {bound}")
    z = [1] + [0] * (n_max - 1)
    for _, lo, row in _rows(n_max):
        for n, v in enumerate(row, lo):
            z[n - 1] += v
    return z


def w(table: TriangleTable, k: int) -> int:
    """Number of surviving residues (mod 2^k): the row-k sum over columns
    n = min_surviving_n(k) .. k."""
    if k < 2:
        raise ValueError(f"row must be >= 2, got {k}")
    if k > table.max_n:
        raise ValueError(f"row {k} not covered by a table built to max_n={table.max_n}")
    return sum(table.cells.get((k, n), 0) for n in range(min_surviving_n(k), k + 1))


def z_from_triangle(table: TriangleTable, n: int) -> int:
    """Number of residue classes with stopping time sigma_n: the column-n sum
    over rows k = n .. kappa(n)."""
    if n < 2:
        raise ValueError(f"column must be >= 2, got {n}")
    if n > table.max_n:
        raise ValueError(f"column {n} not covered by a table built to max_n={table.max_n}")
    return sum(table.cells[(k, n)] for k in range(n, kappa(n) + 1))
