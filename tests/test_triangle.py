import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_stopping.ladder import kappa, min_surviving_n
from collatz_stopping.ptree import generate_vset
from collatz_stopping.triangle import (
    build_triangle,
    class_counts,
    survivor_counts,
    w,
    z_from_triangle,
)
from collatz_stopping.verify import sieve


def test_seed_and_recurrence_cells():
    table = build_triangle(11)
    assert table.cell(2, 2) == 1
    assert table.cell(2, 1) == 0
    assert table.cell(6, 5) == 4
    assert table.cell(11, 8) == 55


def test_all_golden_cells(triangle_counts):
    table = build_triangle(11)
    assert {kn: v for kn, v in table.cells.items() if kn[0] <= 11} == triangle_counts["cells"]


def test_cells_exist_exactly_for_n_le_k_le_kappa():
    table = build_triangle(12)
    for (k, n) in table.cells:
        assert n <= k <= kappa(n)
    for n in range(2, 13):
        assert {k for (k, m) in table.cells if m == n} == set(range(n, kappa(n) + 1))


def test_recurrence_holds_everywhere():
    table = build_triangle(20)
    for (k, n), v in table.cells.items():
        if (k, n) == (2, 2):
            continue
        assert v == table.cell(k - 1, n) + table.cell(k - 1, n - 1)


def test_w_examples(triangle_counts):
    table = build_triangle(11)
    assert w(table, 6) == 8
    assert w(table, 11) == 128
    assert w(table, 2) == 1
    for k, expected in triangle_counts["w"].items():
        assert w(table, k) == expected


def test_z_examples(triangle_counts):
    table = build_triangle(11)
    assert z_from_triangle(table, 4) == 7
    assert z_from_triangle(table, 11) == 2652
    assert z_from_triangle(table, 2) == 2
    for n, expected in triangle_counts["z"].items():
        assert z_from_triangle(table, n) == expected


def test_w_lower_bound_matches_populated_row():
    table = build_triangle(24)
    for k in range(2, 25):
        populated = {n for (kk, n) in table.cells if kk == k}
        assert min(populated) == min_surviving_n(k)
        assert w(table, k) == sum(table.cell(k, n) for n in sorted(populated))


def test_out_of_range_rejected():
    table = build_triangle(8)
    with pytest.raises(ValueError):
        w(table, 9)
    with pytest.raises(ValueError):
        w(table, 1)
    with pytest.raises(ValueError):
        z_from_triangle(table, 9)
    with pytest.raises(ValueError):
        z_from_triangle(table, 1)
    with pytest.raises(ValueError):
        build_triangle(1)


@settings(max_examples=30, deadline=None)
@given(max_n=st.integers(2, 300))
def test_rolled_counts_equal_the_table_readers(max_n):
    table = build_triangle(max_n)
    assert survivor_counts(max_n) == [w(table, k) for k in range(2, max_n + 1)]
    assert class_counts(max_n) == [1] + [z_from_triangle(table, n) for n in range(2, max_n + 1)]


@settings(max_examples=20, deadline=None)
@given(k=st.integers(2, 18), n=st.integers(1, 12))
def test_rolled_counts_equal_the_sieve_and_the_tree(k, n):
    assert survivor_counts(k)[-1] == sum(rec.surviving for rec in sieve(k))
    assert class_counts(n) == [len(generate_vset(m)) for m in range(1, n + 1)]


def test_rolled_counts_reject_out_of_range():
    with pytest.raises(ValueError):
        survivor_counts(1)
    with pytest.raises(ValueError):
        class_counts(0)
    assert class_counts(1) == [1]
