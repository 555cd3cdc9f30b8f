import pytest

from collatz_stopping.diophantine import solve_vector
from collatz_stopping.ladder import kappa
from collatz_stopping.ptree import (
    ROOT,
    VSetEntry,
    export_tree,
    generate_vset,
    leading_ones,
    lex_tuples,
    ln_count,
    phn_counts,
    trailing_zeros,
    tree_node_count,
    vset_levels,
)
from collatz_stopping.triangle import build_triangle, z_from_triangle


def test_level_one_is_the_root():
    level = generate_vset(1)
    assert level == [VSetEntry(vector=(1, 1), n=1, h=2, p=1, parent=None)]


def test_small_levels_match_listings():
    assert [e.vector for e in generate_vset(2)] == [(1, 1, 0, 1), (1, 1, 1, 0)]
    assert [e.vector for e in generate_vset(3)] == [
        (1, 1, 0, 1, 1),
        (1, 1, 1, 0, 1),
        (1, 1, 1, 1, 0),
    ]


def test_level_six_matches_listing(level6_labels):
    level = generate_vset(6)
    assert len(level) == 30
    assert level[-1].vector == (1, 1, 1, 1, 1, 1, 1, 0, 0, 0)
    for entry, (p, bits, x, y, h) in zip(level, level6_labels):
        assert entry.vector == bits
        assert entry.h == h
        assert entry.p == p


def test_all_fixture_levels_in_order(vset_solutions):
    levels = vset_levels(6)
    for n, rows in vset_solutions.items():
        assert [e.vector for e in levels[n]] == [bits for bits, x, y in rows]


def test_vector_invariants_through_level_12():
    for n, level in vset_levels(12).items():
        for entry in level:
            bits = entry.vector
            assert len(bits) == kappa(n) + 1
            assert sum(bits) == n + 1
            assert bits[0] == bits[1] == 1
            assert entry.h == leading_ones(bits) >= 2


def test_parent_links():
    levels = vset_levels(4)
    for n in range(2, 5):
        for i, entry in enumerate(levels[n]):
            kind, pi = entry.parent
            if kind == "step1":
                parent = levels[n - 1][pi].vector
                assert entry.vector[: len(parent)] == parent
            else:
                assert kind == "step2" and pi == i - 1
                # the final 1 moved one position left relative to the parent
                parent = levels[n][pi].vector
                moved = max(j for j, b in enumerate(entry.vector) if b)
                assert parent[moved] == 0 and parent[moved + 1] == 1


def test_last_entry_has_h_n_plus_one_and_p_one():
    for n in range(2, 13):
        last = generate_vset(n)[-1]
        assert last.h == n + 1 and last.p == 1


def test_phn_examples(leading_ones_counts):
    assert phn_counts(6) == {2: 7, 3: 7, 4: 7, 5: 5, 6: 3, 7: 1}
    assert phn_counts(7)[2] == 19
    assert phn_counts(1) == {2: 1}
    for n in range(1, 12):
        counts = phn_counts(n)
        for (h, m), v in leading_ones_counts["cells"].items():
            if m == n:
                assert counts[h] == v
        assert sum(counts.values()) == leading_ones_counts["z"][n]


def test_first_three_phn_rows_identical(monkeypatch):
    from collatz_stopping import ptree

    monkeypatch.setattr(ptree, "MAX_RESIDUE_LEVEL", 15)
    for n in range(3, 16):
        counts = phn_counts(n)
        assert counts[2] == counts[3] == counts[4]


def test_level_sizes_match_triangle_column_sums(monkeypatch):
    from collatz_stopping import ptree

    monkeypatch.setattr(ptree, "MAX_RESIDUE_LEVEL", 16)
    table = build_triangle(16)
    levels = vset_levels(16)
    for n in range(2, 17):
        assert len(levels[n]) == z_from_triangle(table, n)
    # back at 14, the cached levels 15 and 16 are refused like any other
    monkeypatch.undo()
    cached = ptree._built_level.cache_info()
    for n in (15, 16):
        for read in (vset_levels, generate_vset, phn_counts):
            with pytest.raises(ValueError, match=rf"n <= 14 \(81117 classes\); requested {n}$"):
                read(n)
    assert ptree._built_level.cache_info() == cached
    # levels 15 and 16 hold about 70 MB that no later test reads
    ptree._built_level.cache_clear()


def test_lex_tuples_match_fixture(level5_tuples):
    tuples = lex_tuples(5)
    assert len(tuples) == 15
    assert tuples[0] == (1, 1, 0, 0, 1, 1, 1, 1)
    assert tuples[11] == (1, 1, 1, 1, 0, 1, 1, 0)
    assert tuples == [bits for rank, bits, x, y in level5_tuples]


def test_lex_tuples_level_one():
    assert lex_tuples(1) == [(1, 1)]


def test_lex_tuples_are_sorted_and_counted():
    for n in range(1, 10):
        tuples = lex_tuples(n)
        assert tuples == sorted(tuples)
        assert len(tuples) == len(set(tuples)) == ln_count(n)


def test_lex_tuples_refuses_levels_above_the_bound(monkeypatch):
    from collatz_stopping import ptree

    limit = "candidate tuples are bounded at n <= 14 (203490 tuples); requested "
    for n in (15, 40_000):
        with pytest.raises(ValueError) as refused:
            lex_tuples(n)
        assert str(refused.value) == f"{limit}{n}"
    # the bound is read per call
    monkeypatch.setattr(ptree, "MAX_RESIDUE_LEVEL", 4)
    with pytest.raises(ValueError, match=r"n <= 4 \(10 tuples\); requested 5$"):
        lex_tuples(5)
    assert len(lex_tuples(4)) == 10


def test_ln_count_examples(oeis_expected):
    assert ln_count(5) == 15
    assert ln_count(11) == 8008
    assert ln_count(1) == 1
    for n, expected in enumerate(oeis_expected["A293308"], start=1):
        assert ln_count(n) == expected


def test_member_subsequence_equals_generation_order():
    # the member subsequence of the lexicographic listing is the generated
    # level, in the same order
    for n in range(1, 13):
        members = [v for v in lex_tuples(n) if solve_vector(v).member]
        assert members == [e.vector for e in generate_vset(n)]


def test_level_five_nonmember_ranks():
    flags = [solve_vector(v).member for v in lex_tuples(5)]
    assert [rank for rank, ok in enumerate(flags, start=1) if not ok] == [1, 2, 6]


def test_export_tree_node_counts():
    assert tree_node_count(4) == 13
    assert tree_node_count(1) == 1
    assert tree_node_count(6) == 55
    dot = export_tree(4)
    assert dot.count("[label=") == 13
    assert dot.count("->") == 12  # a tree: nodes - 1 edges
    assert export_tree(1).count("[label=") == 1


def test_export_tree_contains_known_edges():
    dot = export_tree(4)
    # the root's step-1 edge and the two-swap step-2 chain inside level 4
    assert "v1_0 -> v2_0;" in dot
    assert "v4_4 -> v4_5 [style=dashed];" in dot
    assert "v4_5 -> v4_6 [style=dashed];" in dot


def test_export_tree_size_guard(monkeypatch):
    from collatz_stopping import ptree, triangle

    def counts(n):  # levels are counted only until the guard is passed
        if n > 6:
            pytest.fail(f"classes counted to level {n}, past the guard")
        return triangle.class_counts(n)

    # levels 1..5 hold 25 nodes and levels 1..6 hold 55
    monkeypatch.setattr(ptree, "DEFAULT_MAX_NODES", 40)
    monkeypatch.setattr(ptree, "class_counts", counts)
    for n in (6, 10**5):
        refusal = rf"^tree exports are bounded at n <= 5 \(25 nodes\); requested {n}$"
        with pytest.raises(ValueError, match=refusal):
            export_tree(n)


def test_export_tree_with_solutions():
    dot = export_tree(3, with_solutions=True)
    assert "x=59" in dot and "x=3" in dot


def test_trailing_zeros_helper():
    assert trailing_zeros((1, 1, 0, 1)) == 0
    assert trailing_zeros((1, 1, 1, 0)) == 1
    assert trailing_zeros((1, 1, 1, 1, 1, 0, 0)) == 2


def test_level_that_does_not_close_raises(monkeypatch):
    from collatz_stopping import ptree

    prev = tuple(generate_vset(3))
    # a terminal vector one zero longer than any level-4 vector is never emitted
    monkeypatch.setattr(ptree, "kappa", lambda n: kappa(n) + 1)
    with pytest.raises(RuntimeError, match="did not close"):
        ptree._extend_level(prev, 4)


def test_returned_levels_are_fresh_copies():
    expected = [e.vector for e in generate_vset(5)]
    generate_vset(5).clear()
    levels = vset_levels(5)
    levels[5].pop()
    levels[4].append(ROOT)
    del levels[3]
    assert [e.vector for e in generate_vset(5)] == expected
    again = vset_levels(5)
    assert sorted(again) == [1, 2, 3, 4, 5]
    assert [e.vector for e in again[5]] == expected
    assert ROOT not in again[4]
