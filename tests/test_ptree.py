import re
from collections import Counter

import pytest

from collatz_stopping.diophantine import solve_vector
from collatz_stopping.ladder import d, kappa
from collatz_stopping.ptree import (
    ROOT,
    VSetEntry,
    export_tree,
    generate_vset,
    leading_ones,
    lex_tuples,
    ln_count,
    phn_counts,
    tree_node_count,
    vset_levels,
)
from collatz_stopping.triangle import build_triangle, class_counts, z_from_triangle
from conftest import pack_sums, reference_tree_levels, trailing_zeros, unpack_sums


def reference_extend_level(prev, n):
    """Level n from level n-1 as first written, steps 1-3 on bit tuples: each
    vector copied, its final 1 moved left while a 0 precedes it, and h and p
    counted afresh.  An oracle for ptree's walker."""
    suffix = (1,) if d(n) == 1 else (0, 1)
    terminal = (1,) * (n + 1) + (0,) * (kappa(n) - n)
    raw = []
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
    per_h = {}
    for vec, parent in raw:
        h = leading_ones(vec)
        per_h[h] = per_h.get(h, 0) + 1
        out.append(VSetEntry(vector=vec, n=n, h=h, p=per_h[h], parent=parent))
    return out


def test_walker_equals_the_bit_tuple_oracle_through_level_14():
    from collatz_stopping import ptree

    levels = vset_levels(14)
    expected = [ROOT]
    for n in range(1, 15):
        if n > 1:
            expected = reference_extend_level(expected, n)
        # every field: vector, n, h, p and parent
        assert levels[n] == expected
        assert phn_counts(n) == dict(Counter(e.h for e in expected))
        # the cached level's byte columns: each final-1 position and h
        _, ends, heads = ptree._tree_level(n)
        assert type(ends) is type(heads) is bytes
        assert ends == bytes(len(e.vector) - 1 - e.vector[::-1].index(1) for e in expected)
        assert heads == bytes(e.h for e in expected)
    assert generate_vset(14) == expected


def test_columns_equal_the_tuple_walker_through_level_14():
    from collatz_stopping import ptree

    for n, (sums, ends, heads) in enumerate(reference_tree_levels(14), start=1):
        columns = ptree._tree_level(n)
        assert [type(c) for c in columns] == [bytes] * 3
        # (S, p, h) of every entry, in emission order
        assert list(zip(unpack_sums(columns[0]), *columns[1:])) == list(zip(sums, ends, heads))


def test_heads_of_levels_15_and_16_equal_the_tuple_walker():
    from collatz_stopping import ptree

    # past the level-14 checks: elsewhere levels 15 and 16 are checked by
    # size alone, which a wrong h leaves as it is.  No other test needs them
    # held, so the level cache is emptied after
    try:
        for n, (_, ends, heads) in enumerate(reference_tree_levels(16), start=1):
            if n >= 15:
                assert ptree._tree_level(n)[1:] == (ends, heads)
    finally:
        ptree._tree_level.cache_clear()


def test_a_sums_column_holds_eight_bytes_per_class():
    from collatz_stopping import ptree

    z = class_counts(14)
    for n in range(1, 15):
        assert len(ptree._tree_level(n)[0]) == 8 * z[n - 1]
    assert sum(len(ptree._tree_level(n)[0]) for n in range(1, 15)) == 648_936


def test_levels_past_20_are_refused_before_they_are_built(monkeypatch):
    from collatz_stopping import ptree

    # the largest sum 2^kappa(n) * (3^(n+1) - 1) / 2 fits 8 bytes at 20, not at 21
    largest = lambda n: (1 << kappa(n)) * (3 ** (n + 1) - 1) // 2
    assert largest(20) < 1 << 64 <= largest(21)
    extend = ptree._tree_level.__wrapped__
    before = ptree._tree_level.cache_info()
    refusal = "^tree levels in 8-byte sums are bounded at n <= 20; requested "
    for n in (21, 40_000):
        with pytest.raises(ValueError, match=f"{refusal}{n}$"):
            extend(n)
    assert ptree._tree_level.cache_info() == before

    def unbuilt(n):
        raise LookupError(f"level {n} would be built")

    # level 20 passes the refusal and goes on to build its parent
    monkeypatch.setattr(ptree, "_tree_level", unbuilt)
    with pytest.raises(LookupError, match="^level 19 would be built$"):
        extend(20)


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
    cached = ptree._tree_level.cache_info()
    for n in (15, 16):
        for read in (vset_levels, generate_vset, phn_counts):
            with pytest.raises(ValueError, match=rf"n <= 14 \(81117 classes\); requested {n}$"):
                read(n)
    assert ptree._tree_level.cache_info() == cached
    # levels 15 and 16 hold about 24 MB that no later test reads
    ptree._tree_level.cache_clear()


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


def reference_export_with_solutions(n):
    """export_tree(n, with_solutions=True) by the per-vector solve: each
    node label of export_tree(n) gains the x that solve_vector gives its
    vector.  An oracle for the export's labels, which read the class stream."""
    levels = vset_levels(n)

    def label(node):
        vector = levels[int(node[1])][int(node[2])].vector
        return f'{node[0][:-3]}\\nx={solve_vector(vector).x}"];'

    return re.sub(r'v(\d+)_(\d+) \[label="[^"]*"\];', label, export_tree(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_export_labels_equal_the_per_vector_solve(n):
    assert export_tree(n, with_solutions=True) == reference_export_with_solutions(n)


def test_level_solutions_equal_the_solver_on_every_entry_in_emission_order():
    from collatz_stopping import ptree

    for n in range(1, 13):
        solved = [solve_vector(e.vector) for e in generate_vset(n)]
        assert ptree._level_solutions(n) == [(sol.x, sol.y) for sol in solved]


def test_lane_derived_classes_equal_the_scalar_formula_through_level_14():
    from collatz_stopping import ptree
    from collatz_stopping.diophantine import _level_constants

    for n in range(1, 15):
        _, mod, _, inv = _level_constants(n)
        sums = unpack_sums(ptree._tree_level(n)[0])
        assert unpack_sums(ptree._level_classes(n)) == tuple(-s * inv % mod for s in sums)


def test_a_forged_sum_is_caught_by_the_walk_and_named(monkeypatch):
    from collatz_stopping import ptree
    from collatz_stopping.diophantine import _level_constants

    n, i, bad = 5, 7, 3  # 3 stops at 4, not at sigma_5 = 10
    _, mod, p3, _ = _level_constants(n)
    sums, ends, heads = ptree._tree_level(n)
    forged = sums[: 8 * i] + pack_sums([(-bad * p3) % mod]) + sums[8 * (i + 1) :]
    real = ptree._tree_level
    monkeypatch.setattr(ptree, "_tree_level", lambda m: (forged, ends, heads) if m == n else real(m))
    ptree._walked_classes.cache_clear()
    with pytest.raises(RuntimeError, match=f"^level {n} holds a class {bad} that is not a member$"):
        ptree._level_classes(n)


def test_levels_past_sigma_32_are_refused_before_they_are_built(monkeypatch):
    from collatz_stopping import ptree

    before = ptree._tree_level.cache_info()
    with pytest.raises(ValueError, match=r"bounded at sigma_n <= 32; requested 34$"):
        ptree._level_classes(20)
    assert ptree._tree_level.cache_info() == before

    def unbuilt(n):
        raise LookupError(f"level {n} would be built")

    # level 19 (sigma_19 = 32) passes the refusal and goes on to build its level
    monkeypatch.setattr(ptree, "_tree_level", unbuilt)
    with pytest.raises(LookupError, match="^level 19 would be built$"):
        ptree._level_classes(19)


def test_trailing_zeros_helper():
    assert trailing_zeros((1, 1, 0, 1)) == 0
    assert trailing_zeros((1, 1, 1, 0)) == 1
    assert trailing_zeros((1, 1, 1, 1, 1, 0, 0)) == 2


def test_level_that_does_not_close_raises(monkeypatch):
    from collatz_stopping import ptree

    extend = ptree._tree_level.__wrapped__
    # level 4 grown from the root: its one chain stops with the final 1 at 2, not 4
    monkeypatch.setattr(ptree, "_tree_level", lambda n: (pack_sums([5]), b"\x01", b"\x02"))
    with pytest.raises(RuntimeError, match="^level 4 did not close on the all-leading-ones vector$"):
        extend(4)
    # the oracle refuses the same parent level
    with pytest.raises(RuntimeError, match="^level 4 did not close on the all-leading-ones vector$"):
        reference_extend_level([ROOT], 4)


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
