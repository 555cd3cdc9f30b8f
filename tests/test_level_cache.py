"""Each tree level is extended, its classes walked and sorted, and its h
histogram counted, once per process, whichever readers ask."""

from collatz_stopping import ptree
from collatz_stopping.core import WALK_LANES
from collatz_stopping.ladder import sigma_n
from collatz_stopping.ptree import export_tree, generate_vset, level_residues, phn_counts, vset_levels
from collatz_stopping.triangle import class_counts
from collatz_stopping.verify import residue_table, verify_range
from conftest import forge_level


def test_each_level_is_extended_once():
    ptree._tree_level.cache_clear()
    ptree._walked_classes.cache_clear()
    # the class lists read the same cached levels as the vector sets
    residue_table(10)
    verify_range(2, 4096, 10)
    assert ptree._tree_level.cache_info().currsize == 10
    generate_vset(10)
    for n in range(2, 11):
        phn_counts(n)
    vset_levels(10)
    export_tree(6)
    level_residues(10)
    residue_table(10)
    verify_range(2, 4096, 10)
    # a level is extended on each cache miss: levels 1..10, once each
    info = ptree._tree_level.cache_info()
    assert info.misses == info.currsize == 10


def test_each_levels_classes_are_walked_once_per_process(monkeypatch):
    ptree._tree_level.cache_clear()
    ptree._walked_classes.cache_clear()
    walked = []
    walk = ptree._first_nonmember
    spy = lambda lanes, count, sig: walked.append((sig, count)) or walk(lanes, count, sig)
    monkeypatch.setattr(ptree, "_first_nonmember", spy)
    residue_table(10)
    verify_range(2, 4096, 10)
    verify_range(2, 4096, 10)
    level_residues(10)
    ptree._level_solutions(10)
    export_tree(6, with_solutions=True)
    # one sigma_n-step walk of each level 1..10's classes, in the order
    # residue_table reads them; each level fits one chunk of WALK_LANES
    assert max(class_counts(10)) <= WALK_LANES
    assert walked == [(sigma_n(n), z) for n, z in enumerate(class_counts(10), start=1)]


def test_the_cached_classes_are_a_column_equal_to_a_fresh_derivation():
    for n, z in enumerate(class_counts(14), start=1):
        cached = ptree._walked_classes(n)
        assert type(cached) is bytes and len(cached) == 8 * z
        assert cached == ptree._walked_classes.__wrapped__(n)
        assert ptree._level_classes(n) is cached


def test_each_levels_classes_are_sorted_once_per_process(monkeypatch):
    for cache in (ptree._tree_level, ptree._walked_classes, ptree._ascending):
        cache.cache_clear()
    read, returned = ptree.level_residues, []
    spy = lambda n: returned.append((n, read(n))) or returned[-1][1]
    monkeypatch.setattr(ptree, "level_residues", spy)
    residue_table(12)
    residue_table(12)
    ptree.level_residues(12)
    verify_range(2, 4096, 12)
    # one sort per level 1..12, and every reader gets that level's one tuple
    info = ptree._ascending.cache_info()
    assert info.misses == info.currsize == 12
    assert len(returned) == 2 * 12 + 1
    first = {}
    for n, residues in returned:
        assert residues is first.setdefault(n, residues)
    # the scan writes its table from the class columns, in no order
    ptree._ascending.cache_clear()
    assert verify_range(2, 4096, 12).ok
    assert ptree._ascending.cache_info().currsize == 0


def test_a_forged_level_is_sorted_afresh_past_a_warm_memo(monkeypatch):
    assert level_residues(2) == (11, 23)
    assert residue_table(4)[3].residues == (11, 23)
    assert verify_range(2, 200, 4).ok
    # the memo is keyed on the classes, so dropping 23 from level 2 shows
    forge_level(monkeypatch, 2, lambda rs: rs - {23})
    assert level_residues(2) == (11,)
    assert residue_table(4)[3].residues == (11,)
    report = verify_range(2, 200, 4)
    assert report.mismatches == tuple((x, None, 5) for x in range(23, 200, 32))


def test_each_levels_h_histogram_is_counted_once_per_process():
    for cache in (ptree._tree_level, ptree._walked_classes, ptree._ascending, ptree._h_counts):
        cache.cache_clear()
    residue_table(12)
    first = [phn_counts(n) for n in range(1, 13)]
    again = [phn_counts(n) for n in range(1, 13)]
    # one count per level 1..12, keyed on its heads column
    info = ptree._h_counts.cache_info()
    assert info.misses == info.currsize == 12
    for n, (d, e) in enumerate(zip(first, again), start=1):
        assert d == e and d is not e
        assert list(d) == sorted(d) == list(range(2, n + 2))
    # a caller's edit stays in its own dict
    first[5][2] = 0
    assert phn_counts(6) == again[5] == {2: 7, 3: 7, 4: 7, 5: 5, 6: 3, 7: 1}


def test_a_forged_heads_column_is_counted_afresh_past_a_warm_memo(monkeypatch):
    true = phn_counts(6)
    sums, ends, heads = ptree._tree_level(6)
    forged = bytes([7]) + heads[1:]  # the first entry (h = 2) claims h = 7
    level = ptree._tree_level
    with monkeypatch.context() as patch:
        patch.setattr(ptree, "_tree_level", lambda n: (sums, ends, forged) if n == 6 else level(n))
        assert phn_counts(6) == {**true, 2: 6, 7: 2}
    assert phn_counts(6) == true


def test_the_scan_builds_its_table_and_plan_once_per_process(monkeypatch):
    from collatz_stopping import verify

    builders = (verify._class_table, verify._scan_plan)
    for cache in builders:
        cache.cache_clear()
    read, certified = ptree._level_classes, []
    monkeypatch.setattr(ptree, "_level_classes", lambda n: certified.append(n) or read(n))
    first = verify_range(2, 4096, 4)
    table = bytes(verify._prediction_table(4))
    assert verify_range(2, 4096, 4) == first and first.ok
    # every call reads the class columns, so every level is certified per
    # call, while the table, repeated to a chunk, and the walk of the 256
    # residues mod 2^8 are each made once, by the first scan
    assert certified == [1, 2, 3, 4] * 3
    calls = [(c.cache_info().misses, c.cache_info().hits) for c in builders]
    assert calls == [(1, 2), (1, 1)]
    # the scans share the one table and leave it as built
    assert verify._prediction_table(4) == table
    # the table is keyed on the classes, so dropping 23 from level 2 shows
    forge_level(monkeypatch, 2, lambda rs: rs - {23})
    report = verify_range(2, 4096, 4)
    assert report.mismatches == tuple((x, None, 5) for x in range(23, 4096, 32))
    assert [c.cache_info().misses for c in builders] == [2, 1]
