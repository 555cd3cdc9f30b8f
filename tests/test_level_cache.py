"""Each tree level is extended once per process, whichever readers ask."""

from collatz_stopping import ptree
from collatz_stopping.ptree import export_tree, generate_vset, level_residues, phn_counts, vset_levels
from collatz_stopping.verify import residue_table, verify_range


def test_each_level_is_extended_once():
    ptree._tree_level.cache_clear()
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
