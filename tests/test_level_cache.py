"""Each tree level is extended once per process, whichever readers ask."""

from collatz_stopping import ptree
from collatz_stopping.ptree import export_tree, generate_vset, phn_counts, vset_levels
from collatz_stopping.verify import residue_table, verify_range


def test_each_level_is_extended_once(monkeypatch):
    ptree._built_level.cache_clear()
    extended = []
    real = ptree._extend_level

    def spy(prev, n):
        extended.append(n)
        return real(prev, n)

    monkeypatch.setattr(ptree, "_extend_level", spy)
    # the class lists are streamed along the tree, not read from its levels
    residue_table(10)
    verify_range(2, 4096, 10)
    assert extended == []
    generate_vset(10)
    for n in range(2, 11):
        phn_counts(n)
    vset_levels(10)
    export_tree(6)
    residue_table(10)
    verify_range(2, 4096, 10)
    assert sorted(extended) == list(range(2, 11))
