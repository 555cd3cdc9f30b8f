import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_stopping.core import forward_map, stopping_time
from collatz_stopping.ladder import kappa, sigma_n
from collatz_stopping.triangle import build_triangle, class_counts, w, z_from_triangle
from collatz_stopping.verify import (
    VerificationReport,
    level_residues,
    residue_table,
    sieve,
    verify_range,
)


def reference_classes(n_max):
    """(sigma, 2^sigma - 1, residues) for each block of residue_table(n_max)."""
    return [(b.sigma, b.modulus - 1, frozenset(b.residues)) for b in residue_table(n_max)]


def reference_scan(lo, hi, classes):
    """The scan as first written: a %-and-// walk, then a loop over the
    classes for the first one holding x.  An oracle for verify._scan_block."""
    counts = {}  # None: beyond the table
    mismatches = []
    budget = classes[-1][0] + 1
    for x in range(lo, hi):
        t = x
        simulated = None
        for s in range(1, budget + 1):
            t = t // 2 if t % 2 == 0 else (3 * t + 1) // 2
            if t < x:
                simulated = s
                break
        for predicted, mask, members in classes:
            if x & mask in members:
                break
        else:
            predicted = None
        # a stop one step past the table is beyond it, like no stop at all
        observed = None if simulated == budget else simulated
        if predicted != observed:
            mismatches.append((x, predicted, simulated))
        counts[observed] = counts.get(observed, 0) + 1
    return counts, mismatches


def reference_report(lo, hi, n_max):
    """verify_range's report assembled from one reference_scan."""
    counts, mismatches = reference_scan(lo, hi, reference_classes(n_max))
    beyond = counts.pop(None, 0)
    return VerificationReport(
        x_lo=lo,
        x_hi=hi,
        n_max=n_max,
        counts=dict(sorted(counts.items())),
        beyond_table=beyond,
        mismatches=tuple(mismatches),
    )


def test_sieve_seed():
    records = sieve(2)
    assert len(records) == 1
    rec = records[0]
    assert (rec.r, rec.k, rec.q, rec.n, rec.surviving) == (3, 2, 8, 2, True)


def test_sieve_depth_six_survivors():
    survivors = [rec.r for rec in sieve(6) if rec.surviving]
    assert survivors == [7, 15, 27, 31, 39, 47, 59, 63]


def test_sieve_depth_seven_row():
    rec = next(r for r in sieve(7) if r.r == 123)
    assert (rec.q, rec.n, rec.surviving) == (236, 5, True)


def test_sieve_matches_expansion_fixture(sieve_expansion):
    by_k = {}
    for k, r, q, n in sieve_expansion:
        by_k.setdefault(k, []).append((r, q, n))
    for k, rows in by_k.items():
        survivors = [(rec.r, rec.q, rec.n) for rec in sieve(k) if rec.surviving]
        assert survivors == rows


def test_sieve_sizes_match_triangle_row_sums():
    table = build_triangle(16)
    for k in range(2, 17):
        assert sum(1 for rec in sieve(k) if rec.surviving) == w(table, k)


def test_all_ones_residue_always_survives():
    # the depth-24 record descends from the all-ones residue at every depth,
    # so the spot checks plus the endpoint cover the whole chain
    for k in [*range(2, 17), 20, 24]:
        rec = next(r for r in sieve(k) if r.r == (1 << k) - 1)
        assert rec.surviving and rec.n == k


def test_sieve_records_match_forward_map():
    # every record, cut ones included and in order, from simulating each
    # residue: kept while every shallower prefix survived
    for k in range(2, 15):
        expected = []
        for r in range(3, 1 << k, 4):
            if all(j <= kappa(forward_map(r % (1 << j), j)[1]) for j in range(2, k)):
                q, n = forward_map(r, k)
                expected.append((r, k, q, n, k <= kappa(n)))
        records = [(rec.r, rec.k, rec.q, rec.n, rec.surviving) for rec in sieve(k)]
        assert records == expected


def test_sieve_bound_refusal_names_survivor_count(monkeypatch):
    from collatz_stopping import triangle, verify

    def counts(k):  # the refusal counts survivors at the bound, never at the request
        if k > 10:
            pytest.fail(f"survivors counted to depth {k}, past the bound")
        return triangle.survivor_counts(k)

    monkeypatch.setattr(verify, "SIEVE_MAX_DEPTH", 10)
    monkeypatch.setattr(verify, "survivor_counts", counts)
    for k in (12, 10**5):
        refusal = rf"^sieve depths are bounded at k <= 10 \(64 surviving residues\); requested {k}$"
        with pytest.raises(ValueError, match=refusal):
            sieve(k)


def test_sieve_rejects_shallow_depth():
    with pytest.raises(ValueError):
        sieve(1)


def test_residue_table_blocks(residue_classes):
    blocks = residue_table(5)
    assert [(b.sigma, b.n) for b in blocks[:2]] == [(1, None), (2, None)]
    assert blocks[0].residues == (0,) and blocks[1].residues == (1,)
    level2 = next(b for b in blocks if b.n == 2)
    assert level2.sigma == 5 and level2.residues == (11, 23)
    level4 = next(b for b in blocks if b.n == 4)
    assert level4.residues == (39, 79, 95, 123, 175, 199, 219)
    level5 = next(b for b in blocks if b.n == 5)
    assert level5.sigma == 10 and level5.residues[:3] == (287, 347, 367)
    assert len(level5.residues) == 12


def test_residue_table_matches_fixture(residue_classes):
    blocks = residue_table(8)
    for block in blocks:
        modulus, residues = residue_classes[block.sigma]
        assert block.modulus == modulus
        assert list(block.residues) == residues


def test_sieve_cutoffs_reproduce_residue_table():
    """Residues leaving the sieve at depth sigma_n are exactly the level-n
    classes: the doubling construction and the tree/solver route agree."""
    expected = {b.sigma: set(b.residues) for b in residue_table(12) if b.n is not None}
    max_sigma = max(expected)
    cut = {}
    for k in range(3, max_sigma + 1):
        for rec in sieve(k):
            if not rec.surviving:
                cut.setdefault(k, set()).add(rec.r)
    assert set(cut) <= set(expected)
    for sigma, residues in expected.items():
        assert cut.get(sigma, set()) == residues


def test_verify_range_counts_below_100():
    report = verify_range(2, 100, 4)
    assert report.ok
    assert report.counts == {1: 49, 2: 24, 4: 7, 5: 6, 7: 3, 8: 3}
    assert report.beyond_table == 6
    assert sum(report.counts.values()) + report.beyond_table == 98


def test_verify_range_small_window_no_mismatches():
    report = verify_range(2, 1 << 15, 9)
    assert report.ok
    assert report.mismatches == ()


def test_verify_range_beyond_table_is_not_a_mismatch():
    # sigma(27) is far beyond sigma_9, so 27 counts as beyond-table
    report = verify_range(27, 28, 9)
    assert report.ok and report.beyond_table == 1
    assert stopping_time(27, sigma_n(9) + 1) is None


def test_verify_range_parallel_report_identical(monkeypatch):
    from collatz_stopping import verify

    monkeypatch.setattr(verify, "BLOCK_SIZE", 1 << 12)
    serial = verify_range(2, 40_000, 6, jobs=1)
    parallel = verify_range(2, 40_000, 6, jobs=2)
    assert serial == parallel


def test_verify_range_counts_scale_with_modulus():
    # a span of exactly 2^sigma_6 consecutive integers hits every class
    # r (mod 2^sigma_n) exactly 2^(sigma_6 - sigma_n) times
    n_max = 6
    span = 1 << sigma_n(n_max)
    report = verify_range(2, 2 + span, n_max)
    table = build_triangle(n_max)
    from collatz_stopping.triangle import z_from_triangle

    for n in range(2, n_max + 1):
        per_class = span >> sigma_n(n)
        assert report.counts[sigma_n(n)] == z_from_triangle(table, n) * per_class


def test_verify_range_preconditions():
    with pytest.raises(ValueError):
        verify_range(1, 10, 4)
    with pytest.raises(ValueError):
        verify_range(10, 5, 4)
    with pytest.raises(ValueError):
        verify_range(2, 10, 0)


def _forge_level(monkeypatch, n, edit):
    """Route level n's solved residues through edit, in every class list."""
    from collatz_stopping import verify

    solved = verify._solved_residues

    def forged(level, entries):
        residues = solved(level, entries)
        return tuple(sorted(edit(set(residues)))) if level == n else residues

    monkeypatch.setattr(verify, "_solved_residues", forged)


def test_verify_range_reports_a_dropped_class(monkeypatch):
    # without 23 (mod 32), each x = 23 (mod 32) stops at 5 in no class
    _forge_level(monkeypatch, 2, lambda rs: rs - {23})
    report = verify_range(2, 200, 4)
    assert report.mismatches == tuple((x, None, 5) for x in range(23, 200, 32))
    assert not report.ok


def test_verify_range_reports_a_forged_class(monkeypatch):
    # 7 (mod 32) lies in no other class, and its integers do not stop at 5
    _forge_level(monkeypatch, 2, lambda rs: rs | {7})
    report = verify_range(2, 300, 2)
    assert report.mismatches == tuple(
        (x, 5, stopping_time(x, sigma_n(2) + 1)) for x in range(7, 300, 32)
    )


def test_verify_range_refuses_overlapping_classes(monkeypatch):
    # 3 (mod 32) lies inside level 1's class 3 (mod 16)
    _forge_level(monkeypatch, 2, lambda rs: rs | {3})
    with pytest.raises(RuntimeError, match=r"class 3 \(mod 2\^5\) lies inside class 3"):
        verify_range(2, 200, 4)


def test_verify_range_refuses_a_class_inside_a_trivial_block(monkeypatch):
    # 4 (mod 32) is even: it lies inside the trivial class 0 (mod 2)
    _forge_level(monkeypatch, 2, lambda rs: rs | {4})
    with pytest.raises(RuntimeError) as refused:
        verify_range(2, 200, 4)
    assert str(refused.value) == "class 4 (mod 2^5) lies inside class 0 (mod 2^1)"


@pytest.mark.parametrize("n_max", range(1, 13))
def test_prediction_table_holds_each_level_its_triangle_share(n_max):
    from collatz_stopping import verify

    table = verify._prediction_table(n_max)
    top = sigma_n(n_max)
    assert len(table) == 2**top
    # one byte per residue (mod 2^top): a class mod 2^sigma fills 2^(top - sigma)
    assert table.count(1) == 1 << (top - 1) and table.count(2) == 1 << (top - 2)
    for n, z in enumerate(class_counts(n_max), start=1):
        assert table.count(sigma_n(n)) == z << (top - sigma_n(n))


@settings(max_examples=40, deadline=None)
@given(
    lo=st.integers(2, (1 << 40) - 1),
    width=st.integers(0, 1 << 12),
    n_max=st.integers(1, 9),
)
def test_verify_range_agrees_with_the_reference_scan(lo, width, n_max):
    assert verify_range(lo, lo + width, n_max) == reference_report(lo, lo + width, n_max)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "edit, hi, n_max",
    [(lambda rs: rs - {23}, 200, 4), (lambda rs: rs | {7}, 300, 2)],
    ids=["23-dropped", "7-added"],
)
def test_forged_tables_agree_with_the_reference_scan(monkeypatch, jobs, edit, hi, n_max):
    from collatz_stopping import verify

    _forge_level(monkeypatch, 2, edit)
    pools = _in_process_pool(monkeypatch, 2)
    monkeypatch.setattr(verify, "BLOCK_SIZE", 64)
    report = verify_range(2, hi, n_max, jobs=jobs)
    expected = reference_report(2, hi, n_max)
    assert len(pools) == jobs - 1
    assert report.mismatches and report.mismatches == expected.mismatches
    assert report == expected


def test_verify_range_refuses_levels_above_the_bound_before_building(monkeypatch):
    from collatz_stopping import ptree

    # residue_table refuses through vset_levels, before any level is looked up
    ptree._built_level.cache_clear()
    monkeypatch.setattr(ptree, "_extend_level", lambda prev, n: pytest.fail("level built"))
    with pytest.raises(ValueError) as refused:
        verify_range(2, 10, 15)
    assert str(refused.value) == (
        "residue levels are bounded at n <= 14 (81117 classes); requested 15"
    )
    info = ptree._built_level.cache_info()
    assert info.hits == info.misses == 0
    # the bound is read per call; levels 1..5 hold 1 + 2 + 3 + 7 + 12 classes
    monkeypatch.setattr(ptree, "MAX_RESIDUE_LEVEL", 5)
    refusal = r"^residue levels are bounded at n <= 5 \(25 classes\); requested 6$"
    with pytest.raises(ValueError, match=refusal):
        verify_range(2, 10, 6)


@settings(max_examples=40, deadline=None)
@given(n_max=st.integers(1, 7), m=st.integers(1, 1 << 40))
def test_aligned_window_holds_every_class_its_share(n_max, m):
    # [m 2^S, (m + 1) 2^S) holds 2^(S - sigma) integers of each class mod 2^sigma
    span = sigma_n(n_max)
    report = verify_range(m << span, (m + 1) << span, n_max)
    table = build_triangle(max(n_max, 2))
    z = {n: z_from_triangle(table, n) if n > 1 else 1 for n in range(1, n_max + 1)}
    expected = {1: 1 << (span - 1), 2: 1 << (span - 2)}
    expected.update({sigma_n(n): z[n] << (span - sigma_n(n)) for n in z})
    assert report.ok
    assert report.counts == expected
    assert report.beyond_table == (1 << span) - sum(expected.values())


def test_level_residues_refuses_a_non_member(monkeypatch):
    from collatz_stopping import verify
    from collatz_stopping.diophantine import Solution

    monkeypatch.setattr(
        verify, "solve_vector", lambda v: Solution(x=3, y=0, vector=v, member=False)
    )
    with pytest.raises(RuntimeError, match="not a member"):
        level_residues(3)
    with pytest.raises(RuntimeError, match="not a member"):
        residue_table(3)


def test_verify_range_one_worker_scans_the_range_in_one_call(monkeypatch):
    import tracemalloc

    from collatz_stopping import verify

    scanned = []

    def scan(lo, hi, table):
        scanned.append((lo, hi))
        return {None: hi - lo}, []

    monkeypatch.setattr(verify, "BLOCK_SIZE", 1)
    monkeypatch.setattr(verify, "_scan_block", scan)
    residue_table(1)  # its levels are cached before the trace starts
    tracemalloc.start()
    try:
        report = verify_range(2, 2 + 10**5, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 10^5 one-integer blocks, yet one call and nothing listed per block
    assert scanned == [(2, 2 + 10**5)] and report.beyond_table == 10**5
    assert peak < 1 << 20


_LEAN_START = """
import json, sys

before = set(sys.modules)
import collatz_stopping
from collatz_stopping import cli, verify

cli.build_parser()
code = cli.main(["verify", "--max-bits", "12", "--n-max", "5"])
pool_modules = sorted(
    m for m in set(sys.modules) - before if m.startswith(("multiprocessing", "concurrent"))
)
verify.os.cpu_count = lambda: 2
hi = 2 + 2 * verify.BLOCK_SIZE
same = verify.verify_range(2, hi, 6, jobs=2) == verify.verify_range(2, hi, 6, jobs=1)
print(json.dumps([code, pool_modules, same, "concurrent.futures.process" in sys.modules]))
"""


def _fresh_interpreter(script, *argv):
    """Run script in a new interpreter that imports the package from src/;
    returns the JSON value of its last line of stdout."""
    import json
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_start_up_loads_no_pool_until_verify_starts_one():
    code, pool_modules, same, pool_loaded = _fresh_interpreter(_LEAN_START)
    # the CLI ran verify with jobs=1 and left the process machinery unloaded
    assert code == 0 and pool_modules == []
    # two shares of 2^16 integers on 2 CPUs: the real pool starts 2 processes
    assert same and pool_loaded


_NO_DATACLASSES_AT_START = """
import json, sys

import collatz_stopping
from collatz_stopping import cli

cli.build_parser()
code = cli.main(["tuples", "5"])
loaded = lambda: [m for m in ("dataclasses", "inspect", "collatz_stopping.verify") if m in sys.modules]
at_start = loaded()
if sys.argv[1] == "call":
    works = len(collatz_stopping.residue_table(3)) == 5
else:
    from collatz_stopping import SurvivalRecord
    works = SurvivalRecord.__name__ == "SurvivalRecord"
on_use = loaded()
from collatz_stopping import verify
resolved = all(hasattr(collatz_stopping, name) for name in collatz_stopping.__all__)
same = collatz_stopping.sieve is verify.sieve and collatz_stopping.ResidueBlock is verify.ResidueBlock
print(json.dumps([code, at_start, works, on_use, resolved, same, hasattr(collatz_stopping, "nope")]))
"""


@pytest.mark.parametrize("first_use", ["call", "import"])
def test_start_up_loads_no_dataclasses_until_verify_is_used(first_use):
    code, at_start, works, on_use, resolved, same, unknown = _fresh_interpreter(
        _NO_DATACLASSES_AT_START, first_use
    )
    # import, parser and a command that needs no verify load none of them
    assert code == 0 and at_start == []
    # the first use of a verify name loads verify and its dataclasses
    assert works and on_use == ["dataclasses", "inspect", "collatz_stopping.verify"]
    assert resolved and same and not unknown


def test_records_off_the_start_up_path_are_immutable_tuples():
    from collatz_stopping.diophantine import Corollary3Prediction, predict_corollary3_explicit
    from collatz_stopping.ladder import LadderRow, ladder_rows
    from collatz_stopping.ptree import ROOT, VSetEntry, generate_vset
    from collatz_stopping.triangle import TriangleTable, build_triangle

    # the field order of the frozen dataclasses they replaced
    assert LadderRow._fields == ("n", "d", "kappa", "sigma")
    assert TriangleTable._fields == ("max_n", "cells")
    assert VSetEntry._fields == ("vector", "n", "h", "p", "parent")
    assert Corollary3Prediction._fields == (
        "n", "j", "d_n", "parent", "predicted", "actual", "matches",
    )
    row = ladder_rows(3)[-1]
    table = build_triangle(4)
    entry = generate_vset(3)[-1]
    prediction = predict_corollary3_explicit(11, 2, 1, 2)
    for record, field in ((row, "kappa"), (table, "cells"), (entry, "p"), (prediction, "actual")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    assert table.cell(4, 3) == table.cells[4, 3] and table.cell(1, 4) == 0
    assert len({row, LadderRow(3, 1, 4, 7), ROOT, entry, VSetEntry((1, 1), 1, 2, 1, None)}) == 3


def _in_process_pool(monkeypatch, cpus):
    """Replace the process pool verify imports by one that runs each share
    here and starts no process; returns the (max_workers, shares) of every
    pool made."""
    import concurrent.futures

    from collatz_stopping import verify

    pools = []

    class InProcessPool:
        def __init__(self, max_workers):
            self.shares = []
            pools.append((max_workers, self.shares))

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            starts, ends, tables = (list(it) for it in iterables)
            self.shares.extend(zip(starts, ends))
            return map(fn, starts, ends, tables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
    return pools


def _assert_tiling(shares, lo, hi):
    """shares are non-empty, ascending and cover [lo, hi) with no gap."""
    assert [a for a, _ in shares] == [lo] + [b for _, b in shares[:-1]]
    assert shares[-1][1] == hi and all(a < b for a, b in shares)


@pytest.mark.parametrize(
    "jobs, cpus, workers",
    [(5000, 3, 3), (5000, 64, 10), (2, 64, 2), (5000, 1, None), (5000, None, None)],
)
def test_verify_range_workers_clamped_to_cpus_and_blocks(monkeypatch, jobs, cpus, workers):
    from collatz_stopping import verify

    pools = _in_process_pool(monkeypatch, cpus)
    monkeypatch.setattr(verify, "BLOCK_SIZE", 1024)
    # ten blocks of 2^10 integers
    report = verify_range(2, 2 + 10 * 1024, 6, jobs=jobs)
    assert [w for w, _ in pools] == ([] if workers is None else [workers])
    for w, shares in pools:
        assert len(shares) == w
        _assert_tiling(shares, 2, 2 + 10 * 1024)
    assert report == verify_range(2, 2 + 10 * 1024, 6)


def test_parallel_merge_keeps_mismatch_order_across_shares(monkeypatch):
    from collatz_stopping import verify

    # without 23 (mod 32), each x = 23 (mod 32) stops at 5 in no class
    _forge_level(monkeypatch, 2, lambda rs: rs - {23})
    pools = _in_process_pool(monkeypatch, 3)
    monkeypatch.setattr(verify, "BLOCK_SIZE", 64)
    hi = 2 + 3 * 64
    parallel = verify_range(2, hi, 4, jobs=3)
    serial = verify_range(2, hi, 4, jobs=1)
    (workers, shares), = pools
    assert workers == 3 and len(shares) == 3
    _assert_tiling(shares, 2, hi)
    # two mismatches fall in each share, and they stay ascending across them
    assert all(sum(a <= x < b for x in range(23, hi, 32)) == 2 for a, b in shares)
    assert parallel == serial
    assert parallel.mismatches == tuple((x, None, 5) for x in range(23, hi, 32))
