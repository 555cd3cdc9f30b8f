import dataclasses
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_stopping.core import WALK_LANES, forward_map, stopping_time, t_step
from collatz_stopping.diophantine import solve_vector
from collatz_stopping.ladder import kappa, sigma_n
from collatz_stopping.ptree import generate_vset, level_residues
from collatz_stopping.triangle import build_triangle, class_counts, w, z_from_triangle
from collatz_stopping.verify import (
    GROUP_STRIDE,
    SIEVE_MAX_DEPTH,
    SurvivalRecord,
    VerificationReport,
    residue_table,
    sieve,
    verify_range,
)
from conftest import forge_level, pack_sums, unpack_sums


def reference_level_residues(n):
    """level_residues as first written: every level-n vector of the tree
    solved, each solution confirmed a member.  An oracle for the stream."""
    solutions = [solve_vector(e.vector) for e in generate_vset(n)]
    if not all(s.member for s in solutions):
        raise RuntimeError(f"level {n} holds a vector whose solution is not a member")
    return tuple(sorted(s.x for s in solutions))


def reference_trajectory(x, sigma):
    """[T^0(x), .., T^sigma(x)], one scalar step at a time."""
    walk = [x]
    for _ in range(sigma):
        x = (3 * x + 1) >> 1 if x & 1 else x >> 1
        walk.append(x)
    return walk


def reference_first_nonmember(xs, sigma):
    """The per-class walk of ptree._level_classes as first written: index of
    the first x in xs with not T^sigma(x) < x <= min(T^0 .. T^(sigma-1)), or
    None.  An oracle for the lane walk."""
    for i, x in enumerate(xs):
        *head, last = reference_trajectory(x, sigma)
        if not last < x <= min(head):
            return i
    return None


def lane_walk(xs, sigma):
    """ptree._first_nonmember over xs packed in 8-byte lanes."""
    from collatz_stopping import core, ptree

    return ptree._first_nonmember(core._pack(xs, 8), len(xs), sigma)


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


def reference_sieve(k):
    """The tuple sieve: every survivor (r, q, n) doubled into r and r + 2^(depth-1),
    each child one scalar T-step on, records built by SurvivalRecord."""
    kap = [kappa(n) for n in range(k + 1)]
    level = [(3, 8, 2)]
    for depth in range(3, k + 1):
        parents = [(r, q, n) for r, q, n in level if depth - 1 <= kap[n]]
        half = 1 << (depth - 1)
        children = parents + [(r + half, q + 3**n, n) for r, q, n in parents]
        level = [(r, (3 * q + 1) >> 1, n + 1) if q & 1 else (r, q >> 1, n) for r, q, n in children]
    return [SurvivalRecord(r, k, q, n, k <= kap[n]) for r, q, n in level]


def test_sieve_equals_the_tuple_sieve_record_by_record():
    for k in range(2, 21):
        assert sieve(k) == reference_sieve(k)


def test_field_built_records_behave_like_init_built_ones():
    records, built = sieve(12), reference_sieve(12)
    assert records == built and len(records) == 2 * w(build_triangle(11), 11)
    assert list(map(hash, records)) == list(map(hash, built))
    assert list(map(repr, records)) == list(map(repr, built))
    assert [dataclasses.astuple(rec) for rec in records] == list(map(dataclasses.astuple, built))
    for rec, ref in zip(records, built):
        assert type(rec) is SurvivalRecord and type(rec.surviving) is bool
        assert all(hasattr(rec, field) for field in SurvivalRecord.__slots__)  # every slot set
        assert dataclasses.replace(rec, q=rec.q + 1) == dataclasses.replace(ref, q=ref.q + 1)
        assert dataclasses.replace(rec) == ref
    rec = records[len(records) // 2]
    for field in SurvivalRecord.__slots__:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, field, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, field)
    assert rec == built[len(records) // 2]


def test_sieve_lanes_stay_exact_up_to_the_depth_bound():
    # T(t) + 1 <= 3(t + 1)/2, so a depth-d image of r < 2^d has q < 3^d, a child
    # has q < 2 * 3^(d-1) before its step, and the 3q + 1 that the step forms
    # is below 2 * 3^SIEVE_MAX_DEPTH: the 8-byte lanes hold it only below 2^63
    assert 2 * 3**SIEVE_MAX_DEPTH < 2**63
    for k in range(2, 19):
        assert all(rec.q < 3**k for rec in sieve(k))


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


def test_verify_range_reports_a_dropped_class(monkeypatch):
    # without 23 (mod 32), each x = 23 (mod 32) stops at 5 in no class
    forge_level(monkeypatch, 2, lambda rs: rs - {23})
    report = verify_range(2, 200, 4)
    assert report.mismatches == tuple((x, None, 5) for x in range(23, 200, 32))
    assert not report.ok


def test_verify_range_reports_a_forged_class(monkeypatch):
    # 7 (mod 32) lies in no other class, and its integers do not stop at 5
    forge_level(monkeypatch, 2, lambda rs: rs | {7})
    report = verify_range(2, 300, 2)
    assert report.mismatches == tuple(
        (x, 5, stopping_time(x, sigma_n(2) + 1)) for x in range(7, 300, 32)
    )


def test_verify_range_refuses_overlapping_classes(monkeypatch):
    # 3 (mod 32) lies inside level 1's class 3 (mod 16)
    forge_level(monkeypatch, 2, lambda rs: rs | {3})
    with pytest.raises(RuntimeError, match=r"class 3 \(mod 2\^5\) lies inside class 3"):
        verify_range(2, 200, 4)


def test_verify_range_refuses_a_class_inside_a_trivial_block(monkeypatch):
    # 4 (mod 32) is even: it lies inside the trivial class 0 (mod 2)
    forge_level(monkeypatch, 2, lambda rs: rs | {4})
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


CHUNK = GROUP_STRIDE * WALK_LANES  # integers the scan walks per chunk
# the least c * 2^17 whose budget-17 (n_max 9) lanes need 9 bytes, not 8:
# its x = c * 2^17 - 1 adds 3t + 1 = 2c * 3^17 - 2 >= 2^64
NINE_BYTE_HI = -(-(1 << 63) // 3**17) << 17


@pytest.mark.parametrize(
    "lo, width, n_max",
    [
        ((1 << 40) + 3, CHUNK + 37, 4),
        ((1 << 33) + 5, 3000, 1),
        (2, 5000, 9),
        ((1 << 64) + 11, 3000, 6),
        ((5 << 20) - 900, 6000, 12),
        ((1 << 40) + 7, 0, 9),
        (NINE_BYTE_HI - 3000, 3000, 9),
        ((3 << 18) - 700, 2000, 9),
        ((1 << 44) + 129, 3100, 1),
        (2, CHUNK - 2, 12),
        ((1 << 40) + 77, CHUNK, 12),
        ((1 << 36) + 5, CHUNK, 4),
        ((1 << 44) + 201, CHUNK, 3),
    ],
    ids=["wider-than-a-chunk", "table-shorter-than-stride", "from-2", "lanes-past-64-bits",
         "lanes-past-the-table-end", "empty", "first-nine-byte-lanes", "into-the-next-chunk",
         "groups-that-never-stop", "full-chunk-from-2", "full-chunk-from-step-8",
         "full-chunk-budget-9", "full-chunk-budget-8"],
)
def test_scan_edges_agree_with_the_reference_scan(lo, width, n_max):
    # past the Hypothesis widths: a chunk that the range enters off its first
    # stride; n_max 1's 16-byte table; lanes wider than 8 bytes; at n_max 12
    # (a 2^20-byte table) a window across the table's end; a window whose
    # last x needs the ninth byte that its hi first brings; n_max 9's
    # 64 KB table repeated to one chunk, in a window whose first group starts
    # past its chunk's first stride and that runs into the next chunk; and
    # at n_max 1 (budget 5) groups such as x = 255 (mod 256), whose lanes
    # share more steps at or above x than the budget: none stops, all are
    # beyond the table.  Then whole chunks of 1024-lane groups: from 2, whose
    # first lanes are the smallest x a report takes; near 2^40, where a group
    # that no lane has left is walked from step 8; and at budgets 9 and 8,
    # where such a group is walked from step 8, or from step 7, for its last
    # step
    assert verify_range(lo, lo + width, n_max) == reference_report(lo, lo + width, n_max)


def walk_spy(monkeypatch):
    """The (x, t, budget) of each verify._walk call, x and t read off lane 0."""
    from collatz_stopping import verify

    walk, calls = verify._walk, []

    def spy(t, x, ones, guard, w, budget):
        lane = (1 << w) - 1
        calls.append((x & lane, t & lane, budget))
        return walk(t, x, ones, guard, w, budget)

    monkeypatch.setattr(verify, "_walk", spy)
    return calls


def test_only_groups_unstopped_at_step_8_are_walked_from_there(monkeypatch):
    # a group's lanes x0 + i * 256 share 8 steps: one whose first lane
    # stops by then stops as a whole, with no lane walk
    calls = walk_spy(monkeypatch)
    lo, n_max = 1 << 40, 9
    report = verify_range(lo, lo + (1 << 17), n_max)
    assert report.ok
    walks = [reference_trajectory(x0, 8) for x0 in range(lo, lo + GROUP_STRIDE)]
    unstopped = [(w[0], w[8]) for w in walks if min(w) >= w[0]]
    assert len(unstopped) == 19
    assert calls == [(x0, t, sigma_n(n_max) + 1 - 8) for x0, t in unstopped]


def test_a_group_whose_lanes_part_is_walked_from_the_step_before(monkeypatch):
    from collatz_stopping import verify

    # x = 1 never drops below itself, while 257 stops at step 2: the group's
    # end lanes part there, so no lane has stopped by step 1, and the group
    # is walked from T(1) = 2 with one step less
    calls = walk_spy(monkeypatch)
    counts, mismatches = verify._scan_block(1, 3000, 9)
    assert (counts, mismatches) == reference_scan(1, 3000, reference_classes(9))
    assert mismatches[0] == (1, 2, None)
    assert calls[0] == (1, 2, sigma_n(9))


def test_nine_byte_hi_is_where_the_scan_lanes_widen():
    from collatz_stopping import core

    assert core._lane_bytes(17, NINE_BYTE_HI - (1 << 17)) == 8
    assert core._lane_bytes(17, NINE_BYTE_HI) == 9
    assert 3 * reference_trajectory(NINE_BYTE_HI - 1, 17)[-2] + 1 >= 1 << 64


@pytest.mark.parametrize(
    "level, edit, n_max, residue",
    [(2, lambda rs: rs - {23} | {7}, 2, 7), (1, lambda rs: rs | {11}, 1, 11)],
    ids=["23-dropped-7-added", "11-added"],
)
def test_forged_table_mismatches_stay_ascending_across_groups_and_chunks(
    monkeypatch, level, edit, n_max, residue
):
    # every x = residue (mod 16) is a mismatch, in 16 groups of each chunk:
    # x = 23 (mod 32) stops at 5 in no class; x = 7 (mod 32) is forged into
    # one and does not stop at 5; x = 11 (mod 16) is forged to stop at 4,
    # and x = 11 (mod 32) stops at 5, one step past n_max 1's table
    forge_level(monkeypatch, level, edit)
    lo = (1 << 36) + 101
    hi = lo + CHUNK + 5000
    report = verify_range(lo, hi, n_max)
    assert report == reference_report(lo, hi, n_max)
    xs = [x for x, _, _ in report.mismatches]
    assert xs == list(range(lo + (residue - lo) % 16, hi, 16))
    assert {(x - lo) // CHUNK for x in xs} == {0, 1}
    assert len({x % GROUP_STRIDE for x in xs}) == GROUP_STRIDE // 16


@settings(max_examples=60, deadline=None)
@given(data=st.data(), steps=st.integers(1, 25), c=st.integers(1, 1 << 60))
def test_scan_lane_width_holds_every_step(data, steps, c):
    from collatz_stopping import core

    # T(t) + 1 <= 3(t + 1)/2, and x = c * 2^steps - 1 attains it at every
    # step, T^j(x) = c * 3^j * 2^(steps-j) - 1: no x < hi = c * 2^steps adds
    # a 3t + 1 above its 2c * 3^steps - 2
    hi = c << steps
    xs = [hi - 1, *data.draw(st.lists(st.integers(0, hi - 1), max_size=20))]
    walks = [reference_trajectory(x, steps) for x in xs]
    added = [3 * t + 1 for walk in walks for t in walk[:-1]]
    assert max(added) == 3 * walks[0][-2] + 1 == 2 * c * 3**steps - 2
    # so every 3t + 1 fits a lane and every t leaves its top bit to the
    # guard, while one byte less would carry into the next lane
    w = 8 * core._lane_bytes(steps, hi)
    assert max(added) < 1 << w and max(map(max, walks)) < 1 << (w - 1)
    assert max(added) >= 1 << (w - 8)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "edit, hi, n_max",
    [(lambda rs: rs - {23}, 200, 4), (lambda rs: rs | {7}, 300, 2)],
    ids=["23-dropped", "7-added"],
)
def test_forged_tables_agree_with_the_reference_scan(monkeypatch, jobs, edit, hi, n_max):
    from collatz_stopping import verify

    forge_level(monkeypatch, 2, edit)
    pools = _in_process_pool(monkeypatch, 2)
    monkeypatch.setattr(verify, "BLOCK_SIZE", 64)
    report = verify_range(2, hi, n_max, jobs=jobs)
    expected = reference_report(2, hi, n_max)
    assert len(pools) == jobs - 1
    assert report.mismatches and report.mismatches == expected.mismatches
    assert report == expected


def test_verify_range_refuses_levels_above_the_bound_before_building(monkeypatch):
    from collatz_stopping import ptree

    # verify_range refuses through ptree._check_level, before any level is built
    cache = ptree._tree_level
    cache.cache_clear()
    monkeypatch.setattr(ptree, "_tree_level", lambda n: pytest.fail("level built"))
    with pytest.raises(ValueError) as refused:
        verify_range(2, 10, 15)
    assert str(refused.value) == (
        "residue levels are bounded at n <= 14 (81117 classes); requested 15"
    )
    info = cache.cache_info()
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
    from collatz_stopping import ptree
    from collatz_stopping.diophantine import Solution

    monkeypatch.setattr(
        ptree, "solve_vector", lambda v: Solution(x=3, y=0, vector=v, member=False)
    )
    with pytest.raises(RuntimeError, match="not a member"):
        level_residues(3)
    with pytest.raises(RuntimeError, match="not a member"):
        residue_table(3)


def test_stream_equals_the_solver_on_every_entry_in_emission_order():
    from collatz_stopping import ptree

    for n in range(1, 13):
        residues = unpack_sums(ptree._level_classes(n))
        assert residues == tuple(solve_vector(e.vector).x for e in generate_vset(n))


def test_sorted_stream_equals_the_oracle_on_the_deepest_levels():
    from collatz_stopping import ptree

    for n in (13, 14):
        assert tuple(sorted(unpack_sums(ptree._level_classes(n)))) == reference_level_residues(n)


def test_the_stream_solves_one_vector_per_level(monkeypatch):
    from collatz_stopping import ptree

    solved = []
    real = ptree.solve_vector
    monkeypatch.setattr(ptree, "solve_vector", lambda v: solved.append(v) or real(v))
    residue_table(12)
    # each level's closing vector: n + 1 leading ones, then kappa(n) - n zeros
    assert solved == [(1,) * (n + 1) + (0,) * (kappa(n) - n) for n in range(1, 13)]


@pytest.mark.parametrize(
    "forge, refusal",
    [
        ({"x": 17}, "its vector solves to 17"),
        ({"member": False}, "its vector solves to 15, which is not a member"),
    ],
    ids=["other-x", "non-member"],
)
def test_a_forged_closing_solution_fails_the_level_certificate(monkeypatch, forge, refusal):
    from collatz_stopping import ptree

    real = ptree.solve_vector

    def forged(v):
        sol = real(v)
        return sol._replace(**forge) if sum(v) == 4 else sol

    monkeypatch.setattr(ptree, "solve_vector", forged)
    assert level_residues(2) == (11, 23)
    with pytest.raises(RuntimeError, match=rf"^level 3 closes on 15, but {refusal}$"):
        level_residues(3)


def test_the_stream_walks_every_class(monkeypatch):
    from collatz_stopping import core, diophantine, ptree
    from collatz_stopping.ptree import lex_tuples

    # non-member candidates in place of tree classes: level 5's first class,
    # then level 12's in a later chunk; with two, the first in emission order
    # is named, whether they are walked in one chunk or two
    lanes = core.WALK_LANES
    cases = [
        (5, [0]),
        (12, [lanes + 7]),
        (12, [2 * lanes + 3, lanes + 9]),
        (12, [lanes + 9, lanes + 2]),
    ]
    level = ptree._tree_level
    for n, where in cases:
        strays = [v for v in lex_tuples(n) if not solve_vector(v).member][: len(where)]
        sums = list(unpack_sums(level(n)[0]))
        for i, v in zip(where, strays):
            sums[i] = diophantine._weighted_sum(v)
        forged = lambda m, n=n, sums=pack_sums(sums): (sums, *level(m)[1:]) if m == n else level(m)
        first = solve_vector(strays[where.index(min(where))]).x
        refusal = rf"^level {n} holds a class {first} that is not a member$"
        ptree._walked_classes.cache_clear()
        with monkeypatch.context() as patch:
            patch.setattr(ptree, "_tree_level", forged)
            assert len(residue_table(n - 1)) == n + 1
            with pytest.raises(RuntimeError, match=refusal):
                residue_table(n)


@lru_cache(maxsize=None)
def _members(sigma):
    """Up to eight distinct members at sigma, solved from random candidate
    vectors of the level whose sigma_n it is, and confirmed by the oracle;
    none when sigma is no level's sigma_n."""
    levels = [n for n in range(1, sigma) if sigma_n(n) == sigma]
    if not levels:
        return ()
    n, rng, found = levels[0], random.Random(sigma), set()
    for _ in range(64):
        tail = [0] * (kappa(n) - n) + [1] * (n - 1)
        rng.shuffle(tail)
        x = solve_vector((1, 1, *tail)).x
        if reference_first_nonmember([x], sigma) is None:
            found.add(x)
    return tuple(sorted(found))[:8]


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    sigma=st.integers(1, 39),
    length=st.sampled_from(["empty", "one", "chunk-1", "chunk", "chunk+1"]),
)
def test_lane_walk_names_the_first_nonmember_like_the_oracle(data, sigma, length):
    from collatz_stopping import core

    # 8-byte lanes hold the walk through sigma 39; the lengths end a chunk
    # early, on its last lane and one lane into the next
    lanes = core.WALK_LANES
    sizes = {"empty": 0, "one": 1, "chunk-1": lanes - 1, "chunk": lanes, "chunk+1": lanes + 1}
    size = sizes[length]
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    members = _members(sigma)
    pick = (lambda: rng.choice(members)) if members else (lambda: rng.randrange(1 << sigma))
    xs = [pick() for _ in range(size)]
    forged = data.draw(st.lists(st.integers(0, size - 1), max_size=4)) if size else []
    for i in forged:  # early stoppers, late stoppers and both ends of the lane
        xs[i] = data.draw(st.sampled_from([0, (1 << sigma) - 1, rng.randrange(1 << sigma)]))
        if reference_first_nonmember([xs[i]], sigma) is None:
            xs[i] = 0
    expected = reference_first_nonmember(xs, sigma)
    assert lane_walk(xs, sigma) == expected
    if members:
        assert expected == (min(forged) if forged else None)


@pytest.mark.parametrize("sigma", [4, 5, 7, 8, 20])
def test_a_chunk_that_fails_together_is_named_at_its_first_lane(sigma):
    from collatz_stopping import core

    # _walk's steps is 0 when every lane stops at one step or none does, and
    # then full alone decides: 0 for even x, stopped at step 1 (a member
    # counts sigma - 1 >= 3), sigma for x = 2^sigma - 1, which shares sigma
    # odd steps and never stops within sigma
    lanes = core.WALK_LANES
    rng = random.Random(sigma)
    evens = [rng.randrange(2, 1 << sigma, 2) for _ in range(lanes + 5)]
    assert lane_walk(evens, sigma) == 0
    rising = [(1 << sigma) - 1] * (lanes + 5)
    assert lane_walk(rising, sigma) == 0
    # members all count sigma - 1 together; one forged lane is the only
    # failure, wherever it lies
    members = [rng.choice(_members(sigma)) for _ in range(2 * lanes + 3)]
    assert lane_walk(members, sigma) is None
    for i in (0, 17, lanes - 1, lanes, 2 * lanes + 2):
        for forged in (evens[0], rising[0]):
            xs = members[:i] + [forged] + members[i + 1 :]
            assert lane_walk(xs, sigma) == i == reference_first_nonmember(xs, sigma)


@pytest.mark.parametrize("sigma", range(1, 61))
def test_lane_width_holds_every_step_of_the_walk(sigma):
    from collatz_stopping import core

    # the walk's lanes are the scan's bound at hi = 2^sigma: x = 2^sigma - 1
    # attains it, T^j(x) = 3^j * 2^(sigma-j) - 1, so no x < 2^sigma adds a
    # 3t + 1 above 2 * 3^sigma - 2 or reaches a t above 3^sigma - 1
    rng = random.Random(sigma)
    xs = [(1 << sigma) - 1] + [rng.randrange(1, 1 << sigma, 2) for _ in range(200)]
    walks = [reference_trajectory(x, sigma) for x in xs]
    added = [3 * t + 1 for walk in walks for t in walk[:-1]]
    top = max(map(max, walks))
    assert max(added) == 2 * 3**sigma - 2 and top == 3**sigma - 1
    # so every 3t + 1 fits a lane and every t leaves its top bit to the
    # guard, while one byte less would carry into the next lane
    w = 8 * core._lane_bytes(sigma, 1 << sigma)
    assert max(added) < 1 << w and top < 1 << (w - 1)
    assert max(added) >= 1 << (w - 8)
    if w <= 64:  # the class walk's 8-byte lanes hold it, sigma <= 39
        assert lane_walk(xs, sigma) == reference_first_nonmember(xs, sigma)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), lanes=st.integers(1, 64), size=st.integers(1, 10))
def test_one_lane_step_is_t_step_on_every_lane(data, lanes, size):
    from collatz_stopping import core

    # any lane value whose 3t + 1 fits the lane, up to 3t + 1 = 2^W - 1
    w = 8 * size
    value = st.integers(1, ((1 << w) - 2) // 3)
    ts = data.draw(st.lists(value, min_size=lanes, max_size=lanes))
    low, _ = core._lane_masks(size, lanes)
    packed = int.from_bytes(b"".join(t.to_bytes(size, "little") for t in ts), "little")
    stepped = core._step(packed, low, w).to_bytes(size * lanes, "little")
    lane = lambda i: int.from_bytes(stepped[i * size : (i + 1) * size], "little")
    assert [lane(i) for i in range(lanes)] == [t_step(t) for t in ts]


def reference_count(x, budget):
    """The steps 1..budget at which T^j(x) >= x, up to x's stop, and that
    stop (None: none within budget), off reference_trajectory."""
    walk = reference_trajectory(x, budget)
    stop = next((j for j in range(1, budget + 1) if walk[j] < x), None)
    return (budget if stop is None else stop - 1), stop


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    budget=st.integers(1, 40),
    case=st.sampled_from(["drawn", "all-even", "no-stop", "shared-prefix", "from-T^k"]),
)
def test_walk_counts_every_lane_like_the_reference_trajectory(data, budget, case):
    from collatz_stopping import core

    lanes = data.draw(st.integers(1, 40))
    draw = lambda lo, top: data.draw(st.lists(st.integers(lo, top), min_size=lanes, max_size=lanes))
    start = 0  # the steps walked before _walk, on every lane at or above its x
    if case == "drawn":
        xs = draw(0, (1 << data.draw(st.integers(1, 64))) - 1)
    elif case == "all-even":  # every lane stops on step 1: walked 1, all counts 0
        xs = [2 * m for m in draw(1, (1 << 60) - 1)]
    elif case == "no-stop":  # T^j(c * 2^budget - 1) = c * 3^j * 2^(budget-j) - 1 >= x
        xs = [(c << budget) - 1 for c in draw(1, 1 << 20)]
    elif case == "shared-prefix":  # x = -1 (mod 2^k): k shared steps at or above x, then apart
        k = data.draw(st.integers(1, budget))
        xs = [(c << k) - 1 for c in draw(1, 1 << 20)]
    else:  # x0 + i * 2^k, as the scan packs a group: walked from T^start, start <= k
        # x0 = 3 (mod 4) stays at or above itself for its first 2 steps, so start is rarely 0
        k, x0 = data.draw(st.integers(1, 8)), data.draw(st.integers(0, 1 << 48)) | 3
        xs = [x0 + (i << k) for i in range(lanes)]
        walks = [reference_trajectory(v, budget) for v in xs]
        while start < min(k, budget - 1) and all(w[start + 1] >= v for w, v in zip(walks, xs)):
            start += 1
        # the class x0 (mod 2^k) moves rigidly: T^start(x0 + i * 2^k) = T^start(x0) + i * c
        c = (3 ** sum(t & 1 for t in walks[0][:start])) << (k - start)
        assert [w[start] for w in walks] == [walks[0][start] + i * c for i in range(lanes)]
    hi = max(xs) + 1
    size = core._lane_bytes(budget, hi)
    ones, guard = core._lane_masks(size, lanes)
    pack = lambda vs: int.from_bytes(b"".join(v.to_bytes(size, "little") for v in vs), "little")
    x = pack(xs)
    t = pack(reference_trajectory(v, start)[-1] for v in xs)
    steps, full, walked = core._walk(t, x, ones, guard, 8 * size, budget - start)
    full, walked = full + start, walked + start
    raw = (steps + full * ones).to_bytes(size * lanes, "little")
    counted = [int.from_bytes(raw[i * size : (i + 1) * size], "little") for i in range(lanes)]
    expected = [reference_count(v, budget) for v in xs]
    assert counted == [count for count, _ in expected]
    assert raw[::size] == bytes(count for count, _ in expected)
    assert walked == max(budget if stop is None else stop for _, stop in expected)
    # steps is 0 exactly when every lane stops at one step (or none stops)
    assert (steps == 0) == (len({stop for _, stop in expected}) == 1)
    if case == "all-even":
        assert walked == 1 and steps == 0 and full == 0
    if case == "no-stop":
        assert walked == budget and steps == 0 and full == budget


def test_a_level_that_never_closes_is_refused(monkeypatch):
    from collatz_stopping import ptree

    # the root grown straight to level 3: its chain ends with 3 leading ones, not 4
    level = ptree._tree_level
    level.cache_clear()
    ptree._walked_classes.cache_clear()
    root = pack_sums([5]), b"\x01", b"\x02"
    monkeypatch.setattr(ptree, "_tree_level", lambda n: root if n == 2 else level(n))
    with pytest.raises(RuntimeError, match="^level 3 did not close on the all-leading-ones vector$"):
        level_residues(3)


def test_level_residues_walks_only_its_own_level(monkeypatch):
    from collatz_stopping import ptree

    # a level's classes are walked with its constants: only level 14's here
    walked = []
    constants = ptree._level_constants
    ptree._walked_classes.cache_clear()
    monkeypatch.setattr(ptree, "_level_constants", lambda n: walked.append(n) or constants(n))
    residues = level_residues(14)
    assert walked == [14]
    assert len(residues) == class_counts(14)[-1] == 51_033


def test_verify_range_one_worker_scans_the_range_in_one_call(monkeypatch):
    import tracemalloc

    from collatz_stopping import verify

    scanned = []

    def scan(lo, hi, n_max):
        scanned.append((lo, hi))
        return {None: hi - lo}, []

    monkeypatch.setattr(verify, "BLOCK_SIZE", 1)
    monkeypatch.setattr(verify, "_scan_block", scan)
    residue_table(1)  # its level constants are cached before the trace starts
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
commands = [
    "tuples 5", "residues --sigma-index 5", "oeis A177789 --terms 313", "vset 6 --with-solutions",
]
code = max(cli.main(argv.split()) for argv in commands)
loaded = lambda: [
    m for m in ("array", "dataclasses", "inspect", "collatz_stopping.verify") if m in sys.modules
]
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
    # import, parser and the commands that need no verify load none of them:
    # the class lists and the vset solutions are read off ptree's stream
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
            starts, ends, n_maxes = (list(it) for it in iterables)
            self.shares.extend(zip(starts, ends))
            return map(fn, starts, ends, n_maxes)

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


def test_pool_shares_build_their_own_tables(monkeypatch):
    from collatz_stopping import verify

    pools = _in_process_pool(monkeypatch, 2)
    monkeypatch.setattr(verify, "BLOCK_SIZE", 64)
    built, real = [], verify._prediction_table
    monkeypatch.setattr(verify, "_prediction_table", lambda n: built.append(n) or real(n))
    report = verify_range(2, 2 + 2 * 64, 4, jobs=2)
    # each share is sent n_max and builds its table; the parent builds none
    assert built == [4, 4] and len(pools) == 1
    assert report == reference_report(2, 2 + 2 * 64, 4)
    # the serial call runs the same unit, which builds exactly one table
    assert verify_range(2, 2 + 2 * 64, 4, jobs=1) == report
    assert built == [4, 4, 4] and len(pools) == 1
    # an oversized n_max is refused before any pool or table is made
    with pytest.raises(ValueError, match=r"bounded at n <= 14 .*; requested 15$"):
        verify_range(2, 1 << 20, 15, jobs=2)
    assert built == [4, 4, 4] and len(pools) == 1


def test_parallel_merge_keeps_mismatch_order_across_shares(monkeypatch):
    from collatz_stopping import verify

    # without 23 (mod 32), each x = 23 (mod 32) stops at 5 in no class
    forge_level(monkeypatch, 2, lambda rs: rs - {23})
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
