"""The brute-force routes that check the tree's class lists.

sieve is the doubling survival sieve; verify_range simulates every integer
of a range against one byte per residue, written from the tree's class
columns (ptree's _level_classes) and the two trivial classes.  Neither route
derives its classes from the tree or the triangle recurrence, so the three
routes can be checked against each other.  Both
run on core's lane engine: the sieve steps each depth's children with
_step, and the scan, in whole periods of 256 integers, reads each residue
mod 2^8's first 8 steps off a walk made once per process, and the rest of
a residue that no lane has left by then off _walk.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from dataclasses import dataclass
from functools import lru_cache
from itertools import compress, repeat
from operator import add

from .core import WALK_LANES, _ints, _lane_bytes, _lane_masks, _pack, _step, _walk
from .ladder import _refuse_above, _refuse_below, kappa, sigma_n
from . import ptree
from .triangle import survivor_counts

SIEVE_MAX_DEPTH = 26


@dataclass(frozen=True, slots=True)
class SurvivalRecord:
    """One residue r (mod 2^k) with its k-step image q (mod 3^n) and whether
    the class is still unstopped (2^k < 3^n)."""

    r: int
    k: int
    q: int
    n: int
    surviving: bool


def _double(rs: list[int], qs: list[int], ns: bytes, half: int, pow3: list[int]):
    """The children of the parent columns (r, q, n), as columns: first each
    r, which keeps q, then each r + half, which adds 3^n to q; each child
    then takes one T-step, and n gains the parity of its q.  The children's
    q are stepped WALK_LANES at a time on core's lane engine, one _step over
    8-byte lanes, so no temporary outgrows a chunk.

    A depth-d image q satisfies q < 3^d, as T(t) + 1 <= 3(t + 1)/2 and
    r < 2^d: a child of depth d has q < 2 * 3^(d-1) before its step, and
    the 3q + 1 that _step forms is below 2 * 3^SIEVE_MAX_DEPTH < 2^63,
    inside its lane.  n stays below 256, so the n bytes and the parity
    bytes add as two ints, with no carry between bytes."""
    qs = qs + list(map(add, qs, map(pow3.__getitem__, ns)))
    stepped, odd = [], bytearray()
    for start in range(0, len(qs), WALK_LANES):
        chunk = qs[start : start + WALK_LANES]
        ones = _lane_masks(8, len(chunk))[0]
        t = _pack(chunk, 8)
        odd += (t & ones).to_bytes(8 * len(chunk), "little")[::8]
        stepped += _ints(_step(t, ones, 64).to_bytes(8 * len(chunk), "little"))
    ns = int.from_bytes(ns + ns, "little") + int.from_bytes(odd, "little")
    return rs + list(map(add, rs, repeat(half))), stepped, ns.to_bytes(len(qs), "little")


def sieve(k: int) -> list[SurvivalRecord]:
    """Depth-k snapshot of the survival sieve, ascending by residue.

    Seeded at 3 (mod 4), the only non-trivial depth-2 class.  Each level is
    three columns, r, q and n (one byte per n).  Each deeper level keeps the
    parents with depth - 1 <= kappa(n), by itertools.compress over a mask
    translated from n, and _double doubles each into r, which keeps the
    parent's exact image, and r + 2^(depth-1), which shifts it by 3^n, with
    one T-step on core's lane engine.  Both halves are ascending and need no
    sort, because the parents are.  Records are built for depth k only, one
    field at a time: SurvivalRecord.__new__ for each, then each slot's store
    over its column, the stores the frozen __init__ makes.  Depths above
    SIEVE_MAX_DEPTH (read per call) are refused with a ValueError that names
    w(SIEVE_MAX_DEPTH), the residues the deepest permitted depth tracks.
    """
    _refuse_below("bit depth", k, 2)
    bound = SIEVE_MAX_DEPTH
    depths = lambda: f"k <= {bound} ({survivor_counts(bound)[-1]} surviving residues)"
    _refuse_above("sieve depths are", k, bound, depths)
    pow3 = [3**n for n in range(k + 1)]
    kap = [kappa(n) for n in range(k + 1)]
    rs, qs, ns = [3], [8], bytes([2])
    for depth in range(3, k + 1):
        keep = ns.translate(bytes(depth - 1 <= c for c in kap).ljust(256, b"\0"))
        rs, qs, ns = list(compress(rs, keep)), list(compress(qs, keep)), bytes(compress(ns, keep))
        rs, qs, ns = _double(rs, qs, ns, 1 << (depth - 1), pow3)
    surviving = [k <= c for c in kap]
    records = list(map(SurvivalRecord.__new__, repeat(SurvivalRecord, len(rs))))
    columns = rs, repeat(k), qs, ns, map(surviving.__getitem__, ns)
    for field, column in zip(SurvivalRecord.__slots__, columns):
        deque(map(getattr(SurvivalRecord, field).__set__, records, column), 0)
    return records


@dataclass(frozen=True, slots=True)
class ResidueBlock:
    """The residue classes sharing one stopping time; n is None for the two
    trivial classes (even numbers, and 1 mod 4)."""

    sigma: int
    n: int | None
    residues: tuple[int, ...]

    @property
    def modulus(self) -> int:
        return 1 << self.sigma


TRIVIAL_CLASSES = ((1, 0), (2, 1))  # (sigma, residue): the even numbers, and 1 (mod 4)


def residue_table(n_max: int) -> list[ResidueBlock]:
    """Stopping-time classes: the trivial sigma = 1, 2 blocks followed by the
    ascending class list of each level n = 1..n_max, ptree's level_residues:
    new blocks on every call around each level's tuple, sorted once per process."""
    ptree._check_level(n_max)
    trivial = [ResidueBlock(sigma, None, (r,)) for sigma, r in TRIVIAL_CLASSES]
    levels = range(1, n_max + 1)
    return trivial + [ResidueBlock(sigma_n(n), n, ptree.level_residues(n)) for n in levels]


@dataclass(frozen=True, slots=True)
class VerificationReport:
    """Outcome of an exhaustive range check.

    counts maps each observed stopping time to how many x in the range have
    it; beyond_table counts x that do not stop within the table's horizon.
    Every disagreement between prediction and simulation lands in mismatches
    as (x, predicted stopping time or None, simulated stopping time or None).
    """

    x_lo: int
    x_hi: int
    n_max: int
    counts: dict[int, int]
    beyond_table: int
    mismatches: tuple[tuple[int, int | None, int | None], ...]

    @property
    def ok(self) -> bool:
        return not self.mismatches


BLOCK_SIZE = 1 << 23  # integers per worker process, rounded to nearest: two win from 2^24 - 2
GROUP_STRIDE = 1 << 8  # a scan group's lanes: one residue mod 2^8, 8 parities shared


def _prediction_table(n_max: int) -> bytearray:
    """table[r] is the sigma of the class holding r (mod 2^top), top =
    sigma_n(n_max), or 0 when none does: one period of 2^top bytes, repeated
    up to a scan chunk of GROUP_STRIDE * WALK_LANES bytes when shorter.

    Each level's class column is read on each call, so every level is
    certified per call; the table is built once per distinct columns, so a
    forged level is built afresh.  Callers share it and only read it: a
    bytes copy would hold 16 MB twice at n_max 14.
    """
    ptree._check_level(n_max)
    return _class_table(tuple(ptree._level_classes(n) for n in range(1, n_max + 1)))


@lru_cache(maxsize=1)
def _class_table(columns: tuple[bytes, ...]) -> bytearray:
    """_prediction_table's table of the trivial classes and levels 1..'s
    class columns, built in ascending sigma by repeating it up to each
    modulus, so a residue whose byte is already set lies inside a lower
    class: the classes are checked disjoint, one lookup per residue."""
    classes = [(sigma, (r,)) for sigma, r in TRIVIAL_CLASSES]
    classes += ((sigma_n(n), _ints(column)) for n, column in enumerate(columns, start=1))
    table, prev = bytearray(1), 0
    for sigma, residues in classes:
        table *= 1 << (sigma - prev)
        prev = sigma
        for r in residues:
            if low := table[r]:
                raise RuntimeError(
                    f"class {r} (mod 2^{prev}) lies inside class "
                    f"{r & ((1 << low) - 1)} (mod 2^{low})"
                )
            table[r] = prev
    table *= max(1, (GROUP_STRIDE * WALK_LANES) >> prev)  # n_max <= 9: up to one chunk
    return table


@lru_cache(maxsize=None)
def _scan_plan(prefix: int) -> tuple[bytes, tuple[tuple[int, int, int], ...]]:
    """Each r < GROUP_STRIDE walked prefix steps to its stop, the first step
    with c = 3^m * 2^(8-j) < 2^8: period[r] is the lane count stop - 1, and
    each r with no stop is listed, ascending, as (r, T^prefix(r), c)."""
    stride = GROUP_STRIDE
    period, unstopped = bytearray(), []
    for r in range(stride):
        t, c, stop = r, stride, 0
        for j in range(1, prefix + 1):
            t, c = ((3 * t + 1) >> 1, 3 * c >> 1) if t & 1 else (t >> 1, c >> 1)
            if c < stride:
                stop = j
                break
        period.append(stop - 1 if stop else 0xFF)  # 0xFF: walked and overwritten per chunk
        if not stop:
            unstopped.append((r, t, c))
    return bytes(period), tuple(unstopped)


def _scan_block(lo: int, hi: int, n_max: int) -> tuple:
    """Counts by simulated stopping time (None: beyond the table) and the
    ascending mismatches of every x in [lo, hi), lo >= 2, against n_max's
    table.

    [lo, hi) is cut at multiples of GROUP_STRIDE * WALK_LANES into chunks,
    and the table is at least a chunk long, so no chunk's table
    bytes wrap.  A chunk [first, end) is scanned in whole periods
    from base = first - first mod 2^8, so each residue r < 2^8 is a group
    of the same n lanes x = base + r + i * 2^8.  For j <= 8, T^j(x) =
    T^j(r) + q * c, c = 3^m * 2^(8-j) (forward_map), and, a checked fact of
    the 256 classes, x >= 2 first drops below x at the first j with 3^m <
    2^j, where c first falls below 2^8.  So _scan_plan walks each r once
    per process for prefix = min(8, budget - 1) steps, the budget one past
    the table's last sigma.  Byte i of the lane counts, x = base + i, is
    its stopping time less one: the plan's period repeated n times, with
    each unstopped r's group written in by one stepped slice, after _walk
    takes its last budget - prefix steps from T^prefix = (t + base // 2^8
    * c) * ones + lane * c, in _lane_bytes(budget, hi + 2^8)-byte lanes, as
    padded lanes run up to 255 past hi; below lo = 2 they hold only x = 0
    and 1, whose residues stop by step 2 and are never walked.  The counts
    (off the period and the walked lanes) and the compare of the stopping
    times (one translate) with the table's bytes leave the padding out;
    only a chunk that differs is read lane by lane.  Memory is two 256 KB
    byte strings per chunk and one group's int, about 8 KB near hi = 2^48.
    """
    _refuse_below("lo", lo, 2)
    budget = sigma_n(n_max) + 1
    stride = GROUP_STRIDE
    prefix = min(stride.bit_length() - 1, budget - 1)  # steps shared by a residue mod 2^8
    period, unstopped = _scan_plan(prefix)
    span = stride * WALK_LANES
    table = _prediction_table(n_max)
    mask = len(table) - 1
    size = _lane_bytes(budget, hi + stride)
    w = 8 * size
    # v steps at or above x: stopped at v + 1; a stop at the budget is beyond
    # the table, like no stop at all, and both read 0
    stopped = bytes(range(1, budget)) + bytes(257 - budget)
    counts = [0] * budget  # by simulated stopping time, 0: beyond the table
    mismatches = []
    for chunk in range(lo - lo % span, hi, span):
        first, end = max(lo, chunk), min(hi, chunk + span)
        base = first - first % stride
        a, b = first - base, end - base  # the chunk's own lanes: raw[a:b]
        n = -(-b // stride)  # lanes per group
        raw = bytearray(period) * n
        ones, guard = _lane_masks(size, n)
        lane = _pack(range(n), size)
        index = lane * stride
        walked = bytearray()
        for r, t, c in unstopped:
            t = (t + base // stride * c) * ones + lane * c
            steps, full = _walk(t, (base + r) * ones + index, ones, guard, w, budget - prefix)
            group = (steps + (full + prefix) * ones).to_bytes(n * size, "little")[::size]
            raw[r::stride] = group
            walked += group
        for v in range(budget + 1):
            stops = n * period.count(v) + walked.count(v) - raw.count(v, 0, a) - raw.count(v, b)
            counts[stopped[v]] += stops
        sims = raw.translate(stopped)
        start = base & mask
        if not table.startswith(memoryview(sims)[a:b], start + a):
            for i, p in enumerate(table[start + a : start + b], a):
                if p != sims[i]:
                    v = raw[i]
                    mismatches.append((base + i, p or None, v + 1 if v < budget else None))
    return {s or None: c for s, c in enumerate(counts) if c}, mismatches


def verify_range(
    x_lo: int, x_hi: int, n_max: int, *, jobs: int = 1
) -> VerificationReport:
    """Check every x in [x_lo, x_hi): its simulated stopping time must place
    it in exactly the predicted class of residue_table(n_max).

    The prediction is one byte per residue (mod 2^sigma_n(n_max)), repeated
    to at least one 256 KB scan chunk: 16 MB at n_max 14, built once per
    process from the tree's class columns (ptree._level_classes), which
    every call and every worker reads, so every level is certified.
    Simulation runs with budget sigma_n(n_max) + 1; x that do not stop within
    the table horizon are counted as beyond_table, not as mismatches (they
    must then lie in no class at all).  Every x is simulated and compared with
    its table byte by _scan_block, and mismatches come in ascending x.  The
    serial call and every worker's share run _scan_block(lo, hi, n_max): one
    call, or one contiguous share per worker process, at most min(jobs,
    width / BLOCK_SIZE rounded half up, CPUs) of them; shares merge in
    ascending order, so every jobs setting gives one report.
    """
    _refuse_below("x_lo", x_lo, 2)
    if x_hi < x_lo:
        raise ValueError(f"need x_lo <= x_hi, got {x_lo}..{x_hi}")
    _refuse_below("jobs", jobs, 1)
    ptree._check_level(n_max)  # before any table is built or process started
    # the pool starts all max_workers processes at the first submit
    workers = min(jobs, (x_hi - x_lo + BLOCK_SIZE // 2) // BLOCK_SIZE, os.cpu_count() or 1)
    if workers <= 1:
        results = [_scan_block(x_lo, x_hi, n_max)]
    else:
        # imported here: it loads multiprocessing, which no other path needs
        from concurrent.futures import ProcessPoolExecutor

        cuts = [x_lo + (x_hi - x_lo) * i // workers for i in range(workers + 1)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_scan_block, cuts[:-1], cuts[1:], [n_max] * workers))
    counts: Counter[int | None] = Counter()
    mismatches: list[tuple[int, int | None, int | None]] = []
    for share_counts, share_mism in results:
        counts.update(share_counts)
        mismatches.extend(share_mism)
    beyond = counts.pop(None, 0)
    return VerificationReport(
        x_lo=x_lo,
        x_hi=x_hi,
        n_max=n_max,
        counts=dict(sorted(counts.items())),
        beyond_table=beyond,
        mismatches=tuple(mismatches),
    )
