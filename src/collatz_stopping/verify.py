"""The brute-force routes that check the tree's class lists.

sieve is the doubling survival sieve; verify_range simulates every integer
of a range against residue_table, the tree's class lists (ptree's
level_residues) with the two trivial classes, turned into one byte per
residue.  Neither route derives its classes from the tree or the triangle
recurrence, so the three routes can be checked against each other.  Both
run on core's lane engine: the sieve steps each depth's children with
_step, and the scan reads each integer's stopping time off _walk, from
step 8 for a group of lanes that no lane has left by then.
"""

from __future__ import annotations

import os
from collections import Counter, deque
from dataclasses import dataclass
from itertools import compress, repeat
from operator import add

from .core import WALK_LANES, _lane_bytes, _lane_masks, _pack, _step, _unpack, _walk
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
        stepped += _unpack(_step(t, ones, 64), len(chunk))
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


def residue_table(n_max: int) -> list[ResidueBlock]:
    """Stopping-time classes: the trivial sigma = 1, 2 blocks followed by the
    ascending class list of each level n = 1..n_max, ptree's level_residues:
    new blocks on every call around each level's tuple, sorted once per process."""
    ptree._check_level(n_max)
    trivial = [ResidueBlock(1, None, (0,)), ResidueBlock(2, None, (1,))]
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


BLOCK_SIZE = 1 << 21  # the fewest integers a worker process is started for: about break-even


def _prediction_table(n_max: int) -> bytearray:
    """table[r] is the sigma of the block of residue_table(n_max) holding
    r (mod 2^top), top the last block's sigma, or 0 when none does.

    Built in ascending sigma by repeating the table up to each block's
    modulus, so a residue whose byte is already set lies inside a lower
    class: the blocks are checked disjoint, one lookup per residue.
    """
    table, prev = bytearray(1), 0
    for block in residue_table(n_max):
        table *= 1 << (block.sigma - prev)
        prev = block.sigma
        for r in block.residues:
            if low := table[r]:
                raise RuntimeError(
                    f"class {r} (mod 2^{prev}) lies inside class "
                    f"{r & ((1 << low) - 1)} (mod 2^{low})"
                )
            table[r] = prev
    return table


GROUP_STRIDE = 1 << 8  # a scan group's lanes: one residue mod 2^8, 8 parities shared


def _scan_block(lo: int, hi: int, n_max: int) -> tuple:
    """Counts by simulated stopping time (None: beyond the table) and the
    ascending mismatches of every x in [lo, hi) against n_max's table.

    [lo, hi) is cut at multiples of GROUP_STRIDE * WALK_LANES into chunks,
    and a table shorter than a chunk is repeated to one, so no group's
    stepped table slice wraps.  In a chunk, group x0 holds x0 + i *
    GROUP_STRIDE, sharing 8 parities: for j <= 8, T^j of lane i is t + i *
    c, t = T^j(x0) and c = 3^m * 2^(8-j) (forward_map), so its stop test t -
    x0 < i * (GROUP_STRIDE - c) is linear in i, and the lanes stopped at j
    form a run holding an end lane.  Up to min(8, budget - 1) steps, the
    budget one past the table's last sigma, are walked on x0 alone, while
    neither end lane has stopped, so no lane has; p is the last such step.
    If both end lanes first stop at p + 1, every lane does: the group is
    read off p + 1.  Otherwise _walk takes the last budget - p steps from
    T^p = t * low + index // 2^8 * c, in W-bit lanes (W = _lane_bytes(budget,
    hi)): p = min(8, budget - 1) unless the end lanes part, as at x0 = 1,
    whose lane 257 stops at step 2 while 1 never does (p = 1).  Byte 0 of
    each lane's count is the steps it stayed at or above x, its stopping
    time less one.  The simulated times are compared with the group's table
    bytes and counted in C; only a group that differs is looked at lane by
    lane.  Beyond the table, memory is one group's int, about 8 KB near hi
    = 2^48, whatever the range's width.
    """
    budget = sigma_n(n_max) + 1
    stride = GROUP_STRIDE
    prefix = min(stride.bit_length() - 1, budget - 1)  # shared steps, walked on x0 alone
    span = stride * WALK_LANES
    table = _prediction_table(n_max)
    table *= max(1, span // len(table))  # only n_max <= 9 is shorter than a chunk
    mask = len(table) - 1
    size = _lane_bytes(budget, hi)
    w = 8 * size
    lanes = min(WALK_LANES, len(range(lo, hi, stride)))
    low, top = _lane_masks(size, lanes)
    index = _pack(range(0, stride * lanes, stride), size)
    # v steps at or above x: stopped at v + 1; a stop at the budget is beyond
    # the table, like no stop at all, and both read 0
    stopped = bytes(range(1, budget)) + bytes(257 - budget)
    counts = [0] * budget  # by simulated stopping time, 0: beyond the table
    mismatches = []
    for chunk in range(lo - lo % span, hi, span):
        first, end = max(lo, chunk), min(hi, chunk + span)
        prev = 0  # the last group's lane count
        for x0 in range(first, min(end, first + stride)):
            n = len(range(x0, end, stride))
            if n != prev:  # a chunk's first group, or the first with one lane fewer
                cut = (1 << (w * n)) - 1
                ones, base, guard, prev = low & cut, index & cut, top & cut, n
                lane = base // stride  # i in lane i
            # lane i's T^j is t + i * c for j <= prefix, and stops where
            # t - x0 < i * (stride - c): a run of lanes holding an end lane
            t, c, p = x0, stride, 0
            for j in range(1, prefix + 1):
                u, d = ((3 * t + 1) >> 1, 3 * c >> 1) if t & 1 else (t >> 1, c >> 1)
                head, tail = u < x0, u - x0 < (n - 1) * (stride - d)
                if head or tail:
                    break
                t, c, p = u, d, j
            if head and tail:  # both end lanes stop first at p + 1, so every lane does
                steps, full, walked = 0, p, p + 1
            else:  # no lane has stopped by p
                t, x = t * ones + lane * c, x0 * ones + base
                steps, full, walked = _walk(t, x, ones, guard, w, budget - p)
                full, walked = full + p, walked + p
            if steps:
                raw = (steps + full * ones).to_bytes(n * size, "little")[::size]
                sims = raw.translate(stopped)
                for s in range(min(walked + 1, budget)):
                    counts[s] += sims.count(s)
            else:  # every lane stopped at one step, or none did
                raw = bytes((full,)) * n
                sims = raw.translate(stopped)
                counts[stopped[full]] += n
            start = x0 & mask
            pred = table[start : start + stride * n : stride]
            if sims != pred:
                for i, (p, s) in enumerate(zip(pred, sims, strict=True)):
                    if p != s:
                        v = raw[i]
                        sim = v + 1 if v < budget else None
                        mismatches.append((x0 + i * stride, p or None, sim))
    mismatches.sort()
    return {s or None: c for s, c in enumerate(counts) if c}, mismatches


def verify_range(
    x_lo: int, x_hi: int, n_max: int, *, jobs: int = 1
) -> VerificationReport:
    """Check every x in [x_lo, x_hi): its simulated stopping time must place
    it in exactly the predicted class of residue_table(n_max).

    The prediction is one byte per residue (mod 2^sigma_n(n_max)): 64 KB at
    n_max 9, 16 MB at n_max 14, rebuilt by every call and every worker from
    residue_table, whose classes each process derives and sorts once.
    Simulation runs with budget sigma_n(n_max) + 1; x that do not stop within
    the table horizon are counted as beyond_table, not as mismatches (they
    must then lie in no class at all).  Every x is simulated and compared with
    its table byte by _scan_block: a group of WALK_LANES integers of one
    residue mod GROUP_STRIDE shares 8 steps, walked on its first integer;
    its lanes stopped at one of them form a run holding an end lane, so a
    group is lane-walked, one big-integer step at a time, only from the
    last of them at which neither end lane has stopped, step 8 unless the
    end lanes part; mismatches come in ascending x.  The serial call and
    every worker's share run _scan_block(lo, hi, n_max): one call, or one
    contiguous share per worker process, at most min(jobs, width //
    BLOCK_SIZE, CPUs) of them; shares merge in ascending order, so every
    jobs setting gives one report.
    """
    _refuse_below("x_lo", x_lo, 2)
    if x_hi < x_lo:
        raise ValueError(f"need x_lo <= x_hi, got {x_lo}..{x_hi}")
    _refuse_below("jobs", jobs, 1)
    ptree._check_level(n_max)  # before any table is built or process started
    # the pool starts all max_workers processes at the first submit
    workers = min(jobs, (x_hi - x_lo) // BLOCK_SIZE, os.cpu_count() or 1)
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
