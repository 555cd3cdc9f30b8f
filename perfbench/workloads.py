"""The four benchmark workloads.

Each workload turns a seed into inputs, makes one timed call (or one short
sequence of calls) into the package's public functions, and checks the
output against a route that does not run the code being timed: counts from
the count triangle, and digests stored in reference.json.
"""

from __future__ import annotations

import hashlib
import io
import random
from contextlib import redirect_stdout

# Input sizes.  "full" is what the benchmark measures; "tiny" is for the
# smoke tests in selftest.py.
SIZES = {
    "full": {"structure": 12, "verify-window": 17, "sieve-deep": 21, "cli-tuples": 11},
    "tiny": {"structure": 6, "verify-window": 12, "sieve-deep": 10, "cli-tuples": 5},
}

# Verification windows start at a multiple of their width in [2^32, 2^48).
WINDOW_LO_BITS = 32
WINDOW_HI_BITS = 48


def sha256_lines(values) -> str:
    """Digest of the values written one per line."""
    h = hashlib.sha256()
    for v in values:
        h.update(f"{v}\n".encode())
    return h.hexdigest()


def record_line(rec) -> str:
    return f"{rec.r} {rec.k} {rec.q} {rec.n} {int(rec.surviving)}"


def z_counts(cs, n_max: int) -> dict[int, int]:
    """Class count z(n) of every level 1..n_max, from the count triangle."""
    table = cs.build_triangle(max(n_max, 2))
    return {n: 1 if n == 1 else cs.z_from_triangle(table, n) for n in range(1, n_max + 1)}


class HashSink(io.RawIOBase):
    """A write-only byte stream that keeps only a digest, a byte count and a
    line count of what passed through it."""

    def __init__(self):
        super().__init__()
        self.sha = hashlib.sha256()
        self.bytes = 0
        self.lines = 0

    def writable(self) -> bool:
        return True

    def write(self, b) -> int:
        self.sha.update(b)
        self.bytes += len(b)
        self.lines += bytes(b).count(b"\n")
        return len(b)


class Workload:
    name = ""
    throughput = ""  # the workload's own name for items_per_s
    item = ""

    def __init__(self, cs, size: str, seed: int, reference: dict):
        self.cs = cs
        self.param = SIZES[size][self.name]
        self.ref = reference.get(size, {}).get(self.name)

    def items(self) -> int:
        """Items one operation produces; the throughput numerator."""
        raise NotImplementedError

    def run(self, rep: int):
        """The timed operation; rep numbers the repetitions of one run."""
        raise NotImplementedError

    def check(self, out) -> list[str]:
        """Descriptions of every way out is wrong; empty when correct."""
        raise NotImplementedError


class Structure(Workload):
    """residue_table(N), then phn_counts(n) for n = 2..N."""

    name = "structure"
    throughput = "classes_per_s"
    item = "classes"

    def items(self) -> int:
        return sum(z_counts(self.cs, self.param).values())

    def run(self, rep):
        n_max = self.param
        table = self.cs.residue_table(n_max)
        hist = {n: self.cs.phn_counts(n) for n in range(2, n_max + 1)}
        return table, hist

    def check(self, out) -> list[str]:
        table, hist = out
        n_max = self.param
        z = z_counts(self.cs, n_max)
        bad = []
        if [(b.sigma, b.n, b.residues) for b in table[:2]] != [(1, None, (0,)), (2, None, (1,))]:
            bad.append("trivial blocks differ")
        levels = table[2:]
        if [b.n for b in levels] != list(range(1, n_max + 1)):
            bad.append("levels are not 1..n_max")
            return bad
        for b in levels:
            if len(b.residues) != z[b.n]:
                bad.append(f"level {b.n}: {len(b.residues)} classes, z = {z[b.n]}")
            if b.sigma != self.cs.sigma_n(b.n):
                bad.append(f"level {b.n}: sigma {b.sigma}")
            if self.ref and sha256_lines(b.residues) != self.ref["levels"][str(b.n)]["sha256"]:
                bad.append(f"level {b.n}: residue digest differs")
        for n, h in hist.items():
            if sum(h.values()) != z[n]:
                bad.append(f"phn_counts({n}) sums to {sum(h.values())}, z = {z[n]}")
            if self.ref and {str(k): v for k, v in h.items()} != self.ref["phn"][str(n)]:
                bad.append(f"phn_counts({n}) differs from the reference")
        return bad


class VerifyWindow(Workload):
    """verify_range over a window of 2^B integers aligned to 2^B, with the
    largest n_max whose stopping time fits in B bits; jobs = 1."""

    name = "verify-window"
    throughput = "ints_per_s"
    item = "ints"

    def __init__(self, cs, size, seed, reference):
        super().__init__(cs, size, seed, reference)
        bits = self.param
        self.width = 1 << bits
        self.n_max = max(n for n in range(1, bits + 1) if cs.sigma_n(n) <= bits)
        rng = random.Random(seed)
        self.base = rng.randrange(1 << (WINDOW_LO_BITS - bits), 1 << (WINDOW_HI_BITS - bits)) << bits
        # Aligned windows of width 2^B hold z(n) * 2^(B - sigma_n) integers
        # of each stopping time sigma_n <= B: the triangle predicts every count.
        z = z_counts(cs, self.n_max)
        self.expected = {1: self.width >> 1, 2: self.width >> 2}
        for n, zn in z.items():
            self.expected[cs.sigma_n(n)] = zn << (bits - cs.sigma_n(n))
        self.expected_beyond = self.width - sum(self.expected.values())

    def window(self, rep: int) -> tuple[int, int]:
        lo = self.base + rep * self.width
        return lo, lo + self.width

    def items(self) -> int:
        return self.width

    def run(self, rep, jobs: int = 1):
        lo, hi = self.window(rep)
        return self.cs.verify_range(lo, hi, self.n_max, jobs=jobs)

    def check(self, report) -> list[str]:
        bad = []
        if not report.ok:
            bad.append(f"{len(report.mismatches)} mismatches, first {report.mismatches[0]}")
        if report.counts != self.expected:
            bad.append(f"counts {report.counts} != {self.expected}")
        if report.beyond_table != self.expected_beyond:
            bad.append(f"beyond_table {report.beyond_table} != {self.expected_beyond}")
        return bad


class SieveDeep(Workload):
    """sieve(k): every depth-k record, surviving or just cut."""

    name = "sieve-deep"
    throughput = "residues_per_s"
    item = "residues"

    def items(self) -> int:
        # every depth-k record is a child of a depth-(k-1) survivor
        return 2 * self.cs.w(self.cs.build_triangle(self.param), self.param - 1)

    def run(self, rep):
        return self.cs.sieve(self.param)

    def check(self, records) -> list[str]:
        k = self.param
        bad = []
        survivors = sum(1 for rec in records if rec.surviving)
        expected = self.cs.w(self.cs.build_triangle(k), k)
        if survivors != expected:
            bad.append(f"{survivors} survivors, w({k}) = {expected}")
        if len(records) != self.items():
            bad.append(f"{len(records)} records, expected {self.items()}")
        if self.ref and sha256_lines(map(record_line, records)) != self.ref["sha256"]:
            bad.append("record digest differs")
        return bad


class CliTuples(Workload):
    """cli.main(["tuples", N]) in-process, stdout going to a hashing sink."""

    name = "cli-tuples"
    throughput = "tuples_per_s"
    item = "tuples"

    def items(self) -> int:
        return self.cs.ln_count(self.param)

    def run(self, rep):
        from collatz_stopping import cli

        sink = HashSink()
        stream = io.TextIOWrapper(io.BufferedWriter(sink), encoding="utf-8", newline="\n")
        with redirect_stdout(stream):
            code = cli.main(["tuples", str(self.param)])
        stream.flush()
        return code, sink

    def check(self, out) -> list[str]:
        code, sink = out
        bad = []
        if code != 0:
            bad.append(f"exit code {code}")
        if sink.lines != self.items() + 1:
            bad.append(f"{sink.lines} lines, ln_count + 1 = {self.items() + 1}")
        if self.ref and (sink.sha.hexdigest(), sink.bytes) != (self.ref["sha256"], self.ref["bytes"]):
            bad.append("output digest or byte count differs")
        return bad


WORKLOADS = {cls.name: cls for cls in (Structure, VerifyWindow, SieveDeep, CliTuples)}


def error_rate(failed: int, attempted: int) -> float:
    return failed / attempted if attempted else 1.0
