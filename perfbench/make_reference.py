"""Regenerate reference.json: the digests the workloads check their output
against.

    python3 perfbench/make_reference.py

Each digest is confirmed before it is written, against counts from the
count triangle (z(n), w(k), ln_count) and against direct simulation with
core.stopping_time and core.forward_map.  Run it only when an output is
meant to change, and say why in the change that commits the new file.
"""

from __future__ import annotations

import io
import json
import sys
from contextlib import redirect_stdout

from run import REFERENCE, import_package
from workloads import SIZES, WORKLOADS, record_line, sha256_lines, z_counts


class ReferenceError(RuntimeError):
    pass


def confirm(ok: bool, what: str) -> None:
    if not ok:
        raise ReferenceError(what)


def structure(cs, size: str) -> dict:
    wl = WORKLOADS["structure"](cs, size, 0, {})
    table, hist = wl.run(0)
    confirm(not wl.check((table, hist)), "structure fails its count check")
    z = z_counts(cs, wl.param)
    levels = {}
    for block in table[2:]:
        sig = cs.sigma_n(block.n)
        xs = block.residues
        confirm(list(xs) == sorted(set(xs)), f"level {block.n} is not ascending and distinct")
        confirm(len(xs) == z[block.n], f"level {block.n} count is not z(n)")
        confirm(
            all(cs.stopping_time(x, sig + 1) == sig for x in xs),
            f"a level-{block.n} residue does not stop at sigma_n by simulation",
        )
        levels[str(block.n)] = {"count": len(xs), "sigma": sig, "sha256": sha256_lines(xs)}
    return {
        "n": wl.param,
        "levels": levels,
        "phn": {str(n): {str(h): c for h, c in sorted(hc.items())} for n, hc in hist.items()},
    }


def sieve_deep(cs, size: str) -> dict:
    wl = WORKLOADS["sieve-deep"](cs, size, 0, {})
    records = wl.run(0)
    confirm(not wl.check(records), "sieve fails its count check")
    k = wl.param
    for rec in records:
        confirm(cs.forward_map(rec.r, k) == (rec.q, rec.n), f"record {rec} disagrees with forward_map")
        confirm(rec.surviving == ((1 << k) < 3**rec.n), f"record {rec} has a wrong survival flag")
    return {
        "k": k,
        "records": len(records),
        "survivors": sum(rec.surviving for rec in records),
        "sha256": sha256_lines(map(record_line, records)),
    }


def cli_tuples(cs, size: str) -> dict:
    wl = WORKLOADS["cli-tuples"](cs, size, 0, {})
    code, sink = wl.run(0)
    confirm(not wl.check((code, sink)), "tuples fails its line-count check")
    n = wl.param
    # Second pass to inspect the text: members must be exactly the level's
    # z(n) classes, and each x must stop at sigma_n by simulation.
    from collatz_stopping import cli

    buf = io.StringIO()
    with redirect_stdout(buf):
        cli.main(["tuples", str(n)])
    sig = cs.sigma_n(n)
    members = 0
    for line in buf.getvalue().splitlines()[:-1]:
        fields = dict(f.split("=") for f in line.split()[2:])
        member = fields["member"] == "true"
        members += member
        confirm(member == (cs.stopping_time(int(fields["x"]), sig + 1) == sig), f"bad member flag: {line}")
    confirm(members == z_counts(cs, n)[n], "member count is not z(n)")
    return {
        "n": n,
        "tuples": cs.ln_count(n),
        "members": members,
        "member_ratio": members / cs.ln_count(n),
        "lines": sink.lines,
        "bytes": sink.bytes,
        "sha256": sink.sha.hexdigest(),
    }


METHOD = {
    "structure": "sha256 of each level's residues, one decimal per line; each level "
    "checked ascending, distinct, of size z(n) from the triangle, and every residue "
    "simulated to stop at sigma_n.  phn holds each phn_counts(n), summing to z(n).",
    "sieve-deep": "sha256 of lines 'r k q n surviving(0/1)' in sieve order; every "
    "record checked against core.forward_map and 2^k < 3^n, survivors equal to w(k) "
    "and records to 2 w(k-1) from the triangle.",
    "cli-tuples": "sha256 and byte count of the UTF-8 stdout of 'tuples N'; lines equal "
    "ln_count(N) + 1, every member flag matches simulation, members equal z(N).",
    "verify-window": "no stored data: the expected counts come from the triangle "
    "(z(n) 2^(B - sigma_n) per stopping time in an aligned window of 2^B integers).",
}


def main() -> int:
    cs = import_package()
    out = {"method": METHOD}
    for size in ("tiny", "full"):
        out[size] = {
            "structure": structure(cs, size),
            "sieve-deep": sieve_deep(cs, size),
            "cli-tuples": cli_tuples(cs, size),
        }
        print(f"{size}: {SIZES[size]} confirmed", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
