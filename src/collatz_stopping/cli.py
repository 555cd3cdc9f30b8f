"""Command-line entry point exposing every subsystem.

Exit codes: 0 on success, 1 when a verification finds mismatches, 2 on usage
errors: bad flags, and every ValueError (malformed vectors, unknown sequences,
requests above a named size bound, and any parameter the library refuses).
"""

from __future__ import annotations

import argparse
import csv
import sys
from itertools import chain, islice
from typing import Callable, NamedTuple

from . import ladder, ptree, triangle
from .core import Bits, stopping_time
from .diophantine import solve_vector
from .ladder import _refuse_above, _refuse_below, d, kappa, ladder_rows, min_surviving_n, sigma_n
from .ptree import _bits_str, generate_vset, leading_ones, lex_tuples, ln_count, tree_node_count
from .triangle import build_triangle, class_counts, survivor_counts, w, z_from_triangle

# verify is imported inside sieve and verify, the two commands that use it:
# its records are dataclasses, and the dataclasses module would double the
# start-up of every other command.  The package __init__ says when this can go.

# Bounds on what the CLI prints or shifts; the library refuses every other
# oversized request where it allocates.  Any ValueError exits with code 2.
MAX_TRIANGLE_GRID = 200  # the padded table grows about as max_n^3 bytes: 3.6 MB here
MAX_TUPLE_TERMS = 9_000  # ln_count rises with n: term 9,000 has 4,077 digits
MAX_VERIFY_BITS = 32
MAX_SOLVE_LEVEL = 9_000  # x < 2 * 3^(n+1): within CPython's 4,300-digit int-to-str limit


def _parse_vector(text: str) -> Bits:
    try:
        bits = tuple(int(b) for b in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse vector {text!r}: expected comma-separated bits")
    if not bits or any(b not in (0, 1) for b in bits):
        raise ValueError(f"vector must consist of 0s and 1s, got {text!r}")
    return bits


def _write_csv(header: list[str], rows) -> int:
    """Write the header and the rows as CSV on stdout; returns exit code 0."""
    writer = csv.writer(sys.stdout)
    writer.writerow(header)
    writer.writerows(rows)
    return 0


def _cmd_sigma(args) -> int:
    s = stopping_time(args.x, args.cap)
    if s is None:
        print(f"sigma({args.x}) unknown within {args.cap} steps")
    else:
        print(f"sigma({args.x}) = {s}")
    return 0


def _cmd_ladder(args) -> int:
    rows = ladder_rows(args.max_n)
    if args.format == "csv":
        return _write_csv(["n", "d", "kappa", "sigma"], rows)
    write = sys.stdout.write
    write(f"{'n':>6} {'d':>3} {'kappa':>8} {'sigma':>8}\n")
    for row in rows:
        write(f"{row.n:>6} {row.d:>3} {row.kappa:>8} {row.sigma:>8}\n")
    return 0


def _cmd_triangle(args) -> int:
    if args.format == "table":
        grid = lambda: f"--max-n <= {MAX_TRIANGLE_GRID}"
        _refuse_above("triangle columns are", args.max_n, MAX_TRIANGLE_GRID, grid)
    table = build_triangle(args.max_n)
    if args.format == "csv":
        cells = sorted(table.cells.items())
        return _write_csv(["k", "n", "count"], ((k, n, v) for (k, n), v in cells))
    # aligned grid with the d header row, w column and z row
    ns = range(1, args.max_n + 1)
    # rows above max_n would be incomplete (they continue into columns n > max_n)
    ws = {k: w(table, k) for k in range(2, args.max_n + 1)}
    width = len(str(max([*table.cells.values(), *ws.values()])))
    cell = lambda v: f"{v:>{width}}"
    blank = " " * width
    print("d(n)  : " + " ".join(cell(d(n)) for n in ns))
    print("n     : " + " ".join(cell(n) for n in ns))
    for k, wk in ws.items():
        row = (cell(table.cells[k, n]) if (k, n) in table.cells else blank for n in ns)
        print(f"k={k:<4}: " + " ".join(row) + f" | w={cell(wk)}")
    zs = (cell(z_from_triangle(table, n)) if n >= 2 else blank for n in ns)
    print("z(n)  : " + " ".join(zs))
    return 0


def _cmd_vset(args) -> int:
    if args.format == "dot":
        sys.stdout.write(ptree.export_tree(args.n, with_solutions=args.with_solutions))
        return 0
    entries = generate_vset(args.n)
    solutions = ptree._level_solutions(args.n) if args.with_solutions else [()] * len(entries)
    if args.format == "csv":
        header = ["bits", "h", "p"] + (["x", "y"] if args.with_solutions else [])
        rows = ((_bits_str(e.vector, ""), e.h, e.p, *sol) for e, sol in zip(entries, solutions))
        return _write_csv(header, rows)
    write = sys.stdout.write
    for e, sol in zip(entries, solutions):
        tail = " {} {}\n".format(*sol) if sol else "\n"
        write(f"{_bits_str(e.vector)} {e.h} {e.p}{tail}")
    return 0


def _cmd_tuples(args) -> int:
    tuples = lex_tuples(args.n)  # refuses levels above ptree.MAX_RESIDUE_LEVEL
    sig = sigma_n(args.n)
    write = sys.stdout.write
    for rank, vec in enumerate(tuples, start=1):
        x, y, _, is_member = solve_vector(vec)
        member = "true" if is_member else "false"
        write(f"{rank:>4} {_bits_str(vec)} x={x} y={y} member={member}\n")
    write(f"# {ln_count(args.n)} tuples, modulus 2^{sig}\n")
    return 0


def _cmd_solve(args) -> int:
    vec = _parse_vector(args.vector)
    levels = lambda: f"level n <= {MAX_SOLVE_LEVEL} ({kappa(MAX_SOLVE_LEVEL) + 1} bits)"
    _refuse_above("solved vectors are", sum(vec) - 1, MAX_SOLVE_LEVEL, levels)
    sol = solve_vector(vec)
    member = "true" if sol.member else "false"
    print(f"x={sol.x} y={sol.y} member={member} h={leading_ones(vec)}")
    return 0


def _cmd_residues(args) -> int:
    n = args.sigma_index
    xs = ptree.level_residues(n)
    sig = sigma_n(n)
    print(f"sigma(x) = {sig}")
    print(f"if x = {', '.join(map(str, xs))} (mod {1 << sig})")
    return 0


def _cmd_sieve(args) -> int:
    from .verify import sieve

    records = sieve(args.k)
    if args.format == "csv":
        rows = ((rec.r, rec.k, rec.q, rec.n, rec.surviving) for rec in records)
        return _write_csv(["r", "k", "q", "n", "surviving"], rows)
    survivors = [rec for rec in records if rec.surviving]
    write = sys.stdout.write
    for i, rec in enumerate(survivors, start=1):
        write(f"{i:>6} | {rec.r} (mod 2^{rec.k}) -> {rec.q} (mod 3^{rec.n})\n")
    write(f"# w({args.k}) = {len(survivors)}\n")
    return 0


def _cmd_verify(args) -> int:
    from .verify import verify_range

    ints = lambda: f"--max-bits <= {MAX_VERIFY_BITS} ({2**MAX_VERIFY_BITS - 2} integers)"
    _refuse_above("verify ranges are", args.max_bits, MAX_VERIFY_BITS, ints)
    _refuse_below("--max-bits", args.max_bits, 2)
    report = verify_range(2, 1 << args.max_bits, args.n_max, jobs=args.jobs)
    print(f"range [2, 2^{args.max_bits}), n_max={args.n_max}")
    for sig in sorted(report.counts):
        print(f"sigma={sig}: {report.counts[sig]}")
    print(f"beyond table: {report.beyond_table}")
    print(f"mismatches: {len(report.mismatches)}")
    for x, predicted, simulated in report.mismatches[:20]:
        print(f"  x={x} predicted={predicted} simulated={simulated}")
    return 0 if report.ok else 1


class OeisSequence(NamedTuple):
    bound: Callable[[], int]  # called per request, so no triangle is built at import
    first: int  # index of the first b-file line
    produce: Callable[[int], list[int]]  # the first `terms` values
    limit: Callable[[int], str] = "{} terms".format  # the bound as a refusal states it


def _each_n(f: Callable[[int], int]) -> Callable[[int], list[int]]:
    return lambda terms: [f(n) for n in range(1, terms + 1)]


def _residue_terms(terms: int) -> list[int]:
    # read lazily: the levels past the one completing `terms` are never built
    levels = map(ptree.level_residues, range(1, ptree.MAX_RESIDUE_LEVEL + 1))
    return list(islice(chain.from_iterable(levels), terms))


SEQUENCES = {
    "A020914": OeisSequence(lambda: ladder.MAX_LADDER_TERMS, 1, _each_n(sigma_n)),
    "A020915": OeisSequence(lambda: ladder.MAX_LADDER_TERMS, 1, _each_n(min_surviving_n)),
    "A022921": OeisSequence(lambda: ladder.MAX_LADDER_TERMS, 1, _each_n(d)),
    "A056576": OeisSequence(lambda: ladder.MAX_LADDER_TERMS, 1, _each_n(kappa)),
    "A076227": OeisSequence(
        lambda: triangle.MAX_TRIANGLE_TERMS, 2, lambda t: survivor_counts(t + 1)
    ),
    "A100982": OeisSequence(lambda: triangle.MAX_TRIANGLE_TERMS, 1, class_counts),
    "A177789": OeisSequence(  # one term per tree node
        lambda: tree_node_count(ptree.MAX_RESIDUE_LEVEL),
        1,
        _residue_terms,
        lambda bound: f"levels n <= {ptree.MAX_RESIDUE_LEVEL} ({bound} terms)",
    ),
    "A293308": OeisSequence(lambda: MAX_TUPLE_TERMS, 1, _each_n(ln_count)),
}


def _oeis_terms(seq: str, terms: int) -> list[int]:
    spec = SEQUENCES.get(seq)
    if spec is None:
        raise ValueError(f"unknown sequence {seq}")
    bound = spec.bound()
    _refuse_above(f"{seq} emission is", terms, bound, lambda: spec.limit(bound))
    return spec.produce(terms)


def _cmd_oeis(args) -> int:
    _refuse_below("terms", args.terms, 1)
    if args.offset is not None and args.format != "bfile":
        raise ValueError("--offset applies only to --format bfile")
    values = _oeis_terms(args.sequence, args.terms)
    if args.format == "text":
        sys.stdout.write(" ".join(map(str, values)) + "\n")
        return 0
    first = SEQUENCES[args.sequence].first if args.offset is None else args.offset
    sys.stdout.write("".join(f"{i} {v}\n" for i, v in enumerate(values, first)))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="collatz-stop",
        description=(
            "Generate, solve and verify the finite-stopping-time structure "
            "of the 3x+1 map"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sigma", help="stopping time of a single integer")
    p.add_argument("x", type=int)
    p.add_argument("--cap", type=int, default=10_000, help="step budget")
    p.set_defaults(func=_cmd_sigma)

    p = sub.add_parser("ladder", help="per-level constants n, d, kappa, sigma")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=["text", "csv"], default="text")
    p.set_defaults(func=_cmd_ladder)

    p = sub.add_parser("triangle", help="survivor-count triangle with w and z sums")
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.set_defaults(func=_cmd_triangle)

    p = sub.add_parser("vset", help="level-n parity vectors in generation order")
    p.add_argument("n", type=int)
    p.add_argument("--with-solutions", action="store_true")
    p.add_argument("--format", choices=["text", "csv", "dot"], default="text")
    p.set_defaults(func=_cmd_vset)

    p = sub.add_parser("tuples", help="lexicographic candidate tuples with membership")
    p.add_argument("n", type=int)
    p.set_defaults(func=_cmd_tuples)

    p = sub.add_parser("solve", help="solve one parity vector")
    p.add_argument("--vector", required=True, help="comma-separated bits, e.g. 1,1,0,1,1")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("residues", help="residue class list for one level")
    p.add_argument("--sigma-index", type=int, required=True, metavar="N")
    p.set_defaults(func=_cmd_residues)

    p = sub.add_parser("sieve", help="survival sieve snapshot at depth k")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=["table", "csv"], default="table")
    p.set_defaults(func=_cmd_sieve)

    p = sub.add_parser("verify", help="exhaustive range verification")
    p.add_argument("--max-bits", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oeis", help="emit leading terms of a catalogued sequence")
    p.add_argument("sequence", metavar="ID")
    p.add_argument("--terms", type=int, default=20)
    p.add_argument("--format", choices=["text", "bfile"], default="text")
    p.add_argument("--offset", type=int, default=None, help="b-file index origin")
    p.set_defaults(func=_cmd_oeis)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
