"""Command-line entry point exposing every subsystem.

Exit codes: 0 on success, 1 when a verification finds mismatches, 2 on usage
errors (bad flags, malformed vectors, unknown or infeasible sequences, and any
parameter the library refuses with a ValueError).
"""

from __future__ import annotations

import argparse
import csv
import sys

from .core import Bits, stopping_time
from .diophantine import solve_vector
from .ladder import d, kappa, ladder_rows, min_surviving_n, sigma_n
from .ptree import (
    export_tree,
    generate_vset,
    leading_ones,
    lex_tuples,
    ln_count,
    tree_node_count,
)
from .triangle import build_triangle, w, z_from_triangle
from .verify import level_residues, sieve, verify_range

# Feasibility bounds for sequence emission; anything past them is refused.
MAX_LADDER_TERMS = 100_000
MAX_TRIANGLE_TERMS = 1_000
MAX_TUPLE_TERMS = 10_000
MAX_RESIDUE_LEVEL = 14


class UsageError(Exception):
    pass


def _parse_vector(text: str) -> Bits:
    try:
        bits = tuple(int(b) for b in text.split(","))
    except ValueError:
        raise UsageError(f"cannot parse vector {text!r}: expected comma-separated bits")
    if not bits or any(b not in (0, 1) for b in bits):
        raise UsageError(f"vector must consist of 0s and 1s, got {text!r}")
    return bits


def _bits_str(bits: Bits) -> str:
    return ",".join(map(str, bits))


def _emit_sequence(values: list[int], fmt: str, offset: int) -> str:
    if fmt == "bfile":
        return "".join(f"{i} {v}\n" for i, v in enumerate(values, start=offset))
    return " ".join(map(str, values)) + "\n"


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
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "d", "kappa", "sigma"])
        for row in rows:
            writer.writerow([row.n, row.d, row.kappa, row.sigma])
    else:
        print(f"{'n':>6} {'d':>3} {'kappa':>8} {'sigma':>8}")
        for row in rows:
            print(f"{row.n:>6} {row.d:>3} {row.kappa:>8} {row.sigma:>8}")
    return 0


def _cmd_triangle(args) -> int:
    table = build_triangle(args.max_n)
    if args.format == "bfile":
        if args.sequence == "A100982":
            values = [1] + [z_from_triangle(table, n) for n in range(2, args.max_n + 1)]
            offset = 1 if args.offset is None else args.offset
        else:  # A076227, rows k = 2..max_n
            values = [w(table, k) for k in range(2, args.max_n + 1)]
            offset = 2 if args.offset is None else args.offset
        sys.stdout.write(_emit_sequence(values, "bfile", offset))
        return 0
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["k", "n", "count"])
        for (k, n), v in sorted(table.cells.items()):
            writer.writerow([k, n, v])
        return 0
    # aligned grid with the d header row, w column and z row
    ns = list(range(1, args.max_n + 1))
    width = max(len(str(v)) for v in table.cells.values())
    width = max(width, len(str(max(w(table, k) for k in range(2, args.max_n + 1)))))
    cell = lambda v: f"{v:>{width}}"
    blank = " " * width
    print("d(n)  : " + " ".join(cell(d(n)) for n in ns))
    print("n     : " + " ".join(cell(n) for n in ns))
    # rows above max_n would be incomplete (they continue into columns n > max_n)
    for k in range(2, args.max_n + 1):
        row = [
            cell(table.cells[(k, n)]) if (k, n) in table.cells else blank for n in ns
        ]
        print(f"k={k:<4}: " + " ".join(row) + f" | w={cell(w(table, k))}")
    print(
        "z(n)  : "
        + " ".join(
            cell(z_from_triangle(table, n)) if n >= 2 else blank for n in ns
        )
    )
    return 0


def _cmd_vset(args) -> int:
    if args.format == "dot":
        sys.stdout.write(export_tree(1, args.n, with_solutions=args.with_solutions))
        return 0
    entries = generate_vset(args.n)
    solutions = (
        [solve_vector(e.vector) for e in entries] if args.with_solutions else None
    )
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["bits", "h", "p"] + (["x", "y"] if solutions else []))
        for i, e in enumerate(entries):
            row = ["".join(map(str, e.vector)), e.h, e.p]
            if solutions:
                row += [solutions[i].x, solutions[i].y]
            writer.writerow(row)
        return 0
    for i, e in enumerate(entries):
        line = f"{_bits_str(e.vector)} {e.h} {e.p}"
        if solutions:
            line += f" {solutions[i].x} {solutions[i].y}"
        print(line)
    return 0


def _cmd_tuples(args) -> int:
    sig = sigma_n(args.n)
    for rank, vec in enumerate(lex_tuples(args.n), start=1):
        sol = solve_vector(vec)
        member = "true" if sol.member else "false"
        print(f"{rank:>4} {_bits_str(vec)} x={sol.x} y={sol.y} member={member}")
    print(f"# {ln_count(args.n)} tuples, modulus 2^{sig}")
    return 0


def _cmd_solve(args) -> int:
    vec = _parse_vector(args.vector)
    sol = solve_vector(vec)
    member = "true" if sol.member else "false"
    print(f"x={sol.x} y={sol.y} member={member} h={leading_ones(vec)}")
    return 0


def _check_level(n: int) -> None:
    """Refuse a residue level above MAX_RESIDUE_LEVEL before building any."""
    if n > MAX_RESIDUE_LEVEL:
        raise UsageError(
            f"residue levels are bounded at n <= {MAX_RESIDUE_LEVEL} "
            f"({tree_node_count(1, MAX_RESIDUE_LEVEL)} classes); requested {n}"
        )


def _cmd_residues(args) -> int:
    n = args.sigma_index
    _check_level(n)
    xs = level_residues(n)
    sig = sigma_n(n)
    print(f"sigma(x) = {sig}")
    print(f"if x = {', '.join(map(str, xs))} (mod {1 << sig})")
    return 0


def _cmd_sieve(args) -> int:
    records = sieve(args.k)
    if args.format == "csv":
        writer = csv.writer(sys.stdout)
        writer.writerow(["r", "k", "q", "n", "surviving"])
        for rec in records:
            writer.writerow([rec.r, rec.k, rec.q, rec.n, rec.surviving])
        return 0
    survivors = [rec for rec in records if rec.surviving]
    for i, rec in enumerate(survivors, start=1):
        print(f"{i:>6} | {rec.r} (mod 2^{rec.k}) -> {rec.q} (mod 3^{rec.n})")
    print(f"# w({args.k}) = {len(survivors)}")
    return 0


def _cmd_verify(args) -> int:
    _check_level(args.n_max)
    report = verify_range(2, 1 << args.max_bits, args.n_max, jobs=args.jobs)
    print(f"range [2, 2^{args.max_bits}), n_max={args.n_max}")
    for sig in sorted(report.counts):
        print(f"sigma={sig}: {report.counts[sig]}")
    print(f"beyond table: {report.beyond_table}")
    print(f"mismatches: {len(report.mismatches)}")
    for x, predicted, simulated in report.mismatches[:20]:
        print(f"  x={x} predicted={predicted} simulated={simulated}")
    return 0 if report.ok else 1


def _oeis_terms(seq: str, terms: int) -> list[int]:
    if seq == "A020914":
        _check_bound(seq, terms, MAX_LADDER_TERMS)
        return [sigma_n(n) for n in range(1, terms + 1)]
    if seq == "A022921":
        _check_bound(seq, terms, MAX_LADDER_TERMS)
        return [d(n) for n in range(1, terms + 1)]
    if seq == "A056576":
        _check_bound(seq, terms, MAX_LADDER_TERMS)
        return [kappa(n) for n in range(1, terms + 1)]
    if seq == "A020915":
        _check_bound(seq, terms, MAX_LADDER_TERMS)
        return [min_surviving_n(k) for k in range(1, terms + 1)]
    if seq == "A293308":
        _check_bound(seq, terms, MAX_TUPLE_TERMS)
        return [ln_count(n) for n in range(1, terms + 1)]
    if seq == "A076227":
        _check_bound(seq, terms, MAX_TRIANGLE_TERMS)
        table = build_triangle(terms + 1)
        return [w(table, k) for k in range(2, terms + 2)]
    if seq == "A100982":
        _check_bound(seq, terms, MAX_TRIANGLE_TERMS)
        if terms == 1:
            return [1]
        table = build_triangle(terms)
        return [1] + [z_from_triangle(table, n) for n in range(2, terms + 1)]
    if seq != "A177789":
        raise UsageError(f"unknown sequence {seq}")
    # one term per tree node, counted from the triangle before anything is built
    available = tree_node_count(1, MAX_RESIDUE_LEVEL)
    if terms > available:
        raise UsageError(
            f"A177789 emission is bounded at levels n <= {MAX_RESIDUE_LEVEL} "
            f"({available} terms); requested {terms}"
        )
    values: list[int] = []
    for n in range(1, MAX_RESIDUE_LEVEL + 1):
        if len(values) >= terms:
            break
        values.extend(level_residues(n))
    return values[:terms]


def _check_bound(seq: str, terms: int, bound: int) -> None:
    if terms > bound:
        raise UsageError(f"{seq} emission is bounded at {bound} terms; requested {terms}")


def _cmd_oeis(args) -> int:
    if args.terms < 1:
        raise UsageError(f"terms must be >= 1, got {args.terms}")
    values = _oeis_terms(args.sequence, args.terms)
    offset = 1 if args.offset is None else args.offset
    if args.sequence == "A076227" and args.offset is None:
        offset = 2  # first emitted value is the k = 2 row
    sys.stdout.write(_emit_sequence(values, args.format, offset))
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
    p.add_argument("--format", choices=["table", "csv", "bfile"], default="table")
    p.add_argument(
        "--sequence",
        choices=["A100982", "A076227"],
        default="A100982",
        help="sequence to emit when --format bfile",
    )
    p.add_argument("--offset", type=int, default=None, help="b-file index origin")
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
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    raise SystemExit(main())
