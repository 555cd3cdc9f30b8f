"""Acceptance suite: one test per criterion, each exact and time-bounded.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
pass lines.
"""

import time

import pytest

from collatz_stopping.cli import main
from collatz_stopping.core import trajectory
from collatz_stopping.diophantine import (
    check_corollary1,
    check_corollary3_delta,
    check_corollary4,
    lambda_step,
    predict_corollary3_explicit,
    solve_vector,
    stopping_term,
)
from collatz_stopping.ladder import d, kappa, sigma_n
from collatz_stopping.ptree import generate_vset, lex_tuples, phn_counts, vset_levels
from collatz_stopping.triangle import build_triangle, w, z_from_triangle
from collatz_stopping.verify import residue_table, sieve, verify_range
from conftest import trailing_zeros


def _pass(num: int, desc: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget:g}s"
    print(f"PASS criterion {num:>2}: {desc} ({elapsed:.2f}s, budget {budget:g}s)")


def test_criterion_01_triangle_reproduction(triangle_counts):
    t0 = time.perf_counter()
    table = build_triangle(11)
    for (k, n), expected in triangle_counts["cells"].items():
        assert table.cell(k, n) == expected
    assert [w(table, k) for k in range(2, 12)] == [1, 2, 3, 4, 8, 13, 19, 38, 64, 128]
    assert [z_from_triangle(table, n) for n in range(2, 12)] == [
        2, 3, 7, 12, 30, 85, 173, 476, 961, 2652,
    ]
    _pass(1, "count triangle matches every golden cell, w column and z row", t0, 1)


def test_criterion_02_histogram_reproduction(leading_ones_counts):
    t0 = time.perf_counter()
    for n in range(1, 12):
        counts = phn_counts(n)
        expected = {h: v for (h, m), v in leading_ones_counts["cells"].items() if m == n}
        assert counts == expected
    assert phn_counts(6) == {2: 7, 3: 7, 4: 7, 5: 5, 6: 3, 7: 1}
    assert phn_counts(11)[2] == 525
    _pass(2, "leading-ones histograms match every golden cell", t0, 10)


def test_criterion_03_residue_list_reproduction(residue_classes):
    t0 = time.perf_counter()
    fixture_rendered = [
        f"{sigma} {modulus} " + " ".join(map(str, residues))
        for sigma, (modulus, residues) in sorted(residue_classes.items())
    ]
    table_rendered = [
        f"{b.sigma} {b.modulus} " + " ".join(map(str, b.residues))
        for b in residue_table(9)
        if b.sigma <= 15
    ]
    assert table_rendered == fixture_rendered
    _pass(3, "residue table is byte-identical to the vendored lists through sigma=15", t0, 30)


def test_criterion_04_vset_solution_reproduction(vset_solutions, level6_labels):
    t0 = time.perf_counter()
    levels = vset_levels(6)
    for n, rows in vset_solutions.items():
        got = [
            (e.vector, solve_vector(e.vector).x, solve_vector(e.vector).y)
            for e in levels[n]
        ]
        assert got == rows
    for entry, (p, bits, x, y, h) in zip(levels[6], level6_labels):
        assert (entry.vector, entry.h, entry.p) == (bits, h, p)
    _pass(4, "levels 1..6 reproduce every (vector, x, y) and the level-6 (h, p) labels", t0, 1)


def test_criterion_05_tuple_listing_reproduction(level5_tuples):
    t0 = time.perf_counter()
    tuples = lex_tuples(5)
    assert len(tuples) == 15
    nonmembers = []
    for (rank, bits, x, y), vec in zip(level5_tuples, tuples):
        sol = solve_vector(vec)
        assert vec == bits and (sol.x, sol.y) == (x, y)
        if not sol.member:
            nonmembers.append(rank)
    assert nonmembers == [1, 2, 6]
    _pass(5, "the 15 level-5 tuples match in order; nonmembers are ranks 1, 2, 6", t0, 1)


def test_criterion_06_worked_example():
    t0 = time.perf_counter()
    assert stopping_term((1, 1, 0, 1, 1), 59) == 38
    assert trajectory(59, 7) == [59, 89, 134, 67, 101, 152, 76, 38]
    _pass(6, "stopping-term formula and simulation both give T^7(59) = 38", t0, 1)


def test_criterion_07_oeis_sequences(capsys, oeis_expected):
    t0 = time.perf_counter()
    for seq, terms in (
        ("A020914", 30),
        ("A020915", 30),
        ("A022921", 30),
        ("A056576", 30),
        ("A076227", 24),
        ("A100982", 11),
        ("A293308", 11),
        ("A177789", 313),
    ):
        assert main(["oeis", seq, "--terms", str(terms)]) == 0
        out = capsys.readouterr().out
        assert [int(v) for v in out.split()] == oeis_expected[seq][:terms], seq
    _pass(7, "oeis subcommand reproduces all eight vendored sequences", t0, 10)


def test_criterion_08_partition_check_to_2_pow_20():
    t0 = time.perf_counter()
    report = verify_range(2, 1 << 20, 12, jobs=2)
    assert report.mismatches == ()
    assert sum(report.counts.values()) + report.beyond_table == (1 << 20) - 2
    _pass(8, "every x in [2, 2^20) lies in exactly its predicted class (n_max=12)", t0, 120)


def test_criterion_09_triangle_tree_sieve_agreement():
    t0 = time.perf_counter()
    table = build_triangle(24)
    levels = vset_levels(14)
    for n in range(2, 15):
        z = z_from_triangle(table, n)
        assert len(levels[n]) == z
        members = sum(1 for v in lex_tuples(n) if solve_vector(v).member)
        assert members == z
    for k in range(2, 25):
        assert sum(1 for rec in sieve(k) if rec.surviving) == w(table, k)
    _pass(9, "triangle, tree and sieve agree (n <= 14, k <= 24)", t0, 120)


def test_criterion_10_corollary_suite():
    t0 = time.perf_counter()
    levels = vset_levels(14)
    solutions = {n: [solve_vector(e.vector) for e in lv] for n, lv in levels.items()}
    for n in range(2, 15):
        sig = sigma_n(n)
        step = 1 << kappa(n)
        for i, entry in enumerate(levels[n]):
            sol = solutions[n][i]
            assert check_corollary1(sol.x, entry.h)
            kind, pi = entry.parent
            if kind == "step1":
                x, lam = lambda_step(solutions[n - 1][pi].x, n)
                assert x == sol.x and lam in (1, 3, 5, 7)
                reduced = solutions[n - 1][pi].x + lam * step >= (1 << sig)
                if reduced:
                    assert lam in (3, 7)
                    if d(n) == 1:
                        assert lam == 7
            else:
                j = trailing_zeros(entry.vector)
                delta, ok = check_corollary3_delta(
                    solutions[n][i - 1].x, sol.x, n, j
                )
                assert ok, (n, i, delta)
        assert check_corollary4(levels[n], solutions[n])
    _pass(10, "corollary properties hold on every edge for n <= 14", t0, 60)


def test_criterion_11_exactness_guard():
    import mpmath

    t0 = time.perf_counter()
    n_max = 10_000
    for dps in (60, 100):
        with mpmath.workdps(dps):
            log23 = mpmath.log(3) / mpmath.log(2)
            floors = [int(mpmath.floor(n * log23)) for n in range(1, n_max + 2)]
        assert floors == [kappa(n) for n in range(1, n_max + 2)]
        assert [floors[n] + 1 for n in range(1, n_max + 1)] == [
            sigma_n(n) for n in range(1, n_max + 1)
        ]
        assert [floors[0]] + [floors[n] - floors[n - 1] for n in range(1, n_max)] == [
            d(n) for n in range(1, n_max + 1)
        ]
    _pass(11, "big-integer kappa/sigma/d agree with high-precision floor-logs to n=10000", t0, 5)


def test_criterion_12_discrepancy_ledger():
    t0 = time.perf_counter()

    def run_report():
        levels = vset_levels(8)
        xs = {n: [solve_vector(e.vector).x for e in lv] for n, lv in levels.items()}
        mismatches = []
        for n in range(2, 9):
            for i, entry in enumerate(levels[n]):
                if entry.parent[0] != "step2":
                    continue
                rec = predict_corollary3_explicit(
                    xs[n][i - 1], n, trailing_zeros(entry.vector), d(n)
                )
                assert rec.actual == xs[n][i]
                if not rec.matches:
                    mismatches.append(
                        (rec.n, rec.j, rec.d_n, rec.parent, rec.predicted, rec.actual)
                    )
        return mismatches

    first, second = run_report(), run_report()
    assert first == second and first
    # the paper-ambiguous multi-swap cases stay visible in the report
    assert (3, 1, 1, 7, 79, 15) in first
    assert (4, 2, 2, 175, 223, 95) in first
    print(f"  corollary-3 explicit-rule discrepancies (n, j, d, parent, predicted, actual): {first}")
    _pass(12, "explicit-rule discrepancy report is deterministic and documented", t0, 60)
