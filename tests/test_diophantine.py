import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_stopping import diophantine
from collatz_stopping.core import parity_vector_of, stopping_time, trajectory
from collatz_stopping.diophantine import (
    Solution,
    alphas,
    check_corollary1,
    check_corollary3_delta,
    check_corollary4,
    lambda_step,
    predict_corollary3_explicit,
    solve_vector,
    stopping_term,
)
from collatz_stopping.ladder import d, kappa, sigma_n
from collatz_stopping.ptree import lex_tuples, vset_levels
from conftest import trailing_zeros


def weighted_sum(v):
    s = 0
    for i, b in enumerate(v):
        if b:
            s = s * 3 + (1 << i)
    return s


def brute_force_solutions(v):
    """Independent oracle: scan every odd x below the modulus for the
    divisibility, with no modular inverse involved."""
    n = sum(v) - 1
    s = weighted_sum(v)
    mod = 1 << sigma_n(n)
    p3 = 3 ** (n + 1)
    return [x for x in range(1, mod, 2) if (p3 * x + s) % mod == 0]


def reference_solve(v):
    """The solver built on core.trajectory: the walk T^0(x) .. T^sigma_n(x)
    as a list, its parity prefix compared with v as a tuple, membership from
    min() over the intermediate terms.  For well-formed vectors only."""
    n = sum(v) - 1
    sig = sigma_n(n)
    mod = 1 << sig
    p3 = 3 ** (n + 1)
    s = weighted_sum(v)
    x = (-s * pow(p3, -1, mod)) % mod
    y, rem = divmod(p3 * x + s, mod)
    walk = trajectory(x, sig)
    if rem or tuple([t & 1 for t in walk[: len(v)]]) != v:
        raise RuntimeError(f"solution {x} does not reproduce the vector {v}")
    member = walk[sig] < x <= min(walk[1:sig])
    return Solution(x=x, y=y, vector=v, member=member)


@st.composite
def well_formed_vectors(draw):
    """A vector of level n: two leading 1s, n - 1 more ones placed anywhere
    in positions 2 .. kappa(n), length kappa(n) + 1."""
    n = draw(st.integers(min_value=11, max_value=300))
    k = kappa(n)
    ones = set(draw(st.permutations(range(2, k + 1)))[: n - 1])
    return tuple(1 if i < 2 or i in ones else 0 for i in range(k + 1))


def test_alphas_examples():
    assert alphas((1, 1, 0, 1, 1)) == (0, 1, 3, 4)
    assert alphas((1, 1)) == (0, 1)
    assert alphas((1, 1, 1, 1, 0)) == (0, 1, 2, 3)


def test_alphas_rejects_malformed():
    with pytest.raises(ValueError):
        alphas((1, 0, 1, 1))  # second bit must be 1
    with pytest.raises(ValueError):
        alphas((1, 1, 0, 1, 1, 0))  # wrong length for its ones count
    with pytest.raises(ValueError):
        alphas((1, 1, 2, 1))


def test_list_vectors_are_refused_as_malformed():
    # refused up front: the parity checks compare vectors as tuples, and a
    # list would read as a solver fault or a prefix mismatch
    for call in (alphas, solve_vector, lambda v: stopping_term(v, 59)):
        with pytest.raises(ValueError, match="vector must be a tuple, got list"):
            call([1, 1, 0, 1, 1])


def test_stopping_term_worked_example():
    assert stopping_term((1, 1, 0, 1, 1), 59) == 38
    assert trajectory(59, 7)[-1] == 38


def test_stopping_term_more_examples():
    assert stopping_term((1, 1), 3) == 2
    assert stopping_term((1, 1, 0, 1), 11) == 10


def test_stopping_term_accepts_shifted_class_members():
    # every x = 59 (mod 2^7) has the same prefix, so the formula applies
    assert stopping_term((1, 1, 0, 1, 1), 59 + 128) == trajectory(59 + 128, 7)[-1]


def test_stopping_term_rejects_parity_mismatch():
    with pytest.raises(ValueError):
        stopping_term((1, 1, 0, 1, 1), 7)


def test_stopping_term_that_does_not_divide_raises(monkeypatch):
    v = (1, 1, 0, 1, 1)
    # 7 passes the forged prefix check but 81 * 7 + S is not a multiple of 2^7
    monkeypatch.setattr(diophantine, "parity_vector_of", lambda x, n: v)
    with pytest.raises(RuntimeError, match="does not solve"):
        stopping_term(v, 7)


def test_solve_vector_examples():
    sol = solve_vector((1, 1, 0, 1, 1))
    assert (sol.x, sol.y, sol.member) == (59, 38, True)
    sol = solve_vector((1, 1, 1, 1, 1, 1, 1, 0, 0, 0))
    assert (sol.x, sol.y, sol.member) == (383, 205, True)
    sol = solve_vector((1, 1, 0, 0, 1, 1, 1, 1))
    assert (sol.x, sol.y, sol.member) == (595, 425, False)


def test_solve_vector_matches_fixture_pairs(vset_solutions):
    for n, rows in vset_solutions.items():
        for bits, x, y in rows:
            sol = solve_vector(bits)
            assert (sol.x, sol.y, sol.member) == (x, y, True)


def test_solution_uniqueness_against_brute_force():
    for n in range(1, 5):
        for v in lex_tuples(n):
            scan = brute_force_solutions(v)
            assert scan == [solve_vector(v).x]


def test_member_round_trip():
    for n in range(1, 11):
        sig = sigma_n(n)
        for v in lex_tuples(n):
            sol = solve_vector(v)
            assert sol == reference_solve(v)
            assert parity_vector_of(sol.x, n) == v
            assert sol.member == (stopping_time(sol.x, sig + 1) == sig)
            if sol.member:
                assert stopping_term(v, sol.x) == sol.y
                assert sol.y < sol.x


@settings(max_examples=60, deadline=None)
@given(well_formed_vectors())
def test_solver_agrees_with_reference_beyond_one_machine_word(v):
    sol = solve_vector(v)
    assert sol == reference_solve(v)
    sig = sigma_n(sum(v) - 1)
    assert sol.member == (stopping_time(sol.x, sig + 1) == sig)


def test_solution_walk_that_misses_the_vector_raises(monkeypatch):
    # S + 1 still divides exactly (rem is 0) but gives an even x, so only
    # the walk's parity check at step 0 can catch it
    weighted = diophantine._weighted_sum
    monkeypatch.setattr(diophantine, "_weighted_sum", lambda v: weighted(v) + 1)
    with pytest.raises(RuntimeError, match="does not reproduce"):
        solve_vector((1, 1, 0, 1, 1))


def test_check_corollary1_examples():
    assert check_corollary1(59, 2)
    assert check_corollary1(383, 7)
    assert not check_corollary1(9, 2)


@settings(max_examples=300, deadline=None)
@given(x=st.integers(-(1 << 70), 1 << 70).map(lambda v: v | 1), h=st.integers(2, 80))
def test_check_corollary1_is_the_modular_congruence(x, h):
    hit = x - x % (1 << (h + 1)) + (1 << h) - 1  # x's block member of the class
    for v in (x, hit, hit + (1 << h)):
        assert check_corollary1(v, h) == (v % (1 << (h + 1)) == (1 << h) - 1)
    assert check_corollary1(hit, h) and not check_corollary1(hit + (1 << h), h)


def test_check_corollary1_builds_no_power_of_two_of_size_h():
    t0 = time.perf_counter()
    assert not check_corollary1(3, 10**9)
    assert time.perf_counter() - t0 < 0.1


def test_lambda_step_examples():
    assert lambda_step(3, 2) == (11, 1)
    assert lambda_step(11, 3) == (59, 3)
    assert lambda_step(95, 5) == (735, 5)


def test_lambda_step_disagreeing_with_solver_raises(monkeypatch):
    def off_by_two(v):
        sol = solve_vector(v)
        return sol._replace(x=sol.x + 2)

    monkeypatch.setattr(diophantine, "solve_vector", off_by_two)
    with pytest.raises(RuntimeError, match="solver gives"):
        lambda_step(3, 2)


def test_lambda_step_agrees_with_solver_everywhere():
    levels = vset_levels(9)
    solutions = {n: [solve_vector(e.vector).x for e in lv] for n, lv in levels.items()}
    for n in range(2, 10):
        for i, entry in enumerate(levels[n]):
            kind, pi = entry.parent
            if kind != "step1":
                continue
            x, lam = lambda_step(solutions[n - 1][pi], n)
            assert x == solutions[n][i]
            assert lam in (1, 3, 5, 7)


def test_check_corollary3_delta_examples():
    assert check_corollary3_delta(7, 15, 3, 1) == (1, True)
    assert check_corollary3_delta(175, 95, 4, 2) == (-5, True)
    assert check_corollary3_delta(815, 367, 5, 1) == (-7, True)
    # quotients that agree with the rule mod 4 but not mod 8: read mod 4, both would pass
    assert check_corollary3_delta(7, 47, 3, 1) == (5, False)
    assert check_corollary3_delta(175, 287, 4, 2) == (7, False)


def test_check_corollary3_delta_rejects_non_pairs():
    with pytest.raises(ValueError):
        check_corollary3_delta(7, 16, 3, 1)


def test_predict_corollary3_explicit_examples():
    rec = predict_corollary3_explicit(11, 2, 1, 2)
    assert rec.predicted == 23 and rec.matches
    rec = predict_corollary3_explicit(123, 4, 1, 2)
    assert rec.predicted == 219 and rec.matches
    rec = predict_corollary3_explicit(7, 3, 1, 1)
    assert rec.predicted == 79 and rec.actual == 15 and not rec.matches


def test_predict_corollary3_rejects_out_of_range_level():
    with pytest.raises(ValueError):
        predict_corollary3_explicit(3, 1, 1, 1)
    with pytest.raises(ValueError):
        predict_corollary3_explicit(3, 9, 1, 2)


def test_corollary3_explicit_discrepancy_report():
    """The explicit formulas disagree with ground truth on exactly these
    step-2 edges for levels 2..8; frozen from the solver route."""
    levels = vset_levels(8)
    solutions = {n: [solve_vector(e.vector).x for e in lv] for n, lv in levels.items()}
    report = []
    for n in range(2, 9):
        for i, entry in enumerate(levels[n]):
            if entry.parent[0] != "step2":
                continue
            j = trailing_zeros(entry.vector)
            rec = predict_corollary3_explicit(solutions[n][i - 1], n, j, d(n))
            assert rec.actual == solutions[n][i]
            if not rec.matches:
                report.append((rec.n, rec.j, rec.d_n, rec.parent, rec.predicted, rec.actual))
    assert report == [
        (3, 1, 1, 7, 79, 15),
        (4, 2, 2, 175, 223, 95),
        (6, 3, 2, 2239, 2431, 383),
        (7, 4, 2, 4223, 4351, 255),
        (8, 4, 1, 19199, 22015, 5631),
    ]


def test_lambda_run_length_observation():
    # Observational only: "how many consecutive multipliers >= 5 can occur"
    # depends on which index runs.  Per level in emission order the longest
    # run reaches 5; along the leading chain (first entry of each level,
    # the leading-chain walk) it stays at 1.  Recorded
    # here; nothing is enforced beyond the multiplier alphabet itself.
    levels = vset_levels(12)
    solutions = {n: [solve_vector(e.vector).x for e in lv] for n, lv in levels.items()}
    longest_per_level = 0
    for n in range(2, 13):
        run = 0
        for entry in levels[n]:
            kind, pi = entry.parent
            if kind != "step1":
                continue
            _, lam = lambda_step(solutions[n - 1][pi], n)
            assert lam in (1, 3, 5, 7)
            run = run + 1 if lam >= 5 else 0
            longest_per_level = max(longest_per_level, run)
    chain_run = longest_chain = 0
    for n in range(2, 13):
        _, lam = lambda_step(solutions[n - 1][0], n)
        chain_run = chain_run + 1 if lam >= 5 else 0
        longest_chain = max(longest_chain, chain_run)
    print(
        f"  lambda>=5 run lengths to n=12: per-level {longest_per_level}, "
        f"leading chain {longest_chain}"
    )


def test_check_corollary4_examples():
    levels = vset_levels(6)
    for n, expected_pair in ((3, (7, 15)), (4, (175, 95)), (6, (2239, 383))):
        entries = levels[n]
        solutions = [solve_vector(e.vector) for e in entries]
        idx = max(i for i, e in enumerate(entries) if e.h == n)
        assert solutions[idx].x == expected_pair[0]
        assert solutions[-1].x == expected_pair[1]
        assert check_corollary4(entries, solutions)


def test_solution_keeps_value_semantics():
    sol = solve_vector((1, 1, 0, 1, 1))
    with pytest.raises(AttributeError):
        sol.x = 1
    again = solve_vector((1, 1, 0, 1, 1))
    assert again == sol and hash(again) == hash(sol) and len({sol, again}) == 1
    # the README line
    assert repr(sol) == "Solution(x=59, y=38, vector=(1, 1, 0, 1, 1), member=True)"
    entries = vset_levels(5)[5]
    solutions = [solve_vector(e.vector) for e in entries]
    assert all(type(s) is Solution for s in solutions)
    assert check_corollary4(entries, solutions)


def test_check_corollary4_rejects_level_without_closing_entry():
    entries = vset_levels(4)[4][:-1]
    solutions = [solve_vector(e.vector) for e in entries]
    with pytest.raises(ValueError, match="all-leading-ones"):
        check_corollary4(entries, solutions)
