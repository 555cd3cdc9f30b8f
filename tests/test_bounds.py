"""Every bounded public entry point refuses an oversized request up front,
where it allocates: with a ValueError, quickly, before it builds a tree level
or touches any per-process level cache, and without rolling triangle rows
beyond the sizes its refusal states.  Every parameter with a least value
refuses one below it, in ladder._refuse_below's words."""

import time
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_stopping import core, diophantine, ladder, ptree, triangle, verify

# name: (call, first refused request, deepest triangle row roll its refusal text
# may make: 14 for the class count of levels 1..14, 26 for w(26), 11 for the
# export's node counts, 0 for none)
BOUNDED = {
    "vset_levels": (ptree.vset_levels, 15, 14),
    "generate_vset": (ptree.generate_vset, 15, 14),
    "phn_counts": (ptree.phn_counts, 15, 14),
    "level_residues": (ptree.level_residues, 15, 14),
    "residue_table": (verify.residue_table, 15, 14),
    "verify_range": (lambda n: verify.verify_range(2, 10, n), 15, 14),
    "lex_tuples": (ptree.lex_tuples, 15, 0),
    "build_triangle": (triangle.build_triangle, 1_001, 0),
    "class_counts": (triangle.class_counts, 1_001, 0),
    "survivor_counts": (triangle.survivor_counts, 1_002, 0),
    "ladder_rows": (ladder.ladder_rows, 100_001, 0),
    "parity_vector_of": (lambda n: core.parity_vector_of(3, n), 100_001, 0),
    "trajectory": (lambda steps: core.trajectory(3, steps), 158_497, 0),
    "forward_map": (lambda k: core.forward_map(1, k), 158_497, 0),
    "stopping_time": (lambda cap: core.stopping_time(3, cap), 158_497, 0),
    "check_corollary3_delta": (lambda n: diophantine.check_corollary3_delta(0, 0, n, 1), 100_001, 0),
    "sieve": (verify.sieve, 27, 26),
    "export_tree": (ptree.export_tree, 11, 11),
    "ln_count": (ptree.ln_count, 100_001, 0),
    "kappa": (ladder.kappa, 1_000_001, 0),
    "sigma_n": (ladder.sigma_n, 1_000_000, 0),  # it reads kappa(n + 1)
    "d": (ladder.d, 1_000_001, 0),
    "min_surviving_n": (ladder.min_surviving_n, 1_000_001, 0),
}


def _refuses_up_front(name, request):
    call, _, deepest = BOUNDED[name]
    rolled = []
    rows = triangle._rows
    spy = lambda max_n: rolled.append(max_n) or rows(max_n)
    caches = (ptree._tree_level, ptree._walked_classes, ptree._ascending, ptree._h_counts)
    before = [cache.cache_info() for cache in caches]
    with mock.patch.object(triangle, "_rows", spy):
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=f"bounded at .*; requested {request}$"):
            call(request)
        elapsed = time.perf_counter() - t0
    assert elapsed < 0.1
    assert [cache.cache_info() for cache in caches] == before
    assert all(max_n <= deepest for max_n in rolled)


@pytest.mark.parametrize("name", list(BOUNDED))
def test_one_past_the_bound_and_far_past_it_are_refused(name):
    _refuses_up_front(name, BOUNDED[name][1])
    _refuses_up_front(name, 10**9)


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(sorted(BOUNDED)), data=st.data())
def test_any_request_past_the_bound_is_refused(name, data):
    _refuses_up_front(name, data.draw(st.integers(BOUNDED[name][1], 10**9)))


def test_the_moved_bounds_are_read_per_call(monkeypatch):
    monkeypatch.setattr(triangle, "MAX_TRIANGLE_TERMS", 10)
    monkeypatch.setattr(ladder, "MAX_LADDER_TERMS", 5)
    columns = r"^triangle columns are bounded at n <= 10; requested 11$"
    with pytest.raises(ValueError, match=columns):
        triangle.build_triangle(11)
    with pytest.raises(ValueError, match=columns):
        triangle.class_counts(11)
    rows = r"^triangle rows are bounded at k <= 11 \(10 values\); requested 12$"
    with pytest.raises(ValueError, match=rows):
        triangle.survivor_counts(12)
    with pytest.raises(ValueError, match=r"^ladder rows are bounded at n <= 5; requested 6$"):
        ladder.ladder_rows(6)
    assert triangle.build_triangle(10).max_n == 10
    assert len(triangle.class_counts(10)) == len(triangle.survivor_counts(11)) == 10
    assert len(ladder.ladder_rows(5)) == 5


def test_the_kappa_bound_is_read_per_call(monkeypatch):
    monkeypatch.setattr(ladder, "MAX_KAPPA_LEVEL", 50)
    # kappa and min_surviving_n refuse on a cache miss, which __wrapped__ forces
    calls = {
        ladder.kappa.__wrapped__: 51,
        ladder.sigma_n: 50,
        ladder.d: 51,
        ladder.min_surviving_n.__wrapped__: 51,
    }
    for call, first in calls.items():
        with pytest.raises(ValueError, match=f" <= {first - 1}; requested {first}$"):
            call(first)
        assert call(first - 1) > 0
    assert ladder.sigma_n(49) == ladder.kappa(50) + 1


def test_stopping_time_refuses_an_x_past_its_bit_bound_before_the_walk(monkeypatch, capsys):
    from collatz_stopping.cli import main

    # the CLI parses x up to 4,300 digits, inside the bound
    assert (10**4300 - 1).bit_length() == 14_285 < core.MAX_STOPPING_BITS == 16_384
    cap = ladder.kappa(ladder.MAX_LADDER_TERMS)
    refusal = "^stopping time inputs are bounded at 16384 bits; requested {}$"
    for bits in (16_385, 10**6):
        x = (1 << bits) - 1  # climbs for bits steps, if walked
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=refusal.format(bits)):
            core.stopping_time(x, cap)
        assert time.perf_counter() - t0 < 0.1
    assert core.stopping_time((1 << 16_384) - 2, cap) == 1
    # the bound is read per call, by the CLI's sigma too
    monkeypatch.setattr(core, "MAX_STOPPING_BITS", 10)
    assert main(["sigma", "1024"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: stopping time inputs are bounded at 10 bits; requested 11\n"
    assert main(["sigma", "1023"]) == 0
    assert capsys.readouterr().out == f"sigma(1023) = {core.stopping_time(1023, 10_000)}\n"


# trajectory keeps every term, so it bounds x's bits at core.MAX_STOPPING_BITS
# as well; parity_vector_of and forward_map read trajectory
TRAJECTORY_READERS = {
    "trajectory": lambda x: core.trajectory(x, 1),
    "parity_vector_of": lambda x: core.parity_vector_of(x, 1),
    "forward_map": lambda x: core.forward_map(x, 158_496),
}


@pytest.mark.parametrize("name", list(TRAJECTORY_READERS))
def test_an_x_past_the_trajectory_bit_bound_is_refused_before_the_walk(name, monkeypatch):
    call = TRAJECTORY_READERS[name]
    refusal = "^trajectory inputs are bounded at {} bits; requested {}$"
    for bits in (16_385, 158_496):
        x = (1 << bits) - 1  # climbs for bits steps, if walked
        t0 = time.perf_counter()
        with pytest.raises(ValueError, match=refusal.format(16_384, bits)):
            call(x)
        assert time.perf_counter() - t0 < 0.1
    # the bound is read per call
    monkeypatch.setattr(core, "MAX_STOPPING_BITS", 10)
    with pytest.raises(ValueError, match=refusal.format(10, 11)):
        call(1024)
    call(1023)


def test_the_cli_follows_the_moved_bounds(monkeypatch, capsys):
    from collatz_stopping.cli import main

    monkeypatch.setattr(triangle, "MAX_TRIANGLE_TERMS", 10)
    monkeypatch.setattr(ladder, "MAX_LADDER_TERMS", 5)
    refused = {
        ("oeis", "A076227", "--terms", "11"): "A076227 emission is bounded at 10 terms; requested 11",
        ("oeis", "A100982", "--terms", "11"): "A100982 emission is bounded at 10 terms; requested 11",
        ("oeis", "A056576", "--terms", "6"): "A056576 emission is bounded at 5 terms; requested 6",
        ("triangle", "--max-n", "11", "--format", "csv"): (
            "triangle columns are bounded at n <= 10; requested 11"
        ),
        ("ladder", "--max-n", "6"): "ladder rows are bounded at n <= 5; requested 6",
    }
    for argv, text in refused.items():
        assert main(list(argv)) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == f"error: {text}\n"
    assert main(["oeis", "A076227", "--terms", "10"]) == 0
    assert len(capsys.readouterr().out.split()) == 10


# name: (call, or CLI argv, one below the least value; the refusal's exact text)
BELOW = {
    "cli verify --max-bits": (
        ("verify", "--max-bits", "1", "--n-max", "9"),
        "--max-bits must be >= 2, got 1",
    ),
    "cli oeis terms": (("oeis", "A076227", "--terms", "0"), "terms must be >= 1, got 0"),
    "t_step": (lambda: core.t_step(0), "x must be >= 1, got 0"),
    "trajectory x": (lambda: core.trajectory(0, 1), "x must be >= 1, got 0"),
    "trajectory steps": (lambda: core.trajectory(3, -1), "steps must be >= 0, got -1"),
    "stopping_time cap": (lambda: core.stopping_time(3, 0), "cap must be >= 1, got 0"),
    "parity_vector_of": (lambda: core.parity_vector_of(3, 0), "level must be >= 1, got 0"),
    "forward_map": (lambda: core.forward_map(0, 0), "step count must be >= 1, got 0"),
    "check_corollary1": (lambda: diophantine.check_corollary1(3, 1), "h must be >= 2, got 1"),
    "lambda_step": (lambda: diophantine.lambda_step(3, 1), "level must be >= 2, got 1"),
    "check_corollary3_delta level": (
        lambda: diophantine.check_corollary3_delta(0, 0, 1, 1),
        "level must be >= 2, got 1",
    ),
    "check_corollary3_delta run": (
        lambda: diophantine.check_corollary3_delta(0, 0, 2, 0),
        "trailing-zero run must be >= 1, got 0",
    ),
    "predict_corollary3_explicit run": (
        lambda: diophantine.predict_corollary3_explicit(3, 2, 0, 1),
        "trailing-zero run must be >= 1, got 0",
    ),
    "check_corollary4": (
        lambda: diophantine.check_corollary4(ptree.generate_vset(1), [None]),  # one vector
        "level must be >= 2, got 1",
    ),
    "kappa": (lambda: ladder.kappa(-1), "level must be >= 0, got -1"),
    "sigma_n": (lambda: ladder.sigma_n(0), "level must be >= 1, got 0"),
    "d": (lambda: ladder.d(0), "level must be >= 1, got 0"),
    "min_surviving_n": (lambda: ladder.min_surviving_n(0), "bit depth must be >= 1, got 0"),
    "ladder_rows": (lambda: ladder.ladder_rows(0), "max_n must be >= 1, got 0"),
    "ptree level check": (lambda: ptree.level_residues(0), "level must be >= 1, got 0"),
    "ln_count": (lambda: ptree.ln_count(0), "level must be >= 1, got 0"),
    "export_tree": (lambda: ptree.export_tree(0), "level must be >= 1, got 0"),
    "build_triangle": (lambda: triangle.build_triangle(1), "max_n must be >= 2, got 1"),
    "survivor_counts": (lambda: triangle.survivor_counts(1), "row must be >= 2, got 1"),
    "class_counts": (lambda: triangle.class_counts(0), "column must be >= 1, got 0"),
    "w": (lambda: triangle.w(triangle.build_triangle(5), 1), "row must be >= 2, got 1"),
    "z_from_triangle": (
        lambda: triangle.z_from_triangle(triangle.build_triangle(5), 1),
        "column must be >= 2, got 1",
    ),
    "sieve": (lambda: verify.sieve(1), "bit depth must be >= 2, got 1"),
    "verify_range x_lo": (lambda: verify.verify_range(1, 10, 9), "x_lo must be >= 2, got 1"),
    "verify_range jobs": (
        lambda: verify.verify_range(2, 10, 9, jobs=0),
        "jobs must be >= 1, got 0",
    ),
}


@pytest.mark.parametrize("name", list(BELOW))
def test_one_below_the_least_value_is_refused(name, capsys):
    call, text = BELOW[name]
    if callable(call):
        with pytest.raises(ValueError) as refused:
            call()
        assert str(refused.value) == text
    else:
        from collatz_stopping.cli import main

        assert main(list(call)) == 2
        assert capsys.readouterr() == ("", f"error: {text}\n")
