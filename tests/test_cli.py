import io
import subprocess
import sys
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_stopping.cli import SEQUENCES, _bits_str, main
from collatz_stopping.diophantine import solve_vector
from collatz_stopping.ladder import kappa, ladder_rows, sigma_n
from collatz_stopping.ptree import generate_vset, lex_tuples, ln_count
from collatz_stopping.verify import sieve


@pytest.fixture
def run_cli(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def test_sigma_subcommand(run_cli):
    code, out, err = run_cli("sigma", "59")
    assert code == 0 and out == "sigma(59) = 7\n"


def test_sigma_unknown_within_cap(run_cli):
    code, out, _ = run_cli("sigma", "27", "--cap", "10")
    assert code == 0 and "unknown within 10 steps" in out


def test_sigma_rejects_one(run_cli):
    code, _, err = run_cli("sigma", "1")
    assert code == 2 and "error:" in err


def test_solve_subcommand(run_cli):
    code, out, _ = run_cli("solve", "--vector", "1,1,0,1,1")
    assert code == 0 and out == "x=59 y=38 member=true h=2\n"


def test_solve_rejects_malformed_vector(run_cli):
    code, _, err = run_cli("solve", "--vector", "1,1,0,1")
    assert code == 0  # (1,1,0,1) is well-formed: level 2
    code, _, err = run_cli("solve", "--vector", "1,0,1")
    assert code == 2 and "error:" in err
    code, _, err = run_cli("solve", "--vector", "1,1,0,banana")
    assert code == 2


def test_ladder_csv(run_cli):
    code, out, _ = run_cli("ladder", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == ["n,d,kappa,sigma", "1,1,1,4", "2,2,3,5", "3,1,4,7"]


def test_residues_block(run_cli):
    code, out, _ = run_cli("residues", "--sigma-index", "2")
    assert code == 0
    assert out == "sigma(x) = 5\nif x = 11, 23 (mod 32)\n"


def test_vset_text_with_solutions(run_cli):
    code, out, _ = run_cli("vset", "3", "--with-solutions")
    assert code == 0
    assert out.splitlines() == [
        "1,1,0,1,1 2 1 59 38",
        "1,1,1,0,1 3 1 7 5",
        "1,1,1,1,0 4 1 15 10",
    ]


def test_vset_dot(run_cli):
    code, out, _ = run_cli("vset", "4", "--format", "dot")
    assert code == 0
    assert out.startswith("digraph") and out.count("[label=") == 13


def test_tuples_membership_flags(run_cli):
    code, out, _ = run_cli("tuples", "5")
    assert code == 0
    lines = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(lines) == 15
    nonmembers = [i for i, l in enumerate(lines, start=1) if "member=false" in l]
    assert nonmembers == [1, 2, 6]
    assert lines[0].split() == ["1", "1,1,0,0,1,1,1,1", "x=595", "y=425", "member=false"]


def test_sieve_table(run_cli):
    code, out, _ = run_cli("sieve", "--k", "2")
    assert code == 0
    assert "1 | 3 (mod 2^2) -> 8 (mod 3^2)" in out
    assert "# w(2) = 1" in out


def test_sieve_csv_includes_cut_residues(run_cli):
    code, out, _ = run_cli("sieve", "--k", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r,k,q,n,surviving"
    assert "3,4,2,2,False" in lines  # r=3 is cut at depth 4
    assert "7,4,13,3,True" in lines


def test_verify_subcommand_clean(run_cli):
    code, out, _ = run_cli("verify", "--max-bits", "10", "--n-max", "5")
    assert code == 0
    assert "mismatches: 0" in out


def test_verify_subcommand_exits_nonzero_on_mismatch(run_cli, monkeypatch):
    from collatz_stopping import verify
    from collatz_stopping.verify import VerificationReport

    fake = VerificationReport(
        x_lo=2, x_hi=10, n_max=4, counts={1: 4}, beyond_table=0,
        mismatches=((9, 2, 4),),
    )
    # the verify command imports verify_range from verify when it runs
    monkeypatch.setattr(verify, "verify_range", lambda *a, **kw: fake)
    code, out, _ = run_cli("verify", "--max-bits", "4", "--n-max", "4")
    assert code == 1
    assert "x=9 predicted=2 simulated=4" in out


def test_oeis_text(run_cli):
    code, out, _ = run_cli("oeis", "A100982", "--terms", "11")
    assert code == 0
    assert out == "1 2 3 7 12 30 85 173 476 961 2652\n"
    code, out, _ = run_cli("oeis", "A020914", "--terms", "4")
    assert code == 0 and out == "4 5 7 8\n"


def test_oeis_unknown_sequence(run_cli):
    code, _, err = run_cli("oeis", "A999999")
    assert code == 2 and "unknown sequence" in err


def test_oeis_terms_rejects_unknown_sequence_itself():
    from collatz_stopping.cli import _oeis_terms

    with pytest.raises(ValueError, match="unknown sequence"):
        _oeis_terms("A999999", 1)


def test_oeis_refuses_infeasible_terms(run_cli):
    code, _, err = run_cli("oeis", "A177789", "--terms", "10000000")
    assert code == 2 and "bounded" in err


def test_oeis_bfile_round_trip(run_cli):
    code, out, _ = run_cli("oeis", "A076227", "--terms", "5", "--format", "bfile")
    assert code == 0
    assert out.endswith("\n")
    pairs = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert pairs == [(2, 1), (3, 2), (4, 3), (5, 4), (6, 8)]
    indices = [i for i, _ in pairs]
    assert indices == list(range(indices[0], indices[0] + len(pairs)))


def test_oeis_bfile_offset_override(run_cli):
    code, out, _ = run_cli(
        "oeis", "A076227", "--terms", "3", "--format", "bfile", "--offset", "0"
    )
    assert out.splitlines() == ["0 1", "1 2", "2 3"]


def test_oeis_bfile_triangle_sequences(run_cli):
    code, out, _ = run_cli("oeis", "A100982", "--terms", "11", "--format", "bfile")
    assert code == 0
    pairs = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert pairs[0] == (1, 1)  # z(1) = 1 prepended
    assert pairs[-1] == (11, 2652)
    code, out, _ = run_cli("oeis", "A076227", "--terms", "10", "--format", "bfile")
    assert code == 0
    pairs = [tuple(map(int, line.split())) for line in out.splitlines()]
    assert pairs[0] == (2, 1) and pairs[-1] == (11, 128)


def test_sequence_table_lists_the_catalogued_ids():
    assert sorted(SEQUENCES) == [
        "A020914", "A020915", "A022921", "A056576",
        "A076227", "A100982", "A177789", "A293308",
    ]


@pytest.mark.parametrize("seq", sorted(SEQUENCES))
def test_sequence_refuses_past_its_bound_and_numbers_its_bfile(run_cli, seq, monkeypatch):
    cache = _cleared_level_cache()
    spec = SEQUENCES[seq]
    produced = []
    spy = lambda terms: produced.append(terms) or spec.produce(terms)
    monkeypatch.setitem(SEQUENCES, seq, spec._replace(produce=spy))
    bound = spec.bound()
    code, out, err = run_cli("oeis", seq, "--terms", str(bound + 1))
    # refused before a single term is computed
    assert code == 2 and out == "" and produced == []
    assert err.startswith(f"error: {seq} emission is bounded at ")
    assert err.endswith(f"; requested {bound + 1}\n")
    info = cache.cache_info()
    assert info.hits == info.misses == 0
    code, out, _ = run_cli("oeis", seq, "--terms", "3", "--format", "bfile")
    assert code == 0
    first = 2 if seq == "A076227" else 1
    assert [int(line.split()[0]) for line in out.splitlines()] == [first, first + 1, first + 2]


def test_triangle_table_grid_layout(run_cli):
    code, out, _ = run_cli("triangle", "--max-n", "11")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("d(n)")
    assert any(l.startswith("k=11") and l.endswith("w=128") for l in lines)
    assert lines[-1].startswith("z(n)") and lines[-1].rstrip().endswith("2652")


def test_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "collatz_stopping", "nonsense"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--max-bits", "4", "--n-max", "3", "--jobs", "0"),
        ("verify", "--max-bits", "0", "--n-max", "3"),
        ("vset", "0"),
        ("tuples", "0"),
        ("ladder", "--max-n", "0"),
        ("triangle", "--max-n", "1"),
        ("sigma", "5", "--cap", "0"),
        ("vset", "0", "--format", "dot"),
    ],
)
def test_parameter_refused_by_the_library_exits_2(run_cli, argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == "" and err.startswith("error: ")


def test_output_is_byte_identical_across_runs_and_jobs():
    def run(jobs):
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "collatz_stopping",
                "verify",
                "--max-bits",
                "13",
                "--n-max",
                "6",
                "--jobs",
                jobs,
            ],
            capture_output=True,
        )

    first = run("1")
    second = run("1")
    third = run("2")
    assert first.returncode == second.returncode == third.returncode == 0
    assert first.stdout == second.stdout == third.stdout


def _cleared_level_cache():
    from collatz_stopping import ptree

    ptree._built_level.cache_clear()
    return ptree._built_level


def test_oeis_refusal_builds_no_level(run_cli):
    cache = _cleared_level_cache()
    code, out, err = run_cli("oeis", "A177789", "--terms", "81118")
    assert code == 2 and out == ""
    assert "bounded at levels n <= 14 (81117 terms); requested 81118" in err
    assert cache.cache_info().currsize == 0


def test_oeis_residue_bound_follows_the_patched_level(run_cli, monkeypatch):
    from collatz_stopping import ptree

    # levels 1..5 hold 1 + 2 + 3 + 7 + 12 classes
    monkeypatch.setattr(ptree, "MAX_RESIDUE_LEVEL", 5)
    cache = _cleared_level_cache()
    code, out, err = run_cli("oeis", "A177789", "--terms", "26")
    assert code == 2 and out == ""
    assert err == "error: A177789 emission is bounded at levels n <= 5 (25 terms); requested 26\n"
    assert cache.cache_info().currsize == 0
    code, out, _ = run_cli("oeis", "A177789", "--terms", "25")
    assert code == 0 and len(out.split()) == 25


def _leading_ones(n):
    """The level-n vector of n + 1 ones followed by zeros, kappa(n) + 1 bits."""
    return ",".join(["1"] * (n + 1) + ["0"] * (kappa(n) - n))


_LEVELS = "residue levels are bounded at n <= 14 (81117 classes)"
# level 10,001: 10,002 ones in kappa(10001) + 1 = 15,852 bits
_LEVEL_10001 = ",".join(["1"] * 10_002 + ["0"] * (15_852 - 10_002))
_REFUSED_BEFORE_BUILDING = {
    ("verify", "--max-bits", "16", "--n-max", "20"): f"{_LEVELS}; requested 20",
    ("residues", "--sigma-index", "15"): f"{_LEVELS}; requested 15",
    ("verify", "--max-bits", "33", "--n-max", "9"): (
        "verify ranges are bounded at --max-bits <= 32 (4294967294 integers); "
        "requested 33"
    ),
    # the range bound is checked first, then verify_range checks the level
    ("verify", "--max-bits", "33", "--n-max", "20"): (
        "verify ranges are bounded at --max-bits <= 32 (4294967294 integers); "
        "requested 33"
    ),
    ("vset", "15"): f"{_LEVELS}; requested 15",
    ("tuples", "15"): (
        "candidate tuples are bounded at n <= 14 (203490 tuples); requested 15"
    ),
    # build_triangle and ladder_rows refuse these two; the CLI keeps no copy
    ("triangle", "--max-n", "1001", "--format", "csv"): (
        "triangle columns are bounded at n <= 1000; requested 1001"
    ),
    ("ladder", "--max-n", "100001"): "ladder rows are bounded at n <= 100000; requested 100001",
    ("triangle", "--max-n", "201"): (
        "triangle columns are bounded at --max-n <= 200; requested 201"
    ),
    ("sieve", "--k", "40000"): (
        "sieve depths are bounded at k <= 26 (1037374 surviving residues); "
        "requested 40000"
    ),
    ("solve", "--vector", _LEVEL_10001): (
        "solved vectors are bounded at level n <= 9000 (14265 bits); requested 10001"
    ),
    ("solve", "--vector", _leading_ones(9_001)): (
        "solved vectors are bounded at level n <= 9000 (14265 bits); requested 9001"
    ),
    ("oeis", "A293308", "--terms", "9001"): (
        "A293308 emission is bounded at 9000 terms; requested 9001"
    ),
    ("verify", "--max-bits", "-1", "--n-max", "9"): "--max-bits must be >= 2, got -1",
    ("verify", "--max-bits", "1", "--n-max", "9"): "--max-bits must be >= 2, got 1",
}


@pytest.mark.parametrize("argv", list(_REFUSED_BEFORE_BUILDING))
def test_level_above_the_bound_is_refused_before_building(run_cli, argv, monkeypatch):
    from collatz_stopping import cli, ladder, ptree, triangle, verify

    built, counted, rolled = [], [], []
    monkeypatch.setattr(cli, "solve_vector", built.append)
    monkeypatch.setattr(ladder, "LadderRow", lambda *row: built.append(row))
    monkeypatch.setattr(ptree, "_extend_level", lambda prev, n: built.append(n))
    monkeypatch.setattr(verify, "_children", lambda *args: built.append(args))
    rows = triangle._rows
    monkeypatch.setattr(triangle, "_rows", lambda max_n: rolled.append(max_n) or rows(max_n))
    count = lambda k: counted.append(k) or triangle.survivor_counts(k)
    for module in (cli, verify):
        monkeypatch.setattr(module, "survivor_counts", count)
    cache = _cleared_level_cache()
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert err == f"error: {_REFUSED_BEFORE_BUILDING[argv]}\n"
    info = cache.cache_info()
    assert info.hits == info.misses == 0
    assert built == []
    # a refusal counts survivors no deeper than the sieve's own bound, and
    # rolls triangle rows only for the sizes its text states
    assert all(k <= 26 for k in counted)
    assert all(n <= 26 for n in rolled)


def test_printed_bounds_stay_within_the_int_to_str_digit_limit():
    from collatz_stopping.cli import MAX_SOLVE_LEVEL, MAX_TUPLE_TERMS
    from collatz_stopping.ptree import ln_count

    # x < 2^sigma < 2 * 3^(n+1) and y < 1.25 * 3^(n+1); this holds up to level 9,010
    assert 2 * 3 ** (MAX_SOLVE_LEVEL + 1) < 10**4300
    # ln_count rises with n, so the last term allowed is the longest printed
    assert ln_count(MAX_TUPLE_TERMS - 1) < ln_count(MAX_TUPLE_TERMS) < 10**4300


def test_solve_prints_the_last_level_allowed(run_cli):
    # level 9,001 is refused before solving (_REFUSED_BEFORE_BUILDING)
    code, out, err = run_cli("solve", "--vector", _leading_ones(9_000))
    assert code == 0 and err == "" and out.startswith("x=")
    assert out.endswith(" member=true h=9001\n")


def test_triangle_grid_is_bounded_below_the_csv(run_cli):
    code, out, _ = run_cli("triangle", "--max-n", "201", "--format", "csv")
    assert code == 0 and out.startswith("k,n,count\r\n")
    code, out, _ = run_cli("triangle", "--max-n", "200")
    assert code == 0 and out.startswith("d(n)  : ")


def test_counts_are_read_without_building_a_table(run_cli, monkeypatch):
    from collatz_stopping import ptree, triangle, verify

    tables = []
    real = triangle.TriangleTable
    monkeypatch.setattr(triangle, "TriangleTable", lambda **kw: tables.append(kw) or real(**kw))
    with pytest.raises(ValueError, match=r"k <= 26 \(1037374 surviving residues\); requested 1000$"):
        verify.sieve(1000)
    assert ptree.tree_node_count(14) == 81117
    for seq in ("A076227", "A100982"):
        code, out, _ = run_cli("oeis", seq, "--terms", "1000")
        assert code == 0 and len(out.split()) == 1000
    assert tables == []


def test_oeis_residues_stop_at_the_completing_level(run_cli):
    # 313 = z(1) + ... + z(8): levels 9..14 are never built
    cache = _cleared_level_cache()
    code, out, _ = run_cli("oeis", "A177789", "--terms", "313")
    assert code == 0 and len(out.split()) == 313
    assert cache.cache_info().currsize == 8


# The listings as they were once written: one print() per line and each
# vector formatted by ",".join(map(str, v)).  The CLI must match them byte
# for byte.


def _printed(emit, *args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        emit(*args)
    return buf.getvalue()


def _tuples_by_print(n):
    sig = sigma_n(n)
    for rank, vec in enumerate(lex_tuples(n), start=1):
        sol = solve_vector(vec)
        member = "true" if sol.member else "false"
        print(f"{rank:>4} {','.join(map(str, vec))} x={sol.x} y={sol.y} member={member}")
    print(f"# {ln_count(n)} tuples, modulus 2^{sig}")


def _vset_with_solutions_by_print(n):
    for e in generate_vset(n):
        sol = solve_vector(e.vector)
        print(f"{','.join(map(str, e.vector))} {e.h} {e.p} {sol.x} {sol.y}")


def _sieve_by_print(k):
    survivors = [rec for rec in sieve(k) if rec.surviving]
    for i, rec in enumerate(survivors, start=1):
        print(f"{i:>6} | {rec.r} (mod 2^{rec.k}) -> {rec.q} (mod 3^{rec.n})")
    print(f"# w({k}) = {len(survivors)}")


def _ladder_by_print(max_n):
    print(f"{'n':>6} {'d':>3} {'kappa':>8} {'sigma':>8}")
    for row in ladder_rows(max_n):
        print(f"{row.n:>6} {row.d:>3} {row.kappa:>8} {row.sigma:>8}")


@pytest.mark.parametrize("n", range(1, 11))
def test_tuples_and_vset_match_the_print_listing(run_cli, n):
    assert run_cli("tuples", str(n)) == (0, _printed(_tuples_by_print, n), "")
    expected = _printed(_vset_with_solutions_by_print, n)
    assert run_cli("vset", str(n), "--with-solutions") == (0, expected, "")


def test_sieve_and_ladder_match_the_print_listing(run_cli):
    assert run_cli("sieve", "--k", "16") == (0, _printed(_sieve_by_print, 16), "")
    assert run_cli("ladder", "--max-n", "300") == (0, _printed(_ladder_by_print, 300), "")


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=2, max_size=400).map(tuple))
def test_bits_str_joins_the_digits(bits):
    assert _bits_str(bits) == ",".join(map(str, bits))


@pytest.mark.parametrize("n", [5, 9])
def test_tuples_solves_each_candidate_once(run_cli, monkeypatch, n):
    # the benchmark's traced member_ratio divides by these solve_vector calls
    from collatz_stopping import cli

    calls = {"solve_vector": 0, "lex_tuples": 0}

    def counting(name, real):
        def spy(*args):
            calls[name] += 1
            return real(*args)

        return spy

    for name in calls:
        monkeypatch.setattr(cli, name, counting(name, getattr(cli, name)))
    code, _, _ = run_cli("tuples", str(n))
    assert code == 0
    assert calls == {"solve_vector": ln_count(n), "lex_tuples": 1}
