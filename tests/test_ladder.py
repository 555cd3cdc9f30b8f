import pytest

from collatz_stopping.ladder import d, kappa, ladder_rows, min_surviving_n, sigma_n


def test_kappa_examples():
    assert kappa(3) == 4
    assert kappa(5) == 7
    assert kappa(1) == 1
    assert kappa(0) == 0


def test_kappa_is_tight():
    # ascending, descending and out-of-order calls from a cold cache
    kappa.cache_clear()
    for n in [*range(1, 200), *range(400, 200, -1), 1000, 1001, 999]:
        k = kappa(n)
        assert 2**k < 3**n < 2 ** (k + 1)


def test_sigma_examples():
    assert sigma_n(1) == 4
    assert sigma_n(3) == 7
    assert sigma_n(4) == 8


def test_d_examples(triangle_counts):
    assert d(2) == 2
    assert d(7) == 2
    assert d(8) == 1
    for n, expected in triangle_counts["d"].items():
        assert d(n) == expected


def test_d_two_valued_and_telescoping():
    total = 0
    for n in range(1, 10_001):
        gap = d(n)
        assert gap in (1, 2)
        total += gap
        assert total == kappa(n)


def test_d_progression_pattern_report():
    # Observational: runs of equal d values in 1..10000 stay short (single 1s,
    # at most two 2s in a row).  Reported here, not assumed anywhere else.
    runs = []
    run_val, run_len = d(1), 1
    for n in range(2, 10_001):
        gap = d(n)
        if gap == run_val:
            run_len += 1
        else:
            runs.append((run_val, run_len))
            run_val, run_len = gap, 1
    runs.append((run_val, run_len))
    assert max(length for val, length in runs if val == 1) == 1
    assert max(length for val, length in runs if val == 2) == 2


def test_min_surviving_n_matches_float_formula_small():
    # floor(1 + k*log3(2)) for k small enough that doubles are trustworthy
    import math

    for k in range(1, 60):
        assert min_surviving_n(k) == math.floor(1 + k * math.log(2, 3))


def test_min_surviving_n_is_tight():
    for k in range(1, 2001):
        n = min_surviving_n(k)
        assert 3 ** (n - 1) < 2**k < 3**n


def bisected_min_surviving_n(k):
    """min_surviving_n as first written: kappa is increasing and kappa(k) >= k,
    so a bisection over 1..k finds the least n with kappa(n) >= k."""
    from bisect import bisect_left

    return bisect_left(range(1, k + 1), k, key=kappa) + 1


def test_ascending_search_equals_the_bisection():
    # the search starts at k * 1000 // 1585, below every answer; the cache is
    # bypassed so each k runs the search itself
    search = min_surviving_n.__wrapped__
    for k in range(1, 3001):
        assert search(k) == bisected_min_surviving_n(k)
    assert search(10**6) == bisected_min_surviving_n(10**6) == 630930


def test_d_outside_one_or_two_raises(monkeypatch):
    from collatz_stopping import ladder

    monkeypatch.setattr(ladder, "kappa", lambda n: 3 * n)
    with pytest.raises(RuntimeError, match="not 1 or 2"):
        d(5)


def test_ladder_rows_shape():
    rows = ladder_rows(5)
    assert [(r.n, r.d, r.kappa, r.sigma) for r in rows] == [
        (1, 1, 1, 4),
        (2, 2, 3, 5),
        (3, 1, 4, 7),
        (4, 2, 6, 8),
        (5, 1, 7, 10),
    ]


def test_preconditions():
    with pytest.raises(ValueError):
        kappa(-1)
    with pytest.raises(ValueError):
        sigma_n(0)
    with pytest.raises(ValueError):
        d(0)
    with pytest.raises(ValueError):
        min_surviving_n(0)
