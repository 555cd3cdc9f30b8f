import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from collatz_stopping import core
from collatz_stopping.core import (
    forward_map,
    parity_vector_of,
    stopping_time,
    t_step,
    trajectory,
)
from collatz_stopping.ladder import kappa


def test_t_step_examples():
    assert t_step(11) == 17
    assert t_step(26) == 13
    assert t_step(4) == 2


def test_t_step_rejects_nonpositive():
    with pytest.raises(ValueError):
        t_step(0)


def test_t_step_huge_values_are_exact():
    x = 2**300 + 1  # odd
    assert t_step(x) == (3 * x + 1) // 2
    assert t_step(2**300) == 2**299


def test_trajectory_examples():
    assert trajectory(59, 4) == [59, 89, 134, 67, 101]
    assert trajectory(7, 4) == [7, 11, 17, 26, 13]
    assert trajectory(1, 2) == [1, 2, 1]


def test_trajectory_length_and_seed():
    t = trajectory(27, 10)
    assert len(t) == 11 and t[0] == 27


def test_stopping_time_examples():
    assert stopping_time(3, 100) == 4
    assert stopping_time(2, 100) == 1
    assert stopping_time(11, 100) == 5
    assert stopping_time(5, 100) == 2


def test_stopping_time_budget_exhaustion_is_unknown():
    # sigma(27) is far beyond 10 steps
    assert stopping_time(27, 10) is None
    assert stopping_time(27, 200) is not None


def test_stopping_time_rejects_x_below_2():
    with pytest.raises(ValueError):
        stopping_time(1, 10)


def test_parity_vector_examples():
    assert parity_vector_of(7, 3) == (1, 1, 1, 0, 1)
    assert parity_vector_of(15, 3) == (1, 1, 1, 1, 0)
    assert parity_vector_of(3, 1) == (1, 1)


def test_forward_map_examples():
    assert forward_map(3, 2) == (8, 2)
    assert forward_map(11, 4) == (20, 3)
    assert forward_map(59, 6) == (76, 4)


def test_forward_map_rejects_out_of_range_residue():
    with pytest.raises(ValueError):
        forward_map(16, 4)
    for k in range(1, 9):
        for r in (1 << k, -1):
            refusal = rf"^residue must satisfy 0 <= r < 2\^{k}, got {r}$"
            with pytest.raises(ValueError, match=refusal):
                forward_map(r, k)


def test_forward_map_takes_both_ends_of_the_residue_range():
    for k in range(1, 9):
        assert forward_map(0, k) == (0, 0)
        # T^j(c * 2^i - 1) = c * 3^j * 2^(i-j) - 1: every step is odd
        assert forward_map((1 << k) - 1, k) == (3**k - 1, k)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), size=st.integers(1, 10), lanes=st.integers(0, 64))
def test_pack_puts_each_value_in_its_own_lane(data, size, lanes):
    top = 1 << min(64, 8 * size)
    xs = data.draw(st.lists(st.integers(0, top - 1), min_size=lanes, max_size=lanes))
    raw = core._pack(xs, size).to_bytes(size * lanes, "little")
    assert [int.from_bytes(raw[i * size : (i + 1) * size], "little") for i in range(lanes)] == xs
    # one value at or above the lane's top, 2^64 included, is refused, not spilled
    at = data.draw(st.integers(0, lanes))
    for big in (top, 1 << 64, data.draw(st.integers(top, 1 << 80))):
        with pytest.raises(struct.error):
            core._pack(xs[:at] + [big] + xs[at:], size)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), lanes=st.integers(0, 64))
def test_unpack_reads_back_every_packed_lane(data, lanes):
    xs = data.draw(st.lists(st.integers(0, (1 << 64) - 1), min_size=lanes, max_size=lanes))
    assert core._unpack(core._pack(xs, 8), len(xs)) == xs


@given(st.integers(min_value=1, max_value=20), st.data())
@settings(max_examples=200)
def test_forward_map_shift_class_property(k, data):
    r = data.draw(st.integers(min_value=0, max_value=(1 << k) - 1))
    m = data.draw(st.integers(min_value=1, max_value=100))
    q, n = forward_map(r, k)
    t = r + m * (1 << k)
    for _ in range(k):
        t = t // 2 if t % 2 == 0 else (3 * t + 1) // 2
    assert t == q + m * 3**n


@given(st.integers(min_value=1, max_value=5000), st.integers(min_value=1, max_value=8))
@settings(max_examples=150)
def test_parity_vector_matches_trajectory_parities(x, n):
    bits = parity_vector_of(x, n)
    terms = trajectory(x, kappa(n))
    assert len(bits) == kappa(n) + 1
    assert bits == tuple(t % 2 for t in terms)


@given(st.integers(min_value=1, max_value=10**12), st.integers(min_value=1, max_value=60))
@settings(max_examples=150)
def test_trajectory_consecutive_pairs_follow_the_map(x, steps):
    terms = trajectory(x, steps)
    for u, v in zip(terms, terms[1:]):
        assert v == (u // 2 if u % 2 == 0 else (3 * u + 1) // 2)


@given(st.integers(min_value=1, max_value=10**6))
def test_even_numbers_stop_after_one_step(m):
    assert stopping_time(2 * m, 1) == 1


@given(st.integers(min_value=1, max_value=10**6))
def test_one_mod_four_stops_after_two_steps(m):
    assert stopping_time(4 * m + 1, 2) == 2


def test_trajectory_and_parity_vector_refuse_one_past_the_ladder_bound(monkeypatch):
    from collatz_stopping import ladder

    # parity_vector_of(x, n) walks kappa(n) steps, so trajectory's bound is
    # the longest prefix the ladder's n <= MAX_LADDER_TERMS may ask for
    assert kappa(ladder.MAX_LADDER_TERMS) == 158_496
    levels = r"^parity vectors are bounded at n <= 100000; requested 100001$"
    with pytest.raises(ValueError, match=levels):
        parity_vector_of(3, 100_001)
    steps = r"^trajectories are bounded at 158496 steps \(kappa\(100000\)\); requested 158497$"
    with pytest.raises(ValueError, match=steps):
        trajectory(3, 158_497)
    assert len(trajectory(3, 158_496)) == 158_497
    monkeypatch.setattr(ladder, "MAX_LADDER_TERMS", 5)  # read per call: kappa(5) = 7
    with pytest.raises(ValueError, match=r"^parity vectors are bounded at n <= 5; requested 6$"):
        parity_vector_of(3, 6)
    with pytest.raises(ValueError, match=r"bounded at 7 steps \(kappa\(5\)\); requested 8$"):
        trajectory(3, 8)
    assert len(parity_vector_of(3, 5)) == len(trajectory(3, 7)) == 8
