"""Shared loaders for the vendored golden fixtures, and test-only helpers."""

import struct
from pathlib import Path

import pytest

FIXTURES = Path(__file__).parent / "fixtures"


def fixture_lines(name: str) -> list[str]:
    text = (FIXTURES / name).read_text()
    return [line for line in text.splitlines() if line and not line.startswith("#")]


def trailing_zeros(bits: tuple[int, ...]) -> int:
    """Length of the run of 0s that ends bits."""
    j = 0
    for b in reversed(bits):
        if b != 0:
            break
        j += 1
    return j


def pack_sums(sums) -> bytes:
    """Weighted sums as ptree._tree_level keeps them: 8-byte little-endian."""
    return struct.pack(f"<{len(sums)}Q", *sums)


def unpack_sums(column: bytes) -> tuple[int, ...]:
    """The weighted sums in a column of 8-byte little-endian values."""
    return struct.unpack(f"<{len(column) // 8}Q", column)


def reference_tree_levels(n_max):
    """Yield levels 1..n_max as the tree walker first kept them: a tuple of
    each entry's weighted sum S as a Python int, and bytes of its final-1
    position and h.  An oracle for ptree._tree_level's columns."""
    from collatz_stopping.ladder import kappa

    level = (5,), b"\x01", b"\x02"  # the root (1, 1): S = 3 * 2^0 + 2^1
    yield level
    for n in range(2, n_max + 1):
        top = kappa(n)
        bit = 1 << top
        sums, ends, heads = [], bytearray(), bytearray()
        for s, q, h in zip(*level):  # the parent's final 1 is the child's q
            s, p = 3 * s + bit, top  # step 1: the final 1 lands at kappa(n)
            sums.append(s)
            ends.append(p)
            heads.append(h)
            while p - 1 > q:  # step 2: the final 1 moves one place left
                p -= 1
                s -= 1 << p
                if p == h:  # it joins the leading ones
                    h += 1
                sums.append(s)
                ends.append(p)
                heads.append(h)
            if p == n:  # step 3: ones fill 0..n, so h = n + 1 and the level closes
                break
        else:
            raise RuntimeError(f"level {n} did not close on the all-leading-ones vector")
        level = tuple(sums), bytes(ends), bytes(heads)
        yield level


def forge_level(monkeypatch, n, edit):
    """Route level n's residues through edit, in every class list."""
    from collatz_stopping import ptree

    classes = ptree._level_classes

    def forged(level):
        residues = classes(level)
        return pack_sums(sorted(edit(set(unpack_sums(residues))))) if level == n else residues

    monkeypatch.setattr(ptree, "_level_classes", forged)


@pytest.fixture(scope="session")
def residue_classes():
    """{sigma: (modulus, [residues])}"""
    blocks = {}
    for line in fixture_lines("residue_classes.txt"):
        parts = [int(v) for v in line.split()]
        blocks[parts[0]] = (parts[1], parts[2:])
    return blocks


@pytest.fixture(scope="session")
def sieve_expansion():
    """[(k, r, q, n)] in golden order."""
    return [tuple(int(v) for v in line.split()) for line in fixture_lines("sieve_expansion.txt")]


@pytest.fixture(scope="session")
def vset_solutions():
    """{n: [(bits, x, y)]} in generation order."""
    levels = {}
    for line in fixture_lines("vset_solutions.txt"):
        n_str, bits_str, x_str, y_str = line.split()
        bits = tuple(int(b) for b in bits_str.split(","))
        levels.setdefault(int(n_str), []).append((bits, int(x_str), int(y_str)))
    return levels


@pytest.fixture(scope="session")
def level6_labels():
    """[(p, bits, x, y, h)] in generation order."""
    rows = []
    for line in fixture_lines("level6_labels.txt"):
        p_str, bits_str, x_str, y_str, h_str = line.split()
        bits = tuple(int(b) for b in bits_str.split(","))
        rows.append((int(p_str), bits, int(x_str), int(y_str), int(h_str)))
    return rows


@pytest.fixture(scope="session")
def triangle_counts():
    """{"cells": {(k, n): v}, "w": {k: v}, "z": {n: v}, "d": {n: v}}"""
    data = {"cells": {}, "w": {}, "z": {}, "d": {}}
    for line in fixture_lines("triangle_counts.txt"):
        parts = line.split()
        if parts[0] == "cell":
            data["cells"][(int(parts[1]), int(parts[2]))] = int(parts[3])
        else:
            data[parts[0]][int(parts[1])] = int(parts[2])
    return data


@pytest.fixture(scope="session")
def leading_ones_counts():
    """{"cells": {(h, n): v}, "z": {n: v}}"""
    data = {"cells": {}, "z": {}}
    for line in fixture_lines("leading_ones_counts.txt"):
        parts = line.split()
        if parts[0] == "cell":
            data["cells"][(int(parts[1]), int(parts[2]))] = int(parts[3])
        else:
            data["z"][int(parts[1])] = int(parts[2])
    return data


@pytest.fixture(scope="session")
def level5_tuples():
    """[(rank, bits, x, y)]; ranks 1, 2, 6 are the nonmembers."""
    rows = []
    for line in fixture_lines("level5_tuples.txt"):
        rank_str, bits_str, x_str, y_str = line.split()
        bits = tuple(int(b) for b in bits_str.split(","))
        rows.append((int(rank_str), bits, int(x_str), int(y_str)))
    return rows


@pytest.fixture(scope="session")
def oeis_expected():
    """{id: [terms]}"""
    seqs = {}
    for line in fixture_lines("oeis_sequences.txt"):
        parts = line.split()
        seqs[parts[0]] = [int(v) for v in parts[1:]]
    return seqs
