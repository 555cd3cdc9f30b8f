"""Shared loaders for the vendored golden fixtures, and test-only helpers."""

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


def forge_level(monkeypatch, n, edit):
    """Route level n's residues through edit, in every class list."""
    from collatz_stopping import ptree

    classes = ptree._level_classes

    def forged(level):
        residues = classes(level)
        return sorted(edit(set(residues))) if level == n else residues

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
