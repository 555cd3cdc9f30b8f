"""Exact finite-stopping-time structure of the 3x+1 map.

The residue classes (mod 2^sigma_n) of integers with stopping time sigma_n
are produced three independent ways (count triangle, parity-vector tree with
Diophantine solving, brute-force sieve/simulation) and can be cross-checked
against each other.
"""

from .core import Bits, forward_map, parity_vector_of, stopping_time, t_step, trajectory
from .diophantine import (
    Corollary3Prediction,
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
from .ladder import LadderRow, d, kappa, ladder_rows, min_surviving_n, sigma_n
from .ptree import (
    VSetEntry,
    export_tree,
    generate_vset,
    level_residues,
    lex_tuples,
    ln_count,
    phn_counts,
    vset_levels,
)
from .triangle import TriangleTable, build_triangle, class_counts, survivor_counts, w, z_from_triangle

# verify loads on first use (PEP 562): its records are frozen dataclasses,
# and the dataclasses module alone would double the package's import time.
# This can go once perfbench/selftest.py forges its broken verify records
# with _replace instead of dataclasses.replace: they can then be NamedTuples.
_VERIFY_NAMES = (
    "ResidueBlock", "SurvivalRecord", "VerificationReport",
    "residue_table", "sieve", "verify_range",
)


def __getattr__(name: str):
    if name in _VERIFY_NAMES:
        from . import verify

        return getattr(verify, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__version__ = "0.1.0"

__all__ = [
    "Bits",
    "Corollary3Prediction",
    "LadderRow",
    "ResidueBlock",
    "Solution",
    "SurvivalRecord",
    "TriangleTable",
    "VSetEntry",
    "VerificationReport",
    "alphas",
    "build_triangle",
    "check_corollary1",
    "class_counts",
    "check_corollary3_delta",
    "check_corollary4",
    "d",
    "export_tree",
    "forward_map",
    "generate_vset",
    "kappa",
    "ladder_rows",
    "lambda_step",
    "level_residues",
    "lex_tuples",
    "ln_count",
    "min_surviving_n",
    "parity_vector_of",
    "phn_counts",
    "predict_corollary3_explicit",
    "residue_table",
    "sieve",
    "sigma_n",
    "solve_vector",
    "stopping_term",
    "stopping_time",
    "survivor_counts",
    "t_step",
    "trajectory",
    "verify_range",
    "vset_levels",
    "w",
    "z_from_triangle",
]
