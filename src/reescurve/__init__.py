"""Exact toolkit for the bigraded defining ideal of a rational plane-curve
parametrization, specialized to curves carrying a degree-2 moving line."""

from .fields import DEFAULT_PRIME, PrimeField, QQ, Rationals, field_from_spec
from .linalg import ExactMatrix, RowReducer
from .poly import BiPoly, parse_bipoly, resultant_t, t_poly
from .syzygy import (
    MuBasis,
    Parametrization,
    classify_singularity,
    implicit_equation,
    inverse_map,
    mu_basis,
    parametrization,
)
from .oracle import Oracle, ideal_piece_membership, kernel_basis, mingen_table
from .report import build_report, verify_report

__all__ = [
    "BiPoly",
    "DEFAULT_PRIME",
    "ExactMatrix",
    "MuBasis",
    "Oracle",
    "Parametrization",
    "PrimeField",
    "QQ",
    "Rationals",
    "RowReducer",
    "build_report",
    "classify_singularity",
    "field_from_spec",
    "ideal_piece_membership",
    "implicit_equation",
    "inverse_map",
    "kernel_basis",
    "mingen_table",
    "mu_basis",
    "parametrization",
    "parse_bipoly",
    "resultant_t",
    "t_poly",
    "verify_report",
]

__version__ = "0.1.0"
