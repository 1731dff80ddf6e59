"""Dimension bookkeeping for the T-linear slices of the kernel ideal.

For a mu = 2 curve with a point of multiplicity d - 2 (normalized to
(0:0:1)), the slice K_{1,l} has a closed-form dimension, and inside it sits
Z_l: the part lying in the (d-3)-rd power of <X0, X1>.  Z_l contains every
pencil of adjoint curves in K_{1,l}; its dimension is computed here by plain
rank arithmetic, and compared against the closed-form target that is attained
by generic curves in this family.
"""
from __future__ import annotations

from math import comb

from .errors import PreconditionError
from .oracle import Oracle
from .poly import monomials_of_bidegree
from .syzygy import Parametrization


def k1_dimension_formula(d: int, ell: int) -> int:
    """Closed-form dim K_{1,ell} for a very singular mu = 2 curve of degree d.

    Conventions: binomial(a, b) = 0 when a < b (so small ell gives 0).
    """
    if ell < 0:
        return 0
    if d % 2 == 1:
        k = (d + 1) // 2
        return comb(max(ell - k + 3, 0), 2) + comb(max(ell - k + 2, 0), 2)
    k = d // 2
    return 2 * comb(max(ell - k + 2, 0), 2)


def adjoint_slice_bound(d: int, ell: int) -> int:
    """The dimension bound for pencils of adjoints inside K_{1,ell}
    (attained by generic very singular mu = 2 curves)."""
    if d % 2 == 1:
        k = (d + 1) // 2
        if ell < 2 * k - 3:
            return 0
        return ell * (ell - 2 * k + 4)
    k = d // 2
    if ell < 2 * k - 2:
        return 0
    return ell * (ell - 2 * k + 3)


def z_dimension(oracle: Oracle, ell: int) -> int:
    """dim of Z_ell = <X0,X1>^(d-3) ∩ K_{1,ell}, by rank arithmetic.

    `oracle` is the Oracle of a curve already in normalized coordinates
    (very singular point at (0:0:1)); callers coming from
    classify_singularity should build it on the transformed curve.  Z_ell
    is the part of K_{1,ell} supported on the "high" monomials, those of
    X0, X1-degree at least d - 3: the kernel of the substitution matrix M
    restricted to those columns, of dimension |high| - rank M[:, high].
    That is read off one elimination of slice (1, ell) with the high columns
    first (Oracle.kernel_dim_on): no kernel row is read and no RREF built,
    and kernel_dim(1, ell) then reads the same elimination.
    """
    d = oracle.d
    if d < 4:
        raise PreconditionError("degree_range", "needs d >= 4")
    if ell < 0:
        raise ValueError("bidegree components must be nonnegative")
    high = tuple(
        k for k, m in enumerate(monomials_of_bidegree(1, ell)) if m[2] + m[3] >= d - 3
    )
    return oracle.kernel_dim_on(1, ell, high)


class AdjointRow:
    __slots__ = ("ell", "k1_formula", "k1_oracle", "z_dim", "bound")

    def __init__(self, ell: int, k1_formula: int, k1_oracle: int, z_dim: int, bound: int):
        self.ell = ell
        self.k1_formula = k1_formula
        self.k1_oracle = k1_oracle
        self.z_dim = z_dim
        self.bound = bound

    @property
    def formula_agrees(self) -> bool:
        return self.k1_formula == self.k1_oracle

    @property
    def bound_attained(self) -> bool:
        return self.z_dim == self.bound


class AdjointReport:
    __slots__ = ("d", "rows")

    def __init__(self, d: int, rows: list):
        self.d = d
        self.rows = rows

    def all_formulas_agree(self) -> bool:
        return all(r.formula_agrees for r in self.rows)


def adjoint_report(par: Parametrization, ell_max: int | None = None) -> AdjointReport:
    """Per-degree dimensions for ell = 0 .. ell_max (default d + 2).

    Expects the normalized (axial) frame, mu = 2, very singular point at
    (0:0:1); K_{1,ell} dimensions are checked against the closed formula,
    Z_ell against the generic-curve target.
    """
    d = par.d
    if ell_max is None:
        ell_max = d + 2
    if ell_max < 0:
        raise PreconditionError("table_box", f"negative ell_max {ell_max}")
    orc = Oracle(par)
    rows = []
    for ell in range(0, ell_max + 1):
        # z first: its elimination of slice (1, ell) serves kernel_dim too
        z_dim = z_dimension(orc, ell)
        rows.append(
            AdjointRow(
                ell=ell,
                k1_formula=k1_dimension_formula(d, ell),
                k1_oracle=orc.kernel_dim(1, ell),
                z_dim=z_dim,
                bound=adjoint_slice_bound(d, ell),
            )
        )
    return AdjointReport(d=d, rows=rows)
