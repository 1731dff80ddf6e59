"""Shared curve constructions and theorem-side predictions for the tests,
and the helpers that only the tests call (mul_vec, to_vector, apply_dx)."""
from collections import Counter

from reescurve.errors import PreconditionError
from reescurve.fields import QQ
from reescurve.poly import EXP_MASK, X0_SHIFT, X_UNITS, BiPoly, pack, parse_bipoly
from reescurve.syzygy import (
    Parametrization,
    classify_singularity,
    implicit_equation,
    mu_basis,
    parametrization,
)


def monomial_odd(k, field=QQ) -> Parametrization:
    """u = (T0^(2k-1), T0^(2k-3) T1^2, T1^(2k-1)): degree 2k-1, axial, proper."""
    d = 2 * k - 1
    u0 = [0] * (d + 1)
    u0[0] = 1
    u1 = [0] * (d + 1)
    u1[2] = 1
    u2 = [0] * (d + 1)
    u2[d] = 1
    return parametrization(field, u0, u1, u2)


def binomial_even(k, field=QQ) -> Parametrization:
    """u = (T0^2k, T0^(2k-2)(T1^2+T0T1), T1^(2k-2)(T1^2+T0T1)): degree 2k."""
    d = 2 * k
    u0 = [0] * (d + 1)
    u0[0] = 1
    u1 = [0] * (d + 1)
    u1[1] = 1
    u1[2] = 1
    u2 = [0] * (d + 1)
    u2[d - 1] = 1
    u2[d] = 1
    return parametrization(field, u0, u1, u2)


def invariants(par: Parametrization):
    """(mu-basis, singularity class, implicit equation) of a curve: what a
    report computes before it builds a pipeline context."""
    mb = mu_basis(par)
    return mb, classify_singularity(mb), implicit_equation(mb)


def cross_product(l, n):
    return [
        l[1] * n[2] - l[2] * n[1],
        l[2] * n[0] - l[0] * n[2],
        l[0] * n[1] - l[1] * n[0],
    ]


def mu3_degree10_curves(field):
    """The two mu = 3, d = 10 curves given by their moving-line pairs."""
    P = lambda s: parse_bipoly(field, s)
    z = BiPoly.zero(field, 3, 0)
    n = [
        P("T0^6*T1 - T0^2*T1^5").x_coefficient((0, 0, 0)),
        P("T0^4*T1^3 + T0^2*T1^5").x_coefficient((0, 0, 0)),
        P("T0^7 + T1^7").x_coefficient((0, 0, 0)),
    ]
    l1 = [
        P("T0^3").x_coefficient((0, 0, 0)),
        P("T1^3 - T0*T1^2").x_coefficient((0, 0, 0)),
        z,
    ]
    l2 = [
        P("T0^3 - T0^2*T1").x_coefficient((0, 0, 0)),
        P("T1^3").x_coefficient((0, 0, 0)),
        z,
    ]
    par1 = parametrization(field, *cross_product(l1, n))
    par2 = parametrization(field, *cross_product(l2, n))
    return par1, par2


MU3_CURVE1_BIDEGREES = sorted(
    [(3, 1), (7, 1), (2, 3), (2, 3), (4, 2), (2, 4), (1, 6), (1, 6), (1, 6), (0, 10)]
)
MU3_CURVE2_BIDEGREES = sorted(
    [(3, 1), (7, 1), (2, 3), (2, 3), (4, 2), (2, 4), (1, 5), (1, 6), (1, 6), (0, 10)]
)


def predicted_multiset(d, kind):
    """Bidegree multiset of the minimal generating set per the mu = 2 theorems."""
    if kind == "very-singular":
        if d % 2 == 1:
            k = (d + 1) // 2
            bids = [(0, d), (2, 1), (1, k)]
            bids += [(2 * (k - j) - 1, j) for j in range(1, k)]
        else:
            k = d // 2
            bids = [(0, d), (2, 1), (1, k), (1, k)]
            bids += [(2 * (k - j), j) for j in range(1, k)]
        return sorted(bids)
    if kind == "mild":
        bids = [(0, d), (2, 1), (d - 2, 1), (d - 3, 2), (d - 3, 2)]
        for i in range(1, d - 3):
            bids += [(i, d - 1 - i)] * (d - 1 - i)
        return sorted(bids)
    raise ValueError(kind)


def expected_count(d, kind):
    if kind == "very-singular":
        return (d + 5) // 2 if d % 2 == 1 else (d + 6) // 2
    return (d + 1) * (d - 4) // 2 + 5


def multiset_of(table_counts):
    out = []
    for (i, j), c in sorted(table_counts.items()):
        out.extend([(i, j)] * c)
    return sorted(out)


def closed_form_generators_odd(k, field=QQ):
    """The displayed minimal generators of the monomial odd-degree family."""
    d = 2 * k - 1
    gens = [
        parse_bipoly(field, f"X1^{d} - X0^{d - 2}*X2^2"),
        parse_bipoly(field, "T1^2*X0 - T0^2*X1"),
    ]
    for j in range(1, k):
        e = 2 * (k - j) - 1
        x0pow = f"X0^{j - 1}*" if j >= 2 else ""
        gens.append(
            parse_bipoly(field, f"T1^{e}*X1^{j} - T0^{e}*{x0pow}X2".replace("^1*", "*"))
        )
    gens.append(parse_bipoly(field, f"T0*X1^{k} - T1*X0^{k - 1}*X2"))
    return gens


assert Counter(g.bidegree for g in closed_form_generators_odd(3)) == Counter(
    predicted_multiset(5, "very-singular")
)


def mul_vec(m, v):
    """The ExactMatrix m times the column v, on the field operations."""
    F = m.field
    assert len(v) == m.ncols
    out = []
    for row in m.rows:
        acc = F.zero
        for x, y in zip(row, v):
            acc = F.add(acc, F.mul(x, y))
        out.append(acc)
    return out


def to_vector(g, monomials):
    """g's coefficients on the exponent tuples `monomials`, zero where absent."""
    return [g.coeffs.get(pack(m), g.field.zero) for m in monomials]


def apply_dx(ctx, g):
    """The reverse of mu2sing.apply_dt: g = X0 g0 + X1 g1 |-> p0 g0 + p1 g1
    (mod P), for a very singular context.

    Input must lie in <X0, X1>; the canonical split sends every monomial
    divisible by X0 to the X0 slot.
    """
    F = ctx.field
    i, j = g.bidegree
    if not g.in_x01_power(1):
        raise PreconditionError("x01_membership", "input not in <X0, X1>")
    g0 = {}
    g1 = {}
    for m, c in g.coeffs.items():
        if m >> X0_SHIFT & EXP_MASK:
            g0[m - X_UNITS[0]] = c
        else:
            g1[m - X_UNITS[1]] = c
    part0 = BiPoly(F, i, max(j - 1, 0), g0, _clean=True)
    part1 = BiPoly(F, i, max(j - 1, 0), g1, _clean=True)
    return ctx.p0 * part0 + ctx.p1 * part1
