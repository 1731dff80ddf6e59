"""Generator assembly for mu = 2 curves whose singularities are all double points.

The low moving line P = T0^2 L0 + T1^2 L1 + T0 T1 L* now has rank-3 content
(the three linear forms share no projective zero).  Nontrivial kernel elements
come from 2x2 determinants of T-splits of P and Q (Sylvester forms), and, in
lower X-degree, from signed maximal minors of banded matrices whose last
column holds coefficients of the Morley form of P and Q.  The same blocks
assemble into square matrices whose determinant recovers the implicit
equation, which is what forces the minors' linear independence.
"""
from __future__ import annotations

from dataclasses import dataclass

from .assembly import Assembly, Generator
from .errors import ImproperParametrization, PreconditionError, VerificationError
from .poly import BiPoly, poly_det_bareiss
from .syzygy import (
    ImplicitEquation,
    MILD,
    MuBasis,
    NOT_APPLICABLE,
    Parametrization,
    SingularityClass,
    classify_singularity,
    implicit_equation,
    mu_basis,
)


@dataclass
class MildContext:
    par: Parametrization
    mb: MuBasis
    l0: BiPoly                 # coefficient forms of P: T0^2 L0 + T1^2 L1 + T0T1 L*
    l1: BiPoly
    lstar: BiPoly
    implicit: ImplicitEquation
    boundary: bool = False     # d = 4 (2 mu = d) boundary: counts not asserted

    @property
    def d(self) -> int:
        return self.par.d

    @property
    def field(self):
        return self.par.field


def mild_context(
    par: Parametrization,
    mb: MuBasis | None = None,
    sing: SingularityClass | None = None,
    imp: ImplicitEquation | None = None,
) -> MildContext:
    if mb is None:
        mb = mu_basis(par)
    if mb.mu != 2:
        raise PreconditionError("mu_equals_2", f"mu = {mb.mu}")
    if sing is None:
        sing = classify_singularity(mb)
    boundary = sing.kind == NOT_APPLICABLE
    if sing.kind not in (MILD, NOT_APPLICABLE):
        raise PreconditionError(
            "mild_singularities", f"singularity class is {sing.kind!r}"
        )
    if imp is None:
        imp = implicit_equation(mb)
    if imp.properness_degree != 1:
        raise ImproperParametrization(imp.properness_degree)
    return MildContext(
        par=par,
        mb=mb,
        l0=mb.p.t_coefficient(2, 0),
        l1=mb.p.t_coefficient(0, 2),
        lstar=mb.p.t_coefficient(1, 1),
        implicit=imp,
        boundary=boundary,
    )


# ---------------------------------------------------------------------------
# Sylvester forms
# ---------------------------------------------------------------------------

def _t_slot_split(g: BiPoly, v0: int, v1: int):
    """g = T0^(1+v0) * s0 + T1^(1+v1) * s1: T0-heavy monomials to slot 0."""
    F = g.field
    c0 = {}
    c1 = {}
    for m, c in g.coeffs.items():
        if m[0] >= 1 + v0:
            c0[(m[0] - 1 - v0, m[1], m[2], m[3], m[4])] = c
        else:
            if m[1] < 1 + v1:
                raise VerificationError(f"monomial {m} fits no slot for v=({v0},{v1})")
            c1[(m[0], m[1] - 1 - v1, m[2], m[3], m[4])] = c
    s0 = BiPoly(F, max(g.tdeg - 1 - v0, 0), g.xdeg, c0, _clean=True)
    s1 = BiPoly(F, max(g.tdeg - 1 - v1, 0), g.xdeg, c1, _clean=True)
    return s0, s1


def delta_sylvester(ctx: MildContext):
    """The three Sylvester forms Delta^v, v in {(0,0), (1,0), (0,1)}.

    Each is the 2x2 determinant of the canonical T-slot splits of P and Q;
    bidegrees (d-2, 2) and twice (d-3, 2); all lie in the kernel ideal.
    """
    if ctx.d < 4:
        raise PreconditionError("degree_range", "Sylvester forms need d >= 4")
    out = {}
    for v in ((0, 0), (1, 0), (0, 1)):
        p0, p1 = _t_slot_split(ctx.mb.p, *v)
        q0, q1 = _t_slot_split(ctx.mb.q, *v)
        delta = p0 * q1 - p1 * q0
        want = (ctx.d - 2 - sum(v), 2)
        if delta.is_zero() or delta.bidegree != want:
            raise VerificationError(f"Sylvester form at v={v} has wrong shape")
        if not ctx.par.substitute(delta).is_zero():
            raise VerificationError(f"Sylvester form at v={v} left the kernel")
        out[v] = delta
    return out


# ---------------------------------------------------------------------------
# Morley form
# ---------------------------------------------------------------------------

def _st_mul(a, b, F):
    out = {}
    for m1, c1 in a.items():
        for m2, c2 in b.items():
            m = tuple(x + y for x, y in zip(m1, m2))
            s = F.add(out.get(m, F.zero), F.mul(c1, c2))
            if F.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
    return out


def _divided_differences(g: BiPoly, order: str):
    """(g0, g1) in doubled variables with g(T) - g(S) = g0 (T0-S0) + g1 (T1-S1).

    Keys are 7-tuples (s0, s1, a0, a1, b0, b1, b2).  order="t0-first" is the
    canonical staircase; "t1-first" swaps the roles of T0 and T1 (used to test
    that downstream minors do not depend on the choice).
    """
    F = g.field
    g0 = {}
    g1 = {}
    for m, c in g.coeffs.items():
        a0, a1, b0, b1, b2 = m
        if order == "t0-first":
            for t in range(a0):
                key = (a0 - 1 - t, 0, t, a1, b0, b1, b2)
                g0[key] = F.add(g0.get(key, F.zero), c)
            for t in range(a1):
                key = (a0, a1 - 1 - t, 0, t, b0, b1, b2)
                g1[key] = F.add(g1.get(key, F.zero), c)
        else:
            for t in range(a1):
                key = (0, a1 - 1 - t, a0, t, b0, b1, b2)
                g1[key] = F.add(g1.get(key, F.zero), c)
            for t in range(a0):
                key = (a0 - 1 - t, a1, t, 0, b0, b1, b2)
                g0[key] = F.add(g0.get(key, F.zero), c)
    return g0, g1


@dataclass
class MorleyData:
    coeffs: dict     # {(v0, v1): BiPoly of bidegree (d-2-|v|, 2)}
    d: int

    def block(self, i):
        """Matrix of X-quadratic entries: rows v with |v| = d-2-i (descending
        first exponent), columns v' with |v'| = i (descending first exponent);
        entry = coefficient of T^v' S^v of the Morley form."""
        rows = []
        for t in range(self.d - 1 - i):
            v = (self.d - 2 - i - t, t)
            f = self.coeffs[v]
            row = []
            for s in range(i + 1):
                vp = (i - s, s)
                row.append(f.t_coefficient(*vp))
            rows.append(row)
        return rows


def morley_coeffs(ctx: MildContext, order: str = "t0-first") -> MorleyData:
    """Coefficients F^v of the Morley form of P and Q (canonical staircase)."""
    F = ctx.field
    p0, p1 = _divided_differences(ctx.mb.p, order)
    q0, q1 = _divided_differences(ctx.mb.q, order)
    mor = _st_mul(p0, q1, F)
    for m, c in _st_mul(p1, q0, F).items():
        s = F.sub(mor.get(m, F.zero), c)
        if F.is_zero(s):
            mor.pop(m, None)
        else:
            mor[m] = s
    d = ctx.d
    out = {}
    for v0 in range(d - 1):
        for v1 in range(d - 1 - v0):
            out[(v0, v1)] = BiPoly.zero(F, d - 2 - v0 - v1, 2)
    for m, c in mor.items():
        s0, s1, a0, a1, b0, b1, b2 = m
        key = (s0, s1)
        out[key] = out[key] + BiPoly.monomial(F, (a0, a1, b0, b1, b2), c)
    return MorleyData(coeffs=out, d=d)


# ---------------------------------------------------------------------------
# banded matrices, their minors, and the resultant matrix
# ---------------------------------------------------------------------------

def _banded_columns(ctx: MildContext, nrows: int):
    """The L-columns of the band matrix with nrows rows (width nrows - 2)."""
    F = ctx.field
    width = nrows - 2
    cols = []
    for c in range(width):
        col = [BiPoly.zero(F, 0, 1) for _ in range(nrows)]
        col[c] = ctx.l0
        col[c + 1] = ctx.lstar
        col[c + 2] = ctx.l1
        cols.append(col)
    return cols


def band_matrix(ctx: MildContext, i: int, morley: MorleyData):
    """The (d-1-i) x (d-2-i) matrix with banded L-columns and a Morley column."""
    d = ctx.d
    if not 1 <= i <= d - 2:
        raise PreconditionError("band_index", f"i = {i} outside 1..{d - 2}")
    nrows = d - 1 - i
    cols = _banded_columns(ctx, nrows)
    last = []
    for t in range(nrows):
        v = (d - 2 - i - t, t)
        last.append(morley.coeffs[v])
    rows = [[col[r] for col in cols] + [last[r]] for r in range(nrows)]
    return rows


def minor_family(ctx: MildContext, i: int, morley: MorleyData | None = None):
    """Signed maximal minors of the band matrix: elements of bidegree (i, d-1-i).

    Valid for 1 <= i <= d-4; the minor deleting row t carries sign (-1)^t in
    the row order of decreasing first exponent.
    """
    d = ctx.d
    if not 1 <= i <= d - 4:
        raise PreconditionError("minor_index", f"i = {i} outside 1..{d - 4}")
    if morley is None:
        morley = morley_coeffs(ctx)
    rows = band_matrix(ctx, i, morley)
    out = []
    for t in range(len(rows)):
        sub = [row for r, row in enumerate(rows) if r != t]
        det = poly_det_bareiss(sub)
        if t % 2 == 1:
            det = -det
        want = (i, d - 1 - i)
        if det.is_zero() or det.bidegree != want:
            raise VerificationError(f"minor (i={i}, row {t}) has wrong shape")
        if not ctx.par.substitute(det).is_zero():
            raise VerificationError(f"minor (i={i}, row {t}) left the kernel")
        out.append(det)
    return out


def morley_det_check(ctx: MildContext, i: int, morley: MorleyData | None = None):
    """Assemble the square resultant matrix at level i and factor its determinant.

    Returns (matrix_rows, det, lam) with det = lam * E_d, lam != 0.
    """
    d = ctx.d
    F = ctx.field
    if not 1 <= i <= d - 4:
        raise PreconditionError("minor_index", f"i = {i} outside 1..{d - 4}")
    if morley is None:
        morley = morley_coeffs(ctx)
    top_band = _banded_columns(ctx, d - 1 - i)
    mor = morley.block(i)
    rows = []
    for r in range(d - 1 - i):
        rows.append([col[r] for col in top_band] + mor[r])
    bot_band = _banded_columns(ctx, i + 1)     # band of the complementary level
    zero = BiPoly.zero(F, 0, 1)
    for c in range(i - 1):
        rows.append(
            [zero] * (d - 3 - i) + [bot_band[c][r] for r in range(i + 1)]
        )
    if len(rows) != d - 2 or any(len(r) != d - 2 for r in rows):
        raise VerificationError("resultant matrix has wrong shape")
    det = poly_det_bareiss(rows)
    eq = ctx.implicit.equation
    if det.is_zero() or not det.proportional_to(eq):
        raise VerificationError(
            f"resultant matrix determinant at i={i} is not a multiple of the implicit equation"
        )
    lam = det.leading()[1]  # eq is normalized, so det = lam * eq
    return rows, det, lam


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def assemble_mild(ctx: MildContext) -> Assembly:
    """The essentially-minimal family: (d+1)(d-4)/2 + 5 generators for d >= 5,
    with the Sylvester forms, the Morley data and the minor families."""
    d = ctx.d
    if d < 4:
        raise PreconditionError("degree_range", "mild assembly needs d >= 4")
    deltas = delta_sylvester(ctx)
    gens = [
        (ctx.implicit.equation, "implicit-equation"),
        (ctx.mb.p, "low-moving-line"),
        (ctx.mb.q, "high-moving-line"),
        (deltas[(1, 0)], "sylvester-form[(1,0)]"),
        (deltas[(0, 1)], "sylvester-form[(0,1)]"),
    ]
    morley = None
    minors = {}
    if d >= 5:
        morley = morley_coeffs(ctx)
        for i in range(1, d - 3):
            minors[i] = minor_family(ctx, i, morley)
            for t, minor in enumerate(minors[i]):
                v = (d - 2 - i - t, t)
                gens.append((minor, f"morley-minor[i={i},v={v}]"))
    expected = (d + 1) * (d - 4) // 2 + 5
    if not ctx.boundary and len(gens) != expected:
        raise VerificationError(
            f"assembled {len(gens)} generators, count formula says {expected}"
        )
    out = []
    for poly, label in gens:
        norm = poly.normalized()
        out.append(Generator(poly=norm, pipeline_poly=norm, bidegree=poly.bidegree, label=label))
    return Assembly(generators=out, deltas=deltas, morley=morley, minors=minors)
