"""Generator assembly for mu = 2 curves whose singularities are all double points.

The low moving line P = T0^2 L0 + T1^2 L1 + T0 T1 L* now has rank-3 content
(the three linear forms share no projective zero).  Everything here is read
off the coefficients F^v of one Morley form of P and Q (poly.morley_form),
built once per assembly.  The Sylvester forms, the 2x2 determinants of
T-splits of P and Q, are F^(0,0), F^(1,0) and F^(0,1).  In lower X-degree
the kernel elements are signed maximal minors of banded matrices whose last
column holds the F^v.  The same blocks assemble into square matrices whose
determinant recovers the implicit equation, which is what forces the minors'
linear independence.
"""
from __future__ import annotations

from dataclasses import dataclass

from .assembly import Assembly, Generator
from .errors import ImproperParametrization, PreconditionError, VerificationError
from .poly import BiPoly, morley_form, poly_det_bareiss
from .syzygy import (
    ImplicitEquation,
    MILD,
    MuBasis,
    NOT_APPLICABLE,
    Parametrization,
    SingularityClass,
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
    mb: MuBasis,
    sing: SingularityClass,
    imp: ImplicitEquation,
) -> MildContext:
    if mb.mu != 2:
        raise PreconditionError("mu_equals_2", f"mu = {mb.mu}")
    boundary = sing.kind == NOT_APPLICABLE
    if sing.kind not in (MILD, NOT_APPLICABLE):
        raise PreconditionError(
            "mild_singularities", f"singularity class is {sing.kind!r}"
        )
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
# the Morley form and the Sylvester forms
# ---------------------------------------------------------------------------

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


def morley_coeffs(ctx: MildContext) -> MorleyData:
    """Coefficients F^v of the Morley form of P and Q."""
    return MorleyData(coeffs=morley_form(ctx.mb.p, ctx.mb.q), d=ctx.d)


def delta_sylvester(ctx: MildContext, morley: MorleyData):
    """The three Sylvester forms Delta^v, v in {(0,0), (1,0), (0,1)}.

    Each is the Morley coefficient F^v: the 2x2 determinant of the T-splits
    P = T0^(1+v0) P0 + T1^(1+v1) P1 (and likewise Q) that send T0-heavy
    monomials to the first slot.  Bidegrees (d-2, 2) and twice (d-3, 2);
    all lie in the kernel ideal.
    """
    if ctx.d < 4:
        raise PreconditionError("degree_range", "Sylvester forms need d >= 4")
    out = {}
    for v in ((0, 0), (1, 0), (0, 1)):
        delta = morley.coeffs[v]
        want = (ctx.d - 2 - sum(v), 2)
        if delta.is_zero() or delta.bidegree != want:
            raise VerificationError(f"Sylvester form at v={v} has wrong shape")
        if not ctx.par.substitute(delta).is_zero():
            raise VerificationError(f"Sylvester form at v={v} left the kernel")
        out[v] = delta
    return out


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


def minor_family(ctx: MildContext, i: int, morley: MorleyData):
    """Signed maximal minors of the band matrix: elements of bidegree (i, d-1-i).

    Valid for 1 <= i <= d-4; the minor deleting row t carries sign (-1)^t in
    the row order of decreasing first exponent.
    """
    d = ctx.d
    if not 1 <= i <= d - 4:
        raise PreconditionError("minor_index", f"i = {i} outside 1..{d - 4}")
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


def morley_det_check(ctx: MildContext, i: int, morley: MorleyData):
    """Assemble the square resultant matrix at level i and factor its determinant.

    Returns (matrix_rows, det, lam) with det = lam * E_d, lam != 0.
    """
    d = ctx.d
    F = ctx.field
    if not 1 <= i <= d - 4:
        raise PreconditionError("minor_index", f"i = {i} outside 1..{d - 4}")
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
    morley = morley_coeffs(ctx)
    deltas = delta_sylvester(ctx, morley)
    gens = [
        (ctx.implicit.equation, "implicit-equation"),
        (ctx.mb.p, "low-moving-line"),
        (ctx.mb.q, "high-moving-line"),
        (deltas[(1, 0)], "sylvester-form[(1,0)]"),
        (deltas[(0, 1)], "sylvester-form[(0,1)]"),
    ]
    minors = {}
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
    out = [
        Generator(poly=poly.normalized(), bidegree=poly.bidegree, label=label)
        for poly, label in gens
    ]
    return Assembly(generators=out, deltas=deltas, morley=morley, minors=minors)
