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

The band of those matrices is Toeplitz in L0, L*, L1, so every minor and
every determinant is read off a closed form (Band) on coefficient dicts:
three-term recurrences with products by linear forms (poly's one product),
no elimination and no BiPoly arithmetic.  poly.poly_det_bareiss is the
reference they are tested against.
"""
from __future__ import annotations

from .assembly import Assembly, Generator
from .errors import ImproperParametrization, PreconditionError, VerificationError
from .poly import (
    EXP_MASK, T0_SHIFT, T1_SHIFT, X_MASK, BiPoly, _bipoly, _modulus, _neg, _sum_of_products,
    morley_form, numerators,
)
from .syzygy import (
    ImplicitEquation,
    MILD,
    MuBasis,
    NOT_APPLICABLE,
    Parametrization,
    SingularityClass,
)


class MildContext:
    __slots__ = ("par", "mb", "implicit", "band", "boundary")

    def __init__(self, par: Parametrization, mb: MuBasis, implicit: ImplicitEquation,
                 band: Band, boundary: bool = False):
        self.par = par
        self.mb = mb
        self.implicit = implicit
        self.band = band            # P = T0^2 L0 + T0T1 L* + T1^2 L1, shared by every level
        self.boundary = boundary    # d = 4 (2 mu = d) boundary: counts not asserted

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
    lforms = (mb.p.t_coefficient(*a) for a in ((2, 0), (1, 1), (0, 2)))
    return MildContext(
        par=par,
        mb=mb,
        implicit=imp,
        band=Band(*lforms),
        boundary=boundary,
    )


# ---------------------------------------------------------------------------
# the Morley form and the Sylvester forms
# ---------------------------------------------------------------------------

class MorleyData:
    __slots__ = ("coeffs", "d")

    def __init__(self, coeffs: dict, d: int):
        self.coeffs = coeffs    # {(v0, v1): BiPoly of bidegree (d-2-|v|, 2)}
        self.d = d

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
        out[v] = delta
    return out


# ---------------------------------------------------------------------------
# the band: its maximal minors and the resultant determinants in closed form
# ---------------------------------------------------------------------------

class Band:
    """The band of P on coefficient dicts, shared by every level of a report.

    B_n is the (n+1) x (n-1) matrix whose column c holds L0, L*, L1 in rows
    c, c+1, c+2.  Without rows t < r it is block triangular, so

        det(B_n minus rows t, r) = L0^t D_(r-1-t) L1^(n-r),
        D_0 = 1, D_1 = L*, D_k = L* D_(k-1) - L0 L1 D_(k-2).

    Every sum over r below is one three-term recurrence in E_k = (-1)^k D_k,
    with products by L*, L0 L1 and the powers of L0 and L1, which are kept
    as they are first needed.  Keys are poly's: every exponent here is at
    most d (X-degrees of minors and determinants, T-tags of rows and
    columns), which fits a key field because the curve's forms of degree d
    do.  Over Q, L0, L*, L1 are integer numerators over one denominator
    `den`.
    """

    def __init__(self, l0, lstar, l1):
        self.p = _modulus(l0.field)
        self.den, (l0, lstar, l1) = numerators([l0, lstar, l1])
        self.neg_lstar = _neg(lstar)
        self.neg_l01 = _neg(_sum_of_products([(l0, l1)], self.p))
        self.pow0, self.pow1 = [{0: 1}, l0], [{0: 1}, l1]

    def _power(self, pows, k):
        while len(pows) <= k:
            pows.append(_sum_of_products([(pows[-1], pows[1])], self.p))
        return pows[k]

    def tail_sums(self, ys, pows):
        """S_t = sum over r > t of E_(r-1-t) L^(n-r) y_r, t = 0..n, for the
        column ys = y_0..y_n and L the linear form of pows (pow0: L0,
        pow1: L1): S_t = L^(n-t-1) y_(t+1) - L* S_(t+1) - L0 L1 S_(t+2)."""
        n = len(ys) - 1
        out = [{}] * (n + 2)
        for t in range(n - 1, -1, -1):
            out[t] = _sum_of_products(
                [(self._power(pows, n - 1 - t), ys[t + 1]),
                 (self.neg_lstar, out[t + 1]),
                 (self.neg_l01, out[t + 2])],
                self.p,
            )
        return out[: n + 1]

    def minors(self, ys):
        """(-1)^t det([B_n | ys] minus row t), t = 0..n, ys = y_0..y_n.

        Along the last column, the minor is the sum over r != t of
        +-det(B_n minus rows t, r) y_r:
        (-1)^(n+1) (L0^t U_t - L1^(n-t) V_t), with U_t the sum over r > t of
        E_(r-1-t) L1^(n-r) y_r and V_t the sum over r < t of E_(t-1-r) L0^r y_r
        (the same recurrence, read from the other end with L0 for L1)."""
        n = len(ys) - 1
        neg = [_neg(y) for y in ys]     # the sums are linear in ys
        up = self.tail_sums(ys if n % 2 else neg, self.pow1)
        down = self.tail_sums((neg if n % 2 else ys)[::-1], self.pow0)[::-1]
        return [
            _sum_of_products(
                [(self._power(self.pow0, t), up[t]), (self._power(self.pow1, n - t), down[t])],
                self.p,
            )
            for t in range(n + 1)
        ]


def minor_family(ctx: MildContext, i: int, morley: MorleyData):
    """Signed maximal minors of the band matrix [B_n | F]: elements of
    bidegree (i, d-1-i), n = d-2-i, F the Morley column F^v, v = (n-t, t) in
    row t.

    Valid for 1 <= i <= d-4; the minor deleting row t carries sign (-1)^t in
    the row order of decreasing first exponent.  Each is read off the band's
    closed form (Band.minors), not eliminated; over Q the F^v are cleared to
    integer numerators over one denominator.  Each minor is checked nonzero.
    """
    d = ctx.d
    if not 1 <= i <= d - 4:
        raise PreconditionError("minor_index", f"i = {i} outside 1..{d - 4}")
    band, n = ctx.band, d - 2 - i
    den, col = numerators([morley.coeffs[(n - t, t)] for t in range(n + 1)])
    out = []
    for t, coeffs in enumerate(band.minors(col)):
        minor = _bipoly(ctx.field, coeffs, i, d - 1 - i, den * band.den ** (n - 1))
        if minor.is_zero():
            raise VerificationError(f"minor (i={i}, row {t}) has wrong shape")
        out.append(minor)
    return out


def morley_det_check(ctx: MildContext, i: int, morley: MorleyData):
    """The determinant of the square resultant matrix at level i, factored.

    The matrix is [[B_n, A], [0, C]], n = d-2-i: the n+1 rows of the band B_n
    beside A = morley.block(i) (row r: the T-coefficients A_rs of T0^(i-s)
    T1^s in F^v, v = (n-r, r)), then the i-1 rows of C, the transposed band
    B_i in the last i+1 columns.  Laplace along the n-1 band columns gives
    the sum over t < r of +-det(B_n minus rows t, r) det S_tr, S_tr the rows
    t and r of A over C; S_tr along its first row is (-1)^(i-1) times the
    sum over s of A_ts m^r_s, m^r = Band.minors(A_r) at size i.  So

        det = (-1)^(i-1) sum over t of L0^t sum over s of A_ts U^s_t,

    U^s = Band.tail_sums of the column (m^r_s)_r with L = L1.  The n+1
    inner minors run as one, the rows r tagged by T0^r in A's columns; the
    i+1 tail sums run as one, the columns s tagged by T1^s; the sum over t
    is a Horner scheme in L0.

    Returns (det, lam) with det = lam * E_d, lam != 0.
    """
    d = ctx.d
    if not 1 <= i <= d - 4:
        raise PreconditionError("minor_index", f"i = {i} outside 1..{d - 4}")
    band, n = ctx.band, d - 2 - i
    den, col = numerators([morley.coeffs[(n - r, r)] for r in range(n + 1)])
    # A_rs: the X part of the T1^s terms of F^v, v = (n - r, r)
    a = [[{} for _ in range(i + 1)] for _ in range(n + 1)]
    for r, f in enumerate(col):
        for k, c in f.items():
            a[r][k >> T1_SHIFT & EXP_MASK][k & X_MASK] = c
    tagged = [{k | r << T0_SHIFT: c for r in range(n + 1) for k, c in a[r][s].items()}
              for s in range(i + 1)]
    ys = [{} for _ in range(n + 1)]
    for s, m in enumerate(band.minors(tagged)):
        for k, c in m.items():
            ys[k >> T0_SHIFT][k & X_MASK | s << T1_SHIFT] = c
    acc = {}
    for t, u in reversed(list(enumerate(band.tail_sums(ys, band.pow1)))):
        parts = [{} for _ in range(i + 1)]
        for k, c in u.items():
            parts[k >> T1_SHIFT][k & X_MASK] = c
        acc = _sum_of_products([(band.pow0[1], acc)] + list(zip(a[t], parts)), band.p)
    det = _bipoly(ctx.field, acc, 0, d, den * den * band.den ** (n + i - 2), (-1) ** (i - 1))
    eq = ctx.implicit.equation
    if det.is_zero() or not det.proportional_to(eq):
        raise VerificationError(
            f"resultant matrix determinant at i={i} is not a multiple of the implicit equation"
        )
    lam = det.leading()[1]  # eq is normalized, so det = lam * eq
    return det, lam


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
