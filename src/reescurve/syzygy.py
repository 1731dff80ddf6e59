"""Moving-line (syzygy) analysis of a plane parametrization.

Covers: mu-basis extraction, the implicit equation with its properness
degree, detection of a point of multiplicity d - mu (with the normalizing
change of X-coordinates that puts the low moving line into axial form), and
the inverse of a birational parametrization.  A Parametrization owns the
PowerTable of its triple; `substitute` evaluates a form on the curve through it.
"""
from __future__ import annotations


from .errors import ImproperParametrization, PreconditionError, VerificationError
from .fields import ensure_same_field
from .linalg import ExactMatrix
from .poly import (
    EXP_MASK, T0_SHIFT, T1_SHIFT, X_MASK, X_UNITS,
    BiPoly,
    PowerTable,
    _modulus,
    _sum_of_products,
    lower_x,
    t_poly,
    tpoly_dense,
    tpoly_gcd_many,
    resultant_t,
    x_parts,
)

VERY_SINGULAR = "very-singular"
MILD = "mild"
NOT_APPLICABLE = "not-applicable"

_X_VARS = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]     # the exponents b of X0, X1, X2


class Parametrization:
    """Three coprime T-forms of one degree d, as a projective map P^1 -> P^2.

    Immutable, and equal and hashed by its triple."""

    __slots__ = ("u0", "u1", "u2", "_powers")

    def __init__(self, u0: BiPoly, u1: BiPoly, u2: BiPoly):
        for name, value in (("u0", u0), ("u1", u1), ("u2", u2), ("_powers", None)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"Parametrization is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Parametrization is immutable: cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.triple == other.triple

    def __hash__(self):
        return hash(self.triple)

    @property
    def field(self):
        return self.u0.field

    @property
    def d(self) -> int:
        return self.u0.tdeg

    @property
    def triple(self):
        return (self.u0, self.u1, self.u2)

    @property
    def powers(self) -> PowerTable:
        """The dense power table of u, built lazily and shared by every
        substitution into this curve and by its Oracle."""
        if self._powers is None:
            object.__setattr__(self, "_powers", PowerTable(*self.triple))
        return self._powers

    def substitute(self, g: BiPoly) -> BiPoly:
        """G(T, u(T)), through the curve's power table."""
        return g.subst_x(*self.triple, powers=self.powers)


def parametrization(field, u0, u1, u2) -> Parametrization:
    """Build and validate a Parametrization from dense coefficient lists."""
    ups = [u if isinstance(u, BiPoly) else t_poly(field, u) for u in (u0, u1, u2)]
    for u in ups:
        ensure_same_field(field, u.field)
        if u.xdeg != 0:
            raise PreconditionError("parametrization_shape", "u_i must be T-forms")
    d = ups[0].tdeg
    if any(u.tdeg != d for u in ups):
        raise PreconditionError("common_degree", "u0, u1, u2 must share one degree")
    if d < 1:
        raise PreconditionError("degree_positive", "need d >= 1")
    if all(u.is_zero() for u in ups):
        raise PreconditionError("nonzero", "zero parametrization")
    g = tpoly_gcd_many([u for u in ups if not u.is_zero()])
    if g.tdeg != 0:
        raise PreconditionError(
            "coprime_components", f"common factor {g.text()} in (u0, u1, u2)"
        )
    return Parametrization(*ups)


# ---------------------------------------------------------------------------
# mu-basis
# ---------------------------------------------------------------------------

class MuBasis:
    __slots__ = ("p", "q", "mu")

    def __init__(self, p: BiPoly, q: BiPoly, mu: int):
        self.p = p          # bidegree (mu, 1)
        self.q = q          # bidegree (d - mu, 1)
        self.mu = mu

    @property
    def d(self) -> int:
        return self.mu + self.q.tdeg

    @property
    def field(self):
        return self.p.field


def shift_matrix(F, dense_forms, s: int) -> ExactMatrix:
    """Matrix of (g_v) |-> sum_v f_v g_v on T-forms g_v of degree s.

    The f_v are dense T-forms of one degree (index = T1 exponent).  Column
    v * (s + 1) + a is f_v shifted down by a: blocks by v, monomials
    T0^(s-a) T1^a with a ascending inside each block — i.e. canonical
    descending monomial order.
    """
    width = len(dense_forms) * (s + 1)
    rows = [[F.zero] * width for _ in range(len(dense_forms[0]) + s)]
    for v, dv in enumerate(dense_forms):
        for a in range(s + 1):
            for k, c in enumerate(dv):
                rows[a + k][v * (s + 1) + a] = c
    return ExactMatrix(F, rows)


def _vector_to_moving_line(F, vec, s) -> BiPoly:
    coeffs = {}
    for v in range(3):
        for a in range(s + 1):
            c = vec[v * (s + 1) + a]
            if not F.is_zero(c):
                coeffs[(s - a) << T0_SHIFT | a << T1_SHIFT | X_UNITS[v]] = c
    return BiPoly(F, s, 1, coeffs, _clean=True)


def _moving_line_to_vector(ml: BiPoly, s):
    F = ml.field
    vec = [F.zero] * (3 * (s + 1))
    for m, c in ml.coeffs.items():
        v = X_UNITS.index(m & X_MASK)
        vec[v * (s + 1) + (m >> T1_SHIFT & EXP_MASK)] = c
    return vec


def mu_basis(par: Parametrization) -> MuBasis:
    """Canonical mu-basis: P at the least syzygy degree, Q reduced mod T^a P.

    The syzygies (A, B, C) of degree s are the kernel of the shift matrix of
    (A, B, C) |-> A u0 + B u1 + C u2, built from the dense triple of the
    curve's power table: over Q the primitive integer triple, a scalar
    multiple of u with the same syzygies.
    """
    F = par.field
    d = par.d
    dense = par.powers.base
    mu = None
    for s in range(0, d // 2 + 1):
        null = shift_matrix(F, dense, s).nullspace()
        if null:
            mu = s
            p_vec = null[0]
            break
    if mu is None:
        raise VerificationError("no syzygy found up to degree d/2 (impossible)")
    p = _vector_to_moving_line(F, p_vec, mu)

    sq = d - mu
    null_q = shift_matrix(F, dense, sq).nullspace()
    shifts = [
        _moving_line_to_vector(BiPoly.monomial(F, (sq - mu - a, a, 0, 0, 0)) * p, sq)
        for a in range(sq - mu + 1)
    ]
    # Q: the first syzygy outside the T-multiples of P, read back as the one
    # RREF row with a new pivot (that syzygy reduced against them).  The
    # shifts are echelon (leading columns lead(P) + a), so those columns are
    # their own RREF pivots.
    shift_pivots = {next(c for c, x in enumerate(v) if x) for v in shifts}
    piv, rows = ExactMatrix(F, shifts + null_q).rref()
    if len(piv) == len(shifts):
        raise VerificationError("syzygy module not free of rank 2 (impossible)")
    q_vec = next(row for pc, row in zip(piv, rows) if pc not in shift_pivots)
    q = _vector_to_moving_line(F, q_vec, sq)

    mb = MuBasis(p=p, q=q, mu=mu)
    _check_hilbert_burch(par, mb)
    return mb


def cross(l, n):
    """The cross product l x n of two triples: the signed 2x2 minors of the
    2 x 3 matrix with rows l and n."""
    return [
        l[1] * n[2] - l[2] * n[1],
        l[2] * n[0] - l[0] * n[2],
        l[0] * n[1] - l[1] * n[0],
    ]


def _x_content(ml: BiPoly):
    """The T-form coefficients of X0, X1, X2 in a moving line."""
    return [ml.x_coefficient(b) for b in _X_VARS]


def _check_hilbert_burch(par: Parametrization, mb: MuBasis):
    """The signed 2x2 minors of the coefficient matrix reproduce u up to one scalar."""
    F = par.field
    minors = cross(_x_content(mb.p), _x_content(mb.q))
    lam = None
    for m, u in zip(minors, par.triple):
        if u.is_zero():
            if not m.is_zero():
                raise VerificationError("Hilbert-Burch minors do not match u")
            continue
        mono, c = u.leading()
        cand = F.div(m.coeffs.get(mono, F.zero), c)
        if lam is None:
            lam = cand
    if lam is None or F.is_zero(lam):
        raise VerificationError("degenerate Hilbert-Burch minors")
    for m, u in zip(minors, par.triple):
        if m != u.scale(lam):
            raise VerificationError("Hilbert-Burch check failed")


# ---------------------------------------------------------------------------
# implicit equation and properness
# ---------------------------------------------------------------------------

class ImplicitEquation:
    __slots__ = ("equation", "properness_degree", "resultant")

    def __init__(self, equation: BiPoly, properness_degree: int, resultant: BiPoly):
        self.equation = equation                    # normalized irreducible X-form of degree d/e
        self.properness_degree = properness_degree  # e; e == 1 iff the map is birational
        self.resultant = resultant                  # Res_T(P, Q), equal to lambda * equation^e


def _slice_is_squarefree(res: BiPoly, line) -> bool:
    """Exact squarefreeness of the restriction of res to one projective line.

    A squarefree slice certifies that res itself is squarefree (a repeated
    factor stays repeated on every line); the converse can fail only for
    non-generic lines, so callers retry with fresh lines before concluding
    anything from repeated failures.
    """
    F = res.field
    forms = [t_poly(F, ab) for ab in line]
    r = res.subst_x(*forms)
    if r.is_zero() or r.tdeg != res.xdeg:
        return False
    from .poly import _strip_tpoly, _poly1_mod

    e0, e1, core = _strip_tpoly(r)
    if e0 > 1 or e1 > 1:
        return False
    if len(core) == 1:
        return True
    dcore = [F.mul(F.coerce(k), c) for k, c in enumerate(core)][1:]
    while dcore and F.is_zero(dcore[-1]):
        dcore.pop()   # k * c_k vanishes when the characteristic divides k
    if not dcore:
        return False
    a, b = core, dcore
    while b:
        a, b = b, _poly1_mod(a, b, F)
    return len(a) == 1


_SLICE_LINES = [
    ((1, 0), (0, 1), (1, 1)),
    ((1, 1), (1, 0), (0, 1)),
    ((1, 2), (2, 1), (1, 1)),
    ((1, 3), (1, 1), (2, 1)),
    ((3, 1), (1, 2), (1, 5)),
    ((1, 7), (5, 1), (3, 2)),
]


def implicit_equation(mb: MuBasis) -> ImplicitEquation:
    F = mb.field
    d = mb.d
    if mb.mu == 0:
        # constant syzygy: the image is the line cut out by P itself and the
        # map degree is d (no T-resultant exists; record E^d in its place)
        eq = mb.p.normalized()
        power = eq
        for _ in range(d - 1):
            power = power * eq
        return ImplicitEquation(equation=eq, properness_degree=d, resultant=power)
    res = resultant_t(mb.p, mb.q)
    if res.is_zero():
        raise VerificationError("vanishing resultant of a mu-basis (upstream bug)")
    if res.xdeg != d:
        raise VerificationError(f"resultant degree {res.xdeg} != d = {d}")
    for line in _SLICE_LINES:
        if _slice_is_squarefree(res, line):
            return ImplicitEquation(
                equation=res.normalized(), properness_degree=1, resultant=res
            )
    # Either the map is improper (res is a proper power) or every probe line
    # was non-generic.  Settle it exactly: take the lowest-degree curve form
    # from the graded kernel and verify res is proportional to its power.
    from .oracle import Oracle

    par = parametrization(F, *cross(_x_content(mb.p), _x_content(mb.q)))
    orc = Oracle(par)
    eq = None
    for m in range(1, d + 1):
        piece = orc.kernel_basis(0, m)
        if piece.basis:
            eq = piece.basis[0].normalized()
            break
    if eq is None:
        raise VerificationError("no curve equation found up to degree d")
    if d % eq.xdeg:
        raise VerificationError("curve equation degree does not divide d")
    e = d // eq.xdeg
    power = eq
    for _ in range(e - 1):
        power = power * eq
    if not res.proportional_to(power):
        raise VerificationError("resultant is not a power of the curve equation")
    return ImplicitEquation(equation=eq, properness_degree=e, resultant=res)


# ---------------------------------------------------------------------------
# singularity classification
# ---------------------------------------------------------------------------

class SingularityClass:
    __slots__ = ("kind", "change", "change_inv", "axial_pair", "note")

    def __init__(self, kind: str, change: list | None = None, change_inv: list | None = None,
                 axial_pair: tuple | None = None, note: str = ""):
        self.kind = kind                # very-singular | mild | not-applicable
        self.change = change            # rows of M: new coords Y = M X
        self.change_inv = change_inv
        self.axial_pair = axial_pair    # (p0, p1) with P = p1 Y0 - p0 Y1
        self.note = note


def moving_line_content(p: BiPoly) -> ExactMatrix:
    """3 x (mu+1) matrix of the T-coefficients of the three X-slots of P."""
    F = p.field
    rows = [tpoly_dense(c) for c in _x_content(p)]
    width = p.tdeg + 1
    rows = [r + [F.zero] * (width - len(r)) for r in rows]
    return ExactMatrix(F, rows)


def invert_matrix(field, rows):
    """Rows of M^-1, read off the RREF [I | M^-1] of [M | I]."""
    solver = ExactMatrix(field, rows).solver()
    if not solver.rank == solver.ncols == len(rows):
        raise ValueError("singular matrix")
    return [e for _, e in solver.pivots]


def axial_change(p: BiPoly):
    """Invertible X-change M (det 1) with P(T, M^-1 Y) = p1(T) Y0 - p0(T) Y1.

    Requires the content matrix of P to have rank exactly 2.  Returns
    (M_rows, Minv_rows, p0, p1).
    """
    F = p.field
    content = moving_line_content(p)
    cols = ExactMatrix(F, [list(r) for r in zip(*content.rows)])
    piv, rows = cols.rref()
    if len(piv) != 2:
        raise PreconditionError(
            "axial_rank", f"content rank {len(piv)} (need exactly 2)"
        )
    if p.x_coefficient((0, 0, 1)).is_zero():
        # already axial: P = p1 X0 - p0 X1; keep the identity frame
        ident = [[F.one if a == b else F.zero for b in range(3)] for a in range(3)]
        p1 = p.x_coefficient((1, 0, 0))
        p0 = -p.x_coefficient((0, 1, 0))
        if p0.is_zero() or p1.is_zero():
            raise PreconditionError("axial_rank", "degenerate axial moving line")
        return ident, ident, p0, p1
    i1, i2 = piv
    (i3,) = [i for i in range(3) if i not in piv]
    alpha = rows[0][i3]
    beta = rows[1][i3]
    a_form = p.x_coefficient(_X_VARS[i1])
    b_form = p.x_coefficient(_X_VARS[i2])
    # P = a_form * Z0 + b_form * Z1 with Z0 = X_i1 + alpha X_i3, Z1 = X_i2 + beta X_i3
    y_rows = []
    z1 = [F.zero] * 3
    z1[i2] = F.one
    z1[i3] = beta
    z0 = [F.zero] * 3
    z0[i1] = F.one
    z0[i3] = alpha
    e3 = [F.zero] * 3
    e3[i3] = F.one
    y_rows = [z1, z0, e3]    # Y0 = Z1, Y1 = Z0, Y2 = X_i3
    det = F.coerce(sum(a * b for a, b in zip(y_rows[0], cross(y_rows[1], y_rows[2]))))
    if F.is_zero(det):
        raise VerificationError("axial change matrix is singular")
    inv = F.inv(det)
    y_rows[2] = [F.mul(inv, x) for x in y_rows[2]]
    m_inv = invert_matrix(F, y_rows)
    p1 = b_form
    p0 = -a_form
    # sanity: P == p1 * Y0 - p0 * Y1 after the change
    (transformed,) = pullback_through_change([p], m_inv)
    expect = p1 * BiPoly.monomial(F, (0, 0, 1, 0, 0)) - p0 * BiPoly.monomial(
        F, (0, 0, 0, 1, 0)
    )
    if transformed != expect:
        raise VerificationError("axial normal form verification failed")
    return y_rows, m_inv, p0, p1


def classify_singularity(mb: MuBasis) -> SingularityClass:
    """Decide whether the curve has a point of multiplicity d - mu.

    The test is the rank of the 3 x (mu+1) content matrix of P: rank 3 means
    all singularities are mild; rank 2 produces the axial change of
    coordinates.  The boundary 2 mu = d never admits the heavy singularity,
    so it reports not-applicable (with a warning if the rank test fires).
    """
    F = mb.field
    mu, d = mb.mu, mb.d
    if mu < 1:
        return SingularityClass(
            kind=NOT_APPLICABLE, note="mu = 0: constant moving line, no test"
        )
    rank = moving_line_content(mb.p).rank()
    if rank <= 1:
        raise PreconditionError("moving_line_rank", "degenerate P (content rank <= 1)")
    if 2 * mu >= d:
        note = "2*mu = d boundary: no point of multiplicity > mu can exist"
        if rank == 2:
            note += " (warning: axial rank condition fired, but it certifies nothing here)"
        return SingularityClass(kind=NOT_APPLICABLE, note=note)
    if rank == 3:
        ident = [[F.one if i == j else F.zero for j in range(3)] for i in range(3)]
        return SingularityClass(kind=MILD, change=ident, change_inv=ident)
    m_rows, m_inv, p0, p1 = axial_change(mb.p)
    from .poly import tpoly_gcd

    if tpoly_gcd(p0, p1).tdeg != 0:
        raise VerificationError("axial pair is not coprime (invalid mu-basis)")
    return SingularityClass(
        kind=VERY_SINGULAR,
        change=m_rows,
        change_inv=m_inv,
        axial_pair=(p0, p1),
    )


def apply_x_change(par: Parametrization, m_rows) -> Parametrization:
    """Transformed parametrization v = M u (point coordinates move with M)."""
    F = par.field
    new = []
    for i in range(3):
        acc = BiPoly.zero(F, par.d, 0)
        for j in range(3):
            c = m_rows[i][j]
            if not F.is_zero(c):
                acc = acc + par.triple[j].scale(c)
        new.append(acc)
    return Parametrization(*new)


def _linear_power(cache, lin, b):
    """lin[0]^b0 lin[1]^b1 lin[2]^b2 from the cache, b the X part of a key,
    built as a lower power times one form.  Module level on purpose: a
    recursive closure over the cache would be a reference cycle, keeping
    every power alive until the next full garbage collection."""
    val = cache.get(b)
    if val is None:
        i, lower = lower_x(b)
        val = cache[b] = _linear_power(cache, lin, lower) * lin[i]
    return val


def pullback_through_change(forms, m_rows) -> list:
    """[G(T, M X) for G in forms]: maps polynomials in the new coordinates
    back to the input frame.

    (M X)^b is built once per X-exponent b of the forms, in one cache they
    share, as a lower power times one linear form (M X)_i.  A form is the
    sum over its X-exponents b of its T-form coefficient of X^b times
    (M X)^b: one sum of products, reduced once per coefficient."""
    F = forms[0].field
    lin = [
        BiPoly(F, 0, 1, {(0, 0, *b): m_rows[i][j] for j, b in enumerate(_X_VARS)})
        for i in range(3)
    ]
    powers = {0: BiPoly.constant(F, 1)}
    out = []
    for g in forms:
        pairs = [(t, _linear_power(powers, lin, b).coeffs) for b, t in x_parts(g).items()]
        out.append(BiPoly(F, g.tdeg, g.xdeg, _sum_of_products(pairs, _modulus(F)), _clean=True))
    return out


# ---------------------------------------------------------------------------
# inverse of a proper parametrization
# ---------------------------------------------------------------------------

class InverseMap:
    __slots__ = ("a", "b", "ell")

    def __init__(self, a: BiPoly, b: BiPoly, ell: int):
        self.a = a      # psi = (a : b) on the curve
        self.b = b
        self.ell = ell


def inverse_map(par: Parametrization) -> InverseMap:
    from .oracle import Oracle

    F = par.field
    d = par.d
    imp = implicit_equation(mu_basis(par))
    if imp.properness_degree != 1:
        raise ImproperParametrization(imp.properness_degree)
    orc = Oracle(par)
    choice = None
    for ell in range(1, d + 1):
        piece = orc.kernel_basis(1, ell)
        for f in piece.basis:
            b_form = f.t_coefficient(1, 0)
            a_form = -f.t_coefficient(0, 1)
            a_u = par.substitute(a_form)
            if a_u.is_zero():
                continue  # degenerate element (an X-form multiple); skip
            choice = (a_form, b_form, ell, a_u)
            break
        if choice:
            break
    if choice is None:
        raise VerificationError("no inverse element found (improper or bug)")
    a_form, b_form, ell, a_u = choice
    # psi . phi = id: T0 * b(u) == T1 * a(u).  So a(u) = T0 h and b(u) = T1 h,
    # and Q(a, b; u) = h^(d - mu) Q(T; u) = 0 by the mu-basis' Hilbert-Burch
    # check: Q(a, b; X) vanishes on the curve, a multiple of E as it must be.
    t0 = BiPoly.monomial(F, (1, 0, 0, 0, 0))
    t1 = BiPoly.monomial(F, (0, 1, 0, 0, 0))
    if t0 * par.substitute(b_form) != t1 * a_u:
        raise VerificationError("inverse identity failed")
    return InverseMap(a=a_form, b=b_form, ell=ell)
