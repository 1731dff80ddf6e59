"""Generator assembly for mu = 2 curves carrying a point of multiplicity d-2.

After the normalizing change of X-coordinates the low moving line is axial,
P = p1(T) X0 - p0(T) X1, and the parametrization factors through the common
component q.  Two degree-shift operators trade T-degree mu for X-degree one
(and back, modulo P); iterating the downward shift on the high moving line
produces the pseudo-homogeneous family that, topped off with one (d odd) or
two (d even) extra bidegree-(1, k) forms, generates the whole kernel ideal.
The top forms are Sylvester forms of P and the family's last member F: the
Morley coefficients (poly.morley_form) -F^(0,0) for d odd, -F^(1,0) and
F^(0,1) for d even.
"""
from __future__ import annotations

from .assembly import Assembly, Generator
from .errors import ImproperParametrization, PreconditionError, VerificationError
from .poly import X_UNITS, BiPoly, morley_form, tpoly_dense, x_parts
from .syzygy import (
    ImplicitEquation,
    MuBasis,
    Parametrization,
    SingularityClass,
    VERY_SINGULAR,
    apply_x_change,
    pullback_through_change,
    shift_matrix,
)


class VerySingularContext:
    __slots__ = ("par", "mb", "p0", "p1", "q", "k", "r", "change", "implicit", "solvers")

    def __init__(self, par: Parametrization, mb: MuBasis, p0: BiPoly, p1: BiPoly,
                 q: BiPoly, k: int, r: int, change: list, implicit: ImplicitEquation):
        self.par = par              # transformed: singular point at (0:0:1)
        self.mb = mb                # transformed mu-basis {P, Q}
        self.p0 = p0                # axial pair: P = p1 X0 - p0 X1, gcd(p0,p1)=1
        self.p1 = p1
        self.q = q                  # v0 = p0 q, v1 = p1 q
        self.k = k
        self.r = r
        self.change = change        # Y = M X
        self.implicit = implicit    # in the transformed frame
        self.solvers = {}           # _PairSolver cache, by T-degree

    @property
    def mu(self) -> int:
        return self.mb.mu

    @property
    def d(self) -> int:
        return self.par.d

    @property
    def field(self):
        return self.par.field


def split_degree(d: int, mu: int):
    """d = k mu + r with -1 <= r < mu - 1 (quotient bumps when d+1 | mu)."""
    r = d % mu
    if r == mu - 1:
        return (d + 1) // mu, -1
    return d // mu, r


def very_singular_context(
    par: Parametrization,
    mb: MuBasis,
    sing: SingularityClass,
    imp: ImplicitEquation,
) -> VerySingularContext:
    """The transformed frame of a very singular curve, from the input frame's
    mu-basis, singularity class and implicit equation; the frame's resultant
    and equation are pulled back through the change, not computed by a second
    resultant."""
    mu = mb.mu
    d = par.d
    if not mu < d - mu:
        raise PreconditionError("mu_lt_d_minus_mu", f"mu={mu}, d={d}")
    if sing.kind != VERY_SINGULAR:
        raise PreconditionError(
            "very_singular", f"singularity class is {sing.kind!r}"
        )
    tpar = apply_x_change(par, sing.change)
    tp, tq, tres = pullback_through_change([mb.p, mb.q, imp.resultant], sing.change_inv)
    p0, p1 = sing.axial_pair
    v0, v1, _ = tpar.triple
    q = v0.exact_div(p0)
    if v1 != p1 * q:
        raise VerificationError("factorization v = (p0 q, p1 q, *) failed")
    k, r = split_degree(d, mu)
    tmb = MuBasis(p=tp, q=tq, mu=mu)
    if imp.properness_degree != 1:
        raise ImproperParametrization(imp.properness_degree)
    # a proper map's resultant is a multiple of the equation, so its
    # pullback gives both
    timp = ImplicitEquation(equation=tres.normalized(), properness_degree=1, resultant=tres)
    return VerySingularContext(
        par=tpar,
        mb=tmb,
        p0=p0,
        p1=p1,
        q=q,
        k=k,
        r=r,
        change=sing.change,
        implicit=timp,
    )


# ---------------------------------------------------------------------------
# the degree-shift operators
# ---------------------------------------------------------------------------

class _PairSolver:
    """Deterministic solver for h = p0 g0 + p1 g1 at a fixed T-degree i."""

    def __init__(self, ctx: VerySingularContext, i: int):
        self.field = ctx.field
        self.s = i - ctx.mu
        dense = [tpoly_dense(ctx.p0), tpoly_dense(ctx.p1)]
        self.solver = shift_matrix(self.field, dense, self.s).solver()

    def split(self, h: BiPoly):
        """T-forms (g0, g1) with h = p0 g0 + p1 g1 (canonical pivot solution)."""
        F = self.field
        sol = self.solver.solve(tpoly_dense(h))
        if sol is None:
            raise VerificationError("degree-shift decomposition unsolvable")
        s = self.s
        g0 = {(s - a, a, 0, 0, 0): sol[a] for a in range(s + 1)}
        g1 = {(s - a, a, 0, 0, 0): sol[s + 1 + a] for a in range(s + 1)}
        return (
            BiPoly(F, s, 0, g0),
            BiPoly(F, s, 0, g1),
        )


def _pair_solver(ctx: VerySingularContext, i: int) -> _PairSolver:
    if i not in ctx.solvers:
        ctx.solvers[i] = _PairSolver(ctx, i)
    return ctx.solvers[i]


def apply_dt(ctx: VerySingularContext, g: BiPoly) -> BiPoly:
    """Trade T-degree mu for X-degree 1: g = p0 g0 + p1 g1 |-> X0 g0 + X1 g1.

    Well defined modulo P; preserves kernel membership.  Requires
    T-degree >= 2 mu - 1 so the coefficientwise split is solvable.
    """
    F = ctx.field
    i, j = g.bidegree
    mu = ctx.mu
    if i < 2 * mu - 1:
        raise PreconditionError("shift_degree", f"T-degree {i} < {2 * mu - 1}")
    solver = _pair_solver(ctx, i)
    out = BiPoly.zero(F, i - mu, j + 1)
    x0, x1 = (BiPoly(F, 0, 1, {x: F.one}, _clean=True) for x in X_UNITS[:2])
    for b, coeffs in x_parts(g).items():
        g0, g1 = solver.split(BiPoly(F, i, 0, coeffs, _clean=True))
        xmono = BiPoly(F, 0, j, {b: F.one}, _clean=True)
        out = out + (x0 * g0 + x1 * g1) * xmono
    return out


# ---------------------------------------------------------------------------
# the recursive family and the top forms
# ---------------------------------------------------------------------------

def family(ctx: VerySingularContext):
    """[F at j=1 (the high moving line), ..., F at j=k-1], via repeated shifts."""
    mu, k, r = ctx.mu, ctx.k, ctx.r
    if not mu < ctx.d - mu:
        raise PreconditionError("mu_lt_d_minus_mu", "family needs mu < d - mu")
    out = [ctx.mb.q]
    for j in range(2, k):
        nxt = apply_dt(ctx, out[-1])
        if nxt.is_zero():
            raise VerificationError(f"family member at j={j} vanished")
        expect = ((k - j) * mu + r, j)
        if nxt.bidegree != expect:
            raise VerificationError(
                f"family bidegree {nxt.bidegree}, expected {expect}"
            )
        out.append(nxt)
    for j, f in enumerate(out, start=1):
        if not ctx.par.substitute(f).is_zero():
            raise VerificationError(f"family member j={j} left the kernel")
    return out


def top_generator_odd(ctx: VerySingularContext, fam) -> BiPoly:
    """The extra bidegree-(1, k) generator for d = 2k - 1: the Sylvester form
    -F^(0,0) of P and F_{1,k-1}, F^v their Morley coefficients."""
    if ctx.mu != 2 or ctx.r != -1:
        raise PreconditionError("parity", "needs mu = 2 and d odd")
    if fam[-1].bidegree != (1, ctx.k - 1):
        raise VerificationError("family top has unexpected bidegree")
    top = -morley_form(ctx.mb.p, fam[-1])[(0, 0)]
    if top.is_zero() or top.bidegree != (1, ctx.k):
        raise VerificationError("top form construction failed")
    if not ctx.par.substitute(top).is_zero():
        raise VerificationError("top form left the kernel")
    if not top.in_x01_power(1):
        raise VerificationError("top form escaped <X0, X1>")
    return top


def top_generators_even(ctx: VerySingularContext, fam):
    """The two extra bidegree-(1, k) generators for d = 2k: -F^(1,0) and
    F^(0,1), F^v the Morley coefficients of P and F_{2,k-1}."""
    if ctx.mu != 2 or ctx.r != 0:
        raise PreconditionError("parity", "needs mu = 2 and d even")
    if fam[-1].bidegree != (2, ctx.k - 1):
        raise VerificationError("family top has unexpected bidegree")
    mor = morley_form(ctx.mb.p, fam[-1])
    top0, top1 = -mor[(1, 0)], mor[(0, 1)]
    for t in (top0, top1):
        if t.is_zero() or t.bidegree != (1, ctx.k):
            raise VerificationError("paired top form has wrong shape")
        if not ctx.par.substitute(t).is_zero():
            raise VerificationError("paired top form left the kernel")
        if not t.in_x01_power(1):
            raise VerificationError("paired top form escaped <X0, X1>")
    return top0, top1


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def assemble_very_singular(ctx: VerySingularContext) -> Assembly:
    """Minimal generating set: k+2 elements for d odd, k+3 for d even, with
    the shift family and the top forms they came from."""
    if ctx.mu != 2:
        raise PreconditionError("mu_equals_2", f"mu = {ctx.mu}")
    d, k = ctx.d, ctx.k
    if ctx.r == -1 and k < 2:
        raise PreconditionError("degree_range", "d odd needs k >= 2")
    if ctx.r == 0 and k < 3:
        raise PreconditionError(
            "degree_range",
            "d = 4 cannot carry a triple point with mu = 2",
        )
    fam = family(ctx)
    gens = [
        (ctx.implicit.equation, "implicit-equation"),
        (ctx.mb.p, "low-moving-line"),
    ]
    labels = ["high-moving-line"] + [
        f"degree-shift-family[j={j}]" for j in range(2, k)
    ]
    gens.extend(zip(fam, labels))
    if ctx.r == -1:
        tops = [top_generator_odd(ctx, fam)]
        gens.append((tops[0], "sylvester-top-form"))
        expected = k + 2
    else:
        tops = list(top_generators_even(ctx, fam))
        gens.append((tops[0], "paired-top-form[0]"))
        gens.append((tops[1], "paired-top-form[1]"))
        expected = k + 3
    if len(gens) != expected:
        raise VerificationError(f"assembled {len(gens)} generators, wanted {expected}")
    polys = pullback_through_change([poly for poly, _ in gens], ctx.change)
    out = [
        Generator(poly=poly.normalized(), bidegree=poly.bidegree, label=label)
        for poly, (_, label) in zip(polys, gens)
    ]
    return Assembly(generators=out, family=fam, tops=tops)
