"""The very-singular pipeline: shift operators, family, top forms, assembly."""
import random

import pytest

from curves import (
    apply_dx,
    binomial_even,
    closed_form_generators_odd,
    invariants,
    monomial_odd,
    to_vector,
)
from reescurve.errors import PreconditionError
from reescurve.fields import DEFAULT_PRIME, PrimeField, QQ
from reescurve.mu2sing import (
    apply_dt,
    assemble_very_singular,
    family,
    split_degree,
    top_generator_odd,
    top_generators_even,
    very_singular_context,
)
from reescurve.oracle import Oracle, ideal_piece_membership
from reescurve.poly import parse_bipoly, resultant_t
from reescurve.syzygy import parametrization

FP = PrimeField(DEFAULT_PRIME)


def P(s, field=QQ):
    return parse_bipoly(field, s)


XS = (P("X0"), P("X1"), P("X2"))


def context(par):
    return very_singular_context(par, *invariants(par))


def test_split_degree_convention():
    assert split_degree(5, 2) == (3, -1)
    assert split_degree(6, 2) == (3, 0)
    assert split_degree(7, 2) == (4, -1)
    assert split_degree(10, 3) == (3, 1)
    assert split_degree(11, 3) == (4, -1)


def test_context_factorization():
    ctx = context(monomial_odd(3))
    assert (ctx.k, ctx.r) == (3, -1)
    assert ctx.q == P("T0^3")
    assert ctx.par.u0 == ctx.p0 * ctx.q
    assert ctx.par.u1 == ctx.p1 * ctx.q


def test_apply_dt_unique_on_forced_decomposition():
    ctx = context(monomial_odd(3))
    g = ctx.p0 * P("T0*X2")  # p0 * T0^{i-mu} X2^j with i = 3
    out = apply_dt(ctx, g)
    assert out == P("T0*X0*X2")


def test_apply_dt_low_degree_rejected():
    ctx = context(monomial_odd(3))
    with pytest.raises(PreconditionError):
        apply_dt(ctx, P("T0^2*X1 - T1^2*X0"))


def test_apply_dx_monomial_case():
    ctx = context(monomial_odd(3))
    h = P("T0*X2")
    out = apply_dx(ctx, P("X0") * h)
    assert out == ctx.p0 * h


def test_apply_dx_requires_x01():
    ctx = context(monomial_odd(3))
    with pytest.raises(PreconditionError):
        apply_dx(ctx, P("T0*X2"))


def test_shift_round_trip_mod_low_line():
    ctx = context(monomial_odd(3))
    orc = Oracle(ctx.par)
    checked = 0
    for (i, j) in [(3, 1), (3, 2), (4, 2)]:
        for g in orc.kernel_basis(i, j).basis:
            down = apply_dt(ctx, g)
            assert down.subst_x(*ctx.par.triple).is_zero()
            back = apply_dx(ctx, down)
            assert back.subst_x(*ctx.par.triple).is_zero()
            diff = back - g
            assert diff.is_zero() or ideal_piece_membership(diff, [ctx.mb.p])
            checked += 1
    assert checked >= 10


def test_family_closed_forms():
    ctx = context(monomial_odd(3))
    fam = family(ctx)
    assert [f.normalized() for f in fam] == [
        P("T0^3*X2 - T1^3*X1"),
        P("T0*X0*X2 - T1*X1^2"),
    ]
    ctx7 = context(monomial_odd(4))
    fam7 = [f.normalized() for f in family(ctx7)]
    assert fam7 == [
        P("T0^5*X2 - T1^5*X1"),
        P("T0^3*X0*X2 - T1^3*X1^2"),
        P("T0*X0^2*X2 - T1*X1^3"),
    ]


def test_family_pseudo_homogeneous():
    for par in (monomial_odd(4), binomial_even(3)):
        ctx = context(par)
        for f in family(ctx):
            i, j = f.bidegree
            assert i + ctx.mu * j == ctx.d


def test_family_resultants_hit_curve_equation():
    for par in (monomial_odd(3), binomial_even(3)):
        ctx = context(par)
        eq = ctx.implicit.equation
        for f in family(ctx):
            r = resultant_t(ctx.mb.p, f)
            assert not r.is_zero()
            assert r.proportional_to(eq)


def test_top_generator_odd_closed_form():
    ctx = context(monomial_odd(3))
    top = top_generator_odd(ctx, family(ctx))
    assert top.normalized() == P("T0*X1^3 - T1*X0^2*X2")


def test_top_generator_odd_substitution_is_curve_equation():
    ctx = context(monomial_odd(3))
    fam = family(ctx)
    top = top_generator_odd(ctx, fam)
    f1k1 = fam[-1]
    f_up = f1k1.t_coefficient(1, 0)
    f_dn = -f1k1.t_coefficient(0, 1)
    val = top.compose(f_dn, f_up, *XS)
    assert val.proportional_to(ctx.implicit.equation)


def test_top_generator_odd_not_in_previous_ideal():
    ctx = context(monomial_odd(3))
    fam = family(ctx)
    top = top_generator_odd(ctx, fam)
    assert not ideal_piece_membership(top, [fam[-1]])


def test_top_generators_even_oracle_span():
    ctx = context(binomial_even(3))
    t0, t1 = top_generators_even(ctx, family(ctx))
    orc = Oracle(ctx.par)
    piece = orc.kernel_basis(1, 3)
    assert piece.dimension == 2
    from reescurve.linalg import RowReducer
    from reescurve.poly import monomials_of_bidegree

    monomials = monomials_of_bidegree(1, 3)
    for t in (t0, t1):
        red = RowReducer(QQ, len(monomials))
        red.add_rows([to_vector(b, monomials) for b in piece.basis])
        assert not red.add_row(to_vector(t, monomials))
    r = resultant_t(t0, t1)
    assert r.proportional_to(ctx.implicit.equation)


def test_top_generators_even_shiftdown_lands_in_high_line():
    ctx = context(binomial_even(3))
    fam = family(ctx)
    t0, t1 = top_generators_even(ctx, fam)
    for t in (t0, t1):
        down = apply_dx(ctx, t)
        assert ideal_piece_membership(down, [fam[-1], ctx.mb.p])


def test_dx_of_odd_top_lands_in_family_top():
    ctx = context(monomial_odd(3))
    fam = family(ctx)
    top = top_generator_odd(ctx, fam)
    down = apply_dx(ctx, top)
    assert ideal_piece_membership(down, [fam[-1], ctx.mb.p])


def test_dx_descends_the_family():
    # D_X undoes one shift: D_X(F_j) falls into <F_{j-1}, P> at its bidegree
    for par in (monomial_odd(4), binomial_even(3)):
        ctx = context(par)
        fam = family(ctx)
        for prev, cur in zip(fam, fam[1:]):
            down = apply_dx(ctx, cur)
            assert ideal_piece_membership(down, [prev, ctx.mb.p])


def test_kernel_substitution_multiple_of_curve_equation():
    # any kernel element composed with the inverse pair is divisible by E
    ctx = context(monomial_odd(3))
    fam = family(ctx)
    f1k1 = fam[-1]
    f_up = f1k1.t_coefficient(1, 0)
    f_dn = -f1k1.t_coefficient(0, 1)
    orc = Oracle(ctx.par)
    eq = ctx.implicit.equation
    for (i, j) in [(2, 2), (1, 3)]:
        for g in orc.kernel_basis(i, j).basis:
            val = g.compose(f_dn, f_up, *XS)
            assert val.is_zero() or eq.divides_into(val)
    # and a non-member is not divisible
    probe = P("T0^2*X1^2")
    val = probe.compose(f_dn, f_up, *XS)
    assert not (val.is_zero() or eq.divides_into(val))


def test_assemble_counts_and_closed_forms():
    for k in (3, 4):
        gens = assemble_very_singular(context(monomial_odd(k))).generators
        assert len(gens) == k + 2
        expected = [g.normalized() for g in closed_form_generators_odd(k)]
        assert [g.poly for g in gens] == expected
    gens6 = assemble_very_singular(context(binomial_even(3))).generators
    assert len(gens6) == 6
    assert sorted(g.bidegree for g in gens6) == sorted(
        [(0, 6), (2, 1), (4, 1), (2, 2), (1, 3), (1, 3)]
    )


def test_assemble_rejects_mild_curve():
    rng = random.Random(4)
    from reescurve.sampling import sample_mild

    sample = sample_mild(FP, 5, rng)
    with pytest.raises(PreconditionError):
        context(sample.par)


def test_assembly_matches_oracle_after_scrambling():
    rng = random.Random(11)
    from reescurve.sampling import sample_very_singular

    sample = sample_very_singular(FP, 6, rng)
    ctx = context(sample.par)
    gens = assemble_very_singular(ctx).generators
    table = Oracle(sample.par).mingen_table()
    assert table.multiset() == sorted(g.bidegree for g in gens)
    for g in gens:
        assert g.poly.subst_x(*sample.par.triple).is_zero()
