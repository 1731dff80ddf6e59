"""Mu-basis, implicit equation, singularity classification, inverse map."""
import random
from fractions import Fraction

import pytest

from curves import binomial_even, compose, monomial_odd, naive_cofactor_det
from reescurve.errors import ImproperParametrization, PreconditionError
from reescurve.fields import DEFAULT_PRIME, PrimeField, QQ
from reescurve.poly import BiPoly, monomials_of_bidegree, parse_bipoly, t_poly
from reescurve.syzygy import (
    apply_x_change,
    axial_change,
    classify_singularity,
    implicit_equation,
    inverse_map,
    moving_line_content,
    mu_basis,
    parametrization,
    pullback_through_change,
)

FP = PrimeField(DEFAULT_PRIME)


def P(s, field=QQ):
    return parse_bipoly(field, s)


def test_parametrization_rejects_common_factor():
    # everything divisible by T1
    with pytest.raises(PreconditionError):
        parametrization(QQ, [0, 1], [0, 2], [0, 3])
    # shared factor (T0 + T1)
    with pytest.raises(PreconditionError):
        parametrization(QQ, [1, 2, 1], [1, 1, 0], [0, 1, 1])


def test_mu_basis_monomial_quintic():
    mb = mu_basis(monomial_odd(3))
    assert mb.mu == 2
    assert mb.p == P("T1^2*X0 - T0^2*X1")
    assert mb.q == P("T1^3*X1 - T0^3*X2")


def test_mu_basis_even_example():
    mb = mu_basis(binomial_even(3))
    assert mb.mu == 2
    assert mb.p == P("T1^2*X0 + T0*T1*X0 - T0^2*X1")
    assert mb.q == P("T1^4*X1 - T0^4*X2")


def test_mu_basis_line():
    mb = mu_basis(parametrization(QQ, [1, 0], [0, 1], [1, 1]))
    assert mb.mu == 0
    assert mb.p == P("X0 + X1 - X2")
    assert mb.q.bidegree == (1, 1)


def test_mu_basis_moving_lines_vanish_on_curve():
    for par in (monomial_odd(4), binomial_even(3)):
        mb = mu_basis(par)
        assert mb.p.subst_x(*par.triple).is_zero()
        assert mb.q.subst_x(*par.triple).is_zero()


def test_hilbert_burch_minors_reproduce_curve():
    par = monomial_odd(3)
    mb = mu_basis(par)
    pc = [mb.p.x_coefficient(b) for b in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    qc = [mb.q.x_coefficient(b) for b in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    cross = [
        pc[1] * qc[2] - pc[2] * qc[1],
        pc[2] * qc[0] - pc[0] * qc[2],
        pc[0] * qc[1] - pc[1] * qc[0],
    ]
    lam = None
    for m, u in zip(cross, par.triple):
        assert m.proportional_to(u)
        ratio = m.leading()[1]
        lam = ratio if lam is None else lam
        assert ratio == lam


def test_implicit_equation_quintic():
    imp = implicit_equation(mu_basis(monomial_odd(3)))
    assert imp.properness_degree == 1
    assert imp.equation.proportional_to(P("X1^5 - X0^3*X2^2"))
    assert imp.resultant.xdeg == 5


def test_implicit_equation_even_example():
    imp = implicit_equation(mu_basis(binomial_even(3)))
    expected = P("X1^6 - X0^4*X1*X2 - 4*X0^3*X1^2*X2 - 2*X0^2*X1^3*X2 + X0^4*X2^2")
    assert imp.properness_degree == 1
    assert imp.equation.proportional_to(expected)


def test_implicit_equation_improper_square():
    par = parametrization(QQ, [1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1])
    imp = implicit_equation(mu_basis(par))
    assert imp.properness_degree == 2
    assert imp.equation.proportional_to(P("X0*X2 - X1^2"))
    sq = imp.equation * imp.equation
    assert imp.resultant.proportional_to(sq)


def test_classify_axial_identity():
    sing = classify_singularity(mu_basis(monomial_odd(3)))
    assert sing.kind == "very-singular"
    p0, p1 = sing.axial_pair
    assert p0 == t_poly(QQ, [1, 0, 0])  # T0^2
    assert p1 == t_poly(QQ, [0, 0, 1])  # T1^2
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert sing.change == ident


def test_moving_line_content_rank3_case():
    line = P("T0^2*X0 + T1^2*X1 + T0*T1*X2")
    assert moving_line_content(line).rank() == 3


def test_moving_line_content_rank2_with_hidden_axis():
    line = P("T0^2*X0 + T1^2*X1 + T0*T1*X0 + T0*T1*X1")
    assert moving_line_content(line).rank() == 2
    m_rows, m_inv, p0, p1 = axial_change(line)
    (transformed,) = pullback_through_change([line], m_inv)
    x0 = P("X0")
    x1 = P("X1")
    assert transformed == p1 * x0 - p0 * x1
    assert naive_cofactor_det(m_rows, QQ) == 1


@pytest.mark.parametrize("field", [QQ, FP, PrimeField(3)], ids=["q", "fp62", "fp3"])
def test_pullback_matches_compose(field):
    """pullback_through_change([g], M) is [G(T, M X)] as compose builds
    it, on full forms of several bidegrees with a singular and an
    invertible M, and on the zero form."""
    rng = random.Random(5)

    def rand():
        if field == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return rng.randrange(field.p)

    def lin_images(m):
        xs = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
        return [BiPoly(field, 0, 1, {(0, 0) + x: c for x, c in zip(xs, row)}) for row in m]

    t0, t1 = BiPoly.monomial(field, (1, 0, 0, 0, 0)), BiPoly.monomial(field, (0, 1, 0, 0, 0))
    for m in ([[rand() for _ in range(3)] for _ in range(3)], [[1, 2, 0], [2, 4, 0], [0, 1, 1]]):
        m = [[field.coerce(x) for x in row] for row in m]
        for i, j in ((0, 0), (2, 1), (1, 4), (3, 6)):
            g = BiPoly(field, i, j, {mono: rand() for mono in monomials_of_bidegree(i, j)})
            want = compose(g, t0, t1, *lin_images(m))
            (got,) = pullback_through_change([g], m)
            assert got == want and got.bidegree == want.bidegree
        (zero,) = pullback_through_change([BiPoly.zero(field, 2, 3)], m)
        assert zero.is_zero()


@pytest.mark.parametrize("field", [QQ, FP, PrimeField(3)], ids=["q", "fp62", "fp3"])
def test_pullback_of_a_list_equals_the_one_form_calls(field):
    """One call on a list of forms, which share one cache of (M X)^b,
    gives what one call per form gives, in order, bidegrees included: forms
    of shared and of distinct X-degrees, a repeated form and the zero form."""
    rng = random.Random(6)

    def rand():
        if field == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        return rng.randrange(field.p)

    m = [[field.coerce(rand()) for _ in range(3)] for _ in range(3)]
    forms = [
        BiPoly(field, i, j, {mono: rand() for mono in monomials_of_bidegree(i, j)})
        for i, j in ((2, 1), (1, 4), (0, 4), (3, 2))
    ]
    forms += [forms[1], BiPoly.zero(field, 1, 3)]
    got = pullback_through_change(forms, m)
    want = [pullback_through_change([g], m)[0] for g in forms]
    assert got == want
    assert [g.bidegree for g in got] == [g.bidegree for g in forms]


def test_axial_change_generic_branch():
    # content rank 2 with a genuine X2 coefficient: the change is nontrivial
    line = P("T1^2*X0 - T0^2*X1 + T1^2*X2 - T0^2*X2")
    assert moving_line_content(line).rank() == 2
    m_rows, m_inv, p0, p1 = axial_change(line)
    x0 = P("X0")
    x1 = P("X1")
    assert pullback_through_change([line], m_inv) == [p1 * x0 - p0 * x1]
    assert naive_cofactor_det(m_rows, QQ) == 1
    from reescurve.poly import tpoly_gcd

    assert tpoly_gcd(p0, p1).tdeg == 0


def test_classification_invariant_under_x_change():
    rng = random.Random(6)
    from reescurve.sampling import random_x_change

    par = monomial_odd(4, FP)
    base = classify_singularity(mu_basis(par))
    assert base.kind == "very-singular"
    for _ in range(3):
        m = random_x_change(FP, rng)
        moved = apply_x_change(par, m)
        sing = classify_singularity(mu_basis(moved))
        assert sing.kind == "very-singular"
        back = apply_x_change(moved, sing.change)
        mb2 = mu_basis(back)
        assert classify_singularity(mb2).axial_pair is not None


def test_classify_boundary_2mu_equals_d():
    # a proper quartic with mu = 2: classification is not-applicable
    par = parametrization(QQ, [1, 0, 0, 0, 1], [0, 1, 1, 0, 0], [0, 0, 1, 0, 1])
    mb = mu_basis(par)
    if mb.mu == 2:
        sing = classify_singularity(mb)
        assert sing.kind == "not-applicable"
        assert "boundary" in sing.note


def test_inverse_map_quintic():
    inv = inverse_map(monomial_odd(3))
    assert inv.ell == 2
    assert inv.a == P("X1^2")
    assert inv.b == P("X0*X2")


def test_inverse_map_line():
    par = parametrization(QQ, [1, 0], [0, 1], [1, 1])
    inv = inverse_map(par)
    assert inv.ell == 1
    # psi . phi = id
    t0 = P("T0")
    t1 = P("T1")
    assert t0 * inv.b.subst_x(*par.triple) == t1 * inv.a.subst_x(*par.triple)


def test_inverse_map_random_proper_quintic_over_fp():
    from reescurve.sampling import sample_very_singular

    rng = random.Random(12)
    sample = sample_very_singular(FP, 5, rng)
    inv = inverse_map(sample.par)
    par = sample.par
    t0 = parse_bipoly(FP, "T0")
    t1 = parse_bipoly(FP, "T1")
    assert t0 * inv.b.subst_x(*par.triple) == t1 * inv.a.subst_x(*par.triple)


@pytest.mark.parametrize("field", [FP, QQ], ids=["fp", "q"])
def test_inverse_in_the_high_moving_line_is_a_multiple_of_e(field):
    """Q(a, b; X) is divisible by E on sampled proper curves.  inverse_map
    does not test it: T0 b(u) = T1 a(u) and the mu-basis' Hilbert-Burch
    check give Q(a, b; u) = 0, and E generates the curve's ideal."""
    from reescurve.sampling import sample_mild, sample_very_singular

    xs = [BiPoly.monomial(field, (0, 0, *b)) for b in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    for sampler, d, seed in ((sample_mild, 5, 0), (sample_mild, 6, 1), (sample_very_singular, 6, 2)):
        par = sampler(field, d, random.Random(seed)).par
        inv = inverse_map(par)
        mb = mu_basis(par)
        w = compose(mb.q, inv.a, inv.b, *xs)
        assert w.is_zero() or implicit_equation(mb).equation.divides_into(w)


def test_inverse_map_rejects_improper():
    par = parametrization(QQ, [1, 0, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 0, 0, 1])
    with pytest.raises(ImproperParametrization) as ei:
        inverse_map(par)
    assert ei.value.degree == 2
