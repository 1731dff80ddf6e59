"""The mild pipeline: Sylvester forms, Morley coefficients, minors, assembly.

The Sylvester forms of both mu = 2 pipelines are read off the Morley form;
here they are checked against the 2x2 determinants of T-slot splits.  The
band minors and the resultant determinants are read off closed forms; here
the matrices are built as BiPoly entries and checked against Bareiss.
"""
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from curves import binomial_even, invariants, monomial_odd
from reescurve.errors import PreconditionError
from reescurve.fields import DEFAULT_PRIME, PrimeField, QQ
from reescurve.mu2mild import (
    MorleyData,
    assemble_mild,
    delta_sylvester,
    mild_context,
    minor_family,
    morley_coeffs,
    morley_det_check,
)
from reescurve.mu2sing import family, top_generator_odd, top_generators_even, very_singular_context
from reescurve.oracle import Oracle, ideal_piece_membership, independent_mod
from reescurve.poly import BiPoly, morley_form, parse_bipoly, poly_det_bareiss
from reescurve.sampling import sample_mild, sample_very_singular
from reescurve.syzygy import mu_basis, parametrization

FP = PrimeField(DEFAULT_PRIME)
IDENTITY_FIELDS = (PrimeField(2), PrimeField(3), PrimeField(7), FP, QQ)


def fixed_mild(d, seed=1, field=FP):
    return sample_mild(field, d, random.Random(seed))


def sylvester_reference(f, g, v):
    """The 2x2 determinant f0 g1 - f1 g0 of the T-slot splits
    h = T0^(1+v0) h0 + T1^(1+v1) h1, T0-heavy monomials to h0."""
    def split(h):
        parts = ({}, {})
        for m, c in h.terms():
            if m[0] > v[0]:
                parts[0][(m[0] - 1 - v[0],) + m[1:]] = c
            else:
                assert m[1] > v[1], f"{m} fits no slot for v={v}"
                parts[1][(m[0], m[1] - 1 - v[1]) + m[2:]] = c
        return [BiPoly(h.field, h.tdeg - 1 - v[i], h.xdeg, parts[i]) for i in (0, 1)]

    (f0, f1), (g0, g1) = split(f), split(g)
    return f0 * g1 - f1 * g0


def banded_columns(ctx, nrows):
    """The nrows - 2 columns of the band: the coefficients L0, L*, L1 of
    P = T0^2 L0 + T0T1 L* + T1^2 L1 in rows c, c+1, c+2."""
    lforms = [ctx.mb.p.t_coefficient(*a) for a in ((2, 0), (1, 1), (0, 2))]
    cols = []
    for c in range(nrows - 2):
        col = [BiPoly.zero(ctx.field, 0, 1) for _ in range(nrows)]
        col[c : c + 3] = lforms
        cols.append(col)
    return cols


def band_matrix(ctx, i, morley):
    """The (d-1-i) x (d-2-i) matrix with banded L-columns and a Morley column."""
    d = ctx.d
    nrows = d - 1 - i
    cols = banded_columns(ctx, nrows)
    return [[col[r] for col in cols] + [morley.coeffs[(d - 2 - i - r, r)]] for r in range(nrows)]


def resultant_matrix(ctx, i, morley):
    """The square (d-2) x (d-2) matrix of level i: the band of d-1-i rows
    beside morley.block(i), over the transposed band of i+1 rows."""
    d = ctx.d
    top = banded_columns(ctx, d - 1 - i)
    block = morley.block(i)
    rows = [[col[r] for col in top] + block[r] for r in range(d - 1 - i)]
    zero = BiPoly.zero(ctx.field, 0, 1)
    for col in banded_columns(ctx, i + 1):
        rows.append([zero] * (d - 3 - i) + col)
    assert len(rows) == d - 2 and all(len(r) == d - 2 for r in rows)
    return rows


def swap_t(f):
    """f with T0 and T1 exchanged."""
    return BiPoly(f.field, f.tdeg, f.xdeg, {(m[1], m[0]) + m[2:]: c for m, c in f.terms()})


def test_minor_count_identity():
    # sum over i of (d-1-i) equals (d+1)(d-4)/2 for the multi-row levels
    for d in range(5, 10):
        total = sum(d - 1 - i for i in range(1, d - 3))
        assert total == (d + 1) * (d - 4) // 2


def test_context_requires_rank3():
    from curves import monomial_odd

    par = monomial_odd(3, FP)
    with pytest.raises(PreconditionError):
        mild_context(par, *invariants(par))


def test_sylvester_forms_shapes_and_membership():
    s = fixed_mild(6)
    ctx = mild_context(s.par, *invariants(s.par))
    deltas = delta_sylvester(ctx, morley_coeffs(ctx))
    assert deltas[(0, 0)].bidegree == (4, 2)
    assert deltas[(1, 0)].bidegree == (3, 2)
    assert deltas[(0, 1)].bidegree == (3, 2)
    for v, delta in deltas.items():
        assert delta.subst_x(*s.par.triple).is_zero()


def test_sylvester_shift_relations():
    s = fixed_mild(7)
    ctx = mild_context(s.par, *invariants(s.par))
    deltas = delta_sylvester(ctx, morley_coeffs(ctx))
    t0 = parse_bipoly(FP, "T0")
    t1 = parse_bipoly(FP, "T1")
    pq = [ctx.mb.p, ctx.mb.q]
    for diff in (
        deltas[(0, 0)] - t0 * deltas[(1, 0)],
        deltas[(0, 0)] - t1 * deltas[(0, 1)],
    ):
        assert diff.is_zero() or ideal_piece_membership(diff, pq)


@pytest.mark.parametrize("field", [FP, QQ], ids=["fp", "q"])
def test_sylvester_pair_independent_mod_low_line(field):
    s = fixed_mild(6, field=field)
    ctx = mild_context(s.par, *invariants(s.par))
    deltas = delta_sylvester(ctx, morley_coeffs(ctx))
    low = ctx.mb.p
    assert independent_mod([deltas[(1, 0)], deltas[(0, 1)]], [low])
    # a multiple of P, and a repeated form, are dependent modulo P
    assert not independent_mod([deltas[(1, 0)], parse_bipoly(field, "T0*X0") * low], [low])
    assert not independent_mod([parse_bipoly(field, "T1*X2") * low], [low])
    assert not independent_mod([deltas[(1, 0)], deltas[(1, 0)]], [low])
    assert independent_mod([], [low])


def test_morley_block_reading_matches_coefficients():
    s = fixed_mild(6)
    ctx = mild_context(s.par, *invariants(s.par))
    morley = morley_coeffs(ctx)
    d = ctx.d
    for i in range(1, d - 3):
        block = morley.block(i)
        for t in range(d - 1 - i):
            v = (d - 2 - i - t, t)
            f = morley.coeffs[v]
            assert f.bidegree == (i, 2) or f.is_zero()
            rebuilt = BiPoly.zero(FP, i, 2)
            for sidx in range(i + 1):
                vp = (i - sidx, sidx)
                mono = BiPoly.monomial(FP, (vp[0], vp[1], 0, 0, 0))
                rebuilt = rebuilt + mono * block[t][sidx]
            assert rebuilt == f


def test_morley_top_coefficient_matches_discrete_jacobian():
    """Each Sylvester form Delta^v of P and Q is, exactly, the determinant of
    the T-slot splits."""
    for field in IDENTITY_FIELDS:
        for d in (5, 6, 7):
            s = fixed_mild(d, field=field)
            ctx = mild_context(s.par, *invariants(s.par))
            deltas = delta_sylvester(ctx, morley_coeffs(ctx))
            for v, delta in deltas.items():
                assert delta == sylvester_reference(ctx.mb.p, ctx.mb.q, v), (field.name, d, v)


def test_top_forms_are_sylvester_forms_of_the_family_top():
    """The very singular top forms are -Delta^(0,0) of (P, F_{1,k-1}) for d
    odd, and -Delta^(1,0), +Delta^(0,1) of (P, F_{2,k-1}) for d even."""
    curves = [monomial_odd(3), binomial_even(3)]
    for field in IDENTITY_FIELDS:
        curves += [sample_very_singular(field, d, random.Random(d)).par for d in (5, 6, 7, 8)]
    for par in curves:
        ctx = very_singular_context(par, *invariants(par))
        fam = family(ctx)
        p, top = ctx.mb.p, fam[-1]
        if ctx.r == -1:
            assert top_generator_odd(ctx, fam) == -sylvester_reference(p, top, (0, 0))
        else:
            want = (-sylvester_reference(p, top, (1, 0)), sylvester_reference(p, top, (0, 1)))
            assert top_generators_even(ctx, fam) == want


def test_minor_family_membership_and_counts():
    s = fixed_mild(7)
    ctx = mild_context(s.par, *invariants(s.par))
    morley = morley_coeffs(ctx)
    total = 0
    for i in range(1, ctx.d - 3):
        fam = minor_family(ctx, i, morley)
        assert len(fam) == ctx.d - 1 - i
        total += len(fam)
        for minor in fam:
            assert minor.bidegree == (i, ctx.d - 1 - i)
            assert minor.subst_x(*s.par.triple).is_zero()
    assert total == (ctx.d + 1) * (ctx.d - 4) // 2


def test_minor_family_index_errors():
    s = fixed_mild(6)
    ctx = mild_context(s.par, *invariants(s.par))
    morley = morley_coeffs(ctx)
    with pytest.raises(PreconditionError):
        minor_family(ctx, 0, morley)
    with pytest.raises(PreconditionError):
        minor_family(ctx, ctx.d - 3, morley)


def test_morley_det_equals_curve_equation():
    for d, seed in [(5, 2), (6, 3), (7, 1)]:
        s = fixed_mild(d, seed)
        ctx = mild_context(s.par, *invariants(s.par))
        morley = morley_coeffs(ctx)
        for i in range(1, d - 3):
            det, lam = morley_det_check(ctx, i, morley)
            assert not FP.is_zero(lam)
            assert det.proportional_to(ctx.implicit.equation)


def test_morley_staircase_choice_invisible_mod_ideal():
    """The minors do not depend on the staircase: the T1-first divided
    differences give the Morley coefficients -swap(F^(v1,v0)) of the swapped
    pair, and the same minors modulo (P, Q)."""
    s = fixed_mild(6)
    ctx = mild_context(s.par, *invariants(s.par))
    m1 = morley_coeffs(ctx)
    swapped = morley_form(swap_t(ctx.mb.p), swap_t(ctx.mb.q))
    m2 = MorleyData(coeffs={v: -swap_t(swapped[v[::-1]]) for v in swapped}, d=ctx.d)
    assert m2.coeffs != m1.coeffs
    pq = [ctx.mb.p, ctx.mb.q]
    for i in range(1, ctx.d - 3):
        for a, b in zip(minor_family(ctx, i, m1), minor_family(ctx, i, m2)):
            diff = a - b
            assert diff.is_zero() or ideal_piece_membership(diff, pq)


def test_assemble_counts():
    for d, seed, expected in [(5, 1, 8), (6, 1, 12), (7, 1, 17)]:
        s = fixed_mild(d, seed)
        ctx = mild_context(s.par, *invariants(s.par))
        gens = assemble_mild(ctx).generators
        assert len(gens) == expected == (d + 1) * (d - 4) // 2 + 5


def test_assemble_matches_oracle():
    s = fixed_mild(5, 4)
    ctx = mild_context(s.par, *invariants(s.par))
    gens = assemble_mild(ctx).generators
    table = Oracle(s.par).mingen_table()
    assert table.multiset() == sorted(g.bidegree for g in gens)


def test_morley_det_matches_naive_expansion_small():
    # d = 5: the level-1 resultant matrix is 3x3; expand it by permutations
    import itertools

    s = fixed_mild(5, 2)
    ctx = mild_context(s.par, *invariants(s.par))
    morley = morley_coeffs(ctx)
    rows = resultant_matrix(ctx, 1, morley)
    det, lam = morley_det_check(ctx, 1, morley)
    naive = BiPoly.zero(FP, 0, 0)
    n = len(rows)
    for perm in itertools.permutations(range(n)):
        term = BiPoly.constant(FP, 1)
        dead = False
        for i, j in enumerate(perm):
            if rows[i][j].is_zero():
                dead = True
                break
            term = term * rows[i][j]
        if dead:
            continue
        inv = sum(1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b])
        naive = naive + (term if inv % 2 == 0 else -term)
    assert naive == det


def test_band_matrix_shape():
    s = fixed_mild(7)
    ctx = mild_context(s.par, *invariants(s.par))
    morley = morley_coeffs(ctx)
    rows = band_matrix(ctx, 2, morley)
    assert len(rows) == ctx.d - 1 - 2
    assert all(len(r) == ctx.d - 2 - 2 for r in rows)


@pytest.mark.parametrize("field", IDENTITY_FIELDS, ids=lambda f: f.name)
@settings(max_examples=8, deadline=None, derandomize=True)
@given(d=st.integers(min_value=5, max_value=11), seed=st.integers(min_value=0, max_value=10**6))
@example(d=7, seed=0)
@example(d=11, seed=1)
def test_closed_forms_match_bareiss(field, d, seed):
    """At every level i, each minor of minor_family is the Bareiss
    determinant of the band matrix without its row (sign (-1)^t), and the
    determinant of morley_det_check is the Bareiss determinant of the square
    resultant matrix, signs included."""
    s = fixed_mild(d, seed, field)
    ctx = mild_context(s.par, *invariants(s.par))
    morley = morley_coeffs(ctx)
    for i in range(1, d - 3):
        rows = band_matrix(ctx, i, morley)
        want = [poly_det_bareiss(rows[:t] + rows[t + 1 :]) for t in range(len(rows))]
        assert minor_family(ctx, i, morley) == [m if t % 2 == 0 else -m for t, m in enumerate(want)]
        det, lam = morley_det_check(ctx, i, morley)
        assert det == poly_det_bareiss(resultant_matrix(ctx, i, morley))
        assert det == ctx.implicit.equation.scale(lam)


def test_boundary_quartic_emits_base_family():
    # d = 4 = 2 mu: no heavy singularity possible; classification is
    # not-applicable and the base five-element family is emitted with the
    # count formula left unasserted
    rng = random.Random(0)
    from reescurve.poly import t_poly
    from reescurve.syzygy import classify_singularity, implicit_equation

    while True:
        L = [t_poly(FP, [rng.randrange(FP.p) for _ in range(3)]) for _ in range(3)]
        N = [t_poly(FP, [rng.randrange(FP.p) for _ in range(3)]) for _ in range(3)]
        u = [
            L[1] * N[2] - L[2] * N[1],
            L[2] * N[0] - L[0] * N[2],
            L[0] * N[1] - L[1] * N[0],
        ]
        try:
            par = parametrization(FP, *u)
        except Exception:
            continue
        mb = mu_basis(par)
        if mb.mu != 2:
            continue
        if implicit_equation(mb).properness_degree != 1:
            continue
        break
    sing = classify_singularity(mb)
    assert sing.kind == "not-applicable"
    ctx = mild_context(par, mb, sing, implicit_equation(mb))
    assert ctx.boundary
    gens = assemble_mild(ctx).generators
    assert len(gens) == 5
    for g in gens:
        assert g.poly.subst_x(*par.triple).is_zero()
