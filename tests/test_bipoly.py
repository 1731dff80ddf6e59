"""Bihomogeneous polynomial arithmetic, substitution, and the T-resultant."""
import random
from array import array
from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from reescurve import _native, poly
from reescurve.fields import DEFAULT_PRIME, PrimeField, QQ
from reescurve.errors import PreconditionError
from reescurve.poly import (
    MAX_EXPONENT,
    BiPoly,
    GradingError,
    InexactDivision,
    PowerTable,
    monomials_of_bidegree,
    pack,
    parse_bipoly,
    poly_det_bareiss,
    resultant_t,
    t_poly,
    tpoly_gcd,
    x_monomials,
)

FP = PrimeField(DEFAULT_PRIME)


def P(s, tdeg=None, xdeg=None, field=QQ):
    return parse_bipoly(field, s, tdeg, xdeg)


def test_add_cancellation():
    a = P("T1^2*X0 - T0^2*X1")
    b = P("T0^2*X1")
    assert (a + b) == P("T1^2*X0")


def test_mul_grading():
    prod = P("T0*X1") * P("X2")
    assert prod.bidegree == (1, 2)
    assert prod == P("T0*X1*X2")


def _schoolbook(F, f, g):
    """Product of two coefficient dicts: every term pair added in with F.add / F.mul."""
    out = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            m = tuple(a + b for a, b in zip(m1, m2))
            out[m] = F.add(out.get(m, F.zero), F.mul(c1, c2))
    return {m: c for m, c in out.items() if not F.is_zero(c)}


def _mul_reference(f, g):
    return _schoolbook(f.field, dict(f.terms()), dict(g.terms()))


_MUL_FIELDS = [QQ, PrimeField(2), PrimeField(3), FP]


@st.composite
def _form(draw, field, bidegree, size=5):
    mons = monomials_of_bidegree(*bidegree)
    if field == QQ:
        scalars = st.fractions(min_value=-4, max_value=4, max_denominator=6)
    else:
        scalars = st.sampled_from([0, 1, 2, field.p - 1, field.p // 2])
    coeffs = draw(st.dictionaries(st.sampled_from(mons), scalars, max_size=size))
    return BiPoly(field, *bidegree, coeffs)


@st.composite
def _mul_case(draw):
    field = draw(st.sampled_from(_MUL_FIELDS))
    bideg = st.tuples(st.integers(0, 2), st.integers(0, 2))
    bf, bg = draw(bideg), draw(bideg)
    return draw(_form(field, bf)), draw(_form(field, bg)), draw(_form(field, bf))


def _cancelling(field, f, g):
    return P(f, field=field), P(g, field=field), BiPoly.zero(field, 0, 0)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_mul_case())
@example(_cancelling(QQ, "1/2*T0*X0 - 1/3*T1*X2", "1/2*T0*X0 + 1/3*T1*X2"))
@example(_cancelling(PrimeField(2), "X0 + X1", "X0 + X1"))
@example(_cancelling(PrimeField(3), "X0 + X1", "X0 + 2*X1"))
@example(_cancelling(FP, "X0 + X1", "X0 - X1"))
def test_mul_matches_schoolbook_reference(case):
    """The int convolution equals the schoolbook product and stores no zero
    coefficient (the ``_clean=True`` invariant), also where coefficients
    cancel (the examples, (f + h)(f - h)) and for the zero polynomial."""
    f, g, h = case
    F = f.field
    zero = BiPoly.zero(F, 1, 1)
    for a, b in [(f, g), (g, f), (f, zero), (zero, g), (f + h, f - h), (f, -f)]:
        prod = a * b
        assert dict(prod.terms()) == _mul_reference(a, b)
        assert prod.bidegree == (a.tdeg + b.tdeg, a.xdeg + b.xdeg)
        assert all(not F.is_zero(c) and F.coerce(c) == c and type(c) is type(F.one)
                   for c in prod.coeffs.values())


@st.composite
def _wide_form(draw, field, tdeg, xdeg):
    """A sparse form of bidegree (tdeg, xdeg), its monomials drawn directly
    (a full enumeration of a bidegree near the field limit is far too big)."""
    a0 = st.integers(0, tdeg)
    b = st.integers(0, xdeg).flatmap(lambda b0: st.tuples(st.just(b0), st.integers(0, xdeg - b0)))
    mons = st.tuples(a0, b).map(lambda m: (m[0], tdeg - m[0], m[1][0], m[1][1], xdeg - sum(m[1])))
    scalars = (st.fractions(min_value=-4, max_value=4, max_denominator=6) if field == QQ
               else st.integers(0, field.p - 1))
    return BiPoly(field, tdeg, xdeg, draw(st.dictionaries(mons, scalars, max_size=6)))


@st.composite
def _wide_mul_case(draw):
    """Two forms whose product's bidegree is at most MAX_EXPONENT in each
    part, with the parts of both factors near their limit too."""
    field = draw(st.sampled_from(_MUL_FIELDS))
    near = st.integers(MAX_EXPONENT - 3, MAX_EXPONENT)
    ti, xi = draw(near), draw(near)
    tf, xf = draw(st.integers(0, ti)), draw(st.integers(0, xi))
    return draw(_wide_form(field, tf, xf)), draw(_wide_form(field, ti - tf, xi - xf))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_wide_mul_case())
def test_mul_near_the_field_limit_matches_schoolbook(case):
    """Exponents up to MAX_EXPONENT in every field add without carrying into
    the next one: the product equals the schoolbook one on exponent tuples."""
    f, g = case
    prod = f * g
    assert dict(prod.terms()) == _mul_reference(f, g)
    assert prod.bidegree == (f.tdeg + g.tdeg, f.xdeg + g.xdeg)


def test_bidegree_beyond_the_key_width_is_refused():
    """A form, a product, a T-form or a substitution whose degree passes
    MAX_EXPONENT raises PreconditionError("exponent_width"); at the limit
    every exponent reads back as it went in."""
    top = BiPoly.monomial(FP, (MAX_EXPONENT, 0, 0, MAX_EXPONENT, 0), 3)
    assert top.terms() == [((MAX_EXPONENT, 0, 0, MAX_EXPONENT, 0), 3)]
    assert BiPoly.zero(QQ, MAX_EXPONENT, MAX_EXPONENT).bidegree == (MAX_EXPONENT,) * 2
    refusals = [
        lambda: BiPoly(QQ, MAX_EXPONENT + 1, 0),
        lambda: BiPoly.zero(FP, 0, MAX_EXPONENT + 1),
        lambda: BiPoly.monomial(QQ, (0, 0, 0, 0, MAX_EXPONENT + 1)),
        lambda: top * P("T1*X0", field=FP),
        lambda: t_poly(QQ, [1] * (MAX_EXPONENT + 2)),
        lambda: P("X0*X1").subst_x(*(t_poly(QQ, [1] * (MAX_EXPONENT // 2 + 2)),) * 3),
    ]
    for build in refusals:
        with pytest.raises(PreconditionError) as err:
            build()
        assert err.value.invariant == "exponent_width"


def test_intermediate_degrees_beyond_the_key_width_are_refused():
    """A Bareiss product of two minors and a resultant's norm reach twice
    the result's degree; past MAX_EXPONENT they are refused before any key
    is formed, though the result itself would fit."""
    half = MAX_EXPONENT // 2 + 1
    f = BiPoly.monomial(QQ, (1, 0, 0, 0, half)) + BiPoly.monomial(QQ, (0, 1, half, 0, 0))
    g = BiPoly.monomial(QQ, (1, 0, 1, 0, 0)) + BiPoly.monomial(QQ, (0, 1, 0, 1, 0))
    for build in (lambda: resultant_t(f, g),
                  lambda: poly_det_bareiss([[f.t_coefficient(1, 0), f.t_coefficient(0, 1)],
                                            [g.t_coefficient(1, 0), g.t_coefficient(0, 1)]])):
        with pytest.raises(PreconditionError) as err:
            build()
        assert err.value.invariant == "exponent_width"


def test_add_bidegree_mismatch_raises():
    with pytest.raises(GradingError):
        P("T0*X1") + P("X2")


def test_subst_x_kernel_element_of_monomial_quintic():
    # bidegree (1,2) element vanishing on (T0^5, T0^3 T1^2, T1^5)
    g = P("T1*X1^2 - T0*X0*X2")
    u = [t_poly(QQ, [1, 0, 0, 0, 0, 0]),
         t_poly(QQ, [0, 0, 1, 0, 0, 0]),
         t_poly(QQ, [0, 0, 0, 0, 0, 1])]
    assert g.subst_x(*u).is_zero()


def test_subst_x_coordinate():
    g = P("X0")
    u0 = t_poly(QQ, [1, 2, 3])
    u1 = t_poly(QQ, [0, 1, 0])
    u2 = t_poly(QQ, [0, 0, 1])
    assert g.subst_x(u0, u1, u2) == u0


def test_subst_x_conic():
    g = P("T0*X1 - T1*X0")
    u = [t_poly(QQ, [1, 0, 0]), t_poly(QQ, [0, 1, 0]), t_poly(QQ, [0, 0, 1])]
    assert g.subst_x(*u).is_zero()


def test_subst_x_multiplicative():
    rng = random.Random(2)
    mons12 = monomials_of_bidegree(1, 2)
    mons21 = monomials_of_bidegree(2, 1)
    u = [t_poly(QQ, [rng.randint(-3, 3) for _ in range(4)]) for _ in range(3)]
    for _ in range(10):
        g = BiPoly(QQ, 1, 2, {m: rng.randint(-2, 2) for m in mons12})
        h = BiPoly(QQ, 2, 1, {m: rng.randint(-2, 2) for m in mons21})
        lhs = (g * h).subst_x(*u)
        rhs = g.subst_x(*u) * h.subst_x(*u)
        assert lhs == rhs


def _subst_x_reference(g, u):
    """G(T, u(T)) term by term, each u^b a product of sparse BiPolys."""
    F = g.field
    out = BiPoly.zero(F, g.tdeg + g.xdeg * u[0].tdeg, 0)
    for (a0, a1, b0, b1, b2), c in g.terms():
        term = BiPoly.monomial(F, (a0, a1, 0, 0, 0), c)
        for uk, e in zip(u, (b0, b1, b2)):
            for _ in range(e):
                term = term * uk
        out = out + term
    return out


@pytest.mark.parametrize(
    "field", [PrimeField(2), PrimeField(7), FP, QQ], ids=["fp2", "fp7", "fp62", "q"]
)
def test_subst_x_matches_sparse_reference(field):
    rng = random.Random(5)

    def scalar():
        if field == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.randrange(field.p)

    def form(i, j):
        mons = monomials_of_bidegree(i, j)
        return BiPoly(field, i, j, {m: scalar() for m in rng.sample(mons, min(6, len(mons)))})

    d = 4
    dense = [t_poly(field, [scalar() for _ in range(d + 1)]) for _ in range(3)]
    triples = [
        dense,
        [dense[0], BiPoly.zero(field, d, 0), dense[2]],          # one zero component
        [t_poly(field, [1] + [0] * d), t_poly(field, [0] * d + [1]), dense[1]],
    ]
    gs = [form(i, j) for i, j in ((0, 1), (1, 2), (2, 3), (3, 1), (0, 4))]
    gs += [
        BiPoly.zero(field, 2, 3),                                 # zero G
        BiPoly.zero(field, 0, 0),
        form(3, 0),                                               # xdeg = 0
        BiPoly.monomial(field, (2, 1, 0, 0, 0), 3),               # pure T-monomial
    ]
    for u in triples:
        table = PowerTable(*u)
        for g in gs:
            want = _subst_x_reference(g, u)
            for got in (g.subst_x(*u), g.subst_x(*u, powers=table)):
                assert got == want
                assert got.bidegree == (g.tdeg + g.xdeg * d, 0)
                assert all(field.coerce(c) == c and type(c) is type(field.one)
                           for c in got.coeffs.values())


def _power_references(table, top):
    """Every u^b (over Q: w^b) with |b| <= top, each one schoolbook
    convolution of a lower one with the table's dense base triple; over F_p
    reduced at the end."""
    out = {(0, 0, 0): [1]}
    for n in range(1, top + 1):
        for b0 in range(n + 1):
            for b1 in range(n - b0 + 1):
                b = (b0, b1, n - b0 - b1)
                k = 0 if b0 else 1 if b1 else 2
                prev = out[b[:k] + (b[k] - 1,) + b[k + 1 :]]
                acc = [0] * (len(prev) + table.d)
                for i, c in enumerate(prev):
                    for a, w in enumerate(table.base[k]):
                        acc[i + a] += c * w
                out[b] = acc
    p = table.modulus
    return out if p is None else {b: [v % p for v in pw] for b, pw in out.items()}


MERSENNE_127 = PrimeField((1 << 127) - 1)


KERNEL_FIELDS = [PrimeField(2), PrimeField(3), FP]     # the C kernel serves these
KERNEL_IDS = ["fp2", "fp3", "fp62"]


def _on_the_kernel(field):
    """The route a table over `field` takes by default: "native" for F_p with
    p < 2^62 (skipped, with the reason, when the kernel is not built), else
    "kronecker"."""
    if field == QQ or field.p >= _native.P_BOUND:
        return "kronecker"
    if _native.get_kernel() is None:
        pytest.skip("the C kernel is not built (no compiler, or REESCURVE_NO_NATIVE set)")
    return "native"


def _check_path(table, path):
    """The table took `path`; the native route packs nothing."""
    assert (table.kernel is not None) == (path == "native")
    if path == "native":
        assert not table._packed and not table._packed_base


@pytest.mark.parametrize(
    "field, top",
    [(PrimeField(2), 8), (PrimeField(3), 8), (FP, 8), (MERSENNE_127, 6), (QQ, 12)],
    ids=["fp2", "fp3", "fp62", "fp127", "q"],
)
def test_packed_powers_match_the_convolution(field, top):
    """Powers on the default route (the C kernel where it serves the field)
    equal the convolution for every |b| <= top, stored as array('Q') exactly
    when p fits a machine word.  At d = 14 a slot sums d + 1 = 15 products, nearly 2^4: with entries p - 1 (F_p), or
    3 and -3 in a primitive triple (Q), the middle slots of u0^2 nearly fill
    the slot width the table picks.  Random residues, and over Q entries of
    mixed sign with zeros, go up to |b| = top.  Over F_p, triples of degree
    20 and 31 with every entry p - 1 sum 21 and 32 products per entry of
    u0^2, more than the 15 a 128-bit accumulator of the C kernel takes
    between two reductions at p near 2^62."""
    _check_powers(field, top, _on_the_kernel(field))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_kronecker_powers_match_the_convolution(field, monkeypatch):
    """The same powers by Kronecker products, the kernel hidden before the
    table is built (the route F_p takes without a compiler)."""
    monkeypatch.setattr(_native, "get_kernel", lambda: None)
    _check_powers(field, 8, "kronecker")


def _check_powers(field, top, path):
    d = 14
    rng = random.Random(d)
    if field == QQ:
        triples = [
            [[3] * (d + 1), [-3] * (d + 1), [1] + [0] * (d - 1) + [-1]],
            [[9 * (-1) ** a for a in range(d + 1)], [-9] * (d + 1), ([0, 7, -9, 0] * 4)[: d + 1]],
            [[rng.randint(-9, 9) for _ in range(d + 1)] for _ in range(3)],
        ]
    else:
        triples = [
            [[field.p - 1] * (d + 1)] * 3,
            [[rng.randrange(field.p) for _ in range(d + 1)] for _ in range(3)],
        ]
    cases = [(dense, top) for dense in triples]
    if field != QQ and field.p < _native.P_BOUND:
        cases += [([[field.p - 1] * (e + 1)] * 3, 4) for e in (20, 31)]
    for dense, n in cases:
        table = PowerTable(*(t_poly(field, u) for u in dense))
        for b, want in _power_references(table, n).items():
            got = table.power(pack((0, 0) + b))
            assert list(got) == want, b
            # array('Q') exactly when the C kernel serves the table
            assert isinstance(got, array) if table.kernel is not None else type(got) is list
        _check_path(table, path)


def _substitute_reference(table, g):
    """G(T, u(T)) term by term on the table's own dense powers: each c u^b
    added entry by entry at the offset a1 (over Q times scale^xdeg)."""
    top = g.tdeg + g.xdeg * table.d
    acc = [0] * (top + 1)
    for m, c in g.terms():
        for k, v in enumerate(table.power(pack((0, 0) + m[2:]))):
            acc[m[1] + k] += c * v
    if table.modulus is None:
        acc = [v * table.scale ** g.xdeg for v in acc]
    else:
        acc = [v % table.modulus for v in acc]
    return BiPoly(g.field, top, 0, {(top - k, k, 0, 0, 0): v for k, v in enumerate(acc) if v})


@pytest.mark.parametrize(
    "field", [PrimeField(2), PrimeField(3), FP, MERSENNE_127, QQ],
    ids=["fp2", "fp3", "fp62", "fp127", "q"],
)
def test_packed_substitute_matches_the_term_by_term_sum(field):
    """PowerTable.substitute, on the default route (the C kernel where it
    serves the field), sums every term in one go.  A full bidegree (11, 11)
    form with every coefficient p - 1 (over Q, large coefficients of mixed
    sign) on a triple with every entry p - 1 (over Q, of mixed sign) fills
    each slot with 936 products near the largest; a full (11, 1) form on that triple sums 33 products of
    (p - 1)^2 in its middle entries, more than the C kernel takes between two
    reductions; a kernel element of bidegree (d, 1) substitutes to zero; so
    does the zero form."""
    _check_substitute(field, _on_the_kernel(field))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_kronecker_substitute_matches_the_term_by_term_sum(field, monkeypatch):
    """The same sums packed, the kernel hidden before the table is built."""
    monkeypatch.setattr(_native, "get_kernel", lambda: None)
    _check_substitute(field, "kronecker")


def _check_substitute(field, path):
    d = 10
    rng = random.Random(11)
    if field == QQ:
        triples = [
            [[Fraction(-7, 3) ** a for a in range(d + 1)],
             [Fraction(9 * (-1) ** a, 2) for a in range(d + 1)], [-9] * (d + 1)],
            [[Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(d + 1)]
             for _ in range(3)],
        ]
        coeffs = [(-1) ** k * (10**20 + k) for k in range(936)]
    else:
        triples = [
            [[field.p - 1] * (d + 1)] * 3,
            [[rng.randrange(field.p) for _ in range(d + 1)] for _ in range(3)],
        ]
        coeffs = [field.p - 1] * 936
    full = BiPoly(field, 11, 11, dict(zip(monomials_of_bidegree(11, 11), coeffs)))
    linear = BiPoly(field, 11, 1, dict(zip(monomials_of_bidegree(11, 1), coeffs)))
    assert len(full.coeffs) == 936 and len(linear.coeffs) == 36
    for dense in triples:
        u = [t_poly(field, c) for c in dense]
        table = PowerTable(*u)
        x0, x1 = (BiPoly.monomial(field, (0, 0) + e) for e in ((1, 0, 0), (0, 1, 0)))
        kernel = u[1] * x0 - u[0] * x1        # u1 X0 - u0 X1 vanishes on the curve
        sparse = BiPoly(field, 3, 4, {
            m: Fraction(coeffs[k], k + 2) if field == QQ else coeffs[k] - k
            for k, m in enumerate(rng.sample(monomials_of_bidegree(3, 4), 9))
        })
        for g in (full, linear, sparse):
            assert table.substitute(g) == _substitute_reference(table, g)
        assert not kernel.is_zero() and table.substitute(kernel).is_zero()
        assert _substitute_reference(table, kernel).is_zero()
        zero = table.substitute(BiPoly.zero(field, 2, 3))
        assert zero.is_zero() and zero.bidegree == (2 + 3 * d, 0)
        _check_path(table, path)


def _sum_of_products_routes(pairs, p):
    """(kernel route, Python loop) of poly._sum_of_products on the same
    pairs: the kernel hidden for the second, as without a compiler."""
    if _native.get_kernel() is None:
        pytest.skip("the C kernel is not built (no compiler, or REESCURVE_NO_NATIVE set)")
    got = poly._sum_of_products(pairs, p)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(_native, "get_kernel", lambda: None)
        want = poly._sum_of_products(pairs, p)
    return got, want


def _check_sum_of_products(pairs, p):
    """Both routes give equal dicts with the keys in the same order, residues
    in [1, p), and leave the operands as they were."""
    before = [(dict(x), dict(y)) for x, y in pairs]
    got, want = _sum_of_products_routes(pairs, p)
    assert list(got.items()) == list(want.items())
    assert all(type(c) is int and 0 < c < p for c in got.values())
    assert pairs == before


@st.composite
def _product_pairs(draw, p):
    """Up to 8 pairs of coefficient dicts over F_p: values anywhere in
    (-p, p); each exponent 0, 1 or near MAX_EXPONENT // 2, so that the keys
    of two monomials add without carrying and many products share a key."""
    half = MAX_EXPONENT // 2
    exps = st.sampled_from([0, 1, half - 1, half])
    keys = st.tuples(exps, exps, exps, exps, exps).map(pack)
    values = st.one_of(st.sampled_from([-(p - 1), 0, p - 1]), st.integers(-(p - 1), p - 1))
    dicts = st.dictionaries(keys, values, max_size=10)
    return draw(st.lists(st.tuples(dicts, dicts), max_size=8))


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_kernel_sum_of_products_matches_the_python_loop(field, data):
    """fp_sum_of_products equals the Python product loop, key order included,
    on random pairs over F_p."""
    _check_sum_of_products(data.draw(_product_pairs(field.p)), field.p)


@pytest.mark.parametrize("field", KERNEL_FIELDS, ids=KERNEL_IDS)
def test_kernel_sum_of_products_edges(field):
    """The same on fixed operands: no pair and empty dicts; 21 products
    (one pair) and 17 (one per pair) on one key, all of value (p - 1)^2, so
    the key's 128-bit accumulator is reduced before its 16th product; a sum
    that cancels to zero; exponents at MAX_EXPONENT // 2 in every field."""
    p, half = field.p, MAX_EXPONENT // 2
    n = 20
    row = {pack((a, n - a, 0, 0, 0)): p - 1 for a in range(n + 1)}
    x = {pack((1, 0, 2, 0, 0)): 1, pack((0, 1, 0, 1, 1)): p - 1, pack((0, 1, 2, 0, 0)): 1 - p}
    y = {pack((half, 0, half, 0, 0)): p - 1, pack((0, half, 0, half, 0)): 1,
         pack((half, 0, 0, 0, half)): 1 - p}
    neg_x = {k: -c for k, c in x.items()}
    top = {pack((half,) * 5): p - 1}
    for pairs in [
        [],
        [({}, {})],
        [({}, x), (y, {})],
        [(row, row)],
        [({0: p - 1}, {0: 1 - p})] * 17,
        [(x, y), (neg_x, y)],
        [(x, y), (y, neg_x), (top, top)],
        [(top, x), (y, top), (x, x), (row, y)],
    ]:
        _check_sum_of_products(pairs, p)
    assert _sum_of_products_routes([(x, y), (neg_x, y)], p)[0] == {}
    assert _sum_of_products_routes([(row, row)], p)[0].get(pack((n, n, 0, 0, 0)), 0) == (n + 1) % p


_GOOD_PAIR = ({0: 1}, {1: 2})


@pytest.mark.parametrize(
    "pairs, error",
    [
        ((_GOOD_PAIR,), TypeError),
        ([list(_GOOD_PAIR)], TypeError),
        ([_GOOD_PAIR + ({},)], TypeError),
        ([({0: 1}, [(1, 2)])], TypeError),
        ([({0: 1.0}, {0: 1})], TypeError),
        ([({"X0": 1}, {0: 1})], TypeError),
        ([_GOOD_PAIR, ({0: 1 << 64}, {0: 1})], OverflowError),
        ([({0: 1}, {0: -(1 << 64)})], OverflowError),
        ([({-1: 1}, {0: 1})], OverflowError),
    ],
    ids=["tuple-of-pairs", "list-pair", "triple", "list-operand", "float-value", "str-key",
         "value-2^64", "value--2^64", "negative-key"],
)
def test_kernel_sum_of_products_refuses_a_malformed_argument(pairs, error):
    """A malformed argument raises in the caller (PyDLL checks the error flag
    after each call), and the kernel keeps working."""
    kernel = _native.get_kernel()
    if kernel is None:
        pytest.skip("the C kernel is not built (no compiler, or REESCURVE_NO_NATIVE set)")
    with pytest.raises(error):
        poly._sum_of_products(pairs, FP.p)
    with pytest.raises(ValueError):
        kernel.fp_sum_of_products([_GOOD_PAIR], 1)
    assert poly._sum_of_products([_GOOD_PAIR], FP.p) == {1: 2}


def test_subst_x_rejects_a_foreign_power_table():
    u = [t_poly(QQ, [1, 2]), t_poly(QQ, [0, 1]), t_poly(QQ, [3, 0])]
    other = PowerTable(t_poly(QQ, [1, 0]), *u[1:])
    with pytest.raises(ValueError):
        P("X0").subst_x(*u, powers=other)


def test_subst_t_tautological():
    g = P("T0*X1 - T1*X0")
    assert g.compose(P("X0"), P("X1"), P("X0"), P("X1"), P("X2")).is_zero()


def test_subst_t_degree():
    g = P("T0^2*X1 - T1^2*X0")
    out = g.compose(P("X0*X2"), P("X1^2"), P("X0"), P("X1"), P("X2"))
    assert out.bidegree == (0, 2 * 2 + 1)


def compose_reference(g, images, bidegree):
    """g with each variable replaced by its image, term by term: every term
    is its coefficient times repeated products of the images."""
    F = g.field
    out = BiPoly.zero(F, *bidegree)
    for m, c in g.terms():
        term = BiPoly.constant(F, c)
        for image, e in zip(images, m):
            for _ in range(e):
                term = term * image
        out = out + term
    return out


@pytest.mark.parametrize(
    "field", [QQ, PrimeField(2), PrimeField(3), FP], ids=lambda f: f.name
)
def test_compose_matches_term_by_term_reference(field):
    rng = random.Random(7)

    def scalar():
        if field == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        return rng.randrange(field.p)

    def form(i, j):
        while True:
            f = BiPoly(field, i, j, {m: scalar() for m in monomials_of_bidegree(i, j)})
            if not f.is_zero():
                return f

    tvars = [BiPoly.monomial(field, m) for m in ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0))]
    xvars = [BiPoly.monomial(field, m) for m in
             ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1))]
    for i, j in ((2, 3), (3, 1), (0, 3), (2, 0), (1, 2)):
        g = form(i, j)
        # a linear change of the X coordinates keeps the bidegree
        assert g.compose(*tvars, *xvars) == g
        change = [form(0, 1) for _ in range(3)]
        got = g.compose(*tvars, *change)
        assert got.bidegree == (i, j)
        assert got == compose_reference(g, tvars + change, (i, j))
        # T replaced by X-forms of degree ell: bidegree (0, i * ell + j)
        for ell in (1, 2):
            pair = [form(0, ell), form(0, ell)]
            for xs in (xvars, change):
                got = g.compose(*pair, *xs)
                assert got.bidegree == (0, i * ell + j)
                assert got == compose_reference(g, pair + xs, (0, i * ell + j))
        # the zero form keeps the bidegree its images give it
        zero = BiPoly.zero(field, i, j)
        assert zero.compose(*tvars, *change).bidegree == (i, j)
        out = zero.compose(form(0, 2), form(0, 2), *xvars)
        assert out.is_zero() and out.bidegree == (0, 2 * i + j)
    # pairing T0 X1 - T1 X0 with (X0, X1) is the tautological zero
    g = BiPoly(field, 1, 1, {(1, 0, 0, 1, 0): 1, (0, 1, 1, 0, 0): -1})
    out = g.compose(*xvars[:2], *xvars)
    assert out.is_zero() and out.bidegree == (0, 2)

    # one term, so only the images' own bidegree check can refuse
    g = BiPoly.monomial(field, (2, 0, 2, 0, 0), scalar() or 1)
    with pytest.raises(GradingError):
        g.compose(form(0, 1), form(0, 2), *xvars)
    with pytest.raises(GradingError):
        g.compose(*tvars, xvars[0], xvars[1], form(0, 2))
    with pytest.raises(GradingError):
        g.compose(*tvars, xvars[0], xvars[1], form(1, 1))


def test_resultant_2x2():
    f = P("T0*X0 + T1*X1")
    g = P("T0*X1 - T1*X0")
    assert resultant_t(f, g) == P("X0^2 + X1^2")


def test_resultant_monomial_quintic():
    # the degree-5 curve equation, up to sign
    f = P("T1^2*X0 - T0^2*X1")
    g = P("T1^3*X1 - T0^3*X2")
    r = resultant_t(f, g)
    e = P("X1^5 - X0^3*X2^2")
    assert r.proportional_to(e)


def test_resultant_common_factor_vanishes():
    f = P("T1^2*X0 - T0^2*X1")
    assert resultant_t(f, f).is_zero()


def test_resultant_antisymmetry_sign():
    rng = random.Random(5)
    for _ in range(8):
        s1, s2 = rng.randint(1, 3), rng.randint(1, 3)
        f = BiPoly(QQ, s1, 1, {m: rng.randint(-3, 3) for m in monomials_of_bidegree(s1, 1)})
        g = BiPoly(QQ, s2, 1, {m: rng.randint(-3, 3) for m in monomials_of_bidegree(s2, 1)})
        if f.is_zero() or g.is_zero():
            continue
        lhs = resultant_t(f, g)
        rhs = resultant_t(g, f)
        expect = rhs if (s1 * s2) % 2 == 0 else -rhs
        assert lhs == expect


def test_poly_det_bareiss_matches_scalar_det():
    rng = random.Random(9)
    for n in (2, 3, 4):
        rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        mat = [[BiPoly.constant(QQ, c) for c in row] for row in rows]
        from reescurve.linalg import ExactMatrix

        det = poly_det_bareiss(mat)
        expected = ExactMatrix(QQ, rows).det()
        got = dict(det.terms()).get((0, 0, 0, 0, 0), QQ.zero)
        assert got == expected


def _det_reference(F, mat):
    """Permutation expansion of det(mat) with F.add / F.mul: its coefficients."""
    n = len(mat)
    out = {}
    for perm in permutations(range(n)):
        term = {(0, 0, 0, 0, 0): F.one}
        for r, c in enumerate(perm):
            term = _schoolbook(F, term, dict(mat[r][c].terms()))
        odd = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n)) % 2
        for m, c in term.items():
            out[m] = (F.sub if odd else F.add)(out.get(m, F.zero), c)
    return {m: c for m, c in out.items() if not F.is_zero(c)}


_DET_FIELDS = [QQ, PrimeField(2), PrimeField(3), PrimeField(7), FP]


@st.composite
def _graded_matrix(draw):
    """(row degrees, column degrees, matrix): entry (r, c) has bidegree
    rows[r] + cols[c], so T and X parts mix; empty dicts give zero entries."""
    field = draw(st.sampled_from(_DET_FIELDS))
    n = draw(st.integers(1, 5))
    degs = st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1)), min_size=n, max_size=n)
    rows, cols = draw(degs), draw(degs)
    mat = [
        [draw(_form(field, (rt + ct, rx + cx), size=3)) for ct, cx in cols]
        for rt, rx in rows
    ]
    return rows, cols, mat


def _given_matrix(field, texts, rows, cols):
    mat = [
        [P(s, rt + ct, rx + cx, field=field) for s, (ct, cx) in zip(line, cols)]
        for line, (rt, rx) in zip(texts, rows)
    ]
    return rows, cols, mat


_NEEDS_SWAP = _given_matrix(    # rows of three bidegrees, zero pivot first
    QQ,
    [["0", "X0 + 1/2*X1", "T1*X2"],
     ["T1*X0", "X0*X2 - 2*X1^2", "-T0*X1*X2 + 1/3*T1*X1^2"],
     ["2/3*T0*T1", "T1*X2", "T0^2*X0 - 5/7*T1^2*X2"]],
    [(0, 0), (0, 1), (1, 0)], [(1, 0), (0, 1), (1, 1)],
)
_SINGULAR = _given_matrix(     # third row = T0 * first + T1 * second
    PrimeField(7),
    [["X0", "X1 + 3*X2", "2*X0 + X2"],
     ["X2", "X0", "5*X1"],
     ["T0*X0 + T1*X2", "T0*X1 + 3*T0*X2 + T1*X0", "2*T0*X0 + T0*X2 + 5*T1*X1"]],
    [(0, 1), (0, 1), (1, 1)], [(0, 0)] * 3,
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_graded_matrix())
@example(_NEEDS_SWAP)
@example(_SINGULAR)
def test_det_matches_leibniz_reference(case):
    """The packed-int Bareiss determinant equals the permutation expansion,
    coefficient by coefficient, with the graded bidegree when nonzero and no
    stored zero coefficient."""
    rows, cols, mat = case
    F = mat[0][0].field
    det = poly_det_bareiss(mat)
    assert dict(det.terms()) == _det_reference(F, mat)
    if det.coeffs:
        assert det.bidegree == (
            sum(r[0] for r in rows) + sum(c[0] for c in cols),
            sum(r[1] for r in rows) + sum(c[1] for c in cols),
        )
    assert all(not F.is_zero(c) and F.coerce(c) == c and type(c) is type(F.one)
               for c in det.coeffs.values())


def test_det_edge_cases():
    with pytest.raises(GradingError):
        poly_det_bareiss([[P("X0"), P("X1")], [P("X0*X1"), P("X2")]])
    with pytest.raises(ValueError, match="empty matrix"):
        poly_det_bareiss([])
    f = P("1/2*T0*X1 - 3*T1*X2")
    det = poly_det_bareiss([[f]])
    assert det == f and det.bidegree == f.bidegree
    z = BiPoly.zero(QQ, 0, 1)
    det = poly_det_bareiss([[z, P("X0")], [z, P("X1")]])   # no pivot in column 0
    assert det.is_zero() and det.bidegree == (0, 2)
    # a row swap at step 0, then no pivot in column 1: the zero carries the
    # summed bidegrees of the diagonal as the elimination left it
    mat = [[z, z, P("X0")],
           [P("X1^2"), P("X1*X2"), P("X0^2")],
           [P("T0*X1^3"), P("T0*X1^2*X2"), P("T1*X2^3")]]
    det = poly_det_bareiss(mat)
    assert det.is_zero() and det.bidegree == (1, 10)


def _sylvester_rows(f, g):
    """The Sylvester matrix of resultant_t: shifts of g on top, then of f."""
    n = f.tdeg + g.tdeg
    rows = []
    for h, shifts in ((g, f.tdeg), (f, g.tdeg)):
        s = h.tdeg
        for r in range(shifts):
            row = [BiPoly.zero(h.field, 0, h.xdeg)] * n
            for a in range(s + 1):
                row[r + a] = h.t_coefficient(s - a, a)
            rows.append(row)
    return rows


@st.composite
def _resultant_case(draw):
    """(f, g) with an argument of T-degree 1 or 2, on either side: its T1^2
    or its T0^2 and T1^2 coefficients dropped, or a T-linear factor shared
    with the other argument (a zero resultant)."""
    field = draw(st.sampled_from(_DET_FIELDS))
    low, s = draw(st.integers(1, 2)), draw(st.integers(1, 4))
    jl, jg = draw(st.integers(0, 2)), draw(st.integers(0, 2))
    f, g = draw(_form(field, (low, jl), size=6)), draw(_form(field, (s, jg), size=6))
    if low == 2:
        drop = draw(st.sampled_from([(), (2,), (0, 2)]))
        f = BiPoly(field, 2, jl, {m: c for m, c in f.terms() if m[1] not in drop})
    if draw(st.booleans()):
        h = draw(_form(field, (1, draw(st.integers(0, 1))), size=4))
        f = h * draw(_form(field, (low - 1, jl), size=4))
        g = h * draw(_form(field, (s - 1, jg), size=4))
    return (g, f) if draw(st.booleans()) else (f, g)


def _given_pair(field, f, g):
    return P(f, field=field), P(g, field=field)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_resultant_case())
@example(_given_pair(QQ, "1/2*T0^2*X0 - 2/3*T0*T1*X1", "T0^3*X2 + 3*T1^3*X0 - T0*T1^2*X1"))
@example(_given_pair(PrimeField(2), "T0*T1*X0", "T0^2*X1 + T0*T1*X2 + T1^2*X0"))
@example(_given_pair(PrimeField(3), "T0^2*X1 + 2*T1^2*X0", "T0*X2 + T1*X1"))
@example(_given_pair(FP, "T0*X0 - 5*T1*X1", "2*T0*X2 + T1*X0"))
@example(_given_pair(PrimeField(7), "T0^4*X0 + T1^4*X1", "T0*T1*X2 + 3*T1^2*X2"))
@example(_given_pair(QQ, "T0^2*X0 - T1^2*X0", "1/5*T0^2*X1 + 1/5*T0*T1*X1"))
def test_resultant_matches_the_sylvester_determinant(case):
    """resultant_t equals Bareiss on the Sylvester matrix, sign included, with
    bidegree (0, s2*j1 + s1*j2) and no stored zero coefficient."""
    f, g = case
    assume(not f.is_zero() and not g.is_zero())
    F = f.field
    res = resultant_t(f, g)
    assert res == poly_det_bareiss(_sylvester_rows(f, g))
    assert res.bidegree == (0, g.tdeg * f.xdeg + f.tdeg * g.xdeg)
    assert all(not F.is_zero(c) and F.coerce(c) == c and type(c) is type(F.one)
               for c in res.coeffs.values())


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_det_runs_no_bipoly_arithmetic(field, monkeypatch):
    """poly_det_bareiss and resultant_t multiply and divide no BiPoly."""
    f = P("1/2*T0^2*X0 - T0*T1*X1 + 3*T1^2*X2", field=field)
    g = P("T0^3*X1 + 2/5*T0^2*T1*X2 - T1^3*X0 + T0*T1^2*X2", field=field)
    rows = _sylvester_rows(f, g)
    want = _det_reference(field, rows)
    assert want

    def refuse(*args):
        raise AssertionError("BiPoly arithmetic inside the determinant")

    monkeypatch.setattr(BiPoly, "__mul__", refuse)
    monkeypatch.setattr(BiPoly, "exact_div", refuse)
    for det in (poly_det_bareiss(rows), resultant_t(f, g)):
        assert dict(det.terms()) == want and det.bidegree == (0, 5)


def test_monomial_enumeration():
    mons = monomials_of_bidegree(1, 2)
    assert len(mons) == (1 + 1) * (2 + 1) * (2 + 2) // 2 == 12
    assert mons == sorted(mons, reverse=True)
    assert x_monomials(1) == [(0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)]


def test_text_round_trip():
    rng = random.Random(4)
    mons = monomials_of_bidegree(2, 3)
    for field in (QQ, FP):
        for _ in range(10):
            f = BiPoly(field, 2, 3, {m: rng.randint(-5, 5) for m in mons[:6]})
            assert parse_bipoly(field, f.text(), 2, 3) == f or f.is_zero()
    assert P("0", 1, 1).is_zero()


def test_normalized_leading_coefficient():
    f = P("3*T0*X1 - 6*T1*X0")
    g = f.normalized()
    lead_mono, lead_coeff = g.terms()[0]
    assert lead_coeff == 1
    assert lead_mono == (1, 0, 0, 1, 0)


def test_tpoly_gcd():
    f = t_poly(QQ, [1, 1]) * t_poly(QQ, [1, 0])   # (T0+T1)*T0
    g = t_poly(QQ, [1, 1]) * t_poly(QQ, [0, 1])   # (T0+T1)*T1
    assert tpoly_gcd(f, g) == t_poly(QQ, [1, 1])
    assert tpoly_gcd(t_poly(QQ, [1, 0]), t_poly(QQ, [0, 1])) == t_poly(QQ, [1])


def test_tpoly_gcd_over_fp():
    f = t_poly(FP, [1, 1]) * t_poly(FP, [1, 2, 1])
    g = t_poly(FP, [1, 1]) * t_poly(FP, [1, 3])
    assert tpoly_gcd(f, g).proportional_to(t_poly(FP, [1, 1]))


def test_exact_div_round_trip():
    """Over Q with integer coefficients, then with fractions (divisors with
    a content and denominators: exact_div divides integer numerators by the
    divisor's primitive part), and over F_p."""
    rng = random.Random(8)
    small = lambda: rng.randint(-3, 3)
    fraction = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
    for field, scalar in ((QQ, small), (QQ, fraction), (FP, small)):
        for _ in range(10):
            f = BiPoly(field, 1, 1, {m: scalar() for m in monomials_of_bidegree(1, 1)})
            g = BiPoly(field, 2, 1, {m: scalar() for m in monomials_of_bidegree(2, 1)})
            if f.is_zero() or g.is_zero():
                continue
            prod = f * g
            assert prod.exact_div(f) == g
            assert prod.exact_div(g) == f
            with pytest.raises(InexactDivision):
                (prod + P("T0^3*X0^2", field=field)).exact_div(f * f)
