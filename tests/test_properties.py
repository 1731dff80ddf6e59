"""Property-based invariants for the polynomial and linear-algebra layers."""
import random
from hypothesis import given, settings, strategies as st

from curves import mul_vec
from reescurve.fields import DEFAULT_PRIME, PrimeField, QQ
from reescurve.linalg import ExactMatrix
from reescurve.poly import (
    BiPoly,
    monomials_of_bidegree,
    resultant_t,
    t_poly,
    tpoly_dense,
    tpoly_gcd,
)

FP = PrimeField(DEFAULT_PRIME)

small_int = st.integers(min_value=-6, max_value=6)


def bipoly_strategy(i, j, field=QQ):
    mons = monomials_of_bidegree(i, j)
    return st.lists(small_int, min_size=len(mons), max_size=len(mons)).map(
        lambda cs: BiPoly(field, i, j, dict(zip(mons, cs)))
    )


@settings(max_examples=60, deadline=None)
@given(bipoly_strategy(1, 1), bipoly_strategy(2, 1))
def test_mul_respects_grading(f, g):
    prod = f * g
    assert prod.bidegree == (3, 2) or prod.is_zero()
    for m, _ in prod.terms():
        assert m[0] + m[1] == 3 and m[2] + m[3] + m[4] == 2


@settings(max_examples=60, deadline=None)
@given(bipoly_strategy(1, 1), bipoly_strategy(1, 1))
def test_add_commutes(f, g):
    assert f + g == g + f


@settings(max_examples=40, deadline=None)
@given(
    bipoly_strategy(1, 1),
    bipoly_strategy(1, 2),
    st.lists(small_int, min_size=9, max_size=9),
)
def test_substitution_multiplicative(f, g, ucs):
    u = [t_poly(QQ, ucs[3 * v : 3 * v + 3]) for v in range(3)]
    if any(x.is_zero() for x in u):
        return
    assert (f * g).subst_x(*u) == f.subst_x(*u) * g.subst_x(*u)


@settings(max_examples=40, deadline=None)
@given(bipoly_strategy(1, 1), bipoly_strategy(2, 1))
def test_resultant_antisymmetry(f, g):
    if f.is_zero() or g.is_zero():
        return
    lhs = resultant_t(f, g)
    rhs = resultant_t(g, f)
    s = f.tdeg * g.tdeg
    assert lhs == (rhs if s % 2 == 0 else -rhs)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_int, min_size=5, max_size=5), min_size=3, max_size=4))
def test_nullspace_annihilates(rows):
    m = ExactMatrix(QQ, rows)
    for v in m.nullspace():
        assert all(x == 0 for x in mul_vec(m, v))
    assert m.rank() + len(m.nullspace()) == m.ncols


@settings(max_examples=30, deadline=None)
@given(
    st.lists(st.lists(small_int, min_size=5, max_size=5), min_size=4, max_size=4),
    st.permutations(range(4)),
)
def test_rank_permutation_invariance(rows, perm):
    m1 = ExactMatrix(FP, rows)
    m2 = ExactMatrix(FP, [rows[p] for p in perm])
    assert m1.rank() == m2.rank()
    assert m1.rref() == m2.rref()


def _multiplication_rank(a, b, s, field):
    """Rank of (A, B) -> A a + B b from degree s - s0 pairs into degree s."""
    s0 = a.tdeg
    da, db = tpoly_dense(a), tpoly_dense(b)
    cols = []
    for dv in (da, db):
        for off in range(s - s0 + 1):
            col = [field.zero] * (s + 1)
            for t, c in enumerate(dv):
                col[off + t] = c
            cols.append(col)
    rows = [[cols[c][r] for c in range(len(cols))] for r in range(s + 1)]
    return ExactMatrix(field, rows).rank()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.lists(small_int, min_size=4, max_size=4),
    st.lists(small_int, min_size=4, max_size=4),
)
def test_coprime_pair_saturates(s0, ca, cb):
    a = t_poly(QQ, ca[: s0 + 1])
    b = t_poly(QQ, cb[: s0 + 1])
    if a.is_zero() or b.is_zero():
        return
    if tpoly_gcd(a, b).tdeg != 0:
        return
    for s in (2 * s0 - 1, 2 * s0):
        assert _multiplication_rank(a, b, s, QQ) == s + 1


def test_seeded_bulk_smoke():
    """A smaller sibling of the acceptance property sweep (fast)."""
    rng = random.Random(0)
    mons11 = monomials_of_bidegree(1, 1)
    for _ in range(100):
        f = BiPoly(FP, 1, 1, {m: rng.randrange(FP.p) for m in mons11})
        g = BiPoly(FP, 1, 1, {m: rng.randrange(FP.p) for m in mons11})
        if f.is_zero() or g.is_zero():
            continue
        assert resultant_t(f, g) == resultant_t(g, f).scale(-1)
