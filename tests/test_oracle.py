"""Brute-force graded oracle: kernels, minimal-generator table, membership."""
import random
from fractions import Fraction

import pytest

from curves import monomial_odd, predicted_multiset
from reescurve.errors import PreconditionError
from reescurve.fields import DEFAULT_PRIME, PrimeField, QQ
from reescurve.oracle import (
    Oracle,
    ideal_piece_membership,
    independent_mod,
    kernel_basis,
    mingen_table,
)
from reescurve.poly import EXP_MASK, T1_SHIFT, X_MASK, BiPoly, parse_bipoly
from reescurve.syzygy import implicit_equation, mu_basis, parametrization

FP = PrimeField(DEFAULT_PRIME)


def test_kernel_0_d_is_the_curve_equation():
    par = monomial_odd(3)
    piece = kernel_basis(par, 0, 5)
    assert piece.dimension == 1
    assert piece.basis[0].proportional_to(parse_bipoly(QQ, "X1^5 - X0^3*X2^2"))
    # below degree d nothing vanishes
    orc = Oracle(par)
    for j in range(1, 5):
        assert orc.kernel_dim(0, j) == 0


def test_kernel_dimensions_quintic():
    orc = Oracle(monomial_odd(3))
    assert orc.kernel_dim(1, 2) == 1
    assert orc.kernel_basis(1, 2).basis[0].proportional_to(
        parse_bipoly(QQ, "T1*X1^2 - T0*X0*X2")
    )
    assert orc.kernel_dim(1, 3) == 4


def test_kernel_elements_substitute_to_zero():
    par = monomial_odd(4, FP)
    orc = Oracle(par)
    for (i, j) in [(1, 3), (2, 2), (3, 1), (0, 7)]:
        for b in orc.kernel_basis(i, j).basis:
            assert b.subst_x(*par.triple).is_zero()
            assert b.bidegree == (i, j)


def test_multiplication_monotonicity():
    orc = Oracle(monomial_odd(3))
    for i, j in [(1, 2), (2, 2), (1, 3), (2, 3)]:
        assert orc.kernel_dim(i - 1, j) <= orc.kernel_dim(i, j)
        assert orc.kernel_dim(i, j - 1) <= orc.kernel_dim(i, j)


def test_mingen_table_quintic():
    table = mingen_table(monomial_odd(3))
    assert table.counts == {(0, 5): 1, (2, 1): 1, (3, 1): 1, (1, 2): 1, (1, 3): 1}
    assert table.total() == 5 == (5 + 5) // 2
    assert table.multiset() == predicted_multiset(5, "very-singular")
    assert table.boundary_hits() == []


def test_mingen_table_mu_property():
    orc = Oracle(monomial_odd(3))
    assert orc.mu == 2 == mu_basis(monomial_odd(3)).mu


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_membership_multiples_and_nonmembers(field):
    par = monomial_odd(3, field)
    mb = mu_basis(par)
    t0 = parse_bipoly(field, "T0")
    assert ideal_piece_membership(t0 * mb.p, [mb.p])
    x2 = parse_bipoly(field, "X2")
    assert ideal_piece_membership(x2 * mb.p, [mb.p])
    e = implicit_equation(mb).equation
    assert not ideal_piece_membership(e, [mb.p])


@pytest.mark.parametrize("field", [QQ, FP], ids=["q", "fp"])
def test_independent_mod_refuses_forms_of_two_bidegrees(field):
    """Q has bidegree (3, 1) and T0*X1*P bidegree (3, 2): no verdict."""
    mb = mu_basis(monomial_odd(3, field))
    other = parse_bipoly(field, "T0*X1") * mb.p
    with pytest.raises(PreconditionError, match="same_bidegree"):
        independent_mod([mb.q, other], [mb.p])


def test_membership_zero_raises_no_surprise():
    par = monomial_odd(3)
    mb = mu_basis(par)
    z = BiPoly.zero(QQ, 3, 2)
    assert ideal_piece_membership(z, [mb.p])


def test_table_deterministic_across_runs():
    par = monomial_odd(4, FP)
    t1 = Oracle(par).mingen_table()
    t2 = Oracle(par).mingen_table()
    assert t1.counts == t2.counts


def test_fp_and_q_tables_agree_on_small_curve():
    coeffs = ([1, 0, 0, 0, 0, 2], [0, 1, 0, 3, 0, 0], [0, 0, 0, 0, 0, 1])
    parq = parametrization(QQ, *coeffs)
    parp = parametrization(FP, *coeffs)
    if mu_basis(parq).mu == 2:
        tq = mingen_table(parq)
        tp = mingen_table(parp)
        assert tq.counts == tp.counts


def test_q_oracle_ignores_a_rational_scaling():
    """Over Q the slice matrices are built from the primitive integer triple
    (scale^j times the true ones), so dividing the curve by a constant changes
    no kernel basis and no table count."""
    coeffs = (
        [1, 0, Fraction(1, 2), 0, 0, 2],
        [0, 1, 0, 3, 0, 0],
        [0, Fraction(-2, 3), 0, 0, 0, 1],
    )
    par = parametrization(QQ, *coeffs)
    c = Fraction(7, 12)
    scaled = parametrization(QQ, *[[x / c for x in u] for u in coeffs])
    a, b = Oracle(par), Oracle(scaled)
    assert a.powers is par.powers
    dims = 0
    for cell in [(1, 2), (2, 2), (1, 3), (0, 5)]:
        basis = a.kernel_basis(*cell).basis
        assert basis == b.kernel_basis(*cell).basis
        assert all(par.substitute(g).is_zero() for g in basis)
        dims += len(basis)
    assert dims > 0
    assert a.mingen_table().counts == b.mingen_table().counts


def test_mingen_count_and_kernel_rows_match_term_by_term_builds():
    """mingen_count equals the count from the multiples T0·b, T1·b, X_l·b
    of the kernel bases, built as BiPoly products and stacked row by row.
    Each slice's raw kernel rows, normalized, must be the nullspace of the
    substitution matrix built term by term."""
    from reescurve.linalg import ExactMatrix, RowReducer, normalized
    from reescurve.poly import monomials_of_bidegree, tpoly_dense
    from reescurve.sampling import sample_mild

    for d, (i, j) in [(5, (2, 2)), (7, (4, 5))]:
        sample = sample_mild(FP, d, random.Random(9))
        orc = Oracle(sample.par)
        # recompute one cell from the products, one row at a time
        n = orc.kernel_dim(i, j)
        monomials = monomials_of_bidegree(i, j)
        red = RowReducer(FP, len(monomials))
        for (ii, jj, mul) in [
            (i - 1, j, parse_bipoly(FP, "T0")),
            (i - 1, j, parse_bipoly(FP, "T1")),
            (i, j - 1, parse_bipoly(FP, "X0")),
            (i, j - 1, parse_bipoly(FP, "X1")),
            (i, j - 1, parse_bipoly(FP, "X2")),
        ]:
            for b in orc.kernel_basis(ii, jj).basis:
                red.add_row((mul * b).to_vector(monomials))
        assert orc.mingen_count(i, j) == n - red.rank

        cols = [
            tpoly_dense(BiPoly.monomial(FP, m).subst_x(*sample.par.triple))
            for m in monomials
        ]
        null = ExactMatrix(FP, [list(row) for row in zip(*cols)]).nullspace()
        assert len(null) == n
        assert [normalized(FP, r) for r in orc.kernel_rows(i, j)] == null
        assert [b.to_vector(monomials) for b in orc.kernel_basis(i, j).basis] == null


def _sampled_mirror(kind, d, seed):
    from reescurve.report import mirror_to_prime_field
    from reescurve.sampling import sample_mild, sample_very_singular

    sampler = sample_mild if kind == "mild" else sample_very_singular
    parq = sampler(QQ, d, random.Random(seed)).par
    return parq, mirror_to_prime_field(parq)


@pytest.mark.parametrize("kind, d, jbox", [("very-singular", 7, 5), ("mild", 8, 4)])
def test_oracle_agrees_across_cores(kind, d, jbox, monkeypatch):
    """Native core, the no-compiler core over F_p and Q give the same table
    and kernel bases.

    The native table is checked whole against the theorems; the slower
    generic core over F_p (its packed label) and the modular core over Q on
    the boxes j <= jbox and j <= 3 of the same table.  The no-kernel mirror is sampled
    with the kernel hidden, so its power table is built by Kronecker
    products, not by the kernel."""
    from reescurve import _native

    if _native.get_kernel() is None:
        pytest.skip("no C compiler: the native core is not built")
    parq, parp = _sampled_mirror(kind, d, 3)
    cells = [(2, 1), (2, 3), (d - 2, 1), (0, d)]
    native = Oracle(parp)
    table = native.mingen_table()
    assert table.multiset() == predicted_multiset(d, kind)
    assert native.powers.kernel is not None

    def within(jmax):
        return {c: n for c, n in table.counts.items() if c[1] <= jmax}

    with monkeypatch.context() as m:
        m.setattr(_native, "get_kernel", lambda: None)
        packed = Oracle(_sampled_mirror(kind, d, 3)[1])
        assert packed.powers is not parp.powers and packed.powers.kernel is None
        assert packed.mingen_table(d - 2, jbox).counts == within(jbox)
        for c in cells:
            assert packed.kernel_basis(*c).basis == native.kernel_basis(*c).basis
    qorc = Oracle(parq)
    assert qorc.mingen_table(d - 2, 3).counts == within(3)
    for c in cells:
        qb = qorc.kernel_basis(*c).basis
        nb = native.kernel_basis(*c).basis
        assert len(qb) == len(nb) > 0
        for fq, fp in zip(qb, nb):
            assert {m: FP.coerce(v) for m, v in fq.coeffs.items()} == fp.coeffs


@pytest.mark.parametrize("core", ["native", "packed", "q"])
def test_kernel_slice_membership(core, monkeypatch):
    """Oracle.contains accepts kernel elements and refuses everything else.
    The core parameter picks the core that builds the slices behind
    kernel_basis/_slice_reducer and the zero-form answers (dim K_{i,j} > 0):
    "packed" is the generic core over F_p with the kernel hidden, under its
    _FpPackedCore label, and "q" the certified modular core.  A nonzero form
    is tested by a product with no elimination."""
    from reescurve import _native
    from reescurve.linalg import _FpNativeCore, _FpPackedCore
    from reescurve.modular import _ModularCore

    parq, parp = _sampled_mirror("mild", 6, 3)
    if core == "native" and _native.get_kernel() is None:
        pytest.skip("no C compiler: the native core is not built")
    if core == "packed":
        monkeypatch.setattr(_native, "get_kernel", lambda: None)
    par = parq if core == "q" else parp
    F = par.field
    orc = Oracle(par)
    mb = mu_basis(par)
    eq = implicit_equation(mb).equation
    members = [mb.p, mb.q, eq, BiPoly.zero(F, 2, 1)] + orc.kernel_basis(2, 2).basis
    for g in members:
        assert orc.contains(g), g.text()
    kind = {"native": _FpNativeCore, "packed": _FpPackedCore, "q": _ModularCore}[core]
    assert isinstance(orc._slice_reducer(2, 1)._core, kind)
    for g in (mb.p, mb.q, eq):
        i, j = g.bidegree
        assert not orc.contains(g + BiPoly.monomial(F, (i, 0, j, 0, 0)))
    # j = 0 forms never vanish on the curve; below mu the (s, 1) slices are empty
    assert not orc.contains(parse_bipoly(F, "T0^3 + T1^3"))
    assert not orc.contains(parse_bipoly(F, "T0*X0 - T1*X2"))
    assert not orc.contains(BiPoly.zero(F, 1, 1))


@pytest.mark.parametrize("field", ["fp", "q"])
def test_contains_matches_a_span_test_against_the_kernel_basis(field, monkeypatch):
    """Oracle.contains equals a brute-force span test against kernel_basis on
    random combinations of basis elements (with and without an off-kernel
    monomial) and on Q forms with non-integer coefficients.  A nonzero form
    is answered by a product alone: with every reducer refused, no slice is
    built."""
    from reescurve import linalg
    from reescurve.linalg import RowReducer
    from reescurve.poly import monomials_of_bidegree

    parq, parp = _sampled_mirror("mild", 6, 3)
    if field == "q":   # a non-primitive, non-integer triple: scale != 1
        c = Fraction(5, 3)
        parq = parametrization(QQ, *[u.scale(c) for u in parq.triple])
    par = parq if field == "q" else parp
    F = par.field
    rng = random.Random(11)

    def scalar():
        if F == QQ:
            return Fraction(rng.randint(-9, 9), rng.randint(1, 8))
        return rng.randrange(F.p)

    ref = Oracle(par)
    cases = []            # (form, answer of the span test)
    for cell in [(2, 1), (2, 2), (1, 4), (4, 1), (3, 3), (0, 6)]:
        basis = ref.kernel_basis(*cell).basis
        assert basis, cell
        monomials = monomials_of_bidegree(*cell)
        vectors = [b.to_vector(monomials) for b in basis]
        forms = [basis[0].scale(Fraction(2, 3)) + basis[-1].scale(Fraction(-1, 7))]
        for _ in range(4):
            g = BiPoly.zero(F, *cell)
            for b in basis:
                g = g + b.scale(scalar())
            forms += [g, g + BiPoly.monomial(F, rng.choice(monomials), scalar() or 1)]
        for g in forms:
            if not g.is_zero():
                span = RowReducer(F, len(monomials))
                span.add_rows(vectors)
                cases.append((g, not span.add_row(g.to_vector(monomials))))
    assert {want for _, want in cases} == {True, False}
    # the zero form: True exactly when its slice is nonempty
    assert ref.contains(BiPoly.zero(F, 2, 2))
    assert not ref.contains(BiPoly.zero(F, 1, 1))
    assert ref.kernel_dim(1, 1) == 0 < ref.kernel_dim(2, 2)

    def refuse(*args):
        raise AssertionError("a reducer was built")

    monkeypatch.setattr(linalg, "_make_core", refuse)
    orc = Oracle(par)
    for g, want in cases:
        assert orc.contains(g) is want, g.text()
    assert not orc.contains(parse_bipoly(F, "T0^3 + T1^3"))       # j = 0
    assert not orc.contains(parse_bipoly(F, "2*T0^2"))
    assert orc._kernels == {}


def _schoolbook_sum(terms, powers, n):
    """sum c·T1^a1·u^b over terms, coefficient by coefficient."""
    out = [0] * n
    for m, c in terms.items():
        a1 = m >> T1_SHIFT & EXP_MASK
        for k, v in enumerate(powers[m & X_MASK]):
            out[a1 + k] += c * v
    return out


@pytest.mark.parametrize("route", ["native", "hidden", "q"])
def test_product_sum_packs_multiplies_and_unpacks_every_slot(route, monkeypatch):
    """_product_sum, the pack -> multiply -> unpack step of Oracle.contains,
    on hand-built terms and powers, slot by slot against the schoolbook sum,
    at the slot width of each route: PowerTable.slot_bytes on the C kernel
    ("native", array('Q') powers) and with the kernel hidden, and signed
    one-byte slots over Q.  Cases: a sum nonzero only in the first slot, one
    nonzero only in the last; over Q a nonzero slot between negative ones
    (each borrows from the next); over F_p all coefficients p - 1 on the
    largest term count of a d = 8 report (bidegree (2, 5), 63 terms), so the
    middle slots hold their largest sums."""
    from array import array

    from reescurve import _native
    from reescurve.oracle import _product_sum
    from reescurve.poly import _pack_slots, pack, x_monomials

    if route == "native" and _native.get_kernel() is None:
        pytest.skip("no C compiler: the native core is not built")
    if route == "hidden":
        monkeypatch.setattr(_native, "get_kernel", lambda: None)
    F = QQ if route == "q" else FP
    table = monomial_odd(3, F).powers
    assert (table.kernel is not None) == (route == "native")
    p = table.modulus
    neg = -1 if p is None else p - 1
    b1, b2 = pack((0, 0, 1, 0, 0)), pack((0, 0, 0, 1, 0))

    def key(i, a1, b):          # T0^(i-a1) T1^a1 X^b
        return pack((i - a1, a1, 0, 0, 0)) | b

    # (terms, powers, expected nonzero slots); T-degree 1 and 4 slots first
    cases = [
        ({key(1, 0, b1): 1, key(1, 0, b2): neg}, {b1: [5, 7, 9], b2: [0, 7, 9]}, [0]),
        ({key(1, 1, b1): 1, key(1, 1, b2): neg}, {b1: [5, 7, 9], b2: [5, 7, 0]}, [3]),
    ]
    if p is None:
        cases.append(({key(1, 0, b1): 1, key(1, 1, b2): -2},
                      {b1: [-4, 6, -1], b2: [1, -3, 2]}, [0, 1, 2, 3]))
    else:
        xs = [pack(m) for m in x_monomials(5)]
        top = {key(2, a1, b): p - 1 for a1 in range(3) for b in xs}
        assert len(top) == 63
        cases.append((top, {b: [p - 1] * 41 for b in xs}, list(range(43))))
    for terms, powers, nonzero in cases:
        n = max(m >> T1_SHIFT & EXP_MASK for m in terms) + len(next(iter(powers.values())))
        want = _schoolbook_sum(terms, powers, n)
        if p is None:
            nbytes = 1
            assert max(map(abs, want)) < 1 << 7
        else:
            nbytes = table.slot_bytes(terms)
            assert len(terms) * (p - 1) ** 2 < 1 << 8 * nbytes
            want = [v % p for v in want]
        assert [k for k, v in enumerate(want) if v] == nonzero
        if route == "native":
            powers = {b: array("Q", pw) for b, pw in powers.items()}
        got = _product_sum(terms, lambda b, nb: _pack_slots(powers[b], nb, p), n, nbytes, p)
        assert got == want
    if p is None:
        assert want == [-4, 4, 5, -4]


def _reference_counts(par, imax, jmax):
    """The table cell by cell, straight from the definition (mingen_count)."""
    orc = Oracle(par)
    cells = [(i, j) for j in range(jmax + 1) for i in range(imax + 1) if (i, j) != (0, 0)]
    counts = {cell: orc.mingen_count(*cell) for cell in cells}
    return {cell: c for cell, c in counts.items() if c}


def _within(counts, imax, jmax):
    return {(i, j): c for (i, j), c in counts.items() if i <= imax and j <= jmax}


@pytest.mark.parametrize(
    "spec", ["fp:2", "fp:3", "fp:7", f"fp:{DEFAULT_PRIME}", f"fp:{(1 << 127) - 1}"]
)
def test_mingen_table_equals_the_cellwise_reference(spec, monkeypatch):
    """The table read from one order basis per j equals mingen_count cell by
    cell, for both classes at d = 5..8, on the box (d - mu, d) and one
    larger: on the C kernel, then with the kernel hidden (the Python order
    basis, on curves sampled again without it).  Over p = 2^127 - 1 the
    kernel never serves and the reference runs on the generic core, so
    d <= 6 keeps it quick."""
    from reescurve import _native
    from reescurve.fields import field_from_spec
    from reescurve.sampling import sample_mild, sample_very_singular

    F = field_from_spec(spec)
    dmax = 8 if F.p < _native.P_BOUND else 6
    cases = [(d, sampler) for d in range(5, dmax + 1) for sampler in (sample_mild, sample_very_singular)]
    refs = []
    for d, sampler in cases:
        par = sampler(F, d, random.Random(d)).par
        box = (d - Oracle(par).mu, d)
        ref = _reference_counts(par, box[0] + 1, box[1] + 1)
        assert ref
        refs.append((box, ref))

    def check():
        for (d, sampler), (box, ref) in zip(cases, refs):
            par = sampler(F, d, random.Random(d)).par
            for imax, jmax in (box, (box[0] + 1, box[1] + 1)):
                table = Oracle(par).mingen_table(imax, jmax)
                assert table.counts == _within(ref, imax, jmax), (spec, d, sampler)
        return par.powers.kernel

    check()
    monkeypatch.setattr(_native, "get_kernel", lambda: None)
    assert check() is None


@pytest.mark.parametrize("spec", ["fp:2", "fp:3", "fp:7", f"fp:{DEFAULT_PRIME}"])
def test_order_basis_is_the_same_in_c_and_python(spec, monkeypatch):
    """fp_order_basis and its Python version return the same degrees and
    leading coefficient rows for every j, for both classes at d = 5..8."""
    from reescurve import _native
    from reescurve.fields import field_from_spec
    from reescurve.sampling import sample_mild, sample_very_singular

    if _native.get_kernel() is None:
        pytest.skip("no C compiler: the native order basis is not built")
    F = field_from_spec(spec)

    def bases(native):
        out = []
        for d in range(5, 9):
            for sampler in (sample_mild, sample_very_singular):
                orc = Oracle(sampler(F, d, random.Random(d)).par)
                assert (orc.powers.kernel is not None) is native
                imax = d - orc.mu
                for j in range(1, d + 1):
                    deltas, lcs = orc._order_basis(imax, j)
                    out.append((deltas, [list(row) for row in lcs]))
        return out

    native = bases(True)
    monkeypatch.setattr(_native, "get_kernel", lambda: None)
    assert bases(False) == native


@pytest.mark.parametrize("spec", ["fp:3", f"fp:{DEFAULT_PRIME}"])
def test_tower_levels_span_the_blocks_of_the_top_slice(spec):
    """E_{i,j} from the order basis (the rows of levels 0..i) spans the T1^i
    blocks of the kernel rows of slice (imax, j) whose free (trailing)
    column lies in block i, for every (i, j)."""
    from reescurve.fields import field_from_spec
    from reescurve.linalg import RowReducer
    from reescurve.sampling import sample_mild, sample_very_singular

    F = field_from_spec(spec)

    def rref(rows, n):
        red = RowReducer(F, n)
        red.add_rows(rows)
        return red.rref()

    for d in (6, 7):
        for sampler in (sample_mild, sample_very_singular):
            orc = Oracle(sampler(F, d, random.Random(d)).par)
            imax = d - orc.mu
            for j in range(1, d + 1):
                nx = (j + 1) * (j + 2) // 2
                levels = orc._tower(imax, j)
                kernel = orc.kernel_rows(imax, j)
                trailing = [max(c for c, x in enumerate(row) if x) for row in kernel]
                for i in range(imax + 1):
                    tower = [row for level in levels[: i + 1] for row in level]
                    blocks = [
                        row[i * nx : (i + 1) * nx]
                        for row, f in zip(kernel, trailing) if f // nx == i
                    ]
                    assert len(tower) == len(blocks), (d, i, j)
                    assert rref(tower, nx) == rref(blocks, nx), (d, i, j)


def test_an_inconsistent_tower_fails_verification(monkeypatch, tmp_path, capsys):
    """A tower with a level-0 row duplicated at j = d claims dim E_{0,d} = 2,
    which the curve equation alone cannot span: mingen_table raises
    VerificationError, and gens on the curve exits 3 without a report."""
    import json

    from reescurve import cli
    from reescurve.errors import VerificationError
    from reescurve.sampling import sample_very_singular

    original = Oracle._tower

    def corrupted(self, imax, j):
        levels = original(self, imax, j)
        if j == self.d:
            levels[0].append(levels[0][0])
        return levels

    monkeypatch.setattr(Oracle, "_tower", corrupted)
    with pytest.raises(VerificationError, match="E_\\(0,7\\)"):
        Oracle(sample_very_singular(FP, 7, random.Random(1)).par).mingen_table()
    assert cli.main(["--field", "fp", "sample-verysingular", "--degree", "7", "--seed", "1"]) == 0
    path = tmp_path / "curve.json"
    path.write_text(capsys.readouterr().out)
    assert cli.main(["gens", str(path)]) == cli.EXIT_VERIFICATION == 3
    out, err = capsys.readouterr()
    assert "verification failed" in err
    assert json.loads(out)["error"] == "verification"


def test_q_mingen_table_equals_the_cellwise_reference():
    """Over Q (the modular core), on curves with small coefficients, which
    keep the brute-force reference quick."""
    mild = parametrization(QQ, [1, 0, 0, 0, 0, 2], [0, 1, 0, 3, 0, 0], [0, 0, 0, 0, 0, 1])
    for par, extra in [(monomial_odd(3), 1), (monomial_odd(4), 0), (mild, 0)]:
        imax, jmax = par.d - 2 + extra, par.d + extra
        ref = _reference_counts(par, imax, jmax)
        assert ref
        assert Oracle(par).mingen_table(imax, jmax).counts == ref


def test_mu3_tables_equal_the_cellwise_reference():
    from curves import MU3_CURVE1_BIDEGREES, MU3_CURVE2_BIDEGREES, mu3_degree10_curves

    expected = (MU3_CURVE1_BIDEGREES, MU3_CURVE2_BIDEGREES)
    for par, bidegrees in zip(mu3_degree10_curves(FP), expected):
        table = Oracle(par).mingen_table(7, 10)
        assert table.counts == _reference_counts(par, 7, 10)
        assert table.multiset() == bidegrees


def test_mingen_table_on_the_packed_core_equals_the_reference(monkeypatch):
    """With the kernel hidden, the F_p table reads its towers from the Python
    order basis, its slices run on the generic core under the _FpPackedCore
    label, and it equals the definition's counts."""
    from reescurve import _native, oracle
    from reescurve.linalg import _FpPackedCore
    from reescurve.sampling import sample_very_singular

    monkeypatch.setattr(_native, "get_kernel", lambda: None)
    python_bases = []
    order_basis = oracle._python_order_basis

    def counted(cols, sigma, imax, p):
        python_bases.append(len(cols))
        return order_basis(cols, sigma, imax, p)

    monkeypatch.setattr(oracle, "_python_order_basis", counted)
    par = sample_very_singular(FP, 6, random.Random(4)).par
    assert isinstance(Oracle(par)._slice_reducer(4, 2)._core, _FpPackedCore)
    table = Oracle(par).mingen_table()
    assert python_bases == [(j + 1) * (j + 2) // 2 for j in range(1, 7)]
    assert table.counts == _reference_counts(par, 4, 6)
    assert table.multiset() == predicted_multiset(6, "very-singular")


@pytest.mark.parametrize("box", [(None, None), (7, 9), (6, 3)])
def test_mingen_table_builds_one_slice_per_j(box, monkeypatch):
    """Over Q the table builds one slice (imax, j) per j besides the (s, 1)
    slices behind mu; over F_p it builds no slice but those behind mu.  On
    both fields none of them stays cached below jmax once the table is
    done."""
    from reescurve.sampling import sample_mild

    built = []
    original = Oracle._slice_reducer

    def counted(self, i, j):
        if (i, j) not in self._kernels:
            built.append((i, j))
        return original(self, i, j)

    monkeypatch.setattr(Oracle, "_slice_reducer", counted)
    for field, d in ((FP, 8), (QQ, 6)):
        built.clear()
        orc = Oracle(sample_mild(field, d, random.Random(5)).par)
        table = orc.mingen_table(*box)
        mu_slices = [(s, 1) for s in range(table.mu + 1)]
        top = [(table.imax, j) for j in range(1, table.jmax + 1)] if field is QQ else []
        assert sorted(built) == sorted(set(mu_slices + top))
        assert [key for key in orc._kernels if key[1] < table.jmax] == []


@pytest.mark.parametrize(
    "field", [PrimeField(2), PrimeField(3), FP, PrimeField((1 << 127) - 1), QQ],
    ids=["fp2", "fp3", "fp62", "fp127", "q"],
)
def test_slice_rows_hold_the_convolved_powers(field):
    """Each slice row is one T-coefficient of the substituted monomials: the
    column of T0^(i-a1) T1^a1 X^b holds w^b (the convolution of the table's
    dense base triple; over F_p reduced) shifted down by a1, in array('Q')
    rows exactly when p fits a machine word."""
    from array import array

    from reescurve.poly import monomials_of_bidegree
    from reescurve.sampling import sample_mild

    d = 7
    orc = Oracle(sample_mild(field, d, random.Random(4)).par)
    base, p = orc.powers.base, orc.powers.modulus

    def reference(b):
        out = [1]
        for k, e in enumerate(b):
            for _ in range(e):
                acc = [0] * (len(out) + d)
                for t, c in enumerate(out):
                    for a, w in enumerate(base[k]):
                        acc[t + a] += c * w
                out = acc
        return out if p is None else [v % p for v in out]

    for i, j in ((0, 1), (2, 3), (1, 5)):
        rows = orc.slice_rows(i, j)
        cols = monomials_of_bidegree(i, j)
        assert len(rows) == i + j * d + 1
        for r, row in enumerate(rows):
            assert isinstance(row, array) if orc.powers.kernel is not None else type(row) is list
            want = []
            for a0, a1, *b in cols:
                pw = reference(b)
                want.append(pw[r - a1] if 0 <= r - a1 < len(pw) else 0)
            assert list(row) == want, (i, j, r)
