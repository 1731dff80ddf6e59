"""Scalar fields and exact linear algebra."""
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from reescurve.fields import (
    DEFAULT_PRIME,
    BackendMismatch,
    PrimeField,
    QQ,
    field_from_spec,
    is_prime,
)
from reescurve.linalg import ExactMatrix, RowReducer, ShapeMismatch, normalized

FP = PrimeField(DEFAULT_PRIME)
FP_SMALL = PrimeField(10007)


def naive_cofactor_det(rows, field):
    """Independent determinant oracle (Laplace expansion)."""
    n = len(rows)
    if n == 0:
        return field.one
    if n == 1:
        return rows[0][0]
    acc = field.zero
    for j in range(n):
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = field.mul(rows[0][j], naive_cofactor_det(minor, field))
        acc = field.add(acc, term) if j % 2 == 0 else field.sub(acc, term)
    return acc


def test_field_spec_parsing():
    assert field_from_spec("q") == QQ
    assert field_from_spec("fp:10007") == FP_SMALL
    assert field_from_spec("fp") == FP
    with pytest.raises(ValueError):
        field_from_spec("fp:10006")  # composite
    with pytest.raises(ValueError):
        field_from_spec("weird")


def test_default_prime_is_62_bit():
    assert is_prime(DEFAULT_PRIME)
    assert DEFAULT_PRIME.bit_length() == 62


def test_scalar_coercion():
    assert QQ.coerce("3/4") == Fraction(3, 4)
    assert FP_SMALL.coerce(-1) == 10006
    assert FP_SMALL.coerce("1/2") == FP_SMALL.div(1, 2)
    assert FP_SMALL.mul(FP_SMALL.coerce("1/2"), 2) == 1


def test_identity_kit():
    m = ExactMatrix.identity(QQ, 2)
    assert m.rank() == 2
    assert m.det() == 1
    assert m.nullspace() == []


def test_nullspace_normalization_1x2():
    # [1 1] -> nullspace basis {(1, -1)} after first-nonzero-to-1 scaling
    m = ExactMatrix(QQ, [[1, 1]])
    assert m.nullspace() == [[Fraction(1), Fraction(-1)]]


def test_sylvester_det_vs_cofactor_oracle():
    # Sylvester matrix of T0^2+T1^2 and T0^2-T1^2 (4x4), det = 4 over Q
    rows = [
        [1, 0, 1, 0],
        [0, 1, 0, 1],
        [1, 0, -1, 0],
        [0, 1, 0, -1],
    ]
    m = ExactMatrix(QQ, rows)
    expected = naive_cofactor_det(m.rows, QQ)
    assert expected == 4
    assert m.det() == 4


@pytest.mark.parametrize("field", [QQ, FP_SMALL, FP])
def test_nullspace_vectors_annihilate(field):
    rng = random.Random(7)
    for _ in range(10):
        nr, nc = rng.randint(1, 6), rng.randint(1, 8)
        m = ExactMatrix(field, [[rng.randint(-9, 9) for _ in range(nc)] for _ in range(nr)])
        ns = m.nullspace()
        assert len(ns) == nc - m.rank()
        for v in ns:
            assert all(field.is_zero(x) for x in m.mul_vec(v))


@pytest.mark.parametrize("field", [QQ, FP_SMALL, FP])
def test_rank_invariant_under_row_permutation(field):
    rng = random.Random(11)
    for _ in range(10):
        rows = [[rng.randint(-5, 5) for _ in range(7)] for _ in range(5)]
        m1 = ExactMatrix(field, rows)
        perm = rows[:]
        rng.shuffle(perm)
        m2 = ExactMatrix(field, perm)
        assert m1.rank() == m2.rank()
        assert m1.rref() == m2.rref()


def test_fp_vs_q_rank_agreement():
    rng = random.Random(13)
    for _ in range(20):
        rows = [[rng.randint(-50, 50) for _ in range(9)] for _ in range(6)]
        assert ExactMatrix(QQ, rows).rank() == ExactMatrix(FP, rows).rank()


@pytest.mark.parametrize("field", [QQ, FP_SMALL, FP])
def test_solve_particular_and_inconsistent(field):
    m = ExactMatrix(field, [[1, 2, 3], [2, 4, 6]])
    sol = m.solve([1, 2])
    assert sol is not None
    assert m.mul_vec(sol) == [field.coerce(1), field.coerce(2)]
    assert m.solve([1, 3]) is None


@pytest.mark.parametrize("field", [QQ, FP_SMALL, FP])
def test_solver_reuse_and_determinism(field):
    rng = random.Random(5)
    rows = [[rng.randint(-4, 4) for _ in range(6)] for _ in range(4)]
    m = ExactMatrix(field, rows)
    solver = m.solver()
    for _ in range(5):
        x = [rng.randint(-3, 3) for _ in range(6)]
        b = m.mul_vec([field.coerce(v) for v in x])
        sol = solver.solve(b)
        assert sol is not None
        assert m.mul_vec(sol) == b
        assert sol == m.solve(b)


def test_det_matches_fp_and_q():
    rng = random.Random(3)
    cases = [[[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)] for n in (1, 2, 3, 4, 5)]
    cases.append([[1, 2, 3], [4, 5, 6], [5, 7, 9]])     # singular: row 3 = row 1 + row 2
    cases.append([[0, 0, 2], [0, 3, 1], [5, 1, 1]])     # needs row swaps
    fields = [FP, PrimeField(2), PrimeField(3), PrimeField((1 << 127) - 1)]
    for rows in cases:
        dq = ExactMatrix(QQ, rows).det()
        assert dq == naive_cofactor_det(ExactMatrix(QQ, rows).rows, QQ)
        for field in fields:
            m = ExactMatrix(field, rows)
            assert m.det() == naive_cofactor_det(m.rows, field) == field.coerce(dq)
    assert ExactMatrix(QQ, cases[-2]).det() == 0
    assert ExactMatrix(QQ, cases[-1]).det() == -30


def test_det_nonsquare_raises():
    with pytest.raises(ShapeMismatch):
        ExactMatrix(QQ, [[1, 2]]).det()


def test_backend_mismatch_detected():
    from reescurve.fields import ensure_same_field

    with pytest.raises(BackendMismatch):
        ensure_same_field(QQ, FP)


def _on_both_fp_cores(build):
    """build() run once with the native kernel and once without it, on the
    generic pure-Python core (labelled _FpPackedCore over F_p)."""
    from reescurve import _native

    if _native.get_kernel() is None:
        pytest.skip("native kernel unavailable (no C compiler, or REESCURVE_NO_NATIVE set)")
    native = build()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_native, "get_kernel", lambda: None)     # no kernel -> generic
        packed = build()
    return native, packed


def _native_and_packed(ncols):
    """Two empty F_p reducers of one shape: the native core and the
    no-compiler one, the generic core under its _FpPackedCore label."""
    from reescurve.linalg import _FpNativeCore, _FpPackedCore

    native, packed = _on_both_fp_cores(lambda: RowReducer(FP, ncols))
    assert isinstance(native._core, _FpNativeCore)
    assert isinstance(packed._core, _FpPackedCore)
    return native, packed


def test_row_reducer_matches_across_cores():
    """The native core and the no-compiler generic core produce the
    identical canonical RREF."""
    rng = random.Random(42)
    rows = [[rng.randrange(FP.p) for _ in range(30)] for _ in range(20)]
    rows += [rows[0], [FP.add(a, b) for a, b in zip(rows[1], rows[2])]]
    reducers = _native_and_packed(30)
    for red in reducers:
        red.add_rows(rows)
    assert reducers[0].rref() == reducers[1].rref()
    assert reducers[0].rank == reducers[1].rank == 20  # 2 dependent rows added
    kernels = [[list(r) for r in red.kernel_rows()] for red in reducers]
    assert kernels[0] == kernels[1]
    assert len(kernels[0]) == 10
    assert [normalized(FP, r) for r in kernels[0]] == ExactMatrix(FP, rows).nullspace()

    # more pivots than the native core's initial 32 rows, fed in batches
    wide = [[rng.randrange(FP.p) for _ in range(60)] for _ in range(45)]
    wide.insert(20, [FP.sub(a, b) for a, b in zip(wide[3], wide[7])])
    reducers = _native_and_packed(60)
    for k in range(0, len(wide), 9):
        for red in reducers:
            red.add_rows(wide[k : k + 9])
        assert reducers[0].rref() == reducers[1].rref()
    assert reducers[0].rank == 45

    # a 45-row block already in RREF as one batch, then more rows
    piv, block = reducers[0].rref()
    extra = [[rng.randrange(FP.p) for _ in range(60)] for _ in range(10)]
    reducers = _native_and_packed(60)
    for red in reducers:
        red.add_rows(block)
        red.add_rows(extra)
    assert reducers[0].rref() == reducers[1].rref()
    assert reducers[0].rank == 55


def test_solver_agrees_across_cores():
    rng = random.Random(43)
    # the tall shape's [A | I] has rank 70, past the native block's 32 rows
    for nrows, ncols in ((6, 8), (70, 10)):
        rows = [[rng.randrange(FP.p) for _ in range(ncols)] for _ in range(nrows)]
        m = ExactMatrix(FP, rows)
        native, packed = _on_both_fp_cores(lambda: ExactMatrix(FP, rows).solver())
        assert native.pivots == packed.pivots
        assert native.constraints == packed.constraints
        assert native.rank == packed.rank == min(nrows, ncols)
        assert len(native.constraints) == nrows - native.rank
        b = m.mul_vec([rng.randrange(FP.p) for _ in range(ncols)])
        outside = [FP.add(b[0], 1)] + b[1:]
        for solver in (native, packed):
            assert m.mul_vec(solver.solve(b)) == b
            if solver.constraints:
                assert solver.solve(outside) is None


def _native_and_fraction(field, ncols):
    """Two empty reducers over one F_p: the native core and the
    field-generic core (which RowReducer picks for p >= 2^62, or when no
    kernel is built)."""
    from reescurve import _native
    from reescurve.linalg import _FpNativeCore, _FractionCore

    if _native.get_kernel() is None:
        pytest.skip("native kernel unavailable (no C compiler, or REESCURVE_NO_NATIVE set)")
    native, generic = RowReducer(field, ncols), RowReducer(field, ncols)
    assert isinstance(native._core, _FpNativeCore)
    generic._core = _FractionCore(field, ncols)
    return native, generic


def _assert_cores_agree(native, generic):
    assert native.rref() == generic.rref()
    assert native.free_columns() == generic.free_columns()
    assert [list(r) for r in native.kernel_rows()] == generic.kernel_rows()


@st.composite
def _batches(draw):
    """A prime, a first batch of rows, more batches and an optional stop
    rank."""
    p = draw(st.sampled_from([2, 3, 7, (1 << 61) - 1, DEFAULT_PRIME]))
    ncols = draw(st.integers(1, 24))
    entry = st.one_of(st.just(0), st.just(1), st.just(p - 1), st.integers(0, p - 1))
    row = st.lists(entry, min_size=ncols, max_size=ncols)
    first = draw(st.lists(row, max_size=8))
    batches = draw(st.lists(st.lists(row, max_size=8), min_size=1, max_size=4))
    stop = draw(st.one_of(st.none(), st.integers(0, ncols)))
    return PrimeField(p), ncols, first, batches, stop


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_batches())
def test_native_core_matches_generic_core(case):
    """The left-looking native elimination gives the generic core's RREF
    and kernel rows, batch after batch, under stop ranks."""
    F, ncols, first, batches, stop = case
    reducers = _native_and_fraction(F, ncols)
    for red in reducers:
        red.add_rows(first)
    for batch in batches:
        for red in reducers:
            red.add_rows(batch, stop_rank=stop)
        assert reducers[0].rank == reducers[1].rank
    _assert_cores_agree(*reducers)


def test_native_core_at_the_accumulator_bound():
    """Entries p - 1 at the default prime, so every product below is
    (p - 1)^2, and more than 15 of them reach one row in each phase of the
    elimination.  F is an RREF block of 20 rows: 1 at its pivot, p - 1 at
    every non-pivot column right of it.  The first batch is U_t = F_t +
    F_(t+1) + ... + F_19, which is zero left of its pivot and 1 at every
    later pivot: phase 1 appends it untouched, and phase 2 clears U_t against
    F_(t+1), ..., F_19 with multiplier p - 1 each, 19 - t products.  The next
    row is 1 at every pivot and p - 1 elsewhere: phase 1 clears it against
    all 20 rows of F with multiplier p - 1 each."""
    p, ncols, k = FP.p, 64, 20
    pivcols = [4 + 3 * t for t in range(k)]
    block = [[0] * pc + [1] + [0 if c in pivcols else p - 1 for c in range(pc + 1, ncols)]
             for pc in pivcols]
    summed = [[sum(col) % p for col in zip(*block[t:])] for t in range(k)]
    ones_at_pivots = [[1 if c in pivcols else p - 1 for c in range(ncols)]]
    rng = random.Random(5)
    fresh = [[rng.choice((p - 1, p - 1, 1, rng.randrange(p))) for _ in range(ncols)]
             for _ in range(30)]
    reducers = _native_and_fraction(FP, ncols)
    for red in reducers:
        red.add_rows(summed)
        assert red.rref() == (pivcols, block)
    for batch, stop in ((ones_at_pivots, None), ([[p - 1] * ncols] + fresh[:20], None),
                        (fresh[20:], k + 30)):
        for red in reducers:
            red.add_rows(batch, stop_rank=stop)
        _assert_cores_agree(*reducers)
    assert reducers[0].rank == k + 30          # the stop rank cut the last batch


@pytest.mark.parametrize(
    "field", [QQ, FP_SMALL, FP, PrimeField((1 << 127) - 1)], ids=lambda f: f.name
)
def test_rank_deficient_solve_and_inverse(field):
    from reescurve.syzygy import invert_matrix

    rng = random.Random(17)
    base = [[rng.randint(-5, 5) for _ in range(6)] for _ in range(3)]
    rows = base + [
        [x + y for x, y in zip(base[0], base[1])],
        [x - 2 * y for x, y in zip(base[1], base[2])],
    ]
    m = ExactMatrix(field, rows)
    piv, _ = m.rref()
    assert len(piv) == 3
    solver = m.solver()
    assert solver.rank == 3 and len(solver.constraints) == 2
    for _ in range(3):
        b = m.mul_vec([field.coerce(rng.randint(-4, 4)) for _ in range(6)])
        x = solver.solve(b)
        assert m.mul_vec(x) == b
        assert all(field.is_zero(x[f]) for f in range(6) if f not in piv)
    outside = [1, 0, 0, 0, 0]
    assert ExactMatrix(field, [r + [c] for r, c in zip(rows, outside)]).rank() == 4
    assert solver.solve(outside) is None

    with pytest.raises(ValueError):
        invert_matrix(field, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    mat = ExactMatrix(field, [[2, 1, 0], [1, 3, 1], [0, 1, 4]])
    inv = invert_matrix(field, mat.rows)
    columns = [mat.mul_vec([row[j] for row in inv]) for j in range(3)]
    assert columns == ExactMatrix.identity(field, 3).rows


def test_row_reducer_early_stop():
    red = RowReducer(QQ, 4)
    red.add_rows([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0]], stop_rank=2)
    assert red.rank == 2


def _gauss_jordan(F, rows, ncols):
    """Textbook Gauss-Jordan on the field operations: (pivot columns, RREF
    rows) of the given rows, pivots searched column by column."""
    m = [[F.coerce(x) for x in row] for row in rows]
    piv = []
    for c in range(ncols):
        r = len(piv)
        pr = next((k for k in range(r, len(m)) if not F.is_zero(m[k][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = F.inv(m[r][c])
        m[r] = [F.mul(inv, x) for x in m[r]]
        for k in range(len(m)):
            if k != r and not F.is_zero(m[k][c]):
                f = m[k][c]
                m[k] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[k], m[r])]
        piv.append(c)
    return piv, m[: len(piv)]


def _textbook_kernel_rows(F, piv, rows, ncols):
    out = []
    for f in (c for c in range(ncols) if c not in piv):
        w = [F.zero] * ncols
        w[f] = F.one
        for pc, row in zip(piv, rows):
            w[pc] = F.neg(row[f])
        out.append(w)
    return out


def _raw_entry(F, rng):
    """A scalar as callers pass it: over F_p a possibly negative or
    unreduced int, over Q an int or a Fraction."""
    if rng.random() < 0.4:
        return 0
    if F is QQ:
        return rng.choice((rng.randint(-4, 4), Fraction(rng.randint(-9, 9), rng.randint(1, 5))))
    return rng.randint(-3 * F.p, 3 * F.p)


@pytest.mark.parametrize("field, core", [
    *(pytest.param(F, "generic", id=F.name)
      for F in (QQ, PrimeField(2), PrimeField(7), PrimeField((1 << 127) - 1))),
    pytest.param(QQ, "modular", id="q-modular"),
])
def test_generic_core_matches_textbook_gauss_jordan(field, core, monkeypatch):
    """RowReducer on the generic core against Gauss-Jordan on the field
    operations: rref, rank and kernel rows, for zero, repeated and dependent
    rows, under stop ranks, and row by row after a first batch.  The
    native kernel is hidden, so the small primes run the generic core too.
    Over Q the generic core is installed by hand; "q-modular" runs the same
    cases on the core RowReducer picks for Q, whose stop ranks bisect."""
    from reescurve import _native, modular
    from reescurve.linalg import _FractionCore

    monkeypatch.setattr(_native, "get_kernel", lambda: None)
    rng = random.Random(1301)
    for case in range(60):
        ncols = rng.randint(1, 10)
        rows = [[_raw_entry(field, rng) for _ in range(ncols)] for _ in range(rng.randint(0, 9))]
        if rows:
            rows.insert(rng.randrange(len(rows) + 1), [0] * ncols)
            rows.append(list(rng.choice(rows)))
            a, b = rng.choice(rows), rng.choice(rows)
            rows.insert(rng.randrange(len(rows) + 1), [x - 2 * y for x, y in zip(a, b)])
        red = RowReducer(field, ncols)
        if core == "generic" and field is QQ:
            red._core = _FractionCore(field, ncols)
        assert isinstance(red._core, _FractionCore if core == "generic" else modular._ModularCore)
        mode = case % 3
        if mode == 0:          # all rows at once
            red.add_rows(rows)
            fed = rows
        elif mode == 1:        # a stop rank: only the rows until it is reached count
            stop = rng.randint(0, ncols)
            red.add_rows(rows, stop_rank=stop)
            fed = []
            for row in rows:
                if len(_gauss_jordan(field, fed, ncols)[0]) >= stop:
                    break
                fed.append(row)
        else:                  # a first batch, then rows one at a time
            block = [[_raw_entry(field, rng) for _ in range(ncols)] for _ in range(3)]
            red.add_rows(block)
            for row in rows:
                red.add_row(row)
            fed = block + rows
        piv, ref = _gauss_jordan(field, fed, ncols)
        assert red.rref() == (piv, ref), case
        assert red.rank == len(piv)
        assert red.kernel_rows() == _textbook_kernel_rows(field, piv, ref, ncols), case


class _WidthRecordingField(PrimeField):
    """F_p that records the widest int it is asked to bring back to a residue."""

    widest = 0

    def coerce(self, x):
        self.widest = max(self.widest, abs(x).bit_length())
        return super().coerce(x)


def test_generic_core_reduces_multipliers_before_use():
    """Entries arrive unreduced, up to p^3 in size.  Each multiplier is
    brought back to a residue before it scales a pivot row, so a row reduced
    against t pivots stays below p^3 + t * p^2: the input's width is never
    multiplied into the row."""
    from reescurve.linalg import _FractionCore

    F = _WidthRecordingField(DEFAULT_PRIME)
    rng = random.Random(62)
    big = F.p**3
    rows = [[rng.randint(-big, big) for _ in range(40)] for _ in range(40)]
    core = _FractionCore(F, 40)
    core.add_rows(rows, None)
    assert len(core.pivcols) == 40
    assert F.widest <= big.bit_length() + 6
