"""Dense exact linear algebra: canonical RREF, rank, nullspace, det, solve.

Everything reduces to one primitive, an incremental row-space accumulator
(`RowReducer`) that keeps a pivot basis of whatever rows were fed in, and
answers with its rank, its pivot columns, the unique reduced row echelon
form or the kernel rows.  ExactMatrix and LinearSolver feed one too.  Three
interchangeable cores implement it, and _make_core alone picks one, by the
field and by whether the C kernel is built:
  * Q: modular.py's core (imported on the first Q reducer), which reduces
    the integer rows mod 62-bit primes on the F_p cores and lifts the RREF,
    checked exactly in integers: no elimination runs on Fractions;
  * F_p with p < 2^62 and a C compiler: the elimination routines of the C
    kernel in _native.py (which also serves poly.PowerTable's power products
    and substitutions), whose pivot block and batches live in `array('Q')`
    buffers handed to C through ctypes.  It eliminates forward as rows
    arrive and back-substitutes only when the RREF or the kernel rows are
    read, so a rank question never pays for that;
  * F_p with p >= 2^62, or without a compiler: the generic pure-Python core
    on exact ints (labelled _FpPackedCore for p < 2^62, so traces tell),
    which keeps its rows mutually reduced as they arrive.
All cores produce the same canonical output; determinism does not depend on
which one runs.  Besides absorbing rows, a core writes the kernel rows of its
RREF, so the oracle reads a kernel slice without building normalized vectors.

Canonical conventions (shared by every consumer in this package):
  * pivot search is leftmost-column-first;
  * nullspace bases come from the RREF, one vector per free column in
    ascending column order, each scaled so its first nonzero coordinate is 1;
  * particular solutions set all free variables to zero.
"""
from __future__ import annotations

from array import array

from .fields import PrimeField, Rationals
from . import _native


class ShapeMismatch(ValueError):
    """Raised on incompatible matrix/vector shapes."""


# ---------------------------------------------------------------------------
# row-reduction cores
# ---------------------------------------------------------------------------

class _FractionCore:
    """Pure-Python core, generic over the field: F_p for p >= 2^62 (whose
    residues overflow the C kernel's words), F_p without a compiler, and
    the Fraction reference over Q that the tests hold modular.py to.

    It eliminates with the scalars' own ``-`` and ``*`` (exact ints over F_p,
    Fractions over Q) and brings each row back to canonical scalars once,
    through ``coerce``; a canonical scalar is zero exactly when it is falsy,
    so the inner loops call no field method.
    """

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []          # mutually reduced rows (lists of scalars)
        self.pivcols = []

    @property
    def rank(self):
        return len(self.pivcols)

    def add_rows(self, rows, stop):
        coerce = self.field.coerce
        for vec in rows:
            if stop is not None and len(self.pivcols) >= stop:
                return
            w = list(vec)
            for c, prow in zip(self.pivcols, self.rows):
                f = coerce(w[c])
                if f:
                    w = [x - f * y if y else x for x, y in zip(w, prow)]
            w = [coerce(x) for x in w]
            for lead, x in enumerate(w):
                if x:
                    break
            else:
                continue
            inv = self.field.inv(w[lead])
            w = [coerce(inv * x) if x else x for x in w]
            for t, prow in enumerate(self.rows):
                f = prow[lead]
                if f:
                    self.rows[t] = [coerce(x - f * y) if y else x for x, y in zip(prow, w)]
            self.rows.append(w)
            self.pivcols.append(lead)

    def snapshot(self):
        return list(self.pivcols), [list(r) for r in self.rows]

    def kernel_rows(self, freecols):
        return _rref_kernel_rows(self.field, *self.snapshot(), freecols, self.ncols)


class _FpPackedCore(_FractionCore):
    """The generic core as it runs over F_p, p < 2^62, when no C kernel is
    built.  It adds no code: the class only labels that case, so a traced
    run counts it apart from p >= 2^62.  ``add_rows`` is bound in this
    class's own dict, where the tracer looks it up."""

    add_rows = _FractionCore.add_rows


class _FpNativeCore:
    """ctypes bridge to the compiled kernel (large F_p workloads).

    The pivot block is one row-major ``array('Q')`` of ``cap`` rows, with the
    pivot columns in a parallel ``array('l')`` (C long, as the kernel takes).
    ``add_rows`` eliminates forward only, which fixes the rank and the pivot
    columns; the block is brought to its RREF (back-substituted) on the
    first read of the RREF or the kernel rows after a batch.  The first
    ``nred`` rows are already reduced against each other.  ``scratch`` is
    the kernel's accumulator for the row being reduced, 2 * ncols words (one
    128-bit value per column), kept here so it is allocated once per
    reducer.
    """

    def __init__(self, field, ncols, kernel):
        self.field = field
        self.p = field.p
        self.ncols = ncols
        self.kernel = kernel
        self.cap = 32
        self.buf = array("Q", [0]) * (self.cap * ncols)
        self.pivbuf = array("l", [0]) * self.cap
        self.npiv = 0
        self.nred = 0
        self.scratch = array("Q", bytes(16 * ncols))

    @property
    def rank(self):
        return self.npiv

    @property
    def pivcols(self):
        return self.pivbuf[: self.npiv].tolist()

    def _reserve(self, need):
        if need > self.cap:
            cap = max(need, 2 * self.cap)
            self.buf += array("Q", [0]) * ((cap - self.cap) * self.ncols)
            self.pivbuf += array("l", [0]) * (cap - self.cap)
            self.cap = cap

    def _flat(self, rows):
        if all(isinstance(r, array) and r.typecode == "Q" for r in rows):
            flat = array("Q", b"".join(rows))   # residues already in [0, p)
        else:
            p = self.p
            flat = array("Q", [v % p for vec in rows for v in vec])
        if len(flat) != len(rows) * self.ncols:
            raise ShapeMismatch("row length does not match the column count")
        return flat

    def add_rows(self, rows, stop):
        rows = list(rows)
        if not rows:
            return
        batch = self._flat(rows)
        self._reserve(self.npiv + len(rows))
        npiv = self.kernel.fp_accumulate(
            self.buf.buffer_info()[0],
            self.pivbuf.buffer_info()[0],
            self.npiv,
            self.cap,
            batch.buffer_info()[0],
            len(rows),
            self.ncols,
            self.p,
            -1 if stop is None else stop,
            self.scratch.buffer_info()[0],
        )
        if npiv < 0:
            raise RuntimeError("native accumulator capacity underflow")
        self.npiv = npiv

    def _back_substitute(self):
        if self.nred < self.npiv:
            self.kernel.fp_back_substitute(
                self.buf.buffer_info()[0],
                self.pivbuf.buffer_info()[0],
                self.npiv,
                self.nred,
                self.ncols,
                self.p,
                self.scratch.buffer_info()[0],
            )
            self.nred = self.npiv

    def snapshot(self):
        self._back_substitute()
        n = self.ncols
        buf = self.buf
        return self.pivcols, [buf[t * n : (t + 1) * n].tolist() for t in range(self.npiv)]

    def kernel_rows(self, freecols):
        n, nfree = self.ncols, len(freecols)
        if not nfree:
            return []
        self._back_substitute()
        out = array("Q", bytes(8 * nfree * n))
        free = array("l", freecols)     # a local, so it outlives the call
        self.kernel.fp_kernel_rows(
            self.buf.buffer_info()[0],
            self.pivbuf.buffer_info()[0],
            self.npiv,
            n,
            free.buffer_info()[0],
            nfree,
            out.buffer_info()[0],
            self.p,
        )
        return [out[r * n : (r + 1) * n] for r in range(nfree)]


def _rref_kernel_rows(F, piv, rows, freecols, ncols):
    """Kernel rows of an RREF (piv, rows), ncols wide: for each free column
    f, 1 at f and -rows[t][f] at piv[t]."""
    out = []
    for f in freecols:
        w = [F.zero] * ncols
        w[f] = F.one
        for pc, row in zip(piv, rows):
            if not F.is_zero(row[f]):
                w[pc] = F.neg(row[f])
        out.append(w)
    return out


def normalized(F, vec):
    """vec as a list scaled so its first nonzero coordinate is 1."""
    for x in vec:
        if not F.is_zero(x):
            inv = F.inv(x)
            return [F.mul(inv, y) for y in vec]
    return list(vec)


def _make_core(field, ncols):
    if isinstance(field, Rationals):
        from .modular import _ModularCore

        return _ModularCore(field, ncols)
    if isinstance(field, PrimeField) and field.p < _native.P_BOUND:
        kernel = _native.get_kernel()
        if kernel is not None:
            return _FpNativeCore(field, ncols, kernel)
        return _FpPackedCore(field, ncols)
    return _FractionCore(field, ncols)


class RowReducer:
    """Incremental canonical row-space basis over a field.

    Feed rows with add_row/add_rows; `rank` grows as independent rows arrive.
    `rref()` returns the unique RREF of everything fed so far.  The rank and
    free_columns() cost no more than the elimination itself; on the native
    core the first rref() or kernel_rows() after a batch also
    back-substitutes.
    Rows are sequences of scalars; over F_p an ``array('Q')`` row is taken
    to hold residues already in [0, p), as kernel_rows returns them.
    ``size_hint`` is accepted and ignored (some callers still pass it): the
    core depends on the field alone.
    """

    def __init__(self, field, ncols, *, size_hint=None):
        if ncols < 0:
            raise ShapeMismatch("negative column count")
        self.field = field
        self.ncols = ncols
        self._core = _make_core(field, ncols)
        self._snap = None

    @property
    def rank(self):
        return self._core.rank

    def add_rows(self, rows, stop_rank=None):
        """Absorb rows in order and return the new rank.

        With a stop rank, absorbing ends at the row that brings the rank to
        stop_rank: the rows after it are not absorbed, so the RREF is that of
        the shortest prefix that reaches the stop (all rows if none does).
        """
        self._snap = None
        self._core.add_rows(rows, stop_rank)
        return self.rank

    def add_row(self, vec):
        before = self.rank
        self.add_rows([vec])
        return self.rank > before

    def rref(self):
        """Return (pivot_columns, rows): the canonical RREF, sorted by pivot."""
        if self._snap is None:
            piv, rows = self._core.snapshot()
            order = sorted(range(len(piv)), key=lambda t: piv[t])
            self._snap = (
                [piv[t] for t in order],
                [rows[t] for t in order],
            )
        return self._snap

    def free_columns(self):
        """Non-pivot columns in ascending order."""
        pivset = set(self._core.pivcols)
        return [f for f in range(self.ncols) if f not in pivset]

    def kernel_rows(self):
        """Raw RREF kernel rows: the nullspace vectors before normalization.

        One row per free column f, ascending: 1 at f and -R[t][f] at p_t for
        each pivot row R[t] with pivot column p_t, zero elsewhere, ncols
        entries long.  Over F_p on the native core they come back as
        ``array('Q')`` rows.
        """
        return self._core.kernel_rows(self.free_columns())


# ---------------------------------------------------------------------------
# matrices
# ---------------------------------------------------------------------------

class ExactMatrix:
    """Immutable dense matrix over Q or F_p (row-major list of lists)."""

    def __init__(self, field, rows):
        self.field = field
        self.rows = [[field.coerce(x) for x in row] for row in rows]
        self.nrows = len(self.rows)
        self.ncols = len(self.rows[0]) if self.rows else 0
        for row in self.rows:
            if len(row) != self.ncols:
                raise ShapeMismatch("ragged rows")
        self._reducer = None

    @classmethod
    def identity(cls, field, n):
        return cls(
            field,
            [[field.one if i == j else field.zero for j in range(n)] for i in range(n)],
        )

    def __repr__(self):
        return f"ExactMatrix({self.field.name}, {self.nrows}x{self.ncols})"

    def _reduced(self):
        if self._reducer is None:
            self._reducer = RowReducer(self.field, self.ncols)
            self._reducer.add_rows(self.rows)
        return self._reducer

    def rref(self):
        """(pivot_columns, rref_rows) — the unique reduced echelon form."""
        return self._reduced().rref()

    def rank(self) -> int:
        return self._reduced().rank

    def nullspace(self):
        """Canonical kernel basis; see module docstring for the conventions."""
        return [normalized(self.field, v) for v in self._reduced().kernel_rows()]

    def det(self):
        """Gaussian elimination with row swaps, on the field operations."""
        if self.nrows != self.ncols:
            raise ShapeMismatch("determinant of a non-square matrix")
        F = self.field
        m = [list(row) for row in self.rows]
        det = F.one
        for c in range(self.ncols):
            pr = next((r for r in range(c, self.nrows) if not F.is_zero(m[r][c])), None)
            if pr is None:
                return F.zero
            if pr != c:
                m[c], m[pr] = m[pr], m[c]
                det = F.neg(det)
            det = F.mul(det, m[c][c])
            inv = F.inv(m[c][c])
            for r in range(c + 1, self.nrows):
                f = F.mul(m[r][c], inv)
                if not F.is_zero(f):
                    m[r] = [F.sub(x, F.mul(f, y)) for x, y in zip(m[r], m[c])]
        return det

    def solver(self):
        return LinearSolver(self)


class LinearSolver:
    """Reusable solver: factor the matrix once, solve many right-hand sides.

    The RREF of [A | I] is [R | E] with E·A = R.  A row whose pivot lies in
    A gives x[pivot] = e·b; a row whose pivot lies in I has R-part zero, so
    those rows span the left kernel of A and b is consistent iff each of
    these constraints vanishes on it.  When A is square and invertible the
    E block of the pivot rows, in pivot order, is A^-1.
    """

    def __init__(self, m: ExactMatrix):
        self.field = m.field
        self.ncols = n = m.ncols
        self.nrows = m.nrows
        F = m.field
        ident = ExactMatrix.identity(F, m.nrows).rows
        red = RowReducer(F, n + m.nrows)
        red.add_rows([row + e for row, e in zip(m.rows, ident)])
        piv, rows = red.rref()
        self.pivots = [(pc, r[n:]) for pc, r in zip(piv, rows) if pc < n]
        self.constraints = [r[n:] for pc, r in zip(piv, rows) if pc >= n]
        self.rank = len(self.pivots)

    def solve(self, b):
        F = self.field
        b = [F.coerce(x) for x in b]
        if len(b) != self.nrows:
            raise ShapeMismatch("rhs length mismatch")
        for e in self.constraints:
            if not F.is_zero(_dot(F, e, b)):
                return None
        x = [F.zero] * self.ncols
        for pc, e in self.pivots:
            x[pc] = _dot(F, e, b)
        return x


def _dot(F, a, b):
    acc = F.zero
    for x, y in zip(a, b):
        if not (F.is_zero(x) or F.is_zero(y)):
            acc = F.add(acc, F.mul(x, y))
    return acc
