"""Brute-force ground truth for the kernel ideal, one bidegree at a time.

Everything here is plain graded linear algebra on explicit matrices — no
constructive formulas — so it can cross-check the pipeline modules:
  * kernel_basis: the (i, j) slice as the nullspace of the substitution map,
  * mingen_table: minimal-generator counts via the graded Nakayama quotient,
    read off one order basis per j (below),
  * mingen_count: the same count for one cell, straight from the definition
    (the reference the tests hold mingen_table to),
  * Oracle.contains: membership of a form in its kernel slice, as one
    matrix-vector product (no elimination, no slice built): sum h_b·u^b
    over g's X-monomials b, one Kronecker product per b on the curve's
    packed powers, one unpack, every slot tested,
  * ideal_piece_membership, independent_mod: span tests against the monomial
    multiples of given forms at one bidegree, as pivot tests on one matrix
    (over Q, like every elimination here, certified from images mod primes).

The matrix of slice (i, j) is banded: the column of T0^a0 T1^a1 X^b is the
dense power u^b shifted down by a1, read from the curve's PowerTable (the one
every substitution into the curve uses).  For dimensions, bases and the
cell-by-cell counts a slice is kept as the pivot block of that matrix's RREF
(inside a RowReducer), not as kernel vectors: the matrix is written into one
flat buffer (``array('Q')`` over F_p) by one strided slice assignment per
column.  Kernel rows are written from the pivot block; canonical normalized
vectors are built only when kernel_basis asks for them.

The table needs no Nakayama quotient of full slices.  Let pi send a form of
K_{i,j} to its T1^i coefficient, a vector over the nx = (j+1)(j+2)/2
X-monomials of degree j, and let E_{i,j} = pi(K_{i,j}).  Since T0 is a
nonzerodivisor, ker pi = T0·K_{i-1,j}, which lies inside the multiples being
divided out, so

    count(i, j) = dim E_{i,j} - dim(E_{i-1,j} + X0·E_{i,j-1} + X1·E_{i,j-1} + X2·E_{i,j-1})

(pi of T1·K_{i-1,j} is E_{i-1,j}; pi of T0·K_{i-1,j} is 0).

The tower E_{0..imax, j} comes from one order basis (Beckermann & Labahn,
SIAM J. Matrix Anal. Appl. 15, 1994).  With t = T1/T0, K_{i,j} is the set
of vectors p of nx polynomials of degree <= i with p·U_j = 0, where U_j =
(u^b), |b| = j, has degree j*d; for deg p <= imax, p·U_j = 0 mod t^sigma
with sigma = imax + j*d + 1 already means p·U_j = 0.  Take an order basis
of U_j at order sigma, shift 0: rows p_k of degrees delta_k whose leading
coefficient rows lc_k (at t^delta_k) are independent.  By the
predictable-degree property every p of degree <= i is sum q_k p_k with
deg q_k <= i - delta_k, so its t^i coefficient is a combination of the
lc_k with delta_k <= i:

    E_{i,j} = span{lc_k : delta_k <= i},   dim E_{i,j} = #{k : delta_k <= i}.

Iterative M-Basis (Giorgi, Jeannerod & Villard, ISSAC 2003) builds it from
the residuals p_k·U_j mod t^sigma, the degrees and the lc rows alone: at
each order, the row of least degree with a nonzero residual clears that
coefficient from the others and is multiplied by t (the C kernel's
fp_order_basis; _python_order_basis is the same algorithm in Python).  The
counts of one j are then ranks along one chain on nx columns,

    S_0 ⊆ E_{0,j} ⊆ S_1 ⊆ E_{1,j} ⊆ ...,   S_i = E_{i-1,j} + X·E_{i,j-1},

fed to one reducer level by level: the X-shifts of the rows E_{i,j-1} adds
at level i, then the rows E_{i,j} adds, after which the rank must be
dim E_{i,j}, or the towers of j - 1 and j disagree (VerificationError).

Over Q the table keeps the certified slices (imax, j), because the order
basis on Fractions ran 3.9-11x slower than they do at d = 7.  Multiplying by
T0^(imax-i) embeds K_{i,j} in K_{imax,j} as the forms with no T1 power above
i, and the RREF kernel rows of slice (imax, j) are echelon by their trailing
(free) column; so E_{i,j} is spanned by the T1^i blocks of the kernel rows
whose free column lies in block i, and they feed the same chain.  A Q
report's table runs on the F_p mirror, so it takes the order basis.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass
from operator import itemgetter

from .errors import PreconditionError, VerificationError
from .fields import Rationals, ensure_same_field
from .linalg import RowReducer, normalized
from .poly import (
    EXP_MASK, T1_SHIFT, X_MASK, BiPoly, _unpack_slots, cleared_denominators,
    monomials_of_bidegree, pack, x_monomials,
)
from .syzygy import Parametrization


@dataclass
class GradedPiece:
    bidegree: tuple
    basis: list          # BiPolys, canonical order

    @property
    def dimension(self) -> int:
        return len(self.basis)


@dataclass
class MinGenTable:
    counts: dict          # {(i, j): count > 0}
    imax: int
    jmax: int
    d: int
    mu: int

    def multiset(self):
        out = []
        for (i, j), c in sorted(self.counts.items()):
            out.extend([(i, j)] * c)
        return out

    def total(self) -> int:
        return sum(self.counts.values())

    def boundary_hits(self):
        """Nonzero cells sitting on the search-box boundary, except the
        expected (d - mu, 1) syzygy; nonempty means the box may be too small."""
        out = []
        for (i, j), c in sorted(self.counts.items()):
            if (i == self.imax or j == self.jmax) and c:
                if (i, j) in ((self.d - self.mu, 1), (0, self.d)):
                    continue
                out.append((i, j))
        return out


def _x_gathers(j):
    """X0, X1, X2 as gathers from a row over x_monomials(j - 1), padded with
    one zero, to a row over x_monomials(j): entry x reads entry t of the row
    when x is X_l times monomial t, and the pad otherwise."""
    index = {m: x for x, m in enumerate(x_monomials(j))}
    lower = x_monomials(j - 1)
    out = []
    for e0, e1, e2 in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        g = [len(lower)] * len(index)
        for t, m in enumerate(lower):
            g[index[(0, 0, m[2] + e0, m[3] + e1, m[4] + e2)]] = t
        out.append(itemgetter(*g))
    return out


class Oracle:
    """Caching per-parametrization oracle; all methods are deterministic."""

    def __init__(self, par: Parametrization):
        self.par = par
        self.field = par.field
        self.d = par.d
        self.powers = par.powers
        self._kernels: dict = {}
        self._mu = None

    def _zeros(self, n):
        if self.powers.kernel is not None:
            return array("Q", bytes(8 * n))
        return [0] * n

    # -- kernels -------------------------------------------------------------

    def slice_rows(self, i, j):
        """The rows of the substitution matrix of slice (i, j): one row per
        T-monomial of degree i + j*d (the coefficients of a substituted
        form), one column per monomial of monomials_of_bidegree(i, j).
        Over Q the entries are the plain-int powers w^b of the primitive
        triple (u = scale * w), so the matrix is scale^j times the one of u:
        same kernel and RREF."""
        length = j * self.d + 1       # of every u^b with |b| = j
        nrows = i + length
        xmons = x_monomials(j)
        nx = len(xmons)
        ncols = (i + 1) * nx
        buf = self._zeros(nrows * ncols)
        # the column of T0^(i-a1) T1^a1 X^b is a1 * nx + (index of b)
        for xidx, m in enumerate(xmons):
            upow = self.powers.power(pack(m))
            for a1 in range(i + 1):
                start = a1 * ncols + a1 * nx + xidx
                buf[start : start + (length - 1) * ncols + 1 : ncols] = upow
        return [buf[r * ncols : (r + 1) * ncols] for r in range(nrows)]

    def _slice_reducer(self, i, j) -> RowReducer:
        """The reducer holding the RREF of slice (i, j)'s substitution
        matrix (cached): one kernel vector per free column."""
        red = self._kernels.get((i, j))
        if red is None:
            red = self._kernels[(i, j)] = RowReducer(
                self.field, (i + 1) * (j + 1) * (j + 2) // 2
            )
            red.add_rows(self.slice_rows(i, j))
        return red

    def kernel_dim(self, i, j) -> int:
        if i < 0 or j < 0:
            return 0
        if j == 0:
            return 0  # nonzero T-forms never vanish under the substitution
        red = self._slice_reducer(i, j)
        return red.ncols - red.rank

    def kernel_rows(self, i, j) -> list:
        """The raw RREF kernel rows of slice (i, j) over
        monomials_of_bidegree(i, j), one per free column, not normalized
        (``array('Q')`` rows on the native core); [] for j = 0."""
        if i < 0 or j < 0:
            raise ValueError("bidegree components must be nonnegative")
        if j == 0:
            return []
        return self._slice_reducer(i, j).kernel_rows()

    def kernel_basis(self, i, j) -> GradedPiece:
        """Canonical basis of the bidegree-(i, j) slice of the kernel ideal."""
        F = self.field
        rows = self.kernel_rows(i, j)
        keys = [pack(m) for m in monomials_of_bidegree(i, j)]
        basis = []
        for vec in rows:
            coeffs = {
                k: c for k, c in zip(keys, normalized(F, vec)) if not F.is_zero(c)
            }
            basis.append(BiPoly(F, i, j, coeffs, _clean=True))
        return GradedPiece(bidegree=(i, j), basis=basis)

    def contains(self, g: BiPoly) -> bool:
        """Is g in the kernel slice of its bidegree?  False for an empty slice.

        K_{i,j} is the kernel of the slice matrix, so a nonzero g is in it
        exactly when the product of that matrix with g's coefficient vector
        vanishes, with no elimination.  Written g = sum over b of h_b(T)·X^b,
        that product is sum h_b·u^b: one Kronecker product per X-monomial b
        on the curve's packed powers, one unpack, and every one of the
        i + j*d + 1 slots tested (_product_sum).  Over Q, g's denominators
        are cleared first.  It shares the powers, their slot widths and the
        pack/unpack helpers with PowerTable.substitute, not the summation,
        so a report's in-kernel-span and substitutes-to-zero checks stay two
        code paths.
        """
        ensure_same_field(self.field, g.field)
        i, j = g.bidegree
        if g.is_zero():
            return self.kernel_dim(i, j) > 0
        terms = _terms(g)
        powers = self.powers
        return not any(_product_sum(
            terms, powers.packed, i + j * self.d + 1, powers.slot_bytes(terms), powers.modulus
        ))

    @property
    def mu(self) -> int:
        """Least degree of a moving line (computed by kernel slices alone)."""
        if self._mu is None:
            for s in range(0, self.d // 2 + 1):
                if self.kernel_dim(s, 1) > 0:
                    self._mu = s
                    break
            else:
                raise RuntimeError("no syzygy up to degree d/2 (impossible)")
        return self._mu

    # -- minimal generator counts ---------------------------------------------

    def mingen_count(self, i, j) -> int:
        """dim K_{i,j} minus the dimension of (T0,T1) K_{i-1,j} + (X) K_{i,j-1},
        straight from the definition on full slices.  mingen_table does not
        call it: it is the reference the tests compare the table against."""
        n_target = self.kernel_dim(i, j)
        if n_target == 0:
            return 0
        F = self.field
        nx = (j + 1) * (j + 2) // 2
        zeros = [F.zero] * nx

        def multiples():
            # the column of T0^(i-a1) T1^a1 X^b is a1 * nx + (index of b)
            if i >= 1:
                rows = self.kernel_rows(i - 1, j)
                # T0 keeps a1, T1 raises it: nx zeros after or before the row
                yield [[*row, *zeros] for row in rows]
                yield [[*zeros, *row] for row in rows]
            rows = self.kernel_rows(i, j - 1)
            m = j * (j + 1) // 2        # the X-monomials of degree j - 1
            for get in _x_gathers(j):
                yield [
                    [x for a1 in range(i + 1) for x in get([*row[a1 * m : (a1 + 1) * m], F.zero])]
                    for row in rows
                ]

        red = RowReducer(F, (i + 1) * nx)
        for rows in multiples():
            if red.add_rows(rows, stop_rank=n_target) >= n_target:
                break
        return n_target - red.rank

    def _order_basis(self, imax, j):
        """(deltas, lcs) of the order basis of U_j = (u^b), |b| = j, in the
        order of x_monomials(j), at order imax + j*d + 1 (F_p only): row k
        has degree deltas[k] and leading coefficient row lcs[k]; the rows of
        degree <= imax are the syzygies, the others read imax + 1.  On the C
        kernel exactly when the curve's PowerTable uses it, else in Python."""
        cols = [self.powers.power(pack(m)) for m in x_monomials(j)]
        sigma = imax + j * self.d + 1
        kernel, p = self.powers.kernel, self.powers.modulus
        if kernel is None:
            return _python_order_basis(cols, sigma, imax, p)
        n = len(cols)
        res = array("Q", bytes(8 * n * sigma))
        for r, col in enumerate(cols):
            res[r * sigma : r * sigma + len(col)] = col
        hi, lc = array("Q", bytes(8 * n * sigma)), array("Q", bytes(8 * n * n))
        deltas, work = array("l", [0]) * n, array("l", [0]) * (3 * n)
        kernel.fp_order_basis(
            res.buffer_info()[0], hi.buffer_info()[0], n, sigma, imax, p,
            lc.buffer_info()[0], deltas.buffer_info()[0], work.buffer_info()[0],
        )
        return deltas.tolist(), [lc[r * n : (r + 1) * n] for r in range(n)]

    def _tower(self, imax, j):
        """The tower E_{0..imax, j} as levels: levels[i] holds the rows that
        E_{i,j} adds to E_{i-1,j}, so dim E_{i,j} is the number of rows in
        levels 0..i.  Over F_p the leading coefficient rows of the order
        basis, by degree; over Q the certified slice (imax, j) (module
        docstring)."""
        levels = [[] for _ in range(imax + 1)]
        if self.powers.modulus is not None:
            for delta, row in zip(*self._order_basis(imax, j)):
                if delta <= imax:
                    levels[delta].append(row)
            return levels
        # the T1^i blocks of the kernel rows whose free column lies in block
        # i span E_{i,j}; echelon by their free (trailing) column, those whose
        # column is no trailing column of E_{i-1,j} are the new ones
        red = self._slice_reducer(imax, j)
        freecols = red.free_columns()
        nx = (j + 1) * (j + 2) // 2
        trailing = [set() for _ in range(imax + 2)]     # [i]: those of E_{i-1,j}
        for f in freecols:
            trailing[f // nx + 1].add(f % nx)
        for f, row in zip(freecols, red.kernel_rows()):
            i = f // nx
            if f % nx not in trailing[i]:
                levels[i].append(row[i * nx : (i + 1) * nx])
        return levels

    def mingen_table(self, imax=None, jmax=None) -> MinGenTable:
        """Minimal-generator counts for i <= imax, j <= jmax (default: the
        box (d - mu, d)), as count(i, j) = dim E_{i,j} - dim S_i with S_i =
        E_{i-1,j} + X0·E_{i,j-1} + X1·E_{i,j-1} + X2·E_{i,j-1}, where E_{i,j}
        is the space of T1^i coefficients of K_{i,j}.  Each j reads its
        tower (_tower) and ranks the chain S_0 ⊆ E_{0,j} ⊆ S_1 ⊆ E_{1,j} ⊆
        ... on one reducer over (j+1)(j+2)/2 columns (module docstring)."""
        mu = self.mu
        if imax is None:
            imax = self.d - mu
        if jmax is None:
            jmax = self.d
        if imax < 0 or jmax < 0:
            raise PreconditionError("table_box", f"negative box ({imax}, {jmax})")
        F = self.field
        counts = {}
        prev = [[]] * (imax + 1)        # the tower of j - 1 (E_{i,0} = 0)
        for j in range(1, jmax + 1):
            levels = self._tower(imax, j)
            # every cached slice (the mu slices too) is spent once j is done
            for key in [k for k in self._kernels if k[1] <= j]:
                del self._kernels[key]
            shifts = _x_gathers(j)
            red = RowReducer(F, (j + 1) * (j + 2) // 2)
            dim = 0
            for i, rows in enumerate(levels):
                padded = [list(row) + [F.zero] for row in prev[i]]
                if padded:
                    red.add_rows([get(row) for get in shifts for row in padded])
                dim += len(rows)
                if dim > red.rank:
                    counts[(i, j)] = dim - red.rank
                if rows:
                    red.add_rows(rows)
                if red.rank != dim:
                    raise VerificationError(
                        f"oracle table: E_({i},{j}) has dimension {dim}, "
                        f"but it spans {red.rank} with X*E_({i},{j - 1})"
                    )
            prev = levels
        return MinGenTable(counts=counts, imax=imax, jmax=jmax, d=self.d, mu=mu)


def _python_order_basis(cols, sigma, imax, p):
    """fp_order_basis (_native.py) in Python, step for step: the order basis
    of the polynomials cols (dense residue lists) at order sigma, shift 0,
    as (deltas, leading coefficient rows), dropping a row once its degree
    passes imax."""
    n = len(cols)
    res = [list(col) + [0] * (sigma - len(col)) for col in cols]
    lc = [[int(r == t) for t in range(n)] for r in range(n)]
    deltas, off, live = [0] * n, [0] * n, list(range(n))
    for k in range(sigma):
        if not live:
            break
        piv = None
        for r in live:
            if res[r][k - off[r]] and (piv is None or deltas[r] < deltas[piv]):
                piv = r
        if piv is None:
            continue
        at = k + 1 - off[piv]
        src = res[piv][at:at + sigma - k - 1]
        inv = pow(res[piv][at - 1], -1, p)
        for r in live:
            row, at = res[r], k + 1 - off[r]
            if r == piv or not row[at - 1]:
                continue
            c = row[at - 1] * inv % p
            row[at - 1] = 0
            row[at:at + len(src)] = [(x - c * y) % p for x, y in zip(row[at:], src)]
            if deltas[r] == deltas[piv]:
                lc[r] = [(x - c * y) % p for x, y in zip(lc[r], lc[piv])]
        off[piv] += 1
        deltas[piv] += 1
        if deltas[piv] > imax:
            live.remove(piv)
    return deltas, lc


def _product_sum(terms, packed, n, nbytes, p):
    """The n coefficients of g(u) = sum over b of h_b·u^b, g's terms
    {key: int c} grouped by their X part b: each h_b is packed once in
    nbytes-byte slots (index = T1 exponent, by shifts, signed over Q), times
    packed(b, nbytes), the packed u^b, and the sum is unpacked once (poly's
    Kronecker slots: residues over F_p, signed ints over Q, p None)."""
    slot = 8 * nbytes
    parts = {}
    for m, c in terms.items():
        b = m & X_MASK
        parts[b] = parts.get(b, 0) + (c << (m >> T1_SHIFT & EXP_MASK) * slot)
    acc = 0
    for b, h in parts.items():
        acc += h * packed(b, nbytes)
    return _unpack_slots(acc, n, nbytes, p)


def _terms(g: BiPoly):
    """g's coefficients {key: c}; over Q the integer numerators over one
    common denominator, a nonzero rescale that keeps every span."""
    if isinstance(g.field, Rationals):
        return cleared_denominators(g.coeffs)[1]
    return g.coeffs


def _multiples(i, j, gens):
    """(terms, key of the monomial) for each monomial multiple of gens at
    bidegree (i, j); over Q the terms are integers (_terms)."""
    for gen in gens:
        ig, jg = gen.bidegree
        if gen.is_zero() or ig > i or jg > j:
            continue
        terms = _terms(gen).items()
        for s in monomials_of_bidegree(i - ig, j - jg):
            yield terms, pack(s)


def ideal_piece_membership(g: BiPoly, gens) -> bool:
    """Is g in the span of all monomial multiples of gens at g's bidegree?"""
    return not independent_mod([g], gens)


def independent_mod(forms: list, modulus: list) -> bool:
    """Are the given same-bidegree forms independent modulo the span of all
    monomial multiples of the modulus forms?

    The vectors of the multiples, then of the forms, are the columns of one
    matrix (over Q integer vectors, see _terms): a form is independent of
    the vectors before it exactly when its column is a pivot column, so the
    forms are independent exactly when none of their columns is free."""
    if not forms:
        return True
    F = forms[0].field
    i, j = forms[0].bidegree
    if any(f.bidegree != (i, j) for f in forms):
        raise PreconditionError("same_bidegree", "independent_mod forms differ in bidegree")
    index = {pack(m): t for t, m in enumerate(monomials_of_bidegree(i, j))}
    cols = [*_multiples(i, j, modulus), *((_terms(f).items(), 0) for f in forms)]
    rows = [[0] * len(cols) for _ in index]      # one row per monomial
    for k, (terms, s) in enumerate(cols):
        for m, c in terms:
            rows[index[m + s]][k] = c
    red = RowReducer(F, len(cols))
    red.add_rows(rows)
    return all(f < len(cols) - len(forms) for f in red.free_columns())


def kernel_basis(par: Parametrization, i, j) -> GradedPiece:
    return Oracle(par).kernel_basis(i, j)


def mingen_table(par: Parametrization, imax=None, jmax=None) -> MinGenTable:
    return Oracle(par).mingen_table(imax, jmax)
