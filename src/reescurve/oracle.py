"""Brute-force ground truth for the kernel ideal, one bidegree at a time.

Everything here is plain graded linear algebra on explicit matrices — no
constructive formulas — so it can cross-check the pipeline modules:
  * kernel_basis: the (i, j) slice as the nullspace of the substitution map,
  * mingen_table: minimal-generator counts via the graded Nakayama quotient,
  * ideal_piece_membership: per-bidegree span tests.
"""
from __future__ import annotations

from array import array
from dataclasses import dataclass

from .fields import PrimeField
from .linalg import ExactMatrix, RowReducer
from .poly import (
    BiPoly,
    bidegree_dimension,
    monomials_of_bidegree,
    tpoly_dense,
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


class _KernelData:
    __slots__ = ("monomials", "index", "vectors", "freecols")

    def __init__(self, monomials, index, vectors, freecols):
        self.monomials = monomials
        self.index = index
        self.vectors = vectors      # list of dense coefficient vectors
        self.freecols = freecols    # per vector: its defining free column


class Oracle:
    """Caching per-parametrization oracle; all methods are deterministic."""

    def __init__(self, par: Parametrization):
        self.par = par
        self.field = par.field
        self.d = par.d
        self._dense_u = [tpoly_dense(u) for u in par.triple]
        self._pow_cache = {(0, 0, 0): [self.field.one]}
        self._kernels: dict = {}
        self._mu = None

    # -- parametrization powers -------------------------------------------

    def _u_power(self, b):
        if b in self._pow_cache:
            return self._pow_cache[b]
        F = self.field
        b0, b1, b2 = b
        if b0:
            prev = self._u_power((b0 - 1, b1, b2))
            mult = self._dense_u[0]
        elif b1:
            prev = self._u_power((b0, b1 - 1, b2))
            mult = self._dense_u[1]
        else:
            prev = self._u_power((b0, b1, b2 - 1))
            mult = self._dense_u[2]
        out = [F.zero] * (len(prev) + self.d)
        for ia, a in enumerate(prev):
            if F.is_zero(a):
                continue
            for ib, bb in enumerate(mult):
                if not F.is_zero(bb):
                    out[ia + ib] = F.add(out[ia + ib], F.mul(a, bb))
        self._pow_cache[b] = out
        return out

    # -- kernels -------------------------------------------------------------

    def _kernel_data(self, i, j) -> _KernelData:
        key = (i, j)
        if key in self._kernels:
            return self._kernels[key]
        F = self.field
        monomials = monomials_of_bidegree(i, j)
        index = {m: t for t, m in enumerate(monomials)}
        nrows = i + j * self.d + 1
        rows = [[F.zero] * len(monomials) for _ in range(nrows)]
        for c, m in enumerate(monomials):
            a0, a1, b0, b1, b2 = m
            dense = self._u_power((b0, b1, b2))
            for k, val in enumerate(dense):
                if not F.is_zero(val):
                    rows[a1 + k][c] = val
        mat = ExactMatrix(F, rows)
        pivset = set(mat.rref()[0])
        freecols = [f for f in range(len(monomials)) if f not in pivset]
        vectors = [self._store(v) for v in mat.nullspace()]
        data = _KernelData(monomials, index, vectors, freecols)
        self._kernels[key] = data
        return data

    def _store(self, vec):
        if isinstance(self.field, PrimeField):
            return array("Q", vec)
        return vec

    def kernel_dim(self, i, j) -> int:
        if i < 0 or j < 0:
            return 0
        if j == 0:
            return 0  # nonzero T-forms never vanish under the substitution
        return len(self._kernel_data(i, j).vectors)

    def kernel_basis(self, i, j) -> GradedPiece:
        """Canonical basis of the bidegree-(i, j) slice of the kernel ideal."""
        if i < 0 or j < 0:
            raise ValueError("bidegree components must be nonnegative")
        F = self.field
        if j == 0:
            return GradedPiece(bidegree=(i, j), basis=[])
        data = self._kernel_data(i, j)
        basis = []
        for vec in data.vectors:
            coeffs = {m: c for m, c in zip(data.monomials, vec) if not F.is_zero(c)}
            basis.append(BiPoly(F, i, j, coeffs, _clean=True))
        return GradedPiece(bidegree=(i, j), basis=basis)

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

    def _shift_map(self, src_mons, dst_index, delta):
        d0, d1, e0, e1, e2 = delta
        return [
            dst_index[(m[0] + d0, m[1] + d1, m[2] + e0, m[3] + e1, m[4] + e2)]
            for m in src_mons
        ]

    def mingen_count(self, i, j) -> int:
        """dim K_{i,j} minus the dimension of (T0,T1) K_{i-1,j} + (X) K_{i,j-1}."""
        F = self.field
        n_target = self.kernel_dim(i, j)
        if n_target == 0:
            return 0
        dst = self._kernel_data(i, j)
        ncols = len(dst.monomials)
        blocks = []
        if i >= 1 and self.kernel_dim(i - 1, j) > 0:
            src = self._kernel_data(i - 1, j)
            for delta in ((1, 0, 0, 0, 0), (0, 1, 0, 0, 0)):
                blocks.append((src, self._shift_map(src.monomials, dst.index, delta)))
        if j >= 1 and self.kernel_dim(i, j - 1) > 0:
            src = self._kernel_data(i, j - 1)
            for delta in ((0, 0, 1, 0, 0), (0, 0, 0, 1, 0), (0, 0, 0, 0, 1)):
                blocks.append((src, self._shift_map(src.monomials, dst.index, delta)))
        if not blocks:
            return n_target
        red = RowReducer(F, ncols, size_hint=n_target * ncols)
        blocks.sort(key=lambda blk: -len(blk[0].vectors))
        seed_src, seed_map = blocks[0]
        seed_rows = []
        seed_piv = []
        for vec, f in zip(seed_src.vectors, seed_src.freecols):
            w = [F.zero] * ncols
            inv = F.inv(vec[f])
            for t, c in enumerate(vec):
                if not F.is_zero(c):
                    w[seed_map[t]] = F.mul(inv, c)
            seed_rows.append(w)
            seed_piv.append(seed_map[f])
        red.seed(seed_piv, seed_rows)
        for src, shift in blocks[1:]:
            if red.rank >= n_target:
                break
            batch = []
            for vec in src.vectors:
                w = [F.zero] * ncols
                for t, c in enumerate(vec):
                    if not F.is_zero(c):
                        w[shift[t]] = c
                batch.append(w)
            red.add_rows(batch, stop_rank=n_target)
        return n_target - red.rank

    def mingen_table(self, imax=None, jmax=None) -> MinGenTable:
        if imax is None:
            imax = self.d - self.mu
        if jmax is None:
            jmax = self.d
        counts = {}
        for j in range(0, jmax + 1):
            for i in range(0, imax + 1):
                if i == 0 and j == 0:
                    continue
                c = self.mingen_count(i, j)
                if c:
                    counts[(i, j)] = c
            # evict kernel slices that no later cell can consume
            for key in [k for k in self._kernels if k[1] < j - 1]:
                del self._kernels[key]
        return MinGenTable(counts=counts, imax=imax, jmax=jmax, d=self.d, mu=self.mu)


def ideal_piece_membership(g: BiPoly, gens) -> bool:
    """Is g in the span of all monomial multiples of gens at g's bidegree?"""
    F = g.field
    i, j = g.bidegree
    monomials = monomials_of_bidegree(i, j)
    red = RowReducer(F, len(monomials), size_hint=bidegree_dimension(i, j) ** 2)
    for gen in gens:
        ig, jg = gen.bidegree
        if gen.is_zero() or ig > i or jg > j:
            continue
        for m in monomials_of_bidegree(i - ig, j - jg):
            prod = BiPoly.monomial(F, m) * gen
            red.add_row(prod.to_vector(monomials))
    return red.contains(g.to_vector(monomials))


def kernel_basis(par: Parametrization, i, j) -> GradedPiece:
    return Oracle(par).kernel_basis(i, j)


def mingen_table(par: Parametrization, imax=None, jmax=None) -> MinGenTable:
    return Oracle(par).mingen_table(imax, jmax)
