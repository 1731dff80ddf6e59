"""Exact RREF over Q from images mod 62-bit primes, certified in integers.

_ModularCore is RowReducer's core over Q, so every Q elimination runs here,
not on Fractions.  It keeps the rows it is fed as an integer matrix A (a row
of Fractions scaled by its common denominator).  When asked, A is reduced
mod p on the F_p core, and the RREF entries at the image's free columns are
lifted by CRT and rational reconstruction (Wang, Guy & Davenport, SIGSAM
Bull. 1982; Monagan, ISSAC 2004).  They give one kernel vector x_f per free
column f: 1 at f, 0 at the other free columns, support left of f.  The lift
is accepted when A x_f = 0 in integers for every f.  Then each column f lies
in the span of the columns before it, so it is free over Q too, and there
are dim ker_p >= dim ker_Q such vectors (rank_Q >= rank_p for an integer
matrix): they are the canonical Q kernel basis, and the Q RREF is read off
them.  With no free column mod p, nothing is lifted.  Ranks read the
certified pivot columns; Fractions are built only for the RREF and kernel
rows a caller reads.

Span questions are pivot questions (oracle.independent_mod): a column of
[B; forms] is independent of those before it exactly when it is a pivot
column, even when B is itself dependent (the multiples of [p, q]).  Rows fed
after the one that reaches a stop rank do not count; past the stop, that row
is found by bisecting on certified prefix ranks.  No batch reaches the
bisection today: the one caller that passes a stop, the tests' reference
Oracle.mingen_count, feeds rows whose span cannot pass it.  The stop stays
in every core's add_rows(core, rows, stop), because perfbench/tracer.py
wraps that signature by position and tests/test_tracer_names.py binds it.

A lift that does not reconstruct or fails the check takes the next prime.
Images with the same pivot columns are combined by CRT, so large entries
lift over several primes, and a bad prime costs a retry.  The residues are
trusted: the tests hold the F_p cores to each other and to Gauss-Jordan.
"""
from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import count
from math import gcd, isqrt, lcm
from operator import mul

from .fields import DEFAULT_PRIME, PrimeField, is_prime
from .linalg import RowReducer, _rref_kernel_rows

_PRIMES = [DEFAULT_PRIME]
_FIELDS = {}


def _primes():
    """The primes below 2^62, descending from the largest."""
    for i in count():
        if i == len(_PRIMES):
            q = _PRIMES[-1] - 2
            while not is_prime(q):
                q -= 2
            _PRIMES.append(q)
        yield _PRIMES[i]


def _image(p, rows, ncols):
    """(pivot columns, RREF rows) of integer rows mod p."""
    field = _FIELDS.get(p) or _FIELDS.setdefault(p, PrimeField(p))
    red = RowReducer(field, ncols)
    red.add_rows(rows)
    return red.rref()


def _ratrecon(a, m, bound):
    """(n, d) with n = a d mod m, |n| <= bound, 0 < d <= bound, gcd 1; or None."""
    r0, r1, s0, s1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if s1 < 0:
        r1, s1 = -r1, -s1
    if s1 > bound or gcd(r1, s1) != 1:
        return None
    return r1, s1


def _reconstruct(residues, m):
    """(nums, den): integers with nums[i] / den = residues[i] mod m, or None.
    An entry that den already clears to a small residue takes no Euclid.
    Each entry is kept over the denominator it was read with and scaled once
    by the final den."""
    bound = isqrt(m >> 1)
    den, parts = 1, []
    for a in residues:
        x = a * den % m
        if x <= bound:
            parts.append((x, den))
        elif m - x <= bound:
            parts.append((x - m, den))
        else:
            nd = _ratrecon(a, m, bound)
            if nd is None:
                return None
            parts.append(nd)
            den = lcm(den, nd[1])
    return [n * (den // d) for n, d in parts], den


def _annihilates(rows, piv, free, cols, den):
    """A x_f = 0 in integers for every free column f, where x_f is den at f
    and -cols[i][t] at piv[t] (f = free[i])."""
    for a in rows:
        pa = [a[c] for c in piv]
        for f, col in zip(free, cols):
            if sum(map(mul, pa, col)) != den * a[f]:
                return False
    return True


def _certified(rows, ncols):
    """The Q RREF of integer rows as (piv, free, cols, den): RREF entry
    (t, free[i]) is cols[i][t] / den, and row t is 1 at piv[t], 0 at the
    other pivot columns."""
    lifts = {}          # pivot columns -> (modulus, residues) combined by CRT
    for p in _primes():
        piv, red = _image(p, rows, ncols)
        pivset = set(piv)
        free = [f for f in range(ncols) if f not in pivset]
        if not free:
            return piv, free, [], 1
        # the image's kernel vectors; an RREF row is zero left of its pivot,
        # so each has its support left of its free column
        res = [row[f] for f in free for row in red]
        key = tuple(piv)
        if key in lifts:
            m, old = lifts[key]
            inv = pow(m, -1, p)
            res = [x + m * ((y - x) * inv % p) for x, y in zip(old, res)]
            m *= p
        else:
            m = p
        lifts[key] = m, res
        got = _reconstruct(res, m)
        if got is None:
            continue
        nums, den = got
        r = len(piv)
        cols = [nums[i * r : (i + 1) * r] for i in range(len(free))]
        if _annihilates(rows, piv, free, cols, den):
            return piv, free, cols, den


def _integer_row(row):
    """A row of ints or Fractions as ints, scaled by its common denominator."""
    if set(map(type, row)) <= {int}:
        return list(row)
    den = lcm(*{x.denominator for x in row})
    return [x.numerator * (den // x.denominator) for x in row]


class _ModularCore:
    """RowReducer's core over Q: it keeps the rows it is fed, scaled to
    integers, and certifies their RREF when a question is asked."""

    def __init__(self, field, ncols):
        self.field = field
        self.ncols = ncols
        self.rows = []
        self._cert = None

    def _certificate(self):
        if self._cert is None:
            self._cert = _certified(self.rows, self.ncols)
        return self._cert

    @property
    def pivcols(self):
        return self._certificate()[0]

    @property
    def rank(self):
        return len(self.pivcols)

    def add_rows(self, rows, stop):
        # the rank is at most the row count: a stop above it certifies nothing
        if stop is not None and len(self.rows) >= stop and len(self.pivcols) >= stop:
            return
        base = len(self.rows)
        self.rows += map(_integer_row, rows)
        self._cert = None
        if stop is not None and len(self.rows) > stop and len(self.pivcols) > stop:
            # keep the shortest prefix that reaches the stop rank, by bisection
            prefixes = range(base + 1, len(self.rows) + 1)
            rank = lambda k: len(_certified(self.rows[:k], self.ncols)[0])
            del self.rows[prefixes[bisect_left(prefixes, stop, key=rank)]:]
            self._cert = None

    def snapshot(self):
        piv, free, cols, den = self._certificate()
        zero, one = Fraction(0), Fraction(1)
        rows = [[one if c == pc else zero for c in range(self.ncols)] for pc in piv]
        for f, col in zip(free, cols):
            for row, x in zip(rows, col):
                if x:
                    row[f] = Fraction(x, den)
        return list(piv), rows

    def kernel_rows(self, freecols):
        return _rref_kernel_rows(self.field, *self.snapshot(), freecols, self.ncols)
