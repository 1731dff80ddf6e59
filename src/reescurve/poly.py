"""Bihomogeneous polynomial arithmetic in (T0, T1; X0, X1, X2).

A BiPoly is a sparse map from monomials to nonzero scalars, tagged with its
bidegree (tdeg, xdeg); T-forms and X-forms are just BiPolys with xdeg = 0 /
tdeg = 0.  The canonical monomial order used for printing, pivoting and
normalization everywhere is lexicographic with T0 > T1 > X0 > X1 > X2,
highest first: plain descending order of exponent tuples (a0, a1, b0, b1, b2).

One representation: each monomial is one int key, the five exponents in
fields of FIELD_BITS = 12 bits, a0 in the most significant one, so numeric
order is the canonical order.  The top bit of each field is a guard bit: an
exponent is at most MAX_EXPONENT = 2^11 - 1, a product of two monomials is
one int addition that never carries into the next field, and m is divisible
by g iff ((m | GUARD) - g) & GUARD == GUARD.  A form whose bidegree does not
fit the fields is refused (PreconditionError "exponent_width"), and so is a
determinant or resultant whose intermediate products would not.  Tuples
appear only at the boundary: the constructor, `monomial`, `terms`,
`parse_bipoly`, `monomials_of_bidegree` and `x_monomials`.

There is one product loop on coefficient dicts (`_sum_of_products`) and one
exact division (`_exact_quotient`, terms leaving a heap of keys).  Over F_p
raw products are summed and each coefficient reduced by one ``% p``: with
p < 2^62 the loop is the C kernel's fp_sum_of_products when _native builds
it (dicts in, one dict out, the same keys in the same order), else Python.
Over Q the loop runs in Python on integer numerators over one denominator
per form, and the denominators divide the result once.  BiPoly.__mul__ and
exact_div, the Bareiss determinant (poly_det_bareiss), the T-resultant
(resultant_t) and the band of the mild pipeline (mu2mild.Band) all run on
them.  A resultant with an argument of T-degree 1 or 2 (every one under
mu = 2) is one pseudo-remainder and a norm; otherwise it is the determinant
of the Sylvester matrix.

Substitution X -> u(T) runs on a PowerTable: dense integer powers u^b of one
parametrization, keyed by the X part of a key, built once per curve (a
Parametrization owns one) and read by every substitution into that curve and
by its oracle.  Over F_p with p < 2^62 the C kernel of _native builds each
power by one convolution and makes each substitution one shifted sum of the
terms' powers; otherwise a power is one Kronecker product and a substitution
one packed sum and one unpack.  A linear change of X coordinates goes through
syzygy.pullback_through_change.
"""
from __future__ import annotations

import re
from array import array
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm

from . import _native
from .errors import PreconditionError
from .fields import PrimeField, ensure_same_field

FIELD_BITS = 12
MAX_EXPONENT = (1 << FIELD_BITS - 1) - 1
EXP_MASK = (1 << FIELD_BITS) - 1
T0_SHIFT, T1_SHIFT, X0_SHIFT, X1_SHIFT = 4 * FIELD_BITS, 3 * FIELD_BITS, 2 * FIELD_BITS, FIELD_BITS
X_MASK = (1 << 3 * FIELD_BITS) - 1              # the three X fields of a key
X_UNITS = (1 << X0_SHIFT, 1 << X1_SHIFT, 1)      # the keys of X0, X1, X2
GUARD = sum(1 << FIELD_BITS - 1 + k * FIELD_BITS for k in range(5))

_VAR_INDEX = {"T0": 0, "T1": 1, "X0": 2, "X1": 3, "X2": 4}
_VAR_SHIFTS = (("T0", T0_SHIFT), ("T1", T1_SHIFT), ("X0", X0_SHIFT), ("X1", X1_SHIFT), ("X2", 0))


class GradingError(ValueError):
    """Bidegree bookkeeping violation (mismatched or inconsistent degrees)."""


class InexactDivision(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def check_width(degree):
    """Refuse a degree beyond MAX_EXPONENT: its exponents would not fit a field."""
    if degree > MAX_EXPONENT:
        raise PreconditionError(
            "exponent_width",
            f"degree {degree} exceeds {MAX_EXPONENT}, the largest exponent "
            f"a {FIELD_BITS}-bit key field holds",
        )


def pack(mono):
    """The key of an exponent tuple (a0, a1, b0, b1, b2)."""
    a0, a1, b0, b1, b2 = mono
    return a0 << T0_SHIFT | a1 << T1_SHIFT | b0 << X0_SHIFT | b1 << X1_SHIFT | b2


def lower_x(b):
    """(k, b - e_k) for the X part b of a key: k the first X variable whose
    exponent is nonzero, lowered by one.  Powers are built along this."""
    k = 0 if b >> X0_SHIFT else 1 if b >> X1_SHIFT else 2
    return k, b - X_UNITS[k]


def x_parts(g):
    """g's terms grouped by the X part b of their keys: {b: {T part: coeff}},
    so g = sum over b of X^b times the T-form of that dict."""
    out = {}
    for m, c in g.coeffs.items():
        out.setdefault(m & X_MASK, {})[m & ~X_MASK] = c
    return out


def unpack(key):
    """The exponent tuple (a0, a1, b0, b1, b2) of a key."""
    return (key >> T0_SHIFT, key >> T1_SHIFT & EXP_MASK, key >> X0_SHIFT & EXP_MASK,
            key >> X1_SHIFT & EXP_MASK, key & EXP_MASK)


class BiPoly:
    """A form of bidegree (tdeg, xdeg): ``coeffs`` maps the key of each
    monomial (see the module docstring) to its nonzero scalar.  The
    constructor takes exponent tuples and checks them; internal callers hand
    it a clean dict of keys (``_clean=True``)."""

    __slots__ = ("field", "tdeg", "xdeg", "coeffs")

    def __init__(self, field, tdeg, xdeg, coeffs=None, *, _clean=False):
        if tdeg < 0 or xdeg < 0:
            raise GradingError(f"negative bidegree ({tdeg}, {xdeg})")
        check_width(max(tdeg, xdeg))
        self.field = field
        self.tdeg = tdeg
        self.xdeg = xdeg
        if coeffs is None:
            self.coeffs = {}
        elif _clean:
            self.coeffs = coeffs
        else:
            clean = {}
            for mono, c in coeffs.items():
                c = field.coerce(c)
                if field.is_zero(c):
                    continue
                a0, a1, b0, b1, b2 = mono
                if a0 + a1 != tdeg or b0 + b1 + b2 != xdeg:
                    raise GradingError(
                        f"monomial {mono} violates bidegree ({tdeg}, {xdeg})"
                    )
                if min(mono) < 0:
                    raise GradingError(f"negative exponent in {mono}")
                clean[pack(mono)] = c
            self.coeffs = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls, field, tdeg, xdeg):
        return cls(field, tdeg, xdeg, {}, _clean=True)

    @classmethod
    def monomial(cls, field, mono, coeff=1):
        a0, a1, b0, b1, b2 = mono
        return cls(field, a0 + a1, b0 + b1 + b2, {tuple(mono): coeff})

    @classmethod
    def constant(cls, field, c):
        return cls(field, 0, 0, {(0, 0, 0, 0, 0): c})

    # -- basics ------------------------------------------------------------

    def is_zero(self):
        return not self.coeffs

    @property
    def bidegree(self):
        return (self.tdeg, self.xdeg)

    def __eq__(self, other):
        if not isinstance(other, BiPoly):
            return NotImplemented
        if self.field != other.field or self.coeffs != other.coeffs:
            return False
        if self.coeffs:  # both nonzero with equal support
            return self.bidegree == other.bidegree
        return True  # zero polynomials compare equal across declared degrees

    def __hash__(self):
        return hash((self.field, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"BiPoly({self.bidegree}, {self.text()})"

    def leading(self):
        """(key, coeff) of the canonical leading term; None when zero."""
        if not self.coeffs:
            return None
        m = max(self.coeffs)
        return m, self.coeffs[m]

    def terms(self):
        """[(exponent tuple, coeff)] in canonical descending order."""
        return [(unpack(m), c) for m, c in sorted(self.coeffs.items(), reverse=True)]

    # -- ring operations ----------------------------------------------------

    def _check_add(self, other):
        ensure_same_field(self.field, other.field)
        if self.coeffs and other.coeffs and self.bidegree != other.bidegree:
            raise GradingError(
                f"bidegree mismatch in sum: {self.bidegree} vs {other.bidegree}"
            )

    def __add__(self, other):
        self._check_add(other)
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        F = self.field
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            s = F.add(out.get(m, F.zero), c)
            if F.is_zero(s):
                out.pop(m, None)
            else:
                out[m] = s
        return BiPoly(F, self.tdeg, self.xdeg, out, _clean=True)

    def __neg__(self):
        F = self.field
        return BiPoly(
            F,
            self.tdeg,
            self.xdeg,
            {m: F.neg(c) for m, c in self.coeffs.items()},
            _clean=True,
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        """The one product on the coefficient dicts: over Q on integer
        numerators over one denominator each.  The operands' exponents fit
        their fields, so no key of the product carries into the next field;
        a product of too large a bidegree is refused when it is built."""
        ensure_same_field(self.field, other.field)
        F = self.field
        tdeg, xdeg = self.tdeg + other.tdeg, self.xdeg + other.xdeg
        if isinstance(F, PrimeField):
            out = _sum_of_products([(self.coeffs, other.coeffs)], F.p)
            return BiPoly(F, tdeg, xdeg, out, _clean=True)
        den1, x = cleared_denominators(self.coeffs)
        den2, y = cleared_denominators(other.coeffs)
        return _bipoly(F, _sum_of_products([(x, y)], None), tdeg, xdeg, den1 * den2)

    def scale(self, c):
        F = self.field
        c = F.coerce(c)
        if F.is_zero(c):
            return BiPoly.zero(F, self.tdeg, self.xdeg)
        return BiPoly(
            F,
            self.tdeg,
            self.xdeg,
            {m: F.mul(c, v) for m, v in self.coeffs.items()},
            _clean=True,
        )

    def exact_div(self, g):
        """Quotient self / g when g divides exactly; InexactDivision otherwise.

        One `_exact_quotient`.  Over Q it divides integer numerators by g's
        primitive part (its numerators over their content): by Gauss's lemma
        a quotient over Q is then one over Z, so every step is an exact
        ``divmod``."""
        ensure_same_field(self.field, g.field)
        if g.is_zero():
            raise ZeroDivisionError("division by the zero polynomial")
        F = self.field
        if self.is_zero():
            return BiPoly.zero(
                F, max(self.tdeg - g.tdeg, 0), max(self.xdeg - g.xdeg, 0)
            )
        td, xd = self.tdeg - g.tdeg, self.xdeg - g.xdeg
        if td < 0 or xd < 0:
            raise InexactDivision("degree of divisor exceeds dividend")
        if isinstance(F, PrimeField):
            return BiPoly(F, td, xd, _exact_quotient(dict(self.coeffs), g.coeffs, F.p), _clean=True)
        den, num = cleared_denominators(self.coeffs)
        gden, gnum = cleared_denominators(g.coeffs)
        content = gcd(*gnum.values())
        quo = _exact_quotient(num, {m: c // content for m, c in gnum.items()}, None)
        return _bipoly(F, quo, td, xd, den * content, gden)

    def divides_into(self, f) -> bool:
        """True iff self divides f exactly."""
        try:
            f.exact_div(self)
            return True
        except InexactDivision:
            return False

    # -- substitutions -------------------------------------------------------

    def subst_x(self, u0, u1, u2, *, powers=None):
        """G(T, u0(T), u1(T), u2(T)): eliminate X along a parametrization.

        The u_i must be T-forms of one common degree d; the result is a T-form
        of degree tdeg + xdeg*d (zero iff G is in the kernel ideal).  `powers`
        is the PowerTable of (u0, u1, u2) when the caller keeps one (a
        Parametrization does); without it a throwaway table is built.
        """
        if powers is None:
            powers = PowerTable(u0, u1, u2)
        elif powers.triple != (u0, u1, u2):
            raise ValueError("power table of another parametrization")
        return powers.substitute(self)

    # -- coefficient extraction ----------------------------------------------

    def t_coefficient(self, a0, a1):
        """The X-form coefficient of T0^a0 T1^a1."""
        t = (a0 << FIELD_BITS | a1) << T1_SHIFT
        out = {m & X_MASK: c for m, c in self.coeffs.items() if m & ~X_MASK == t}
        return BiPoly(self.field, 0, self.xdeg, out, _clean=True)

    def x_coefficient(self, b):
        """The T-form coefficient of X^b, b = (b0, b1, b2)."""
        xb = pack((0, 0, *b))
        out = {m - xb: c for m, c in self.coeffs.items() if m & X_MASK == xb}
        return BiPoly(self.field, self.tdeg, 0, out, _clean=True)

    def in_x01_power(self, k) -> bool:
        """Membership in <X0, X1>^k (a monomial ideal: pure support check)."""
        return all((m >> X0_SHIFT & EXP_MASK) + (m >> X1_SHIFT & EXP_MASK) >= k
                   for m in self.coeffs)

    # -- normalization and text ------------------------------------------------

    def normalized(self):
        """Scale so the canonical leading coefficient is 1 (zero stays zero)."""
        lead = self.leading()
        if lead is None:
            return self
        return self.scale(self.field.inv(lead[1]))

    def proportional_to(self, other) -> bool:
        """True iff self = c * other for some nonzero scalar c."""
        if self.is_zero() or other.is_zero():
            return self.is_zero() and other.is_zero()
        return self.normalized() == other.normalized()

    def text(self) -> str:
        if not self.coeffs:
            return "0"
        F = self.field
        pieces = []
        for m, c in sorted(self.coeffs.items(), reverse=True):
            cs = F.scalar_str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            factors = _factor_string(m)
            if not factors:
                body = cs
            elif cs == "1":
                body = factors
            else:
                body = cs + "*" + factors
            if not pieces:
                pieces.append(("-" if neg else "") + body)
            else:
                pieces.append((" - " if neg else " + ") + body)
        return "".join(pieces)


_TERM_RE = re.compile(r"(?=[+-])")


def parse_bipoly(field, s, tdeg=None, xdeg=None) -> BiPoly:
    """Parse the canonical text form back into a BiPoly."""
    s = s.replace(" ", "")
    if s in ("", "0"):
        if tdeg is None or xdeg is None:
            raise GradingError("bidegree required to parse the zero polynomial")
        return BiPoly.zero(field, tdeg, xdeg)
    chunks = [c for c in _TERM_RE.split(s) if c]
    coeffs = {}
    for chunk in chunks:
        sign = 1
        if chunk[0] == "+":
            chunk = chunk[1:]
        elif chunk[0] == "-":
            sign = -1
            chunk = chunk[1:]
        coeff = field.one
        expo = [0, 0, 0, 0, 0]
        for factor in chunk.split("*"):
            if not factor:
                raise ValueError(f"empty factor in {chunk!r}")
            if factor[0] in "TX":
                if "^" in factor:
                    var, _, e = factor.partition("^")
                    expo[_VAR_INDEX[var]] += int(e)
                else:
                    expo[_VAR_INDEX[factor]] += 1
            else:
                coeff = field.mul(coeff, field.coerce(factor))
        if sign < 0:
            coeff = field.neg(coeff)
        m = tuple(expo)
        coeffs[m] = field.add(coeffs.get(m, field.zero), coeff)
    td = max(m[0] + m[1] for m in coeffs)
    xd = max(m[2] + m[3] + m[4] for m in coeffs)
    if tdeg is not None and tdeg != td:
        raise GradingError(f"parsed T-degree {td}, expected {tdeg}")
    if xdeg is not None and xdeg != xd:
        raise GradingError(f"parsed X-degree {xd}, expected {xdeg}")
    return BiPoly(field, td, xd, coeffs)


# ---------------------------------------------------------------------------
# T-forms and X-forms
# ---------------------------------------------------------------------------

def t_poly(field, coeff_list) -> BiPoly:
    """T-form from a dense coefficient list: index a carries T0^(d-a) T1^a."""
    d = len(coeff_list) - 1
    if d < 0:
        raise GradingError("empty coefficient list")
    check_width(d)
    coeffs = {}
    for a, c in enumerate(coeff_list):
        c = field.coerce(c)
        if not field.is_zero(c):
            coeffs[(d - a) << T0_SHIFT | a << T1_SHIFT] = c
    return BiPoly(field, d, 0, coeffs, _clean=True)


def tpoly_dense(tp: BiPoly):
    """Dense coefficient list of a T-form, index = T1 exponent."""
    F = tp.field
    out = [F.zero] * (tp.tdeg + 1)
    for m, c in tp.coeffs.items():
        out[m >> T1_SHIFT & EXP_MASK] = c
    return out


def cleared_denominators(coeffs, den=None):
    """(den, {key: int}): Fraction coefficients as integer numerators over
    den, by default their least common denominator."""
    if den is None:
        den = lcm(*[c.denominator for c in coeffs.values()])
    return den, {m: c.numerator * (den // c.denominator) for m, c in coeffs.items()}


def numerators(forms):
    """(den, [coefficient dict per form]) in plain ints: over F_p the forms'
    own dicts and den 1, over Q integer numerators over one common den."""
    if isinstance(forms[0].field, PrimeField):
        return 1, [f.coeffs for f in forms]
    den = lcm(*[c.denominator for f in forms for c in f.coeffs.values()])
    return den, [cleared_denominators(f.coeffs, den)[1] for f in forms]


@lru_cache(maxsize=4096)
def _factor_string(m):
    """Key m's factor string ("T0^2*X1"; "" for the constant).  Kept for
    the most recent keys printed: the minors of one level share their
    bidegree's keys (a d = 8 report prints about 330)."""
    return "*".join(
        f"{name}^{e}" if e > 1 else name
        for name, shift in _VAR_SHIFTS
        if (e := m >> shift & EXP_MASK)
    )


def _half_slots(n, nbytes):
    """2^(8 nbytes - 1) in each of n slots of nbytes bytes."""
    return int.from_bytes((1 << (8 * nbytes - 1)).to_bytes(nbytes, "little") * n, "little")


def _pack_slots(vals, nbytes, p):
    """sum vals[i] * 2^(8 nbytes i): one int, one value per slot of nbytes
    bytes.  Over Q (p None) the values are signed, each below 2^(8 nbytes - 1)
    in absolute value: written with that added, which is taken off the whole
    int once, so the int is the exact sum, borrows included."""
    if p is None:
        half = 1 << (8 * nbytes - 1)
        return _pack_slots([v + half for v in vals], nbytes, 0) - _half_slots(len(vals), nbytes)
    return int.from_bytes(b"".join([v.to_bytes(nbytes, "little") for v in vals]), "little")


def _unpack_slots(x, n, nbytes, p):
    """The n slot values of a packed int: each reduced ``% p`` over F_p;
    over Q (p None) signed, each below 2^(8 nbytes - 1) in absolute value,
    read with that added to every slot and taken off each."""
    if p is None:
        x += _half_slots(n, nbytes)
    slots = map(
        int.from_bytes,
        re.findall(b".{%d}" % nbytes, x.to_bytes(n * nbytes, "little"), re.S),
        repeat("little"),
    )
    if p is None:
        return list(map(int.__sub__, slots, repeat(1 << (8 * nbytes - 1))))
    return list(map(int.__mod__, slots, repeat(p)))


class PowerTable:
    """Dense powers u^b = u0^b0 u1^b1 u2^b2 of one triple of T-forms.

    The one place that raises a parametrization to powers: every substitution
    G(T, u(T)) and every oracle slice matrix reads its columns from here.  A
    power is keyed by b as the X part of a key (``key & X_MASK``), built once,
    on request, as a dense list of ints (index = T1 exponent): u^b is
    u^(b - e_k) times u_k, by one of two routes.
      * Over F_p with p < 2^62, when the C kernel of _native is built
        (``kernel`` is set): one ``fp_convolve`` into a fresh ``array('Q')``
        of residues, and a substitution is one ``fp_shifted_sum`` of the
        terms' powers.  Neither packs anything.
      * Otherwise by Kronecker substitution (Harvey, J. Symb. Comp. 2009).
        Each factor is packed into one int, one coefficient per slot of 8*B
        bits, and the product of the two ints holds the product's
        coefficients in the same slots.  B covers the bits of the largest
        |entry| of u^(b - e_k), those of the base triple, the bit length of
        the d + 1 terms of a slot and, over Q, a sign bit; one unpack reads
        the slots.  `substitute` sums the packed powers of a form's terms the
        same way, one slot width per call.
    The table starts with u^0 and each u_k = u^(e_k), the base triple.  A
    power is packed when it is first used at a slot width and kept per width
    (`packed`), u_k too, so nothing is packed twice at one width; the kernel
    route never packs.
    Over F_p the table holds residues, as an ``array('Q')`` exactly when the
    kernel serves it, so the oracle can copy it into strided slices of its
    flat matrix buffer.  Over Q it holds powers of the primitive integer
    triple w, with u = scale * w: substitution runs on plain ints and builds
    one Fraction per output coefficient, and a slice (i, j) built from w is
    the one built from u times scale^j (same kernel, same RREF).  Kronecker
    slots over Q are signed.
    """

    def __init__(self, u0, u1, u2):
        F = u0.field
        for u in (u0, u1, u2):
            ensure_same_field(F, u.field)
            if u.xdeg != 0:
                raise GradingError("substitution targets must be T-forms")
        d = u0.tdeg
        if u1.tdeg != d or u2.tdeg != d:
            raise GradingError("parametrization degrees differ")
        self.field = F
        self.triple = (u0, u1, u2)
        self.d = d
        dense = [tpoly_dense(u) for u in self.triple]
        if isinstance(F, PrimeField):
            self.modulus = F.p
            self.scale = None
        else:
            den = lcm(*(c.denominator for u in dense for c in u))
            dense = [[c.numerator * (den // c.denominator) for c in u] for u in dense]
            content = gcd(*(c for u in dense for c in u)) or 1
            dense = [[c // content for c in u] for u in dense]
            self.modulus = None
            self.scale = Fraction(content, den)
        self.kernel = (
            _native.get_kernel()
            if self.modulus is not None and self.modulus < _native.P_BOUND else None
        )
        # dense triple the powers are built from: array("Q") exactly on the kernel
        self.base = [array("Q", u) for u in dense] if self.kernel is not None else dense
        # bits a slot needs beyond those of the power's largest entry
        self._extra = (
            max(abs(c) for u in dense for c in u).bit_length()
            + (d + 1).bit_length()
            + (self.modulus is None)
        )
        self._powers = {0: array("Q", [1]) if self.kernel is not None else [1]}
        self._powers.update(zip(X_UNITS, self.base))
        self._packed = {}           # (b, B) -> u^b packed in B-byte slots
        self._bits = {}             # b -> bit length of the largest |entry| of u^b (over Q)

    def power(self, b):
        """Dense coefficients of u^b (over Q: of w^b), index = T1 exponent;
        b is the X part of a key."""
        out = self._powers.get(b)
        if out is None:
            k, prev = lower_x(b)
            if self.kernel is not None:
                x, uk = self.power(prev), self.base[k]
                out = array("Q", bytes(8 * (len(x) + self.d)))
                self.kernel.fp_convolve(x.buffer_info()[0], len(x), uk.buffer_info()[0],
                                        len(uk), self.modulus, out.buffer_info()[0])
            else:
                nbytes = (self._entry_bits(prev) + self._extra + 7) // 8
                x = self.packed(prev, nbytes) * self.packed(X_UNITS[k], nbytes)
                out = _unpack_slots(x, len(self._powers[prev]) + self.d, nbytes, self.modulus)
            self._powers[b] = out
        return out

    def _entry_bits(self, b):
        """Bit length of the largest |entry| of u^b: over F_p that of p - 1."""
        if self.modulus is not None:
            return (self.modulus - 1).bit_length()
        bits = self._bits.get(b)
        if bits is None:
            bits = self._bits[b] = max(map(abs, self.power(b))).bit_length()
        return bits

    def packed(self, b, nbytes):
        """u^b packed in nbytes-byte slots; packed on first use, then kept."""
        x = self._packed.get((b, nbytes))
        if x is None:
            x = self._packed[b, nbytes] = _pack_slots(self.power(b), nbytes, self.modulus)
        return x

    def substitute(self, g: BiPoly) -> BiPoly:
        """G(T, u(T)) as a T-form of degree tdeg + xdeg * d.

        The sum of c u^b shifted by a1 for each term c T^a X^b: on the C
        kernel one ``fp_shifted_sum`` (every u^b has the length xdeg * d + 1);
        otherwise one packed sum in slots of B bytes, then one unpack.  B
        covers the bits of the largest |c| and of the largest |entry| of the
        powers, the bit length of the term count and, over Q, a sign bit."""
        ensure_same_field(self.field, g.field)
        top = g.tdeg + g.xdeg * self.d
        check_width(top)
        p = self.modulus
        if not g.coeffs:
            return BiPoly.zero(self.field, top, 0)
        if self.kernel is not None:
            vals = self._shifted_sum(g, top)
            coeffs = {(top - k) << T0_SHIFT | k << T1_SHIFT: v for k, v in enumerate(vals) if v}
            return BiPoly(self.field, top, 0, coeffs, _clean=True)
        # a slot sums at most len(terms) products of a c and an entry
        if p is None:
            den, terms = cleared_denominators(g.coeffs)
            bits = (max(map(abs, terms.values())).bit_length()
                    + max(map(self._entry_bits, {m & X_MASK for m in terms})) + 1)
        else:
            den, terms = 1, g.coeffs
            bits = 2 * (p - 1).bit_length()
        nbytes = (bits + len(terms).bit_length() + 7) // 8
        slot = 8 * nbytes
        packed = self._packed
        acc = 0
        for m, c in terms.items():
            b = m & X_MASK
            x = packed.get((b, nbytes)) or self.packed(b, nbytes)
            acc += c * x << (m >> T1_SHIFT & EXP_MASK) * slot
        vals = _unpack_slots(acc, top + 1, nbytes, p)
        s = 1 if p is not None else self.scale ** g.xdeg / den
        coeffs = {(top - k) << T0_SHIFT | k << T1_SHIFT: v * s for k, v in enumerate(vals) if v}
        return BiPoly(self.field, top, 0, coeffs, _clean=True)

    def _shifted_sum(self, g, top):
        """The top + 1 residues of G(T, u(T)): one ``fp_shifted_sum`` call."""
        power = self.power
        src = array("Q", [power(m & X_MASK).buffer_info()[0] for m in g.coeffs])
        off = array("l", [m >> T1_SHIFT & EXP_MASK for m in g.coeffs])
        coef = array("Q", g.coeffs.values())
        vals = array("Q", bytes(8 * (top + 1)))
        scratch = array("Q", bytes(8 * (top + 1)))
        self.kernel.fp_shifted_sum(
            vals.buffer_info()[0], top + 1, src.buffer_info()[0], g.xdeg * self.d + 1,
            off.buffer_info()[0], coef.buffer_info()[0], len(src), self.modulus,
            scratch.buffer_info()[0],
        )
        return vals


def x_monomials(j):
    """X-monomials of degree j in canonical descending order."""
    out = [
        (0, 0, b0, b1, j - b0 - b1)
        for b0 in range(j, -1, -1)
        for b1 in range(j - b0, -1, -1)
    ]
    return out


def monomials_of_bidegree(i, j):
    """All (i, j) monomials in canonical descending order."""
    return [
        (a0, i - a0, b0, b1, j - b0 - b1)
        for a0 in range(i, -1, -1)
        for b0 in range(j, -1, -1)
        for b1 in range(j - b0, -1, -1)
    ]


# ---------------------------------------------------------------------------
# univariate (T-form) gcd
# ---------------------------------------------------------------------------

def _strip_tpoly(tp: BiPoly):
    """Return (e0, e1, dense core) with tp = T0^e0 T1^e1 * core, core(0) != 0."""
    dense = tpoly_dense(tp)
    F = tp.field
    lo = 0
    while F.is_zero(dense[lo]):
        lo += 1
    hi = len(dense) - 1
    while F.is_zero(dense[hi]):
        hi -= 1
    core = dense[lo : hi + 1]
    e1 = lo                      # power of T1
    e0 = len(dense) - 1 - hi     # power of T0
    return e0, e1, core


def _poly1_mod(a, b, F):
    """Remainder of dense univariate a mod b (ascending coefficients)."""
    a = list(a)
    db, inv = len(b) - 1, F.inv(b[-1])
    while len(a) - 1 >= db and a:
        if F.is_zero(a[-1]):
            a.pop()
            continue
        f = F.mul(a[-1], inv)
        off = len(a) - 1 - db
        for k in range(db + 1):
            a[off + k] = F.sub(a[off + k], F.mul(f, b[k]))
        a.pop()
    while a and F.is_zero(a[-1]):
        a.pop()
    return a


def tpoly_gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """Monic gcd of two nonzero homogeneous T-forms."""
    ensure_same_field(f.field, g.field)
    F = f.field
    if f.is_zero() or g.is_zero():
        nz = g if f.is_zero() else f
        if nz.is_zero():
            raise ZeroDivisionError("gcd(0, 0) undefined")
        return nz.normalized()
    e0f, e1f, cf = _strip_tpoly(f)
    e0g, e1g, cg = _strip_tpoly(g)
    a, b = cf, cg
    while b:
        a, b = b, _poly1_mod(a, b, F)
    core = a
    e0, e1 = min(e0f, e0g), min(e1f, e1g)
    deg = e0 + e1 + len(core) - 1
    coeffs = {}
    for k, c in enumerate(core):
        if not F.is_zero(c):
            coeffs[(deg - e1 - k) << T0_SHIFT | e1 + k << T1_SHIFT] = c
    return BiPoly(F, deg, 0, coeffs, _clean=True).normalized()


def tpoly_gcd_many(polys) -> BiPoly:
    nz = [p for p in polys if not p.is_zero()]
    if not nz:
        raise ZeroDivisionError("gcd of all-zero family")
    g = nz[0]
    for p in nz[1:]:
        g = tpoly_gcd(g, p)
    return g.normalized()


# ---------------------------------------------------------------------------
# the product, the exact division, determinants and the resultant in T
# ---------------------------------------------------------------------------

def _modulus(F):
    """p over F_p, None over Q: the ``p`` the coefficient dicts reduce by."""
    return F.p if isinstance(F, PrimeField) else None


def _neg(x):
    """-x on a coefficient dict (raw ints: an operand of _sum_of_products)."""
    return {k: -c for k, c in x.items()}


def _sum_of_products(pairs, p):
    """The sum of x*y over a list of pairs of coefficient dicts, zero terms
    dropped; over F_p (p given) each coefficient reduced by one ``% p``.  The
    one product loop: a product of two monomials is one key addition.  Over
    F_p with p < 2^62 the C kernel of _native runs it when built (values in
    (-p, p)), with the same keys in the same order."""
    if p is not None and p < _native.P_BOUND:
        kernel = _native.get_kernel()
        if kernel is not None:
            return kernel.fp_sum_of_products(pairs, p)
    acc = {}
    get = acc.get
    for x, y in pairs:
        if len(x) > len(y):
            x, y = y, x
        for k1, c1 in x.items():
            for k2, c2 in y.items():
                k = k1 + k2
                acc[k] = get(k, 0) + c1 * c2
    if p is None:
        return {k: v for k, v in acc.items() if v}
    return {k: r for k, v in acc.items() if (r := v % p)}


def _bipoly(F, acc, tdeg, xdeg, den=1, num=1):
    """The BiPoly of num/den times a reduced dict of ints; over F_p den is 1
    and num is 1 or -1."""
    if isinstance(F, PrimeField):
        coeffs = acc if num == 1 else {k: F.p - v for k, v in acc.items()}
    else:
        coeffs = {k: Fraction(num * v, den) for k, v in acc.items()}
    return BiPoly(F, tdeg, xdeg, coeffs, _clean=True)


def _exact_quotient(rem, g, p):
    """rem / g on coefficient dicts, rem consumed; InexactDivision when g
    does not divide it.

    Terms leave a heap of keys in descending order.  Over F_p (p given) rem
    holds raw ints, reduced by one ``% p`` when a term becomes the leading
    one, and g's leading coefficient is inverted once; over Z each quotient
    coefficient is an exact ``divmod``.  Every exponent of rem and g fits its
    field, so the guard bits decide divisibility by g's leading monomial.
    """
    from heapq import heapify, heappop, heappush   # first used here, not at start-up

    glm = max(g)
    glc = g[glm]
    tail = [(gm, gc) for gm, gc in g.items() if gm != glm]
    if p is not None:
        inv = pow(glc, -1, p)
    heap = [-k for k in rem]
    heapify(heap)
    out = {}
    while heap:
        m = -heappop(heap)
        c = rem.pop(m)
        if p is not None:
            c = c % p * inv % p
        elif c:
            c, r = divmod(c, glc)
            if r:
                raise InexactDivision("leading coefficient not divisible")
        if not c:
            continue
        if ((m | GUARD) - glm) & GUARD != GUARD:
            raise InexactDivision("leading term not divisible")
        q = m - glm
        out[q] = c
        for gm, gc in tail:
            t = q + gm
            v = rem.get(t)
            if v is None:
                heappush(heap, -t)
                rem[t] = -c * gc
            else:
                rem[t] = v - c * gc
    return out


def poly_det_bareiss(mat):
    """Fraction-free determinant of a square matrix of BiPolys.

    Bareiss condensation: every entry is kept as a minor of the matrix, so
    every division is exact.  The entries are coefficient dicts, multiplied
    by `_sum_of_products` and divided by `_exact_quotient`; no BiPoly
    arithmetic runs inside.  A product of two minors has degree at most
    twice the sum over rows of the largest entry degree; that bound must fit
    a key field (check_width).
      * Over F_p, every step reduces x*y - a*b by one ``% p`` per
        coefficient, and later steps divide that by the exact division.
      * Over Q, each row is cleared to integer numerators over its lcm
        denominator, the elimination runs over Z[T, X] with exact ``divmod``
        quotients, and the product of the row denominators divides the
        result once, one Fraction per output coefficient.
    Bidegrees are tracked beside the dicts as BiPoly arithmetic would:
    two nonzero products of different bidegrees raise GradingError.
    """
    n = len(mat)
    if n == 0:
        raise ValueError("empty matrix")
    F = mat[0][0].field
    for row in mat:
        for e in row:
            ensure_same_field(F, e.field)
    check_width(2 * sum(max((e.tdeg + e.xdeg for e in row if e.coeffs), default=0) for row in mat))
    p = _modulus(F)
    den = 1     # over F_p every denominator is 1 and the rows stay as they are
    m = []
    for row in mat:
        rd, dicts = numerators(row)
        den *= rd
        m.append(dicts)
    deg = [[(e.tdeg, e.xdeg) for e in row] for row in mat]
    sign = 1
    prev = None
    for k in range(n - 1):
        if not m[k][k]:
            pr = next((r for r in range(k + 1, n) if m[r][k]), None)
            if pr is None:
                td = sum(deg[r][r][0] for r in range(n))
                xd = sum(deg[r][r][1] for r in range(n))
                return BiPoly.zero(F, max(td, 0), max(xd, 0))
            m[k], m[pr] = m[pr], m[k]
            deg[k], deg[pr] = deg[pr], deg[k]
            sign = -sign
        piv, (pt, px) = m[k][k], deg[k][k]
        for i in range(k + 1, n):
            a, (at, ax) = _neg(m[i][k]), deg[i][k]
            for j in range(k + 1, n):
                x, b = m[i][j], m[k][j]
                dx = (deg[i][j][0] + pt, deg[i][j][1] + px)
                db = (at + deg[k][j][0], ax + deg[k][j][1])
                if x and a and b and dx != db:
                    raise GradingError(f"bidegree mismatch in sum: {dx} vs {db}")
                td, xd = dx if x else db
                num = _sum_of_products([(x, piv), (a, b)], p)
                if prev is not None:
                    num = _exact_quotient(num, prev, p)
                    td, xd = td - vt, xd - vx
                    if not num:
                        td, xd = max(td, 0), max(xd, 0)
                    elif td < 0 or xd < 0:
                        raise InexactDivision("degree of divisor exceeds dividend")
                m[i][j], deg[i][j] = num, (td, xd)
        prev, vt, vx = piv, pt, px
    td, xd = deg[n - 1][n - 1]
    return _bipoly(F, m[n - 1][n - 1], td, xd, den, sign)


def _t_slices(h, s):
    """A coefficient dict of T-degree s as its t-coefficients, t = T1/T0:
    index a holds the X part of the T0^(s-a) T1^a terms."""
    out = [{} for _ in range(s + 1)]
    for k, c in h.items():
        out[k >> T1_SHIFT & EXP_MASK][k & X_MASK] = c
    return out


def _low_resultant(fc, gc, p):
    """Res(f, g) on t-coefficient lists, f of T-degree m = len(fc) - 1 in
    (1, 2), as a reduced coefficient dict.

    One pseudo-remainder: f_m^(s-m+1) g = Q f + R with deg_t R < m, the
    coefficients of f_m times the running remainder less its leading one
    times a shift of f (Collins, JACM 1967).  Res(f, g) is the norm of R in
    k(X)[t]/(f) over f_m^(s-m+1) (Brown & Traub, JACM 1971):
      * m = 1: Res = R0;
      * m = 2: Res = (f2 R0^2 - f1 R0 R1 + f0 R1^2) / f2^(s-1), one exact
        division;
      * m = 2 with f2 = 0: f = T0 (f0 T0 + f1 T1), and Res is
        (-1)^s g_s times the resultant of the linear factor.
    """
    m, s = len(fc) - 1, len(gc) - 1
    if m == 2 and not fc[2]:
        lin = _low_resultant(fc[:2], gc, p)
        return _sum_of_products([(gc[s] if s % 2 == 0 else _neg(gc[s]), lin)], p)
    lead, r = fc[m], list(gc)
    for k in range(s, m - 1, -1):
        top = _neg(r.pop())
        r = [
            _sum_of_products([(lead, c), (top, fc[i + m - k] if i + m >= k else {})], p)
            for i, c in enumerate(r)
        ]
    if m == 1:
        return r[0]
    r0, r1 = r
    norm = _sum_of_products([
        (lead, _sum_of_products([(r0, r0)], p)),
        (_neg(r1), _sum_of_products([(fc[1], r0), (_neg(fc[0]), r1)], p)),
    ], p)
    div = lead
    for _ in range(s - 2):
        div = _sum_of_products([(div, lead)], p)
    return _exact_quotient(norm, div, p)


def resultant_t(f: BiPoly, g: BiPoly) -> BiPoly:
    """Sylvester resultant eliminating T; an X-form of degree s2*j1 + s1*j2.

    The sign is that of the Sylvester determinant with the shifts of g on
    top, coefficients by ascending T1 exponent: the resultant of two linear
    moving lines a*T0 + b*T1, c*T0 + d*T1 is b*c - a*d = +det[[c,d],[a,b]].
    When either argument has T-degree 1 or 2 (under mu = 2, every call of a
    report), it is one pseudo-remainder and a norm on coefficient dicts
    (`_low_resultant`, the lower-degree argument as f, Res(g, f) =
    (-1)^(s1 s2) Res(f, g)), whose exponents stay below twice the result's
    degree; otherwise the Sylvester determinant by `poly_det_bareiss`.
    Neither runs BiPoly arithmetic.  Over Q each argument is cleared to
    integer numerators over its lcm denominator D, which divides the result
    once as D_f^s2 D_g^s1.
    """
    ensure_same_field(f.field, g.field)
    if f.is_zero() or g.is_zero():
        raise ValueError("resultant of the zero polynomial")
    s1, j1 = f.tdeg, f.xdeg
    s2, j2 = g.tdeg, g.xdeg
    if s1 < 1 or s2 < 1:
        raise GradingError("resultant requires positive T-degrees")
    F = f.field
    want = s2 * j1 + s1 * j2
    if min(s1, s2) > 2:
        det = poly_det_bareiss(_sylvester(f, g))
        if det.is_zero():
            return BiPoly.zero(F, 0, want)
        if det.xdeg != want:
            raise GradingError(f"resultant degree {det.xdeg}, expected {want} (internal error)")
        return det
    check_width(2 * want)
    sign = -1 if s2 < s1 and s1 * s2 % 2 else 1
    if s2 < s1:
        f, g = g, f
    (df, (fc,)), (dg, (gc,)) = numerators([f]), numerators([g])
    res = _low_resultant(_t_slices(fc, f.tdeg), _t_slices(gc, g.tdeg), _modulus(F))
    return _bipoly(F, res, 0, want, df ** g.tdeg * dg ** f.tdeg, sign)


def _sylvester(f, g):
    """The Sylvester matrix of f and g in T: the s1 shifts of g on top, then
    the s2 shifts of f, coefficients by ascending T1 exponent."""
    F = f.field
    n = f.tdeg + g.tdeg
    rows = []
    for h, shifts in ((g, f.tdeg), (f, g.tdeg)):
        s = h.tdeg
        coeffs = [h.t_coefficient(s - a, a) for a in range(s + 1)]
        for r in range(shifts):
            row = [BiPoly.zero(F, 0, h.xdeg)] * n
            row[r : r + s + 1] = coeffs
            rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# Morley form
# ---------------------------------------------------------------------------

def _divided_differences(h: BiPoly):
    """T0-first divided differences h(T) - h(S) = h0 (T0 - S0) + h1 (T1 - S1),
    as S-slices {(s0, s1): BiPoly in T and X}.

    The S0^s slice of h0 is the terms with a0 > s over T0^(s+1); the
    S0^s0 S1^s1 slice of h1 is T1^(n-1-s0-s1) times the T0^s0 T1^(n-s0)
    coefficient of h, n = deg_T h.
    """
    F, n, j = h.field, h.tdeg, h.xdeg
    h0 = {
        (s, 0): BiPoly(
            F, n - 1 - s, j,
            {m - (1 + s << T0_SHIFT): c for m, c in h.coeffs.items() if m >> T0_SHIFT > s},
            _clean=True,
        )
        for s in range(n)
    }
    h1 = {}
    for s0 in range(n):
        top = h.t_coefficient(s0, n - s0)
        for s1 in range(n - s0):
            h1[(s0, s1)] = BiPoly.monomial(F, (0, n - 1 - s0 - s1, 0, 0, 0)) * top
    return h0, h1


def morley_form(f: BiPoly, g: BiPoly) -> dict:
    """The Morley form of f and g by its S-coefficients, {v: F^v}.

    F^v is the S^v coefficient of f0 g1 - f1 g0, with (f0, f1) and (g0, g1)
    the T0-first divided differences; there is one for every v with
    |v| <= deg_T f + deg_T g - 2, of bidegree
    (deg_T f + deg_T g - 2 - |v|, deg_X f + deg_X g).
    """
    ensure_same_field(f.field, g.field)
    F = f.field
    top, xdeg = f.tdeg + g.tdeg - 2, f.xdeg + g.xdeg
    out = {
        (v0, v1): BiPoly.zero(F, top - v0 - v1, xdeg)
        for v0 in range(top + 1)
        for v1 in range(top + 1 - v0)
    }
    f0, f1 = _divided_differences(f)
    g0, g1 = _divided_differences(g)
    for a, b, sign in ((f0, g1, 1), (f1, g0, -1)):
        for s, x in a.items():
            for t, y in b.items():
                if x.coeffs and y.coeffs:
                    v = (s[0] + t[0], s[1] + t[1])
                    out[v] = out[v] + (x * y if sign > 0 else -(x * y))
    return out
