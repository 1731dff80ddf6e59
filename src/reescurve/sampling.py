"""Seeded random generators for proper mu = 2 curves of each singularity class.

Curves are built through their Hilbert-Burch matrix: pick the two syzygy
columns at degrees 2 and d-2 and take signed 2x2 minors for u.  For the
very singular class the low column is axial, which forces the factorization
(u0, u1) = (p0 q, p1 q); a random invertible X-change then hides the normal
form so the detection code path gets exercised.  Samples failing any
validation (common factor, mu != 2, wrong class, improper) are redrawn, up to
MAX_ATTEMPTS times, so the output distribution is deterministic per seed.
"""
from __future__ import annotations

from .errors import PreconditionError
from .fields import PrimeField
from .linalg import ExactMatrix
from .poly import BiPoly, t_poly
from .syzygy import (
    MILD,
    MuBasis,
    Parametrization,
    SingularityClass,
    VERY_SINGULAR,
    apply_x_change,
    classify_singularity,
    cross,
    implicit_equation,
    mu_basis,
    parametrization,
)

MAX_ATTEMPTS = 200


class Sample:
    __slots__ = ("par", "mb", "sing", "attempts")

    def __init__(self, par: Parametrization, mb: MuBasis, sing: SingularityClass,
                 attempts: int):
        self.par = par
        self.mb = mb
        self.sing = sing
        self.attempts = attempts


def _rand_scalar(field, rng):
    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    return rng.randint(-9, 9)


def _rand_tpoly(field, deg, rng):
    return t_poly(field, [_rand_scalar(field, rng) for _ in range(deg + 1)])


def random_x_change(field, rng):
    """A uniformly drawn invertible 3x3 matrix (redraw until rank 3)."""
    while True:
        rows = [[_rand_scalar(field, rng) for _ in range(3)] for _ in range(3)]
        if ExactMatrix(field, rows).rank() == 3:
            return rows


def _validated(field, u, want_kind, attempt) -> Sample | None:
    try:
        par = parametrization(field, *u)
    except PreconditionError:
        return None
    mb = mu_basis(par)
    if mb.mu != 2:
        return None
    sing = classify_singularity(mb)
    if sing.kind != want_kind:
        return None
    if implicit_equation(mb).properness_degree != 1:
        return None
    return Sample(par=par, mb=mb, sing=sing, attempts=attempt)


def sample_very_singular(field, d, rng) -> Sample:
    """A proper mu = 2 degree-d curve with a point of multiplicity d - 2."""
    if d < 5:
        raise PreconditionError("degree_range", "very singular mu=2 needs d >= 5")
    for attempt in range(1, MAX_ATTEMPTS + 1):
        p0 = _rand_tpoly(field, 2, rng)
        p1 = _rand_tpoly(field, 2, rng)
        n = [_rand_tpoly(field, d - 2, rng) for _ in range(3)]
        l = [p1, -p0, BiPoly.zero(field, 2, 0)]
        u = cross(l, n)
        m = random_x_change(field, rng)
        try:
            par0 = parametrization(field, *u)
        except PreconditionError:
            continue
        u = list(apply_x_change(par0, m).triple)
        sample = _validated(field, u, VERY_SINGULAR, attempt)
        if sample is not None:
            return sample
    raise RuntimeError(f"no very singular sample after {MAX_ATTEMPTS} draws")


def sample_mild(field, d, rng) -> Sample:
    """A proper mu = 2 degree-d curve with only double-point singularities."""
    if d < 5:
        raise PreconditionError("degree_range", "mild mu=2 sampling needs d >= 5")
    for attempt in range(1, MAX_ATTEMPTS + 1):
        l = [_rand_tpoly(field, 2, rng) for _ in range(3)]
        n = [_rand_tpoly(field, d - 2, rng) for _ in range(3)]
        sample = _validated(field, cross(l, n), MILD, attempt)
        if sample is not None:
            return sample
    raise RuntimeError(f"no mild sample after {MAX_ATTEMPTS} draws")
