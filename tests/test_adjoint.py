"""Dimension formulas for T-linear slices and the adjoint-related subspace."""
import random

import pytest

from curves import binomial_even, invariants, monomial_odd, to_vector
from reescurve.adjoint import (
    adjoint_report,
    adjoint_slice_bound,
    k1_dimension_formula,
    z_dimension,
)
from reescurve.errors import PreconditionError
from reescurve.fields import DEFAULT_PRIME, PrimeField, QQ
from reescurve.linalg import ExactMatrix, RowReducer
from reescurve.mu2sing import apply_dt, family, top_generator_odd, very_singular_context
from reescurve.oracle import Oracle
from reescurve.poly import monomials_of_bidegree
from reescurve.sampling import sample_very_singular
from reescurve.syzygy import apply_x_change

FP = PrimeField(DEFAULT_PRIME)


def test_formula_values_from_worked_examples():
    assert k1_dimension_formula(5, 2) == 1
    assert k1_dimension_formula(5, 3) == 4
    assert k1_dimension_formula(6, 3) == 2
    assert k1_dimension_formula(5, 0) == 0


def test_bound_values():
    # d = 5 (k = 3): zero below ell = 3, then ell(ell - 2)
    assert adjoint_slice_bound(5, 2) == 0
    assert adjoint_slice_bound(5, 3) == 3
    assert adjoint_slice_bound(5, 4) == 8
    # d = 6 (k = 3): zero below ell = 4, then ell(ell - 3)
    assert adjoint_slice_bound(6, 3) == 0
    assert adjoint_slice_bound(6, 4) == 4
    assert adjoint_slice_bound(6, 5) == 10


def test_oracle_agrees_with_formula_on_examples():
    for par in (monomial_odd(3), binomial_even(3)):
        rep = adjoint_report(par)
        assert rep.all_formulas_agree()
        for row in rep.rows:
            assert row.z_dim <= row.k1_oracle
            assert row.z_dim <= row.bound


def test_z_dimension_monomial_example():
    par = monomial_odd(3)
    orc = Oracle(par)
    assert z_dimension(orc, 2) == 0
    assert z_dimension(orc, 3) == 3


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(7), FP, QQ], ids=lambda F: F.name)
def test_z_dimension_equals_the_low_rank_of_the_normalized_basis(field):
    """z_dimension equals dim K_{1,ell} minus the rank of the normalized
    kernel_basis forms on the monomials with X0, X1-degree below d - 3."""
    rng = random.Random(15)
    for d in (5, 6):
        sample = sample_very_singular(field, d, rng)
        orc = Oracle(apply_x_change(sample.par, sample.sing.change))
        for ell in range(d + 3):
            basis = orc.kernel_basis(1, ell).basis
            low = [m for m in monomials_of_bidegree(1, ell) if m[2] + m[3] < d - 3]
            rank = ExactMatrix(field, [to_vector(b, low) for b in basis]).rank() if low else 0
            assert z_dimension(orc, ell) == len(basis) - rank, (d, ell)


def _kernel_row_route(orc, ell):
    """(dim K_{1,ell}, dim Z_ell) as adjoint_report read them from the raw
    kernel rows of slice (1, ell): their count, and their count minus
    their rank on the columns of X0, X1-degree below d - 3."""
    rows = orc.kernel_rows(1, ell)
    low = [k for k, m in enumerate(monomials_of_bidegree(1, ell)) if m[2] + m[3] < orc.d - 3]
    if not (rows and low):
        return len(rows), len(rows)
    rank = RowReducer(orc.field, len(low)).add_rows([[row[k] for k in low] for row in rows])
    return len(rows), len(rows) - rank


@pytest.mark.parametrize("field, degrees", [(FP, range(5, 13)), (QQ, (5, 6, 7))], ids=["fp", "q"])
def test_adjoint_report_equals_the_kernel_row_route(field, degrees):
    """Each row's dim K_{1,ell} and dim Z_ell, read off one elimination of
    slice (1, ell) with the high columns first, equal the kernel-row route
    on sampled very singular curves."""
    rng = random.Random(36)
    for d in degrees:
        sample = sample_very_singular(field, d, rng)
        tpar = apply_x_change(sample.par, sample.sing.change)
        rep = adjoint_report(tpar)
        orc = Oracle(tpar)
        want = [_kernel_row_route(orc, row.ell) for row in rep.rows]
        assert [(row.k1_oracle, row.z_dim) for row in rep.rows] == want, (field.name, d)


def test_quotient_dimension_remark():
    # dim K_{1,ell} - dim Z_ell stabilizes to (k-2)^2 (d odd) for ell >= d-2
    par = monomial_odd(4)  # d = 7, k = 4
    rep = adjoint_report(par)
    for row in rep.rows:
        if row.ell >= 7 - 2:
            assert row.k1_oracle - row.z_dim == (4 - 2) ** 2


def test_power_membership_of_top_forms():
    par = monomial_odd(4)  # k = 4
    ctx = very_singular_context(par, *invariants(par))
    fam = family(ctx)
    k = ctx.k
    f1k1 = fam[-1]
    assert f1k1.in_x01_power(k - 2)
    assert not f1k1.in_x01_power(k - 1)
    top = top_generator_odd(ctx, fam)
    assert top.in_x01_power(k - 1)
    assert not top.in_x01_power(k)


def test_shift_raises_power():
    par = monomial_odd(4)
    ctx = very_singular_context(par, *invariants(par))
    g = ctx.mb.q
    for expected_power in (1, 2):
        g = apply_dt(ctx, g)
        assert g.in_x01_power(expected_power)


def test_generic_samples_attain_bound():
    rng = random.Random(21)
    hits = 0
    total = 0
    for d in (5, 6):
        for _ in range(3):
            sample = sample_very_singular(FP, d, rng)
            tpar = apply_x_change(sample.par, sample.sing.change)
            rep = adjoint_report(tpar)
            assert rep.all_formulas_agree()
            for row in rep.rows:
                if d - 2 <= row.ell <= d + 2:
                    total += 1
                    assert row.z_dim <= row.bound
                    hits += row.bound_attained
    assert hits / total >= 0.9


def test_z_dimension_rejects_tiny_degree():
    from reescurve.syzygy import parametrization

    cubic = parametrization(QQ, [1, 0, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1])
    with pytest.raises(PreconditionError):
        z_dimension(Oracle(cubic), 2)
