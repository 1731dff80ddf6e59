"""Certified modular RREF over Q (modular.py) against the Fraction core.

Every Q elimination is answered from images mod 62-bit primes and checked in
integers: RowReducer over Q runs modular.py's core.  Here the answers are
held to the generic Fraction core, installed by hand, on random integer
matrices: rank deficient ones, ones with bad reduction at the first prime,
and ones whose entries need several primes.  A corrupted lift and a
corrupted modular rank must each be refused, with the next prime taken, in
the report's questions and in the oracle's.
"""
import json
import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from curves import monomial_odd
from test_cli import BAD_MIRROR, _in_process
from reescurve import linalg, modular
from reescurve.fields import DEFAULT_PRIME, QQ
from reescurve.linalg import ExactMatrix, RowReducer, normalized
from reescurve.oracle import Oracle, ideal_piece_membership, independent_mod
from reescurve.poly import parse_bipoly
from reescurve.report import build_report, curve_from_json, curve_to_json
from reescurve.sampling import sample_mild, sample_very_singular
from reescurve.syzygy import implicit_equation, mu_basis

FIRST, SECOND = islice(modular._primes(), 2)


def _fraction_rref(rows, ncols):
    red = RowReducer(QQ, ncols)
    red._core = linalg._FractionCore(QQ, ncols)
    red.add_rows(rows)
    return red.rref()


def _on_the_fraction_core(ask):
    """ask() with every reducer over Q on the Fraction core."""
    make = linalg._make_core
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(linalg, "_make_core",
                   lambda F, n: linalg._FractionCore(F, n) if F == QQ else make(F, n))
        return ask()


def _fraction_kernel(rows, ncols):
    piv, ref = _fraction_rref(rows, ncols)
    free = [f for f in range(ncols) if f not in piv]
    kernel = linalg._rref_kernel_rows(QQ, piv, ref, free, range(ncols), ncols)
    return [normalized(QQ, v) for v in kernel]


@pytest.fixture
def primes_used(monkeypatch):
    """The primes of each question's images, one list per question."""
    questions = []
    image, certified = modular._image, modular._certified

    def recorded_image(p, rows, ncols):
        questions[-1].append(p)
        return image(p, rows, ncols)

    def recorded_certified(rows, ncols):
        questions.append([])
        return certified(rows, ncols)

    monkeypatch.setattr(modular, "_image", recorded_image)
    monkeypatch.setattr(modular, "_certified", recorded_certified)
    return questions


def _low_rank(rng, nrows, ncols, rank, entry):
    basis = [[entry() for _ in range(ncols)] for _ in range(rank)]
    rows = []
    for _ in range(nrows):
        mult = [rng.randint(-3, 3) for _ in range(rank)]
        rows.append([sum(m * b[c] for m, b in zip(mult, basis)) for c in range(ncols)])
    return rows


def _check(rows, ncols):
    piv, ref = _fraction_rref(rows, ncols)
    kernel = _fraction_kernel(rows, ncols)
    red = RowReducer(QQ, ncols)
    assert type(red._core) is modular._ModularCore
    red.add_rows(rows)
    assert red.rref() == (piv, ref)
    m = ExactMatrix(QQ, rows)
    assert m.nullspace() == kernel
    assert m.rank() == len(piv)


def test_rref_and_kernel_match_the_fraction_core_on_random_matrices():
    rng = random.Random(2204)
    for _ in range(40):
        nrows, ncols = rng.randint(1, 8), rng.randint(1, 9)
        rank = rng.randint(0, min(nrows, ncols))
        _check(_low_rank(rng, nrows, ncols, rank, lambda: rng.randint(-9, 9)), ncols)
        _check([[rng.choice((0, 0, rng.randint(-99, 99))) for _ in range(ncols)]
                for _ in range(nrows)], ncols)


def test_bad_reduction_at_the_first_prime_is_refused(primes_used):
    """Entries divisible by the first prime vanish in its image, which then
    has a lower rank or later pivots; the lift from it is refused."""
    rng = random.Random(7)
    for _ in range(10):
        nrows, ncols = rng.randint(2, 6), rng.randint(3, 8)
        rows = _low_rank(rng, nrows, ncols, rng.randint(1, min(nrows, ncols) - 1),
                         lambda: rng.randint(-9, 9))
        col = rng.randrange(ncols)
        for row in rows:
            row[col] += FIRST * rng.randint(1, 5)
        primes_used.clear()
        _check(rows, ncols)
        assert primes_used[0][:2] == [FIRST, SECOND]


def test_entries_near_2_40_lift_by_crt(primes_used):
    rng = random.Random(40)
    big = lambda: rng.choice((-1, 1)) * rng.randint((1 << 40) - 999, (1 << 40) + 999)
    for _ in range(6):
        nrows, ncols = rng.randint(3, 5), rng.randint(4, 6)
        rows = _low_rank(rng, nrows, ncols, 2, big)
        rows.append([big() for _ in range(ncols)])
        primes_used.clear()
        _check(rows, ncols)
        assert len(primes_used[0]) > 2


def test_reconstruct_matches_per_entry_ratrecon():
    """_reconstruct over many distinct denominators, with entries that the
    running denominator already clears among them, gives each entry the
    fraction _ratrecon gives it alone, over the lcm of their denominators;
    an entry with no reconstruction refuses the whole list."""
    rng = random.Random(76)
    m = DEFAULT_PRIME * next(islice(modular._primes(), 1, None))
    bound = math.isqrt(m >> 1)
    fracs = [Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 3000)) for _ in range(300)]
    fracs += [Fraction(rng.randint(-99, 99), f.denominator) for f in fracs[:50]]
    residues = [f.numerator * pow(f.denominator, -1, m) % m for f in fracs]
    nums, den = modular._reconstruct(residues, m)
    assert den == math.lcm(*(f.denominator for f in fracs))
    for a, n, f in zip(residues, nums, fracs):
        assert Fraction(n, den) == Fraction(*modular._ratrecon(a, m, bound)) == f
    bad = next(r for r in iter(lambda: rng.randrange(m), None)
               if modular._ratrecon(r, m, bound) is None and bound < r * den % m < m - bound)
    assert modular._reconstruct(residues + [bad], m) is None


def _corrupt_first_lift(monkeypatch):
    reconstruct = modular._reconstruct
    calls = []

    def corrupted(residues, m):
        got = reconstruct(residues, m)
        calls.append(m)
        if len(calls) == 1 and got is not None:
            nums, den = got
            return [v + 1 for v in nums], den
        return got

    monkeypatch.setattr(modular, "_reconstruct", corrupted)


def _drop_first_pivot_row(monkeypatch):
    image = modular._image

    def dropped(p, rows, ncols):
        piv, red = image(p, rows, ncols)
        return (piv[:-1], red[:-1]) if p == FIRST else (piv, red)

    monkeypatch.setattr(modular, "_image", dropped)


RANK_DEFICIENT = [[1, 2, 3, 4, 5], [2, 4, 6, 8, 10], [1, 0, 1, 0, 1], [0, 3, 1, 2, 7]]


def _questions():
    """(ask, expected) per question; expected builds the reference answer
    (oracle questions on the Fraction core)."""
    par = monomial_odd(3)
    mb = mu_basis(par)
    P = lambda text: parse_bipoly(QQ, text)
    oracle = {
        "slice-dim": lambda: Oracle(par).kernel_dim(2, 2),
        "slice-basis": lambda: Oracle(par).kernel_basis(2, 2).basis,
        "table-cell": lambda: Oracle(par).mingen_table(1, 2).counts,
    }
    # at bidegree (5, 2) the multiples of P and Q satisfy one Koszul relation
    return {
        "kernel": (lambda: ExactMatrix(QQ, RANK_DEFICIENT).nullspace(),
                   lambda: _fraction_kernel(RANK_DEFICIENT, 5)),
        "membership": (lambda: ideal_piece_membership(P("T0^3*X0") * mb.p, [mb.p, mb.q]),
                       lambda: True),
        "non-membership": (lambda: ideal_piece_membership(P("T0^5*X0^2"), [mb.p, mb.q]),
                           lambda: False),
        "independence": (lambda: independent_mod([mb.q, P("T0") * mb.p], [mb.p]),
                         lambda: False),
        "full-rank": (lambda: independent_mod([mb.q], [mb.p]), lambda: True),
        **{q: (ask, lambda ask=ask: _on_the_fraction_core(ask)) for q, ask in oracle.items()},
    }


@pytest.mark.parametrize("question, corruption", [
    (q, c) for c in ("witness", "rank")
    for q in ("kernel", "membership", "non-membership", "independence", "full-rank",
              "slice-dim", "slice-basis", "table-cell")
    if (q, c) != ("full-rank", "witness")      # full rank mod p lifts nothing
])
def test_a_corrupted_image_or_lift_is_refused(question, corruption, monkeypatch, primes_used):
    """A lift with every numerator off by one fails the integer check; an
    image that lost a pivot row claims a kernel vector too many, which
    fails it too.  Either way the answer comes from the next prime, and it
    equals the reference: Gauss-Jordan on Fractions, or the oracle's slice
    dimension, canonical slice basis and table cells on the Fraction core."""
    ask, reference = _questions()[question]
    expected = reference()
    (_corrupt_first_lift if corruption == "witness" else _drop_first_pivot_row)(monkeypatch)
    assert ask() == expected
    assert [FIRST, SECOND] in primes_used
    assert all(q[:1] == [FIRST] for q in primes_used)


def test_bad_mirror_mu_basis_matches_the_fraction_core(primes_used, monkeypatch):
    """The curve of test_cli's bad-mirror test: its P has a coefficient equal
    to the first prime, and its kernels lift over several primes.  The
    certified mu-basis is the one the Fraction core gives."""
    par = curve_from_json(BAD_MIRROR)
    mb = mu_basis(par)
    assert FIRST in mb.p.coeffs.values()
    assert any(len(q) > 1 for q in primes_used)
    ref = _on_the_fraction_core(lambda: mu_basis(par))
    assert (mb.p, mb.q, mb.mu) == (ref.p, ref.q, ref.mu)


@pytest.mark.parametrize("sample, command", [
    pytest.param(sample_mild, "gens", id="mild"),
    pytest.param(sample_very_singular, "gens", id="verysingular"),
    pytest.param(sample_very_singular, "oracle-table", id="oracle-table"),
    pytest.param(sample_very_singular, "adjoint-dims", id="adjoint-dims"),
    pytest.param(sample_mild, "inverse", id="inverse"),
])
def test_q_report_builds_no_fraction_reducer(sample, command, monkeypatch, tmp_path):
    """A Q gens report builds no reducer on the Fraction core, in the
    analysis and identities stages or anywhere else: its eliminations run
    on images mod primes and the table on the F_p mirror.  Neither do the
    Q oracle commands, whose slices and counts run on the modular core."""
    par = sample(QQ, 6, random.Random(601)).par
    made = []
    make = linalg._make_core

    def counted(field, ncols):
        core = make(field, ncols)
        made.append(type(core))
        return core

    monkeypatch.setattr(linalg, "_make_core", counted)
    if command == "gens":
        assert build_report(par).all_pass
    else:
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(curve_to_json(par)))
        code, _, err = _in_process([command, str(path)])
        assert code == 0, err
    assert modular._ModularCore in made and linalg._FractionCore not in made
