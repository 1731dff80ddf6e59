"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run standalone with `pytest tests/test_acceptance.py -v -s`.
"""
import itertools
import json
import multiprocessing
import random
import subprocess
import sys
import time

import pytest

from curves import (
    MU3_CURVE1_BIDEGREES,
    MU3_CURVE2_BIDEGREES,
    apply_dx,
    binomial_even,
    closed_form_generators_odd,
    expected_count,
    invariants,
    monomial_odd,
    mu3_degree10_curves,
    predicted_multiset,
)
from reescurve.fields import DEFAULT_PRIME, PrimeField, QQ
from reescurve.poly import BiPoly, monomials_of_bidegree, parse_bipoly, t_poly, tpoly_gcd
from reescurve.report import build_report, curve_to_json
from reescurve.syzygy import mu_basis

FP = PrimeField(DEFAULT_PRIME)


def _line(num, desc, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    msg = f"ACCEPTANCE {num} [{desc}]: {status}"
    if detail:
        msg += f" ({detail})"
    print(msg, flush=True)


# ---------------------------------------------------------------------------
# criteria 1 and 2: the two closed-form families over Q
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def family_reports():
    odd = {}
    for k in (3, 4, 5, 6):
        t0 = time.perf_counter()
        rep = build_report(monomial_odd(k))
        odd[k] = (rep, time.perf_counter() - t0)
    even = {}
    for k in (3, 4, 5):
        t0 = time.perf_counter()
        rep = build_report(binomial_even(k))
        even[k] = (rep, time.perf_counter() - t0)
    return odd, even


def test_criterion_1_odd_monomial_family(family_reports):
    odd, _ = family_reports
    ok = True
    details = []
    for k, (rep, elapsed) in odd.items():
        d = 2 * k - 1
        expected = [g.normalized().text() for g in closed_form_generators_odd(k)]
        got = [g.text for g in rep.generators]
        this = (
            len(rep.generators) == k + 2
            and got == expected
            and rep.all_pass
            and elapsed < 10.0
        )
        details.append(f"k={k}: gens={len(rep.generators)} time={elapsed:.1f}s")
        ok = ok and this
    _line(1, "odd monomial family, closed forms", ok, "; ".join(details))
    assert ok, details


def _naive_sylvester_det(p, q):
    """Independent resultant oracle: permutation expansion of the Sylvester
    matrix (no elimination, no shared code path with resultant_t)."""
    F = p.field
    s1, s2 = p.tdeg, q.tdeg
    n = s1 + s2
    pc = [p.t_coefficient(s1 - a, a) for a in range(s1 + 1)]
    qc = [q.t_coefficient(s2 - a, a) for a in range(s2 + 1)]
    rows = []
    for r in range(s1):
        row = [BiPoly.zero(F, 0, q.xdeg) for _ in range(n)]
        for a in range(s2 + 1):
            row[r + a] = qc[a]
        rows.append(row)
    for r in range(s2):
        row = [BiPoly.zero(F, 0, p.xdeg) for _ in range(n)]
        for a in range(s1 + 1):
            row[r + a] = pc[a]
        rows.append(row)
    det = BiPoly.zero(F, 0, 0)
    for perm in itertools.permutations(range(n)):
        term = BiPoly.constant(F, 1)
        zero = False
        for i, jcol in enumerate(perm):
            if rows[i][jcol].is_zero():
                zero = True
                break
            term = term * rows[i][jcol]
        if zero:
            continue
        inv = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        det = det + (term if inv % 2 == 0 else -term)
    return det


def test_criterion_2_even_family(family_reports):
    _, even = family_reports
    ok = True
    details = []
    for k, (rep, elapsed) in even.items():
        this = len(rep.generators) == k + 3 and rep.all_pass and elapsed < 30.0
        details.append(f"k={k}: gens={len(rep.generators)} time={elapsed:.1f}s")
        ok = ok and this
    # k = 3: re-derive the implicit equation with the naive resultant oracle
    par = binomial_even(3)
    mb = mu_basis(par)
    naive = _naive_sylvester_det(mb.p, mb.q).normalized()
    displayed = parse_bipoly(
        QQ, "X1^6 - X0^4*X1*X2 - 4*X0^3*X1^2*X2 - 2*X0^2*X1^3*X2 + X0^4*X2^2"
    ).normalized()
    eq_texts = [g.text for g in even[3][0].generators if g.label == "implicit-equation"]
    this = naive == displayed and eq_texts == [displayed.text()]
    details.append(f"k=3 equation re-derived: {this}")
    ok = ok and this
    _line(2, "even family, counts and implicit equation", ok, "; ".join(details))
    assert ok, details


# ---------------------------------------------------------------------------
# criterion 3 (and data for 4-7): random-class survey over the 62-bit field
# ---------------------------------------------------------------------------

SURVEY_PLAN = (
    [("very-singular", d, 300 + n) for n, d in enumerate([5] * 8 + [7] * 7 + [9] * 5)]
    + [("very-singular", d, 400 + n) for n, d in enumerate([6] * 8 + [8] * 7 + [10] * 5)]
    + [("mild", d, 500 + n) for n, d in enumerate([5] * 5 + [6] * 4 + [7] * 4 + [8] * 3 + [9] * 2 + [10] * 2)]
)


def _survey_case(case):
    kind, d, seed = case
    from reescurve.adjoint import adjoint_report
    from reescurve.mu2sing import apply_dt, very_singular_context
    from reescurve.oracle import Oracle, ideal_piece_membership
    from reescurve.sampling import sample_mild, sample_very_singular

    field = PrimeField(DEFAULT_PRIME)
    rng = random.Random(seed)
    sampler = sample_mild if kind == "mild" else sample_very_singular
    sample = sampler(field, d, rng)
    rep = build_report(sample.par)
    out = {
        "kind": kind,
        "d": d,
        "seed": seed,
        "all_pass": rep.all_pass,
        "verdicts": rep.verdicts,
        "gen_count": len(rep.generators),
        "table_multiset": sorted(
            [i, j] for (i, j, c) in rep.table_cells for _ in range(c)
        ),
    }
    if kind != "mild":
        ctx = very_singular_context(sample.par, *invariants(sample.par))
        arep = adjoint_report(ctx.par)
        out["formulas_agree"] = arep.all_formulas_agree()
        out["zrows"] = [
            [r.ell, r.z_dim, r.bound]
            for r in arep.rows
            if d - 2 <= r.ell <= d + 2
        ]
        orc = Oracle(ctx.par)
        prng = random.Random(seed * 7919 + 13)
        ops = []
        for (i, j) in ((3, 1), (3, 2), (4, 2)):
            if i > d - 2:
                continue
            basis = orc.kernel_basis(i, j).basis
            if not basis:
                continue
            g = BiPoly.zero(field, i, j)
            for b in basis:
                g = g + b.scale(prng.randrange(field.p))
            if g.is_zero():
                continue
            down = apply_dt(ctx, g)
            back = apply_dx(ctx, down)
            diff = back - g
            ops.append(
                down.subst_x(*ctx.par.triple).is_zero()
                and back.subst_x(*ctx.par.triple).is_zero()
                and (diff.is_zero() or ideal_piece_membership(diff, [ctx.mb.p]))
            )
        out["ops"] = ops
    return out


@pytest.fixture(scope="module")
def survey():
    t0 = time.perf_counter()
    with multiprocessing.get_context("fork").Pool(2) as pool:
        results = pool.map(_survey_case, SURVEY_PLAN)
    elapsed = time.perf_counter() - t0
    return results, elapsed


def test_criterion_3_tables_match_theorems(survey):
    results, elapsed = survey
    ok = True
    per_class = {"very-singular": 0, "mild": 0}
    fails = []
    for r in results:
        per_class[r["kind"]] += 1
        predicted = [list(b) for b in predicted_multiset(r["d"], r["kind"])]
        if r["table_multiset"] != predicted:
            fails.append((r["kind"], r["d"], r["seed"], "table"))
            ok = False
        if r["gen_count"] != expected_count(r["d"], r["kind"]):
            fails.append((r["kind"], r["d"], r["seed"], "count"))
            ok = False
        if not r["all_pass"]:
            fails.append((r["kind"], r["d"], r["seed"], "verdicts"))
            ok = False
    vs_odd = sum(1 for r in results if r["kind"] == "very-singular" and r["d"] % 2)
    vs_even = sum(1 for r in results if r["kind"] == "very-singular" and r["d"] % 2 == 0)
    enough = vs_odd >= 20 and vs_even >= 20 and per_class["mild"] >= 20
    ok = ok and enough and elapsed < 120.0
    _line(
        3,
        "random classes vs theorem tables",
        ok,
        f"odd={vs_odd} even={vs_even} mild={per_class['mild']} time={elapsed:.0f}s fails={fails}",
    )
    assert ok, fails


def test_criterion_4_resultant_identities(survey, family_reports):
    results, _ = survey
    ok = True
    checked = 0
    for r in results:
        if r["kind"] == "very-singular":
            checked += 1
            if not r["verdicts"].get("resultant-identities", False):
                ok = False
    odd, even = family_reports
    for k, (rep, _) in list(odd.items()) + list(even.items()):
        checked += 1
        if not rep.verdicts.get("resultant-identities", False):
            ok = False
    _line(4, "resultant identities on all pipeline curves", ok, f"curves={checked}")
    assert ok


def test_criterion_5_shift_operator_identity(survey):
    results, _ = survey
    total = 0
    good = 0
    for r in results:
        for flag in r.get("ops", []):
            total += 1
            good += bool(flag)
    ok = total >= 100 and good == total
    _line(5, "shift operators: round trip mod P on kernel samples", ok, f"{good}/{total}")
    assert ok, (good, total)


def test_criterion_6_morley_determinants(survey):
    results, _ = survey
    ok = True
    n = 0
    for r in results:
        if r["kind"] == "mild" and r["d"] >= 5:
            n += 1
            if not r["verdicts"].get("morley-determinants", False):
                ok = False
    _line(6, "resultant-matrix determinants on mild curves", ok, f"curves={n}")
    assert ok


def test_criterion_7_adjoint_dimensions(survey):
    results, _ = survey
    formulas_ok = True
    within = True
    attained = 0
    slots = 0
    samples = 0
    fails = []
    for r in results:
        if r["kind"] != "very-singular":
            continue
        samples += 1
        if not r["formulas_agree"]:
            formulas_ok = False
            fails.append((r["seed"], "formula"))
        for ell, z, bound in r["zrows"]:
            slots += 1
            if z > bound:
                within = False
                fails.append((r["seed"], f"z>{bound} at ell={ell}"))
            if z == bound:
                attained += 1
            else:
                fails.append((r["seed"], f"z={z}!={bound} at ell={ell}"))
    frac = attained / slots if slots else 0.0
    ok = formulas_ok and within and samples >= 20 and frac >= 0.9
    _line(
        7,
        "adjoint slice dimensions",
        ok,
        f"samples={samples} formula-agreement={formulas_ok} attained={attained}/{slots} logged={fails[:5]}",
    )
    assert ok, fails


# ---------------------------------------------------------------------------
# criterion 8: the mu = 3, d = 10 table regression via the CLI
# ---------------------------------------------------------------------------

def test_criterion_8_mu3_degree10_regression(tmp_path):
    t0 = time.perf_counter()
    par1, par2 = mu3_degree10_curves(FP)
    got = []
    for n, par in enumerate((par1, par2), start=1):
        path = tmp_path / f"mu3_{n}.json"
        path.write_text(json.dumps(curve_to_json(par)))
        r = subprocess.run(
            [
                sys.executable,
                "-m",
                "reescurve.cli",
                "oracle-table",
                str(path),
                "--imax",
                "7",
                "--jmax",
                "10",
            ],
            capture_output=True,
            text=True,
        )
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        cells = [((i, j), c) for i, j, c in doc["cells"]]
        multiset = sorted(b for b, c in cells for _ in range(c))
        got.append(multiset)
    elapsed = time.perf_counter() - t0
    ok = (
        got[0] == MU3_CURVE1_BIDEGREES
        and got[1] == MU3_CURVE2_BIDEGREES
        and (1, 5) in got[1]
        and (1, 5) not in got[0]
        and elapsed < 120.0
    )
    _line(8, "mu=3 d=10 published bidegree lists", ok, f"time={elapsed:.0f}s")
    assert ok, got


# ---------------------------------------------------------------------------
# criterion 9: bulk property sweep (standalone-runnable)
# ---------------------------------------------------------------------------

def test_criterion_9_property_sweep():
    from reescurve.linalg import ExactMatrix
    from reescurve.poly import resultant_t

    t0 = time.perf_counter()
    rng = random.Random(99)
    failures = []

    # 334 grading instances over both fields
    for n in range(334):
        field = FP if n % 2 else QQ
        i1, j1 = rng.randint(0, 2), rng.randint(0, 2)
        i2, j2 = rng.randint(0, 2), rng.randint(0, 2)
        f = BiPoly(
            field,
            i1,
            j1,
            {m: rng.randint(-5, 5) for m in monomials_of_bidegree(i1, j1)},
        )
        g = BiPoly(
            field,
            i2,
            j2,
            {m: rng.randint(-5, 5) for m in monomials_of_bidegree(i2, j2)},
        )
        prod = f * g
        if not prod.is_zero():
            good = prod.bidegree == (i1 + i2, j1 + j2) and all(
                m[0] + m[1] == i1 + i2 and m[2] + m[3] + m[4] == j1 + j2
                for m, _ in prod.terms()
            )
            if not good:
                failures.append(("grading", n))

    # 333 resultant antisymmetry instances
    for n in range(333):
        field = FP if n % 2 else QQ
        s1, s2 = rng.randint(1, 2), rng.randint(1, 2)
        f = BiPoly(
            field, s1, 1, {m: rng.randint(-4, 4) for m in monomials_of_bidegree(s1, 1)}
        )
        g = BiPoly(
            field, s2, 1, {m: rng.randint(-4, 4) for m in monomials_of_bidegree(s2, 1)}
        )
        if f.is_zero() or g.is_zero():
            continue
        lhs = resultant_t(f, g)
        rhs = resultant_t(g, f)
        if lhs != (rhs if (s1 * s2) % 2 == 0 else -rhs):
            failures.append(("antisymmetry", n))

    # 333 saturation instances: coprime pairs fill every degree >= 2 s0 - 1
    for n in range(333):
        field = FP if n % 2 else QQ
        s0 = rng.randint(1, 3)
        a = t_poly(field, [rng.randint(-5, 5) for _ in range(s0 + 1)])
        b = t_poly(field, [rng.randint(-5, 5) for _ in range(s0 + 1)])
        if a.is_zero() or b.is_zero():
            continue
        coprime = tpoly_gcd(a, b).tdeg == 0
        s = 2 * s0 - 1
        from reescurve.poly import tpoly_dense

        da, db = tpoly_dense(a), tpoly_dense(b)
        cols = []
        for dv in (da, db):
            for off in range(s - s0 + 1):
                col = [field.zero] * (s + 1)
                for t, c in enumerate(dv):
                    col[off + t] = c
                cols.append(col)
        rank = ExactMatrix(
            field, [[cols[c][r] for c in range(len(cols))] for r in range(s + 1)]
        ).rank()
        if coprime and rank != s + 1:
            failures.append(("saturation", n))
        if not coprime and rank == s + 1:
            failures.append(("saturation-converse", n))

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    _line(9, "bulk property sweep (1000 instances)", ok, f"time={elapsed:.1f}s")
    assert ok, failures[:10]
