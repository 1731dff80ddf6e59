"""End-to-end generator reports: run a pipeline, verify everything, serialize.

A report records the curve, its invariants (mu, properness degree,
singularity class), the assembled minimal generators with provenance labels,
a per-generator verification matrix, and the brute-force minimal-generator
table cross-check.  Reports round-trip through JSON (schema 1) and can be
re-verified from the file alone.
"""
from __future__ import annotations

import time

from .errors import ImproperParametrization, PreconditionError, VerificationError
from .fields import DEFAULT_PRIME, PrimeField, Rationals, field_from_spec
from .oracle import Oracle, ideal_piece_membership, independent_mod
from .poly import BiPoly, resultant_t, tpoly_dense
from .syzygy import (
    NOT_APPLICABLE,
    Parametrization,
    VERY_SINGULAR,
    classify_singularity,
    implicit_equation,
    mu_basis,
    parametrization,
)

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# curve (de)serialization
# ---------------------------------------------------------------------------

def curve_to_json(par: Parametrization) -> dict:
    F = par.field
    return {
        "field": F.name,
        "d": par.d,
        "u0": [F.scalar_str(c) for c in tpoly_dense(par.u0)],
        "u1": [F.scalar_str(c) for c in tpoly_dense(par.u1)],
        "u2": [F.scalar_str(c) for c in tpoly_dense(par.u2)],
    }


def curve_from_json(doc: dict, field_override=None) -> Parametrization:
    """Parse a curve document; a missing or unusable field spec, a
    coefficient list that is missing, not a JSON array or malformed (a
    boolean entry too), and a declared d that is a boolean or disagrees with
    the lists raise PreconditionError("curve_input")."""
    if not isinstance(doc, dict):
        raise PreconditionError("curve_input", "a curve is a JSON object")
    field = field_override
    if field is None:
        spec = doc.get("field")
        if not isinstance(spec, str):
            raise PreconditionError("curve_input", "field must be a string: 'q' or 'fp:<prime>'")
        try:
            field = field_from_spec(spec)
        except ValueError as exc:
            raise PreconditionError("curve_input", f"bad field: {exc}") from exc
    lists = []
    for key in ("u0", "u1", "u2"):
        if key not in doc:
            raise PreconditionError("curve_input", f"missing {key}")
        if not isinstance(doc[key], list):
            raise PreconditionError("curve_input", f"{key} must be a JSON array")
        if any(isinstance(c, bool) for c in doc[key]):
            raise PreconditionError("curve_input", f"bad coefficient in {key}: a boolean")
        try:
            lists.append([field.coerce(c) for c in doc[key]])
        except (ArithmeticError, TypeError, ValueError) as exc:
            raise PreconditionError("curve_input", f"bad coefficient in {key}: {exc}") from exc
    if len({len(l) for l in lists}) != 1:
        raise PreconditionError("curve_input", "u0, u1, u2 lengths differ")
    if not lists[0]:
        raise PreconditionError("curve_input", "empty coefficient lists")
    if "d" in doc and (isinstance(doc["d"], bool) or doc["d"] != len(lists[0]) - 1):
        raise PreconditionError(
            "curve_input", f"declared d={doc['d']} but lists have length {len(lists[0])}"
        )
    return parametrization(field, *lists)


#: Primes for the table cross-check of a curve over Q, tried in this order
#: until one gives good reduction: the largest primes below 2^62.
MIRROR_PRIMES = (DEFAULT_PRIME, (1 << 62) - 87, (1 << 62) - 117, (1 << 62) - 143)


def mirror_to_prime_field(par: Parametrization, p: int = DEFAULT_PRIME) -> Parametrization:
    """Reduce a rational curve mod p (used to run the big table cross-check).

    The reduced triple is the primitive integer one, the base of the curve's
    PowerTable: denominators cleared and the content divided out, so scaling
    the curve never changes its mirror.
    Raises PreconditionError when the reduction is not a parametrization (the
    components acquire a common factor mod p, which a degree drop also gives).
    """
    F = PrimeField(p)
    return parametrization(F, *[[F.coerce(c) for c in u] for u in par.powers.base])


def _good_mirror(par: Parametrization, kind: str, primes, notes) -> Parametrization:
    """The first reduction of par with the same d, mu = 2 and class `kind`."""
    for p in primes:
        try:
            mirror = mirror_to_prime_field(par, p)
            mb = mu_basis(mirror)
            if mb.mu == 2 and classify_singularity(mb).kind == kind:
                return mirror
        except (PreconditionError, VerificationError):
            pass
        notes.append(f"bad reduction mod {p}: the mirror loses mu = 2 or the class")
    raise PreconditionError(
        "mirror_reduction", f"no good reduction at any of the primes {list(primes)}"
    )


# ---------------------------------------------------------------------------
# report structures
# ---------------------------------------------------------------------------

class GeneratorRecord:
    __slots__ = ("bidegree", "label", "text", "checks")

    def __init__(self, bidegree: tuple, label: str, text: str, checks: dict):
        self.bidegree = bidegree
        self.label = label
        self.text = text
        self.checks = checks

    @property
    def verified(self) -> bool:
        return all(self.checks.values())


class GeneratorReport:
    __slots__ = (
        "curve", "d", "mu", "properness_degree", "singularity", "generators",
        "table_cells", "table_field", "table_box", "verdicts", "notes", "timings",
    )

    def __init__(self, curve: dict, d: int, mu: int, properness_degree: int,
                 singularity: dict, generators: list, table_cells: list,
                 table_field: str, table_box: tuple, verdicts: dict,
                 notes: list | None = None, timings: dict | None = None):
        self.curve = curve
        self.d = d
        self.mu = mu
        self.properness_degree = properness_degree
        self.singularity = singularity
        self.generators = generators
        self.table_cells = table_cells
        self.table_field = table_field
        self.table_box = table_box
        self.verdicts = verdicts
        self.notes = [] if notes is None else notes
        self.timings = {} if timings is None else timings

    @property
    def all_pass(self) -> bool:
        return all(self.verdicts.values()) and all(g.verified for g in self.generators)

    def to_json(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "command": "gens",
            "curve": self.curve,
            "d": self.d,
            "mu": self.mu,
            "properness_degree": self.properness_degree,
            "singularity": self.singularity,
            "generators": [
                {
                    "bidegree": list(g.bidegree),
                    "label": g.label,
                    "poly": g.text,
                    "checks": g.checks,
                    "verified": g.verified,
                }
                for g in self.generators
            ],
            "oracle_table": {
                "field": self.table_field,
                "imax": self.table_box[0],
                "jmax": self.table_box[1],
                "cells": [list(c) for c in self.table_cells],
            },
            "verdicts": self.verdicts,
            "all_pass": self.all_pass,
            "notes": self.notes,
            "timings": self.timings,
        }


# ---------------------------------------------------------------------------
# report construction
# ---------------------------------------------------------------------------

def build_report(par: Parametrization) -> GeneratorReport:
    t_start = time.perf_counter()
    timings = {}
    F = par.field
    mb = mu_basis(par)
    if mb.mu != 2:
        raise PreconditionError(
            "mu_equals_2", f"generator assembly supports mu = 2 (got mu = {mb.mu})"
        )
    imp = implicit_equation(mb)
    if imp.properness_degree != 1:
        raise ImproperParametrization(imp.properness_degree)
    sing = classify_singularity(mb)
    notes = []
    verdicts = {}
    timings["analysis"] = time.perf_counter() - t_start

    t0 = time.perf_counter()
    # each class imports only its own pipeline
    if sing.kind == VERY_SINGULAR:
        from . import mu2sing

        ctx = mu2sing.very_singular_context(par, mb, sing, imp)
        asm = mu2sing.assemble_very_singular(ctx)
    else:
        from . import mu2mild

        if sing.kind == NOT_APPLICABLE:
            notes.append(
                "2*mu = d boundary: emitting the double-point family without "
                "asserting the count formula"
            )
        ctx = mu2mild.mild_context(par, mb, sing, imp)
        asm = mu2mild.assemble_mild(ctx)
    gens = asm.generators
    timings["assembly"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    records = []
    for g in gens:
        # the one place a generator meets the curve: K_{i,j} is the kernel
        # of the substitution, so both checks read one substitution of the
        # printed form
        in_kernel = par.substitute(g.poly).is_zero()
        checks = {"substitutes-to-zero": in_kernel, "in-kernel-span": in_kernel}
        records.append(
            GeneratorRecord(
                bidegree=g.bidegree, label=g.label, text=g.poly.text(), checks=checks
            )
        )
    timings["per-generator"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    if sing.kind == VERY_SINGULAR:
        _very_singular_verdicts(ctx, asm, verdicts)
    else:
        _mild_verdicts(ctx, asm, verdicts)
    timings["identities"] = time.perf_counter() - t0

    box = (par.d - mb.mu, par.d)
    t0 = time.perf_counter()
    # over Q the table runs on a prime-field mirror of the curve
    tab_par = par
    if isinstance(F, Rationals):
        tab_par = _good_mirror(par, sing.kind, MIRROR_PRIMES, notes)
        notes.append(
            f"table cross-check computed over the prime-field mirror {tab_par.field.name}"
        )
    table_field = tab_par.field.name
    table = Oracle(tab_par).mingen_table(box[0], box[1])
    table_cells = [(i, j, c) for (i, j), c in sorted(table.counts.items())]
    expected = sorted(g.bidegree for g in gens)
    if sing.kind == NOT_APPLICABLE:
        notes.append(
            f"boundary case: table multiset match = {table.multiset() == expected} (informational)"
        )
    else:
        verdicts["oracle-table-multiset"] = table.multiset() == expected
    hits = table.boundary_hits()
    if hits:
        notes.append(f"nonzero boundary cells in the table box: {hits}")
    timings["oracle-table"] = time.perf_counter() - t0

    timings["total"] = time.perf_counter() - t_start
    return GeneratorReport(
        curve=curve_to_json(par),
        d=par.d,
        mu=mb.mu,
        properness_degree=imp.properness_degree,
        singularity=singularity_doc(F, sing),
        generators=records,
        table_cells=table_cells,
        table_field=table_field,
        table_box=box,
        verdicts=verdicts,
        notes=notes,
        timings=timings,
    )


def singularity_doc(F, sing) -> dict:
    """A SingularityClass as JSON: kind and note, then the coordinate change
    and the axial pair when the class has them."""
    doc = {"kind": sing.kind, "note": sing.note}
    if sing.change is not None:
        doc["change"] = [[F.scalar_str(x) for x in row] for row in sing.change]
    if sing.axial_pair is not None:
        doc["axial_pair"] = [p.text() for p in sing.axial_pair]
    return doc


def _very_singular_verdicts(ctx, asm, verdicts):
    eq = ctx.implicit.equation
    fam, tops = asm.family, asm.tops
    low = ctx.mb.p
    # the high moving line (the family's first member) is the one assembled
    # generator allowed to involve a pure X2 term; everything else lives in
    # <X0, X1>
    verdicts["generators-in-x01-ideal"] = all(
        g.in_x01_power(1) for g in [eq, low, *fam[1:], *tops]
    )
    k = ctx.k
    emma = []
    if fam:
        # the family climbs one power of <X0,X1> per shift
        for pos, f in enumerate(fam):
            emma.append(f.in_x01_power(pos))
        if ctx.r == -1:
            emma.append(not fam[-1].in_x01_power(k - 1))
    for t in tops:
        emma.append(t.in_x01_power(k - 1))
        emma.append(not t.in_x01_power(k))
    verdicts["power-ideal-memberships"] = all(emma)
    verdicts["family-not-multiple-of-low-line"] = all(
        not ideal_piece_membership(f, [low]) for f in fam
    )
    ok = []
    for f in fam:
        r = resultant_t(low, f)
        ok.append((not r.is_zero()) and r.proportional_to(eq))
    if len(tops) == 2:
        r = resultant_t(tops[0], tops[1])
        ok.append((not r.is_zero()) and r.proportional_to(eq))
    elif len(tops) == 1:
        r = resultant_t(low, tops[0])
        ok.append((not r.is_zero()) and eq.divides_into(r))
    verdicts["resultant-identities"] = all(ok)


def _mild_verdicts(ctx, asm, verdicts):
    from .mu2mild import morley_det_check

    F = ctx.field
    deltas = asm.deltas
    t0m = BiPoly.monomial(F, (1, 0, 0, 0, 0))
    t1m = BiPoly.monomial(F, (0, 1, 0, 0, 0))
    pq = [ctx.mb.p, ctx.mb.q]
    verdicts["sylvester-shift-relations"] = all(
        diff.is_zero() or ideal_piece_membership(diff, pq)
        for diff in (
            deltas[(0, 0)] - t0m * deltas[(1, 0)],
            deltas[(0, 0)] - t1m * deltas[(0, 1)],
        )
    )
    verdicts["sylvester-pair-independent-mod-low-line"] = independent_mod(
        [deltas[(1, 0)], deltas[(0, 1)]], [ctx.mb.p]
    )
    if asm.minors:
        indep = []
        dets = []
        for i, fam in asm.minors.items():
            indep.append(independent_mod(fam, [ctx.mb.p]))
            _, lam = morley_det_check(ctx, i, asm.morley)
            dets.append(not F.is_zero(lam))
        verdicts["minor-families-independent-mod-low-line"] = all(indep)
        verdicts["morley-determinants"] = all(dets)


# ---------------------------------------------------------------------------
# verify: re-run a saved report
# ---------------------------------------------------------------------------

def verify_report(saved: dict):
    """Recompute a saved gens report and compare (timings masked).

    Returns (ok, list of differences).  A document without the shape of a
    gens report raises PreconditionError("report_input").
    """
    if not isinstance(saved, dict):
        raise PreconditionError("report_input", "a gens report is a JSON object")
    if saved.get("schema") != SCHEMA_VERSION:
        return False, [f"unsupported schema {saved.get('schema')!r}"]
    _check_report_shape(saved)
    diffs = []
    par = curve_from_json(saved["curve"])
    fresh = build_report(par).to_json()
    for key in ("d", "mu", "properness_degree", "all_pass"):
        if fresh[key] != saved.get(key):
            diffs.append(f"{key}: saved {saved.get(key)!r} vs recomputed {fresh[key]!r}")
    if fresh["singularity"].get("kind") != saved["singularity"].get("kind"):
        diffs.append("singularity kind differs")
    old_gens = [
        (tuple(g["bidegree"]), g["label"], g["poly"]) for g in saved["generators"]
    ]
    new_gens = [
        (tuple(g["bidegree"]), g["label"], g["poly"]) for g in fresh["generators"]
    ]
    if old_gens != new_gens:
        diffs.append("generator lists differ")
    if saved["oracle_table"].get("cells") != fresh["oracle_table"]["cells"]:
        diffs.append("oracle tables differ")
    if not fresh["all_pass"]:
        diffs.append("recomputed report has failing verdicts")
    return not diffs, diffs


def _check_report_shape(saved: dict):
    """Refuse a document without the parts of a gens report verify reads."""
    for key, kind in (("curve", dict), ("singularity", dict),
                      ("generators", list), ("oracle_table", dict)):
        if not isinstance(saved.get(key), kind):
            raise PreconditionError(
                "report_input",
                f"{key!r} must be a JSON {'object' if kind is dict else 'array'}",
            )
    for g in saved["generators"]:
        if not (isinstance(g, dict) and isinstance(g.get("bidegree"), list)
                and {"label", "poly"} <= g.keys()):
            raise PreconditionError(
                "report_input", "each generator needs a bidegree list, a label and a poly"
            )
