"""Command-line interface.

Machine-readable JSON goes to stdout (or plain text with --out text); human
progress notes go to stderr.  Exit codes: 0 success, 2 precondition violation
(unreadable or malformed input, improper curve, unsupported mu; the JSON
error document names the invariant), 3 verification failure, 4 internal error
(any other exception a computation raised; the JSON error document names its
type).
"""
from __future__ import annotations

import argparse
import functools
import json
import random
import sys

from .errors import ImproperParametrization, PreconditionError, VerificationError
from .fields import DEFAULT_PRIME, field_from_spec
from .oracle import Oracle
from .report import (
    SCHEMA_VERSION,
    build_report,
    curve_from_json,
    curve_to_json,
    singularity_doc,
    verify_report,
)
from .syzygy import (
    VERY_SINGULAR,
    apply_x_change,
    classify_singularity,
    implicit_equation,
    inverse_map,
    mu_basis,
)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_VERIFICATION = 3
EXIT_INTERNAL = 4

# raised only by a computation gone wrong, never by reading a malformed input
# (_read_json and curve_from_json turn those into PreconditionError, a
# ValueError, and VerificationError is a RuntimeError: both are caught first)
INTERNAL_ERRORS = (ArithmeticError, LookupError, TypeError, ValueError, RuntimeError)


def _log(msg: str):
    print(msg, file=sys.stderr)


def _field_arg(spec):
    """The field a --field spec names; a bad spec refuses as field_spec."""
    try:
        return field_from_spec(spec)
    except ValueError as exc:
        raise PreconditionError("field_spec", f"bad --field: {exc}") from exc


def _read_json(path):
    """The JSON document in a file, or on stdin for "-"; input that cannot be
    opened, decoded or parsed (nesting too deep for the parser included)
    refuses as input_file.  Bytes are handed to the JSON parser, which decodes
    them strictly (stdin's text layer would let undecodable bytes through as
    surrogates)."""
    try:
        if path == "-":
            return json.load(sys.stdin.buffer)
        with open(path, "rb") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        raise PreconditionError("input_file", f"cannot read JSON from {path}: {exc}") from exc


def _load_curve(args):
    override = _field_arg(args.field) if args.field else None
    return curve_from_json(_read_json(args.input), field_override=override)


def _emit(doc: dict, args, text_lines=None):
    if args.out == "json":
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        for line in text_lines or [json.dumps(doc, indent=2, sort_keys=True)]:
            print(line)


def cmd_mubasis(args):
    par = _load_curve(args)
    mb = mu_basis(par)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "mubasis",
        "curve": curve_to_json(par),
        "mu": mb.mu,
        "p": mb.p.text(),
        "q": mb.q.text(),
    }
    _emit(doc, args, [f"mu = {mb.mu}", f"P = {mb.p.text()}", f"Q = {mb.q.text()}"])
    return EXIT_OK


def cmd_implicitize(args):
    par = _load_curve(args)
    imp = implicit_equation(mu_basis(par))
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "implicitize",
        "curve": curve_to_json(par),
        "equation": imp.equation.text(),
        "degree": imp.equation.xdeg,
        "properness_degree": imp.properness_degree,
    }
    _emit(
        doc,
        args,
        [
            f"E = {imp.equation.text()}",
            f"map degree e = {imp.properness_degree}",
        ],
    )
    return EXIT_OK


def cmd_classify(args):
    par = _load_curve(args)
    sing = classify_singularity(mu_basis(par))
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "classify",
        "curve": curve_to_json(par),
        **singularity_doc(par.field, sing),
    }
    _emit(doc, args, [f"kind = {sing.kind}", sing.note or ""])
    return EXIT_OK


def cmd_inverse(args):
    par = _load_curve(args)
    inv = inverse_map(par)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "inverse",
        "curve": curve_to_json(par),
        "a": inv.a.text(),
        "b": inv.b.text(),
        "ell": inv.ell,
    }
    _emit(doc, args, [f"psi = ({inv.a.text()} : {inv.b.text()}), degree {inv.ell}"])
    return EXIT_OK


def cmd_gens(args):
    par = _load_curve(args)
    _log(f"assembling generators for d={par.d} over {par.field.name} ...")
    rep = build_report(par)
    doc = rep.to_json()
    lines = [
        f"d={rep.d} mu={rep.mu} e={rep.properness_degree} class={rep.singularity['kind']}",
        f"{len(rep.generators)} generators:",
    ]
    for g in rep.generators:
        mark = "ok" if g.verified else "FAIL"
        lines.append(f"  {g.bidegree} [{mark}] {g.label}: {g.text}")
    lines.append(f"verdicts: {rep.verdicts}")
    lines.append(f"all_pass: {rep.all_pass}")
    _emit(doc, args, lines)
    return EXIT_OK if rep.all_pass else EXIT_VERIFICATION


def cmd_oracle_table(args):
    par = _load_curve(args)
    orc = Oracle(par)
    table = orc.mingen_table(args.imax, args.jmax)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "oracle-table",
        "curve": curve_to_json(par),
        "d": par.d,
        "mu": table.mu,
        "imax": table.imax,
        "jmax": table.jmax,
        "cells": [[i, j, c] for (i, j), c in sorted(table.counts.items())],
        "total": table.total(),
        "boundary_hits": [list(c) for c in table.boundary_hits()],
    }
    lines = [f"minimal-generator counts (i <= {table.imax}, j <= {table.jmax}):"]
    for (i, j), c in sorted(table.counts.items()):
        lines.append(f"  ({i},{j}): {c}")
    lines.append(f"total {table.total()}")
    _emit(doc, args, lines)
    return EXIT_OK


def cmd_adjoint_dims(args):
    from .adjoint import adjoint_report

    par = _load_curve(args)
    mb = mu_basis(par)
    if mb.mu != 2:
        raise PreconditionError("mu_equals_2", f"mu = {mb.mu}")
    sing = classify_singularity(mb)
    if sing.kind != VERY_SINGULAR:
        raise PreconditionError(
            "very_singular", f"adjoint dimensions need the very singular class, got {sing.kind}"
        )
    tpar = apply_x_change(par, sing.change)
    rep = adjoint_report(tpar, args.lmax)
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "adjoint-dims",
        "curve": curve_to_json(par),
        "d": rep.d,
        "rows": [
            {
                "ell": r.ell,
                "k1_formula": r.k1_formula,
                "k1_oracle": r.k1_oracle,
                "z_dim": r.z_dim,
                "bound": r.bound,
            }
            for r in rep.rows
        ],
        "formulas_agree": rep.all_formulas_agree(),
    }
    lines = ["ell  dim-K1(formula)  dim-K1(oracle)  dim-Z  target"]
    for r in rep.rows:
        lines.append(
            f"{r.ell:3d}  {r.k1_formula:15d}  {r.k1_oracle:14d}  {r.z_dim:5d}  {r.bound:6d}"
        )
    _emit(doc, args, lines)
    return EXIT_OK if rep.all_formulas_agree() else EXIT_VERIFICATION


def cmd_verify(args):
    ok, diffs = verify_report(_read_json(args.input))
    doc = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "ok": ok,
        "differences": diffs,
    }
    _emit(doc, args, ["verify: ok" if ok else "verify: FAILED"] + diffs)
    return EXIT_OK if ok else EXIT_VERIFICATION


def cmd_sample(args, kind):
    from .sampling import sample_mild, sample_very_singular

    field = _field_arg(args.field or f"fp:{DEFAULT_PRIME}")
    rng = random.Random(args.seed)
    if kind == "mild":
        sample = sample_mild(field, args.degree, rng)
    else:
        sample = sample_very_singular(field, args.degree, rng)
    doc = curve_to_json(sample.par)
    doc["schema"] = SCHEMA_VERSION
    doc["seed"] = args.seed
    doc["class"] = kind
    _emit(doc, args, [json.dumps(doc, indent=2, sort_keys=True)])
    return EXIT_OK


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as it
    is, and each subcommand's function is looked up when it runs."""
    ap = argparse.ArgumentParser(
        prog="reescurve",
        description="Exact minimal generators of the bigraded ideal of a plane parametrization (mu = 2)",
    )
    ap.add_argument("--field", help="field spec: q | fp | fp:<prime> (overrides input file)")
    ap.add_argument("--out", choices=("json", "text"), default="json")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_curve_cmd(name, fn, help_):
        p = sub.add_parser(name, help=help_)
        p.add_argument("input", help="curve JSON file, or - for stdin")
        p.set_defaults(fn=fn)
        return p

    add_curve_cmd("mubasis", cmd_mubasis, "compute the canonical mu-basis")
    add_curve_cmd("implicitize", cmd_implicitize, "implicit equation and map degree")
    add_curve_cmd("classify", cmd_classify, "singularity class and normalizing change")
    add_curve_cmd("inverse", cmd_inverse, "inverse of a birational parametrization")
    add_curve_cmd("gens", cmd_gens, "assemble and verify the minimal generating set")

    p = add_curve_cmd("oracle-table", cmd_oracle_table, "brute-force minimal generator table")
    p.add_argument("--imax", type=int, default=None)
    p.add_argument("--jmax", type=int, default=None)

    p = add_curve_cmd("adjoint-dims", cmd_adjoint_dims, "T-linear slice dimension table")
    p.add_argument("--lmax", type=int, default=None)

    p = sub.add_parser("verify", help="re-check a saved gens report")
    p.add_argument("input", help="report JSON file")
    p.set_defaults(fn=cmd_verify)

    for kind in ("mild", "verysingular"):
        p = sub.add_parser(f"sample-{kind}", help=f"emit a random proper {kind} curve")
        p.add_argument("--degree", type=int, required=True)
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(fn=lambda a, k=kind: cmd_sample(a, k))

    return ap


def _refuse(code: int, note: str, **doc) -> int:
    """Log a note, print the JSON error document and return the exit code."""
    _log(note)
    print(json.dumps({"schema": SCHEMA_VERSION, **doc}, sort_keys=True))
    return code


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ImproperParametrization as exc:
        return _refuse(
            EXIT_PRECONDITION,
            f"precondition violated [{exc.invariant}]: {exc} (measured degree {exc.degree})",
            error="precondition", invariant=exc.invariant, properness_degree=exc.degree,
        )
    except PreconditionError as exc:
        return _refuse(
            EXIT_PRECONDITION, f"precondition violated [{exc.invariant}]: {exc}",
            error="precondition", invariant=exc.invariant, message=str(exc),
        )
    except VerificationError as exc:
        return _refuse(
            EXIT_VERIFICATION, f"verification failed: {exc}",
            error="verification", message=str(exc),
        )
    except INTERNAL_ERRORS as exc:
        name = type(exc).__name__
        return _refuse(
            EXIT_INTERNAL, f"internal error: {name}: {exc}",
            error="internal", type=name, message=str(exc),
        )


if __name__ == "__main__":
    sys.exit(main())
