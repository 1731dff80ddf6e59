#!/usr/bin/env python3
"""Per-core RowReducer timings at the oracle's fixed slice shapes, and the
Q route at q-random's shapes.

F_p: samples the curve of `reescurve sample-verysingular --degree 10 --seed
1000` (over F_p, p the default prime) in process, builds the substitution
matrices of the kernel slices (8, 8), (8, 9), (8, 10) and (1, 12), and feeds
each one to a RowReducer on each core, in one batch as the oracle does: the
native C kernel (skipped when it is not built) and the generic pure-Python
core, the one F_p runs on without a compiler.  Prints one JSON line per
shape and core: shape, rows, columns, rank, seconds (best of --repeat runs).

Q: samples the mild curves of `reescurve --field q sample-mild --degree 6
--seed 600` and `--degree 7 --seed 700` (q-random pool curves), takes the
shift matrices mu_basis reduces (of the primitive integer triple, degrees
s = 0, 1, 2 and d - 2) and the stacks that the report's independent_mod and
ideal_piece_membership calls hand to modular.py, and times each question
both ways: the call the program makes (modular.rref, the certified RREF in
Fractions that ExactMatrix over Q reads its kernel from, for a shift matrix;
modular.pivot_columns for a stack), on the native core when it is built,
and the RREF on the Fraction core.  Prints one JSON line per matrix:
question, rows, columns, rank, modular and fraction seconds (best of
--repeat runs).

Usage: python scripts/rref_shapes.py [--parts fp q] [--cores native generic] [--repeat 3]
"""
import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reescurve import _native, linalg, modular
from reescurve.fields import DEFAULT_PRIME, QQ, PrimeField
from reescurve.oracle import Oracle
from reescurve.report import build_report
from reescurve.sampling import sample_mild, sample_very_singular
from reescurve.syzygy import shift_matrix

SHAPES = ((8, 8), (8, 9), (8, 10), (1, 12))

CORES = {
    "native": lambda F, n: linalg._FpNativeCore(F, n, _native.get_kernel()),
    "generic": linalg._FractionCore,
}


def time_core(make, field, rows, ncols, repeat):
    best, rank = None, None
    for _ in range(repeat):
        red = linalg.RowReducer(field, ncols)
        red._core = make(field, ncols)
        t0 = time.perf_counter()
        red.add_rows(rows)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
        rank = red.rank
    return rank, best


def best_of(repeat, fn):
    best, out = None, None
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return out, best


def q_questions():
    """(label, rows, ncols, certified route) for each Q question of the two
    curves."""
    out = []
    for d, seed in ((6, 600), (7, 700)):
        par = sample_mild(QQ, d, random.Random(seed)).par
        for s in (0, 1, 2, d - 2):
            m = shift_matrix(QQ, par.powers.base, s)
            out.append((f"shift d={d} s={s}", m.rows, m.ncols, modular.rref))
        stacks = []
        pivot_columns = modular.pivot_columns
        modular.pivot_columns = lambda rows, ncols: stacks.append((rows, ncols)) or pivot_columns(rows, ncols)
        try:
            build_report(par)
        finally:
            modular.pivot_columns = pivot_columns
        out += [(f"span d={d}", rows, ncols, modular.pivot_columns) for rows, ncols in stacks]
    return out


def fraction_rref(rows, ncols):
    red = linalg.RowReducer(QQ, ncols)    # the Fraction core
    red.add_rows(rows)
    return red.rref()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--parts", nargs="+", choices=["fp", "q"], default=["fp", "q"])
    ap.add_argument("--cores", nargs="+", choices=sorted(CORES), default=["native", "generic"])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    if "fp" in args.parts:
        field = PrimeField(DEFAULT_PRIME)
        par = sample_very_singular(field, 10, random.Random(1000)).par
        oracle = Oracle(par)
        cores = [c for c in args.cores if c != "native" or _native.get_kernel() is not None]
        for i, j in SHAPES:
            rows = oracle.slice_rows(i, j)
            ncols = len(rows[0])
            for core in cores:
                rank, secs = time_core(CORES[core], field, rows, ncols, args.repeat)
                print(json.dumps({
                    "shape": [i, j], "rows": len(rows), "cols": ncols,
                    "core": core, "rank": rank, "seconds": round(secs, 6),
                }), flush=True)
    if "q" in args.parts:
        for label, rows, ncols, route in q_questions():
            got, mod_s = best_of(args.repeat, lambda: route(rows, ncols))
            (piv, _), frac_s = best_of(args.repeat, lambda: fraction_rref(rows, ncols))
            assert piv == (got[0] if route is modular.rref else got), label
            rank = len(piv)
            print(json.dumps({
                "question": label, "rows": len(rows), "cols": ncols, "rank": rank,
                "modular_s": round(mod_s, 6), "fraction_s": round(frac_s, 6),
            }), flush=True)


if __name__ == "__main__":
    main()
