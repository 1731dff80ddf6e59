#!/usr/bin/env python3
"""Per-core RowReducer timings at the oracle's fixed slice shapes over F_p,
and over Q at q-random's shapes and the slices of a d = 7 oracle table.

F_p: samples the curve of `reescurve sample-verysingular --degree 10 --seed
1000` (over F_p, p the default prime) in process, builds the substitution
matrices of the kernel slices (8, 8), (8, 9), (8, 10) and (1, 12), and feeds
each one to a RowReducer on each core, in one batch as the oracle does: the
native C kernel (skipped when it is not built) and the generic pure-Python
core, the one F_p runs on without a compiler.  Prints one JSON line per
shape and core: shape, rows, columns, rank, seconds (best of --repeat runs).

Q: times RowReducer over Q, the certified modular core, against the
Fraction core on the same rows: the Q eliminations of a gens report on the
mild curves of `reescurve --field q sample-mild --degree 6 --seed 600` and
`--degree 7 --seed 700` (q-random pool curves: the mu-basis shift matrices,
the solvers and the span stacks), and the slices (imax, j), j = 1..d, that
`oracle-table` reduces on the curve of `--field q sample-verysingular
--degree 7 --seed 1`.  A question is the rank of the rows, then their kernel
rows, as the oracle reads them.  Prints one JSON line per matrix: question,
rows, columns, rank, modular and fraction seconds (best of --repeat runs).

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
    """(label, rows, ncols) for each Q question: the rows fed to every Q
    reducer of the two reports, then the oracle-table slices."""
    out = []
    add_rows = modular._ModularCore.add_rows

    def recorded(core, rows, stop):
        rows = list(rows)
        out.append((f"report d={d}", rows, core.ncols))
        return add_rows(core, rows, stop)

    modular._ModularCore.add_rows = recorded
    try:
        for d, seed in ((6, 600), (7, 700)):
            build_report(sample_mild(QQ, d, random.Random(seed)).par)
    finally:
        modular._ModularCore.add_rows = add_rows
    oracle = Oracle(sample_very_singular(QQ, 7, random.Random(1)).par)
    imax = oracle.d - oracle.mu
    for j in range(1, oracle.d + 1):
        rows = oracle.slice_rows(imax, j)
        out.append((f"slice ({imax}, {j})", rows, len(rows[0])))
    return out


def q_question(core, rows, ncols):
    red = linalg.RowReducer(QQ, ncols)
    if core is not None:
        red._core = core(QQ, ncols)
    rank = red.add_rows(rows)
    return rank, red.kernel_rows(range(ncols), ncols)


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
        for label, rows, ncols in q_questions():
            got, mod_s = best_of(args.repeat, lambda: q_question(None, rows, ncols))
            ref, frac_s = best_of(args.repeat, lambda: q_question(linalg._FractionCore, rows, ncols))
            assert got == ref, label
            print(json.dumps({
                "question": label, "rows": len(rows), "cols": ncols, "rank": got[0],
                "modular_s": round(mod_s, 6), "fraction_s": round(frac_s, 6),
            }), flush=True)

if __name__ == "__main__":
    main()
