#!/usr/bin/env python3
"""Per-core RowReducer timings at the oracle's fixed slice shapes over F_p,
and over Q at q-random's shapes and the slices of a d = 7 oracle table.

F_p: samples the curve of `reescurve sample-verysingular --degree 10 --seed
1000` (over F_p, p the default prime) in process, builds the substitution
matrices of the kernel slices (8, 8), (8, 9), (8, 10) and (1, 12), and feeds
each one to a RowReducer on each core, in one batch as the oracle does: the
native C kernel (skipped when it is not built) and the generic pure-Python
core, the one F_p runs on without a compiler.  Each shape is timed twice per
core: as a rank question (the rows fed, the rank read, as the oracle's
slices and chains ask) and as an RREF read (the rows fed, then rref(), as
the mu-basis and the solvers ask).  The native core back-substitutes only
for the second; the generic core reduces eagerly, so it pays the same for
both.  Prints one JSON line per shape and core: shape, rows, columns, rank,
rank_s and rref_s (best of --repeat runs each).

Q: times RowReducer over Q, the certified modular core, against the
Fraction core on the same rows: the Q eliminations of a gens report on the
mild curves of `reescurve --field q sample-mild --degree 6 --seed 600` and
`--degree 7 --seed 700` (q-random pool curves: the mu-basis shift matrices,
the solvers and the span stacks), and the slices (imax, j), j = 1..d, that
`oracle-table` reduces on the curve of `--field q sample-verysingular
--degree 7 --seed 1`.  A question is the rank of the rows, then their kernel
rows, as the oracle reads them.  Prints one JSON line per matrix: question,
rows, columns, rank, modular and fraction seconds (best of --repeat runs).

Tower: times the oracle table's order basis of U_j = (u^b), |b| = j, at the
shapes (imax, j), j = d-2..d, of the very singular curves of
`reescurve sample-verysingular --degree d --seed 100*d` over F_p for d in
--degrees (default 10, the curve above; `--degrees 10 14 18` adds larger
curves, whose generic slices take minutes), beside the elimination of the
slice (imax, j) it replaces, on each core: the native C kernel
(fp_order_basis, skipped when it is not built) and the generic pure-Python
versions (the curve sampled with the kernel hidden, so Oracle._order_basis
runs in Python; the generic core).  Each line checks that the rows of
degree <= imax, times 1, t, ..., give the slice's kernel dimension.  Prints
one JSON line per shape and core: slice rows, columns and rank, basis size
and order, syzygy count, slice and tower seconds (best of --repeat runs).

Usage: python scripts/rref_shapes.py [--parts fp tower q] [--cores native generic]
       [--degrees 10] [--repeat 3]
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


def time_core(make, field, rows, ncols, repeat, rref=False):
    """(rank, best seconds) of feeding rows to a fresh reducer on one core
    and reading its rank, or with rref=True its RREF."""
    best, rank = None, None
    for _ in range(repeat):
        red = linalg.RowReducer(field, ncols)
        red._core = make(field, ncols)
        t0 = time.perf_counter()
        red.add_rows(rows)
        if rref:
            red.rref()
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
        rank = red.rank
    return rank, best


def tower_oracle(core, field, d):
    """The oracle of the very singular curve of degree d, seed 100*d; for the
    generic core sampled with the C kernel hidden, so that its PowerTable and
    its order basis run in Python."""
    get_kernel = _native.get_kernel
    if core == "generic":
        _native.get_kernel = lambda: None
    try:
        return Oracle(sample_very_singular(field, d, random.Random(100 * d)).par)
    finally:
        _native.get_kernel = get_kernel


def tower_shapes(cores, degrees, repeat):
    field = PrimeField(DEFAULT_PRIME)
    for d in degrees:
        oracles = {core: tower_oracle(core, field, d) for core in cores}
        imax = d - next(iter(oracles.values())).mu
        for j in (d - 2, d - 1, d):
            for core, oracle in oracles.items():
                rows = oracle.slice_rows(imax, j)
                ncols = len(rows[0])
                rank, slice_s = time_core(CORES[core], field, rows, ncols, repeat)
                (deltas, _), tower_s = best_of(repeat, lambda: oracle._order_basis(imax, j))
                syz = [delta for delta in deltas if delta <= imax]
                assert sum(imax + 1 - delta for delta in syz) == ncols - rank, (d, j, core)
                print(json.dumps({
                    "d": d, "shape": [imax, j], "core": core,
                    "slice": [len(rows), ncols], "rank": rank,
                    "order_basis": [len(deltas), imax + j * d + 1], "syzygies": len(syz),
                    "slice_s": round(slice_s, 6), "tower_s": round(tower_s, 6),
                }), flush=True)


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
    return rank, red.kernel_rows()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--parts", nargs="+", choices=["fp", "tower", "q"], default=["fp", "tower", "q"])
    ap.add_argument("--cores", nargs="+", choices=sorted(CORES), default=["native", "generic"])
    ap.add_argument("--degrees", nargs="+", type=int, default=[10])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    cores = [c for c in args.cores if c != "native" or _native.get_kernel() is not None]
    if "fp" in args.parts:
        field = PrimeField(DEFAULT_PRIME)
        par = sample_very_singular(field, 10, random.Random(1000)).par
        oracle = Oracle(par)
        for i, j in SHAPES:
            rows = oracle.slice_rows(i, j)
            ncols = len(rows[0])
            for core in cores:
                rank, rank_s = time_core(CORES[core], field, rows, ncols, args.repeat)
                _, rref_s = time_core(CORES[core], field, rows, ncols, args.repeat, rref=True)
                print(json.dumps({
                    "shape": [i, j], "rows": len(rows), "cols": ncols, "core": core,
                    "rank": rank, "rank_s": round(rank_s, 6), "rref_s": round(rref_s, 6),
                }), flush=True)
    if "tower" in args.parts:
        tower_shapes(cores, args.degrees, args.repeat)
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
