#!/usr/bin/env python3
"""Per-core RowReducer timings at the oracle's fixed slice shapes.

Samples the curve of `reescurve sample-verysingular --degree 10 --seed 1000`
(over F_p, p the default prime) in process, builds the substitution matrices
of the kernel slices (8, 8), (8, 9), (8, 10) and (1, 12), and feeds each one
to a RowReducer on each core, in one batch as the oracle does: the native C
kernel (skipped when it is not built) and the generic pure-Python core, the
one F_p runs on without a compiler.  Prints one JSON line per shape and
core: shape, rows, columns, rank, seconds (best of --repeat runs).

Usage: python scripts/rref_shapes.py [--cores native generic] [--repeat 3]
"""
import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reescurve import _native, linalg
from reescurve.fields import DEFAULT_PRIME, PrimeField
from reescurve.oracle import Oracle
from reescurve.sampling import sample_very_singular

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


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--cores", nargs="+", choices=sorted(CORES), default=["native", "generic"])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
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


if __name__ == "__main__":
    main()
