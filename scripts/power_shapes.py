#!/usr/bin/env python3
"""PowerTable timings on each route: the C kernel and Kronecker products.

Samples the curve of `reescurve sample-verysingular --degree 10 --seed 1000`
(over F_p, p the default prime) in process and times, on each route:
  * building every power u^b with |b| <= 10, and with |b| <= 12 (what
    `adjoint-dims` reads), on a fresh table;
  * the substitutions a `gens` report of that curve makes (recorded from one
    report, into the curve and into its axial frame), on a table whose
    powers are already built.
The "native" route is skipped when the kernel is not built; "kronecker" is
the route F_p takes without a compiler.  Prints one JSON line per case and
route: case, route, count (powers or substitutions), seconds (best of
--repeat runs).

Usage: python scripts/power_shapes.py [--paths native kronecker] [--repeat 3]
"""
import argparse
import json
import random
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from reescurve import _native
from reescurve.fields import DEFAULT_PRIME, PrimeField
from reescurve.poly import PowerTable, pack
from reescurve.report import build_report
from reescurve.sampling import sample_very_singular

TOPS = (10, 12)


def exponents(top):
    """The keys of every X-monomial of degree at most top."""
    return [pack((0, 0, b0, b1, n - b0 - b1)) for n in range(top + 1)
            for b0 in range(n + 1) for b1 in range(n - b0 + 1)]


def fresh_table(triple, path):
    """A PowerTable of triple on the given route (the kernel hidden for
    "kronecker" while the table is built)."""
    saved = _native.get_kernel
    if path == "kronecker":
        _native.get_kernel = lambda: None
    try:
        return PowerTable(*triple)
    finally:
        _native.get_kernel = saved


def recorded_substitutions(par):
    """(triple, form) for every substitution one gens report makes."""
    calls = []
    substitute = PowerTable.substitute

    def record(table, g):
        calls.append((table.triple, g))
        return substitute(table, g)

    PowerTable.substitute = record
    try:
        build_report(par)
    finally:
        PowerTable.substitute = substitute
    return calls


def best_of(repeat, setup, run):
    best = None
    for _ in range(repeat):
        state = setup()
        t0 = time.perf_counter()
        run(state)
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--paths", nargs="+", choices=("native", "kronecker"),
                    default=["native", "kronecker"])
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    par = sample_very_singular(PrimeField(DEFAULT_PRIME), 10, random.Random(1000)).par
    calls = recorded_substitutions(par)
    triples = list(dict.fromkeys(t for t, _ in calls))
    paths = [p for p in args.paths if p != "native" or _native.get_kernel() is not None]
    for path in paths:
        for top in TOPS:
            bs = exponents(top)

            def build(table, bs=bs):
                for b in bs:
                    table.power(b)

            secs = best_of(args.repeat, lambda: fresh_table(par.triple, path), build)
            print(json.dumps({"case": f"powers<={top}", "path": path,
                              "count": len(bs), "seconds": round(secs, 6)}), flush=True)

        def warm_tables():
            tables = {t: fresh_table(t, path) for t in triples}
            for t, g in calls:
                tables[t].substitute(g)          # builds every power they read
            return tables

        def substitute_all(tables):
            for t, g in calls:
                tables[t].substitute(g)

        secs = best_of(args.repeat, warm_tables, substitute_all)
        print(json.dumps({"case": "report-substitutions", "path": path,
                          "count": len(calls), "seconds": round(secs, 6)}), flush=True)


if __name__ == "__main__":
    main()
