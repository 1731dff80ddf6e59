#!/usr/bin/env python3
"""Timings of the poly layer's kernels on operands recorded from pool curves.

Runs one `gens` report (``build_report``) on every pool curve of the
fp-verysingular, fp-mild and q-random workloads (perfbench/workloads.py) in
process, records the operands of every call of
  * ``BiPoly.__mul__`` and ``BiPoly.exact_div``,
  * ``resultant_t``,
  * ``mu2mild.Band.minors``,
then replays each kind of call on its recorded operands.  ``poly_det_bareiss``
runs on the Sylvester matrices of the recorded resultant pairs (a report
takes no Sylvester determinant).  Prints one JSON line per pool and kernel:
pool, op, count (calls), seconds (best of --repeat replays).

Usage: python scripts/poly_shapes.py [--pools fp-mild ...] [--repeat 5]
"""
import argparse
import importlib.util
import json
import random
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from reescurve import mu2mild, poly, report, syzygy
from reescurve.fields import DEFAULT_PRIME, PrimeField, Rationals
from reescurve.report import build_report
from reescurve.sampling import sample_mild, sample_very_singular

POOLS = ("fp-verysingular", "fp-mild", "q-random")


def _workloads():
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = mod
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = saved
    return mod


def pool_curves(name):
    wl = _workloads()
    load = wl.WORKLOADS[name]
    field = PrimeField(DEFAULT_PRIME) if load.field == "fp" else Rationals()
    sample = {"mild": sample_mild, "verysingular": sample_very_singular}
    return [sample[kind](field, d, random.Random(seed)).par
            for _, kind, d, seed in wl.entries(load)]


def record(curves):
    """{op: [args tuple]} over one report of each curve."""
    calls = {"mul": [], "exact_div": [], "resultant_t": [], "band_minors": []}
    saved = [(poly.BiPoly, "__mul__"), (poly.BiPoly, "exact_div"), (mu2mild.Band, "minors"),
             (poly, "resultant_t"), (syzygy, "resultant_t"), (report, "resultant_t")]
    originals = [getattr(owner, name) for owner, name in saved]

    def recorder(op, fn):
        def wrapper(*args):
            calls[op].append(args)
            return fn(*args)
        return wrapper

    ops = ["mul", "exact_div", "band_minors", "resultant_t", "resultant_t", "resultant_t"]
    for (owner, name), fn, op in zip(saved, originals, ops):
        setattr(owner, name, recorder(op, fn))
    try:
        for par in curves:
            build_report(par)
    finally:
        for (owner, name), fn in zip(saved, originals):
            setattr(owner, name, fn)
    calls["det_bareiss"] = [(poly._sylvester(f, g),) for f, g in calls["resultant_t"]]
    return calls


def replay(op, args_list):
    fn = {
        "mul": poly.BiPoly.__mul__,
        "exact_div": poly.BiPoly.exact_div,
        "resultant_t": poly.resultant_t,
        "det_bareiss": poly.poly_det_bareiss,
        "band_minors": mu2mild.Band.minors,
    }[op]
    t0 = time.perf_counter()
    for args in args_list:
        fn(*args)
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--pools", nargs="+", choices=POOLS, default=list(POOLS))
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    for name in args.pools:
        calls = record(pool_curves(name))
        for op, args_list in calls.items():
            if not args_list:
                continue
            secs = min(replay(op, args_list) for _ in range(args.repeat))
            print(json.dumps({"pool": name, "op": op, "count": len(args_list),
                              "seconds": round(secs, 6)}), flush=True)


if __name__ == "__main__":
    main()
