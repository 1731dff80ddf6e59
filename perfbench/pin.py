"""Record each workload's input digests and reference report digests.

    python3 perfbench/pin.py [workload ...]        (default: every workload)

Run from the root of a checkout whose reports are trusted.  Every pool curve is
sampled, run once through the same worker a measured run uses, and checked the
same way (exit code, all_pass, theorem generator count, formulas_agree); the
digests of its input and of its report's mathematical content are then stored
in pins.json.  A later run refuses inputs that hash differently and counts a
report whose digest differs as a failed op.
"""
from __future__ import annotations

import json
import os
import sys

from run import HERE, Bench, op_digest
from workloads import WORKLOADS, entries, plan

PINS = os.path.join(HERE, "pins.json")


def pin(bench, name):
    wl = WORKLOADS[name]
    outdir, inputs = bench.sample(name, wl)
    res = bench.ops(wl, f"pin-{name}", outdir, plan(wl, 0))
    kinds = {entry: (kind, d) for entry, kind, d, _ in entries(wl)}
    pins = {}
    for op in res["ops"]:
        digest, why = op_digest(op, wl, *kinds[op["entry"]])
        if why is not None:
            sys.exit(f"{name} {op['entry']}: {why}")
        pins[op["entry"]] = {"input": inputs[op["entry"]], "report": digest}
        print(f"{name} {op['entry']}: {op['wall']:.2f} s", flush=True)
    return dict(sorted(pins.items()))


def main():
    names = sys.argv[1:] or list(WORKLOADS)
    try:
        with open(PINS) as fh:
            pins = json.load(fh)
    except FileNotFoundError:
        pins = {}
    bench = Bench(os.getcwd(), deadline_s=3600)
    for name in names:
        pins[name] = pin(bench, name)
        with open(PINS, "w") as fh:
            json.dump(dict(sorted(pins.items())), fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
