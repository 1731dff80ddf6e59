"""Smoke test of the benchmark itself, on the tiny d = 5 `smoke` plan.

    python3 perfbench/smoke.py

Run from the root of a checkout.  Checks that:
  * an untraced run prints every end_to_end metric of BENCHMARK.json, and a
    traced run every per_layer metric, each by name with its declared unit;
  * a corrupted reference report digest makes ops count as failed;
  * a corrupted input digest refuses the run: nonzero exit, no result line;
    both run a copy of the benchmark, under .bench_build/smoke, whose
    pins.json is corrupted;
  * a directory holding only BENCHMARK.json and the benchmark is refused.
Exits 0 when every check passes.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = os.path.join(".bench_build", "smoke")


def run(*extra, bench=HERE, cwd=None):
    """Run the benchmark copy in `bench` on the smoke plan: (exit code, result)."""
    cmd = [sys.executable, os.path.join(bench, "run.py"), "--workload", "smoke",
           "--seed", "1", "--seconds", "1", *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=180, cwd=cwd)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    if not (isinstance(result, dict) and "correct" in result):
        result = None
    return proc.returncode, result


def copy_bench(case):
    """A copy of the benchmark under WORK/<case>; returns its directory."""
    dest = os.path.abspath(os.path.join(WORK, case, os.path.basename(HERE)))
    shutil.rmtree(os.path.dirname(dest), ignore_errors=True)
    shutil.copytree(HERE, dest, ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def corrupted_copy(field):
    """A benchmark copy whose pins.json has `field` corrupted for every smoke
    curve, so each op meets a wrong digest."""
    dest = copy_bench(f"bad-{field}")
    path = os.path.join(dest, "pins.json")
    with open(path) as fh:
        pins = json.load(fh)
    for entry in pins["smoke"].values():
        entry[field] = "0" * 64
    with open(path, "w") as fh:
        json.dump(pins, fh)
    return dest


def main():
    os.makedirs(WORK, exist_ok=True)
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    checks = []

    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        code, res = run("--trace", str(trace))
        declared = {m["name"]: m["unit"] for m in spec[key]}
        printed = {} if res is None else {k: v["unit"] for k, v in res["metrics"].items()}
        ok = code == 0 and res is not None and res["correct"] and printed == declared
        detail = f"exit {code}" if res is None else (
            f"missing {sorted(set(declared) - set(printed))}, "
            f"extra {sorted(set(printed) - set(declared))}, "
            f"units differ {sorted(k for k in declared if k in printed and printed[k] != declared[k])}"
        )
        checks.append((f"--trace {trace} prints every {key} metric with its unit", ok, detail))

    code, res = run(bench=corrupted_copy("report"))
    ok = (res is None and code != 0) or (
        res is not None and not res["correct"] and res["failed"] == res["attempted"]
    )
    checks.append(("corrupted reference digest counts as failure", ok, f"exit {code}, result {res and {k: res[k] for k in ('correct', 'failed')}}"))

    code, res = run(bench=corrupted_copy("input"))
    checks.append(("corrupted input digest refuses the run", code != 0 and res is None, f"exit {code}"))

    bench = copy_bench("bare")
    bare = os.path.dirname(bench)
    shutil.copy("BENCHMARK.json", bare)
    code, res = run(bench=bench, cwd=bare)
    checks.append(("bare directory is refused", code != 0 and res is None, f"exit {code}"))

    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}: {name}" + ("" if ok else f" ({detail})"))
    return 0 if all(ok for _, ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
