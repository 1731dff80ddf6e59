"""Fresh-interpreter side of the benchmark.

    python3 perfbench/worker.py probe
    python3 perfbench/worker.py gen <workload> <outdir>
    python3 perfbench/worker.py ops <job.json> <out.json>

run.py starts every mode in its own interpreter with the checkout's ``src`` on
PYTHONPATH.  ``probe`` and ``ops`` first pay what each ``reescurve`` user pays
before the first report: import the package, load the native kernel and build
the first native row-reduction core (its lazy numpy import).  ``probe`` then
prints the CLOCK_MONOTONIC time at which it became ready, so run.py can time a
fresh start.  ``ops`` runs every pass of the job as a closed loop with one
client; each op is ``reescurve gens`` (plus ``adjoint-dims`` where the
workload asks) on one curve file, through ``reescurve.cli.main``.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

from workloads import WORKLOADS, entries


def now() -> float:
    """System-wide monotonic clock, comparable across processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def setup():
    started = time.time()
    from reescurve import _native, cli
    from reescurve.fields import DEFAULT_PRIME, PrimeField
    from reescurve.linalg import RowReducer

    kernel = _native.get_kernel()
    RowReducer(PrimeField(DEFAULT_PRIME), 64, size_hint=1 << 16)
    path = getattr(kernel, "_name", None)
    if os.environ.get("REESCURVE_NO_NATIVE"):
        state = "disabled"
    elif kernel is None:
        state = "unavailable"
    elif os.path.getmtime(path) >= started:
        state = "compiled"
    else:
        state = "loaded"
    facts = {
        "python": sys.version.split()[0],
        "native_kernel": state,
        "native_path": path,
        "REESCURVE_NO_NATIVE": os.environ.get("REESCURVE_NO_NATIVE"),
    }
    return cli, facts


def call(cli, argv):
    """One CLI invocation in-process: exit code plus captured stdout/stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()[-4000:]}


def probe():
    _, facts = setup()
    print(json.dumps({"ready": now(), "facts": facts}), flush=True)


def gen(workload, outdir):
    from reescurve import cli

    wl = WORKLOADS[workload]
    os.makedirs(outdir, exist_ok=True)
    for name, kind, d, seed in entries(wl):
        argv = ["--field", wl.field, f"sample-{kind}", "--degree", str(d), "--seed", str(seed)]
        res = call(cli, argv)
        if res["code"] != 0:
            sys.exit(f"sampling {name} failed: {res['stderr']}")
        with open(os.path.join(outdir, name + ".json"), "w") as fh:
            fh.write(res["stdout"])


def ops(job_path, out_path):
    with open(job_path) as fh:
        job = json.load(fh)
    cli, facts = setup()
    tracer = None
    if job["trace"]:
        import tracer as tracing

        tracer = tracing.install()
    walls, cpus, done = [], [], []
    for i, names in enumerate(job["plan"]):
        p0, c0 = now(), time.process_time()
        for name in names:
            if tracer is not None:
                tracer.curve = name
            path = os.path.join(job["inputs"], name + ".json")
            s0, sc0 = now(), time.process_time()
            gens = call(cli, ["gens", path])
            adjoint = call(cli, ["adjoint-dims", path]) if name in job["adjoint"] else None
            done.append({
                "entry": name, "pass": i, "wall": now() - s0, "cpu": time.process_time() - sc0,
                "gens": gens, "adjoint": adjoint,
            })
        walls.append(now() - p0)
        cpus.append(time.process_time() - c0)
    result = {
        "facts": facts,
        "pass_walls": walls,
        "pass_cpus": cpus,
        "ops": done,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.curve = None
        result["trace"] = tracer.summary()
        tracer.write_spans(job["spans"])
    with open(out_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    mode, args = sys.argv[1], sys.argv[2:]
    {"probe": probe, "gen": gen, "ops": ops}[mode](*args)
