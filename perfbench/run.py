"""reescurve benchmark: seeded `gens` workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a reescurve checkout; it reads and writes only there,
under ``.bench_build/``.  Every step runs in a fresh interpreter (worker.py)
with the checkout's ``src`` first on PYTHONPATH and the native kernel cached
under ``.bench_build``; the first run in a checkout compiles it.

1. Inputs.  The workload's pinned curve pool is sampled again from
   ``reescurve.sampling`` through the CLI, and each curve's digest is compared
   with ``pins.json``.  Any difference refuses the run before timing (exit 3).
2. ``--trace 0``: ``setup_s`` is the median of several fresh starts, then one
   worker runs every pass of the pool (grouping and order picked by the seed)
   as a closed loop with one client.  ``plan_s`` is the mean wall time of a
   pass.  The work is fixed, so every run times the same curves; ``--seconds``
   is recorded but does not change it.  CPU time, the per-op median and the
   machine's steal share are reported beside it.
3. ``--trace 1``: each pass runs in a pair of fresh workers, one untraced and
   one with tracer.py installed, in ABBA order so a steady drift of the host's
   speed cancels.  Per-layer figures are per pass; the tracing overhead is the
   median over ops of the paired traced/untraced wall-time ratio, and the
   facts line says whether the ratios' spread leaves it resolved.
4. Every op is checked: exit code 0, ``all_pass``, the generator count the
   theorems give, ``formulas_agree`` for ``adjoint-dims``, and the reference
   digest of the report's mathematical content.

The last stdout line is the result JSON; the line before it holds machine
facts and sample counts, which are also written to ``.bench_build/results``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

from workloads import WORKLOADS, entries, expected_generators, plan, report_digest, sha256_text

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
SETUP_STARTS = 7
DEADLINE_S = 170        # whole run, so it exits within the 180 s a run may take

# per-layer metric -> tracer span whose self time it reports (seconds per pass)
SELF_TIMES = {
    "report.serialize_s": "report.serialize",
    "syzygy.mu_basis_s": "syzygy.mu_basis",
    "syzygy.implicit_equation_s": "syzygy.implicit_equation",
    "syzygy.classify_singularity_s": "syzygy.classify_singularity",
    "mu2sing.context_s": "mu2sing.context",
    "mu2sing.assemble_s": "mu2sing.assemble",
    "mu2mild.context_s": "mu2mild.context",
    "mu2mild.assemble_s": "mu2mild.assemble",
    "poly.subst_x_s": "poly.subst_x",
    "poly.mul_s": "poly.mul",
    "poly.resultant_t_s": "poly.resultant_t",
    "poly.det_bareiss_s": "poly.det_bareiss",
    "oracle.mingen_table_s": "oracle.mingen_table",
    "oracle.mingen_count_s": "oracle.mingen_count",
    "oracle.kernel_s": "oracle.kernel",
    "oracle.membership_s": "oracle.membership",
    "linalg.add_rows_s.fraction": "linalg.add_rows.fraction",
    "linalg.add_rows_s.packed": "linalg.add_rows.packed",
    "linalg.add_rows_s.native": "linalg.add_rows.native",
    "adjoint.report_s": "adjoint.report",
    "adjoint.z_dimension_s": "adjoint.z_dimension",
    "cli.main_s": "cli.main",
}
# per-layer metric -> tracer span whose call count it reports (calls per pass)
CALLS = {
    "syzygy.implicit_equation.calls": "syzygy.implicit_equation",
    "mu2mild.delta_sylvester.calls": "mu2mild.delta_sylvester",
    "mu2mild.morley_coeffs.calls": "mu2mild.morley_coeffs",
    "mu2mild.minor_family.calls": "mu2mild.minor_family",
    "poly.subst_x.calls": "poly.subst_x",
    "poly.mul.calls": "poly.mul",
    "poly.resultant_t.calls": "poly.resultant_t",
    "oracle.mingen_count.calls": "oracle.mingen_count",
    "oracle.membership.calls": "oracle.membership",
}
# per-layer metric -> tracer counter (counts per pass)
COUNTS = {
    "oracle.kernel.requests": "kernel_requests",
    "linalg.reducers.fraction": "reducers.fraction",
    "linalg.reducers.packed": "reducers.packed",
    "linalg.reducers.native": "reducers.native",
    "linalg.rows_fed": "rows_fed",
    "linalg.cells_fed": "cells_fed",
    "fields.inv.calls": "fields.inv",
}
# per-layer metric -> stage key of the report's own `timings` (seconds per pass)
STAGES = {
    "report.analysis_s": "analysis",
    "report.assembly_s": "assembly",
    "report.per_generator_s": "per-generator",
    "report.identities_s": "identities",
    "report.oracle_table_s": "oracle-table",
}


class Refusal(Exception):
    """The run cannot be measured; nothing is printed on stdout."""


class Bench:
    """Starts workers in fresh interpreters, all under one deadline."""

    def __init__(self, root, deadline_s=DEADLINE_S):
        self.root = root
        self.build = os.path.join(root, BUILD)
        self.deadline = time.monotonic() + deadline_s
        for sub in ("cache", "tmp", "results", "traces"):
            os.makedirs(os.path.join(self.build, sub), exist_ok=True)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.join(root, "src"), env.get("PYTHONPATH")) if p
        )
        env["XDG_CACHE_HOME"] = os.path.join(self.build, "cache")
        env["TMPDIR"] = os.path.join(self.build, "tmp")
        self.env = env

    def worker(self, *args):
        """Run worker.py in a fresh interpreter; returns its stdout."""
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise Refusal("run deadline passed")
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), *args],
                cwd=self.root, env=self.env, capture_output=True, text=True, timeout=left,
            )
        except subprocess.TimeoutExpired:
            raise Refusal(f"worker {args[0]} passed the run deadline") from None
        if proc.returncode != 0:
            raise Refusal(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
        return proc.stdout

    def probe(self):
        """One fresh start: (seconds to ready, facts)."""
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        doc = json.loads(self.worker("probe").splitlines()[-1])
        return doc["ready"] - t0, doc["facts"]

    def sample(self, name, wl):
        """Sample the workload's curve pool afresh: (directory, digest per entry)."""
        outdir = os.path.join(self.build, "inputs", name)
        shutil.rmtree(outdir, ignore_errors=True)
        self.worker("gen", name, outdir)
        digests = {}
        for entry, *_ in entries(wl):
            with open(os.path.join(outdir, entry + ".json")) as fh:
                digests[entry] = input_digest(fh.read())
        return outdir, digests

    def inputs(self, name, wl, pins):
        """The sampled pool, refused unless every digest matches its pin."""
        outdir, digests = self.sample(name, wl)
        wrong = sorted(e for e in set(pins) | set(digests) if pins.get(e, {}).get("input") != digests.get(e))
        if wrong:
            raise Refusal(f"inputs differ from the pinned digests: {wrong}")
        return outdir

    def ops(self, wl, tag, inputs, passes, *, trace=False):
        job = {
            "inputs": inputs,
            "plan": passes,
            "adjoint": [e for e, kind, *_ in entries(wl) if wl.adjoint and kind == "verysingular"],
            "trace": trace,
            "spans": os.path.join(self.build, "traces", tag + ".jsonl"),
        }
        job_path = os.path.join(self.build, "results", tag + ".job.json")
        out_path = os.path.join(self.build, "results", tag + ".ops.json")
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        self.worker("ops", job_path, out_path)
        with open(out_path) as fh:
            return json.load(fh)


def input_digest(text: str) -> str:
    doc = json.loads(text)
    return sha256_text(json.dumps({k: doc[k] for k in ("field", "d", "u0", "u1", "u2")}, sort_keys=True))


def op_digest(op, wl, kind, d):
    """(report digest, None) when the op's output passes every check but the
    reference digest, else (None, the reason it failed)."""
    try:
        gens = op["gens"]
        if gens["code"] != 0:
            return None, f"gens exit {gens['code']}: {gens['stderr'][-300:]}"
        doc = json.loads(gens["stdout"])
        if doc.get("all_pass") is not True:
            return None, "all_pass is not true"
        want_kind = "very-singular" if kind == "verysingular" else "mild"
        if doc["singularity"]["kind"] != want_kind:
            return None, f"class {doc['singularity']['kind']}, expected {want_kind}"
        count = len(doc["generators"])
        if count != expected_generators(kind, d):
            return None, f"{count} generators, theorem gives {expected_generators(kind, d)}"
        adj = None
        if wl.adjoint and kind == "verysingular":
            if op["adjoint"]["code"] != 0:
                return None, f"adjoint-dims exit {op['adjoint']['code']}"
            adj = json.loads(op["adjoint"]["stdout"])
            if adj.get("formulas_agree") is not True:
                return None, "adjoint-dims formulas_agree is not true"
        return report_digest(doc, adj), None
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable output: {exc!r}"


def report_timings(op):
    """The stage timings of an op's gens report ({} when it has none)."""
    try:
        return json.loads(op["gens"]["stdout"])["timings"]
    except (ValueError, KeyError, TypeError):
        return {}


def checked(results, wl, pins):
    """(ops attempted, [(entry, reason)] for each op that failed a check)."""
    kinds = {name: (kind, d) for name, kind, d, _ in entries(wl)}
    failures = []
    ops = [op for res in results for op in res["ops"]]
    for op in ops:
        digest, why = op_digest(op, wl, *kinds[op["entry"]])
        if why is None and digest != pins[op["entry"]]["report"]:
            why = "report digest differs from the reference"
        if why is not None:
            failures.append((op["entry"], why))
    return len(ops), failures


def machine_facts(worker_facts):
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next(
                (l.split(":", 1)[1].strip() for l in fh if l.startswith("model name")), model
            )
    except OSError:
        pass
    facts = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": model,
        "platform": platform.platform(),
    }
    facts.update(worker_facts)
    return facts


def cpu_ticks():
    """(steal, total) jiffies of all CPUs from /proc/stat, or None off Linux."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def steal_share(before, after):
    """Share of all CPU time the hypervisor took from this machine meanwhile."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(bench, wl, name, inputs, passes):
    starts = [bench.probe()[0] for _ in range(SETUP_STARTS)]
    before = cpu_ticks()
    res = bench.ops(wl, f"{name}-trace0", inputs, passes)
    samples = {
        "passes": len(res["pass_walls"]),
        "ops": len(res["ops"]),
        "setup_starts": len(starts),
        "plan_cpu_s": statistics.fmean(res["pass_cpus"]),
        "curve_s.p50": statistics.median(op["wall"] for op in res["ops"]),
        "curve_cpu_s.p50": statistics.median(op["cpu"] for op in res["ops"]),
        "steal_share": steal_share(before, cpu_ticks()),
    }
    metrics = {
        "plan_s": metric(statistics.fmean(res["pass_walls"]), "s"),
        "setup_s": metric(statistics.median(starts), "s"),
        "peak_rss_mb": metric(res["peak_rss_mb"], "MB"),
    }
    return [res], metrics, samples


def paired_runs(bench, wl, name, inputs, passes):
    """Untraced and traced workers over the same passes, in ABBA order:
    ([untraced result per pass], [traced result per pass])."""
    plain, traced = [], []
    for i, names in enumerate(passes):
        order = (False, True) if i % 2 == 0 else (True, False)
        for trace in order:
            tag = f"{name}-trace1-pass{i}" + ("" if trace else "-plain")
            res = bench.ops(wl, tag, inputs, [names], trace=trace)
            (traced if trace else plain).append(res)
    return plain, traced


def merged_trace(traced):
    """The tracer summaries of several workers, summed."""
    tr = {"self_s": Counter(), "calls": Counter(), "counts": Counter(), "spans": 0}
    for res in traced:
        for key in ("self_s", "calls", "counts"):
            tr[key].update(res["trace"][key])
        tr["spans"] += res["trace"]["spans"]
    return tr


def per_layer(bench, wl, name, inputs, passes):
    plain, traced = paired_runs(bench, wl, name, inputs, passes)
    k = len(plain)
    tr = merged_trace(traced)
    metrics = {}
    for key, span in SELF_TIMES.items():
        metrics[key] = metric(tr["self_s"].get(span, 0.0) / k, "s")
    for key, span in CALLS.items():
        metrics[key] = metric(tr["calls"].get(span, 0) / k, "count")
    counts = tr["counts"]
    for key, counter in COUNTS.items():
        metrics[key] = metric(counts.get(counter, 0) / k, "count")
    requests = counts.get("kernel_requests", 0)
    metrics["oracle.kernel.repeat_share"] = metric(
        counts.get("kernel_repeats", 0) / requests if requests else 0.0, "ratio"
    )
    fed = counts.get("rows_fed", 0)
    metrics["linalg.rank_yield"] = metric(counts.get("rank_gained", 0) / fed if fed else 0.0, "ratio")
    plain_ops = [op for res in plain for op in res["ops"]]
    timings = [report_timings(op) for op in plain_ops]
    for key, stage in STAGES.items():
        metrics[key] = metric(sum(t.get(stage, 0.0) for t in timings) / k, "s")
    plain_total = sum(res["pass_walls"][0] for res in plain)
    traced_total = sum(res["pass_walls"][0] for res in traced)
    metrics["report.oracle_table_share"] = metric(
        metrics["report.oracle_table_s"]["value"] * k / plain_total, "ratio"
    )
    poly = tr["self_s"].get("poly.subst_x", 0.0) + tr["self_s"].get("poly.mul", 0.0)
    metrics["poly.subst_mul_share"] = metric(poly / traced_total, "ratio")
    metrics["curve_s.p50"] = metric(statistics.median(op["wall"] for op in plain_ops), "s")
    untraced_wall = {op["entry"]: op["wall"] for op in plain_ops}
    ratios = [op["wall"] / untraced_wall[op["entry"]] - 1
              for res in traced for op in res["ops"]]
    overhead = statistics.median(ratios)
    low, _, high = statistics.quantiles(ratios, n=4) if len(ratios) > 1 else (overhead,) * 3
    metrics["trace.overhead_s"] = metric(overhead * plain_total / k, "s")
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    metrics["trace.spans"] = metric(tr["spans"] / k, "count")
    samples = {
        "passes": k, "ops_plain": len(plain_ops), "ops_traced": len(ratios),
        "overhead_frac_per_op": ratios,
        "overhead_resolved": high - low < abs(overhead),
    }
    return plain + traced, metrics, samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "reescurve", "__init__.py")):
        sys.exit("perfbench: no src/reescurve here; run from the root of a reescurve checkout")
    wl = WORKLOADS[args.workload]
    try:
        with open(os.path.join(HERE, "pins.json")) as fh:
            pins = json.load(fh).get(args.workload)
    except (OSError, ValueError) as exc:
        sys.exit(f"perfbench: cannot read pins: {exc}")
    if pins is None:
        sys.exit(f"perfbench: no pins recorded for workload {args.workload!r}")
    bench = Bench(root)
    try:
        _, build_facts = bench.probe()      # compiles the native kernel on a fresh checkout
        inputs = bench.inputs(args.workload, wl, pins)
        passes = plan(wl, args.seed)
        tag = f"{args.workload}-seed{args.seed}"
        measure = per_layer if args.trace else end_to_end
        results, metrics, samples = measure(bench, wl, tag, inputs, passes)
    except Refusal as exc:
        print(f"perfbench: refused: {exc}", file=sys.stderr)
        return 3
    attempted, failures = checked(results, wl, pins)
    for entry, why in failures[:10]:
        print(f"perfbench: {entry}: {why}", file=sys.stderr)
    if not args.trace:
        metrics["verified_frac"] = metric((attempted - len(failures)) / attempted, "ratio")
    facts = machine_facts(results[-1]["facts"])
    facts["native_kernel_at_build"] = build_facts["native_kernel"]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "facts": facts, "samples": samples,
        "failures": failures, "metrics": metrics,
    }
    with open(os.path.join(bench.build, "results", f"{tag}-trace{args.trace}.json"), "w") as fh:
        json.dump(detail, fh, indent=2)
    print(json.dumps({"facts": facts, "samples": samples}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
