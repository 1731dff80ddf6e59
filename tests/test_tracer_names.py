"""Every name the benchmark's tracer patches resolves in reescurve.

perfbench/tracer.py looks functions up by name; a rename there breaks only
the traced benchmark run, so this check keeps it in the test suite.  The
tracer module is read, never installed.
"""
import importlib
import importlib.util
import inspect
import json
import os
import pathlib
import subprocess
import sys

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _resolve(module, attr):
    owner = importlib.import_module("reescurve." + module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_spans_resolve():
    tracer = _load_tracer()
    names = [(mod, attr) for mod, attr, _ in tracer.SPANS]
    names += [("linalg", "_make_core"), ("fields", "Rationals.inv"), ("fields", "PrimeField.inv")]
    for mod, attr in names:
        assert callable(_resolve(mod, attr)), f"{mod}.{attr}"
    # the counting wrappers call these with fixed positional arguments
    for mod, attr in names:
        sig = inspect.signature(_resolve(mod, attr))
        if attr in ("Oracle.kernel_dim", "Oracle.kernel_basis"):
            sig.bind("self", 1, 2)          # request(orc, i, j)
        elif attr.endswith(".add_rows"):
            sig.bind("self", [], None)      # add_rows(core, rows, stop)
        elif attr.endswith(".inv"):
            sig.bind("self", 1)             # counted(*args)


def test_traced_report_without_the_kernel_counts_the_packed_label():
    """In a fresh interpreter with REESCURVE_NO_NATIVE=1, the installed tracer
    sees one F_p report run on the generic core under its _FpPackedCore
    label: every reducer counted as packed, every add_rows call through the
    packed wrapper and none through the fraction one.  The install raises
    KeyError if the label class loses its own add_rows entry."""
    root = TRACER.parents[1]
    code = (
        "import json, random, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import tracer\n"
        "t = tracer.install()\n"
        "from reescurve.fields import DEFAULT_PRIME, PrimeField\n"
        "from reescurve.report import build_report\n"
        "from reescurve.sampling import sample_very_singular\n"
        "par = sample_very_singular(PrimeField(DEFAULT_PRIME), 5, random.Random(3)).par\n"
        "assert build_report(par).all_pass\n"
        "print(json.dumps(t.summary()))\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code, str(root / "perfbench")],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(root / "src"), "REESCURVE_NO_NATIVE": "1"},
    )
    assert r.returncode == 0, r.stderr
    summary = json.loads(r.stdout)
    calls, counts = summary["calls"], summary["counts"]
    assert calls.get("linalg.add_rows.packed", 0) > 0
    assert "linalg.add_rows.fraction" not in calls
    built = sum(v for k, v in counts.items() if k.startswith("reducers."))
    assert counts["reducers.packed"] == built > 0
