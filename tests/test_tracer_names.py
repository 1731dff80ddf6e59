"""Every name the benchmark's tracer patches resolves in reescurve.

perfbench/tracer.py looks functions up by name; a rename there breaks only
the traced benchmark run, so this check keeps it in the test suite.  The
tracer module is read, never installed.
"""
import importlib
import importlib.util
import inspect
import pathlib

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
