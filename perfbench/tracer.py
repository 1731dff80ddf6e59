"""Span tracing installed from outside the program, for the traced run.

``install()`` wraps the public functions of each ``reescurve`` module and
returns the Tracer that records them.  Each wrapped call becomes a span
(name, start, end, parent span, curve); spans stay in memory and are written
as JSON lines at the end.  A function imported by name into another module
(``from .poly import resultant_t``) is rebound there too, so every call site
goes through the wrapper.  Self time is a span's duration minus the time its
child spans cover.
"""
from __future__ import annotations

import importlib
import json
import sys
import weakref
from collections import Counter
from time import perf_counter_ns

# (module, attribute, span name).  "Class.method" patches the class.
SPANS = [
    ("cli", "main", "cli.main"),
    ("cli", "_emit", "report.serialize"),
    ("report", "GeneratorReport.to_json", "report.serialize"),
    ("report", "build_report", "report.build"),
    ("syzygy", "mu_basis", "syzygy.mu_basis"),
    ("syzygy", "implicit_equation", "syzygy.implicit_equation"),
    ("syzygy", "classify_singularity", "syzygy.classify_singularity"),
    ("mu2sing", "very_singular_context", "mu2sing.context"),
    ("mu2sing", "assemble_very_singular", "mu2sing.assemble"),
    ("mu2mild", "mild_context", "mu2mild.context"),
    ("mu2mild", "assemble_mild", "mu2mild.assemble"),
    ("mu2mild", "delta_sylvester", "mu2mild.delta_sylvester"),
    ("mu2mild", "morley_coeffs", "mu2mild.morley_coeffs"),
    ("mu2mild", "minor_family", "mu2mild.minor_family"),
    ("poly", "BiPoly.subst_x", "poly.subst_x"),
    ("poly", "BiPoly.__mul__", "poly.mul"),
    ("poly", "resultant_t", "poly.resultant_t"),
    ("poly", "poly_det_bareiss", "poly.det_bareiss"),
    ("oracle", "Oracle.mingen_table", "oracle.mingen_table"),
    ("oracle", "Oracle.mingen_count", "oracle.mingen_count"),
    ("oracle", "Oracle.kernel_dim", "oracle.kernel"),
    ("oracle", "Oracle.kernel_basis", "oracle.kernel"),
    ("oracle", "ideal_piece_membership", "oracle.membership"),
    ("adjoint", "adjoint_report", "adjoint.report"),
    ("adjoint", "z_dimension", "adjoint.z_dimension"),
    ("linalg", "_FractionCore.add_rows", "linalg.add_rows.fraction"),
    ("linalg", "_FpPackedCore.add_rows", "linalg.add_rows.packed"),
    ("linalg", "_FpNativeCore.add_rows", "linalg.add_rows.native"),
]

CORE_KINDS = {"_FractionCore": "fraction", "_FpPackedCore": "packed", "_FpNativeCore": "native"}


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start_ns, end_ns, parent index, curve)
        self.stack = []          # [span index, child ns] per open span
        self.self_ns = Counter()
        self.calls = Counter()
        self.counts = Counter()
        self.curve = None
        self.kernel_seen = weakref.WeakKeyDictionary()   # Oracle -> requested slices

    def span(self, name, fn):
        spans, stack, self_ns, calls = self.spans, self.stack, self.self_ns, self.calls

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            frame = [idx, 0]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                dur = t1 - t0
                self_ns[name] += dur - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
                spans[idx] = (name, t0, t1, parent, self.curve)

        return wrapper

    # -- wrappers that also count ------------------------------------------------

    def add_rows(self, fn):
        counts = self.counts

        def add_rows(core, rows, stop):
            rows = list(rows)
            before = len(core.pivcols)
            out = fn(core, rows, stop)
            counts["rows_fed"] += len(rows)
            counts["cells_fed"] += len(rows) * core.ncols
            counts["rank_gained"] += len(core.pivcols) - before
            return out

        return add_rows

    def kernel_request(self, fn):
        counts, seen = self.counts, self.kernel_seen

        def request(orc, i, j):
            slices = seen.setdefault(orc, set())
            counts["kernel_requests"] += 1
            if (i, j) in slices:
                counts["kernel_repeats"] += 1
            slices.add((i, j))
            return fn(orc, i, j)

        return request

    def make_core(self, fn):
        counts = self.counts

        def make_core(*args):
            core = fn(*args)
            counts["reducers." + CORE_KINDS.get(type(core).__name__, type(core).__name__)] += 1
            return core

        return make_core

    def counted(self, key, fn):
        counts = self.counts

        def wrapper(*args):
            counts[key] += 1
            return fn(*args)

        return wrapper

    # -- output --------------------------------------------------------------------

    def summary(self) -> dict:
        return {
            "self_s": {k: v / 1e9 for k, v in self.self_ns.items()},
            "calls": dict(self.calls),
            "counts": dict(self.counts),
            "spans": len(self.spans),
        }

    def write_spans(self, path):
        with open(path, "w") as fh:
            for idx, (name, t0, t1, parent, curve) in enumerate(self.spans):
                fh.write(json.dumps({
                    "span": idx, "name": name, "start_ns": t0, "end_ns": t1,
                    "parent": parent, "curve": curve,
                }) + "\n")


def _patch(module, attr, make):
    """Replace module.attr (or module.Class.method) and every by-name import of it."""
    owner, name = module, attr
    if "." in attr:
        cls_name, name = attr.split(".")
        owner = getattr(module, cls_name)
    original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    wrapped = make(original)
    setattr(owner, name, wrapped)
    if owner is module:
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("reescurve") and mod is not module:
                for key, val in list(vars(mod).items()):
                    if val is original:
                        setattr(mod, key, wrapped)


def install() -> Tracer:
    tracer = Tracer()
    mods = {}
    for mod, _, _ in SPANS:
        mods[mod] = importlib.import_module("reescurve." + mod)
    for mod, attr, name in SPANS:
        if attr in ("Oracle.kernel_dim", "Oracle.kernel_basis"):
            make = lambda f, n=name: tracer.span(n, tracer.kernel_request(f))
        elif attr.endswith(".add_rows"):
            make = lambda f, n=name: tracer.span(n, tracer.add_rows(f))
        else:
            make = lambda f, n=name: tracer.span(n, f)
        _patch(mods[mod], attr, make)
    _patch(mods["linalg"], "_make_core", tracer.make_core)
    fields = importlib.import_module("reescurve.fields")
    _patch(fields, "Rationals.inv", lambda f: tracer.counted("fields.inv", f))
    _patch(fields, "PrimeField.inv", lambda f: tracer.counted("fields.inv", f))
    return tracer
