"""Masked reports of every benchmark input match the pinned digests.

Every pool curve of every workload in perfbench/workloads.py is sampled
through the CLI, its input digest compared with perfbench/pins.json, and
``gens`` (plus ``adjoint-dims`` where the workload runs it) run in process
on it.  The digest of the report's mathematical content, timings and notes
masked, must equal the pinned one.  So a change that alters any generator,
table cell, verdict or adjoint row of these 33 curves fails here.  The
perfbench modules are loaded from their files and nothing there is written.
"""
import importlib.util
import json
import pathlib
import sys

import pytest

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """perfbench/<name>.py as module `name`, without writing bytecode."""
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(mod)
    finally:
        sys.dont_write_bytecode = saved
    return mod


workloads = _load("workloads")
worker = _load("worker")
bench = _load("run")
PINS = json.loads((PERFBENCH / "pins.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reports_match_pinned_digests(name, tmp_path):
    from reescurve import cli

    wl = workloads.WORKLOADS[name]
    pins = PINS[name]
    assert sorted(pins) == sorted(e for e, *_ in workloads.entries(wl))
    for entry, kind, d, seed in workloads.entries(wl):
        argv = ["--field", wl.field, f"sample-{kind}", "--degree", str(d), "--seed", str(seed)]
        sampled = worker.call(cli, argv)
        assert sampled["code"] == 0, sampled["stderr"]
        assert bench.input_digest(sampled["stdout"]) == pins[entry]["input"], entry
        path = tmp_path / f"{entry}.json"
        path.write_text(sampled["stdout"])
        op = {
            "gens": worker.call(cli, ["gens", str(path)]),
            "adjoint": worker.call(cli, ["adjoint-dims", str(path)])
            if wl.adjoint and kind == "verysingular" else None,
        }
        digest, why = bench.op_digest(op, wl, kind, d)
        assert why is None, f"{entry}: {why}"
        assert digest == pins[entry]["report"], entry
