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
import os
import pathlib
import subprocess
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


def test_a_failed_kernel_build_keeps_the_pinned_report(tmp_path):
    """The kernel's source includes Python.h: without the interpreter's
    headers it does not build, get_kernel() returns None without raising,
    and every F_p path runs in Python.  In a fresh interpreter with an empty
    kernel cache and sysconfig pointing at a missing include directory,
    `gens` on an fp-mild pool curve exits 0 with the pinned masked report."""
    from reescurve import cli

    wl = workloads.WORKLOADS["fp-mild"]
    entry, kind, d, seed = workloads.entries(wl)[0]
    argv = ["--field", wl.field, f"sample-{kind}", "--degree", str(d), "--seed", str(seed)]
    sampled = worker.call(cli, argv)
    assert sampled["code"] == 0, sampled["stderr"]
    path = tmp_path / f"{entry}.json"
    path.write_text(sampled["stdout"])
    code = (
        "import sys, sysconfig\n"
        "paths = sysconfig.get_paths\n"
        "sysconfig.get_paths = lambda *a, **k: {**paths(*a, **k), 'include': sys.argv[1]}\n"
        "from reescurve import _native, cli\n"
        "print('kernel', _native.get_kernel(), file=sys.stderr)\n"
        "sys.exit(cli.main(['gens', sys.argv[2]]))\n"
    )
    env = {k: v for k, v in os.environ.items() if k != "REESCURVE_NO_NATIVE"}
    env.update(PYTHONPATH=str(PERFBENCH.parent / "src"), XDG_CACHE_HOME=str(tmp_path / "cache"))
    r = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path / "missing"), str(path)],
        capture_output=True, text=True, env=env,
    )
    assert "kernel None" in r.stderr.splitlines(), r.stderr
    assert not list((tmp_path / "cache").rglob("*.so"))
    op = {"gens": {"code": r.returncode, "stdout": r.stdout, "stderr": r.stderr}, "adjoint": None}
    digest, why = bench.op_digest(op, wl, kind, d)
    assert why is None, f"{entry}: {why}"
    assert digest == PINS["fp-mild"][entry]["report"], entry
