"""The timing scripts under scripts/ still run against the package.

They wrap reescurve functions by name, so a renamed or removed function
breaks them; each runs once here, in a fresh interpreter, at one repeat.
"""
import json
import pathlib
import subprocess
import sys

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script", [
    ["power_shapes.py"],
    ["poly_shapes.py"],
    ["rref_shapes.py", "--parts", "fp", "tower", "--cores", "native"],
], ids=lambda args: args[0])
def test_timing_script_runs_and_prints_json_lines(script):
    if script[0] == "rref_shapes.py":
        from reescurve import _native

        if _native.get_kernel() is None:
            pytest.skip("rref_shapes.py times the native core only here, and it is not built")
    r = subprocess.run(
        [sys.executable, str(SCRIPTS / script[0]), *script[1:], "--repeat", "1"],
        capture_output=True,
        text=True,
    )
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines
    for line in lines:
        assert isinstance(json.loads(line), dict), line
