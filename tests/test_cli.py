"""CLI surface: subcommands, exit codes, JSON round-trips, determinism."""
import contextlib
import hashlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from reescurve.fields import BackendMismatch
from reescurve.linalg import ShapeMismatch
from reescurve.poly import GradingError, InexactDivision

D5 = {
    "field": "q",
    "d": 5,
    "u0": ["1", "0", "0", "0", "0", "0"],
    "u1": ["0", "0", "1", "0", "0", "0"],
    "u2": ["0", "0", "0", "0", "0", "1"],
}
IMPROPER = {
    "field": "q",
    "d": 4,
    "u0": ["1", "0", "0", "0", "0"],
    "u1": ["0", "0", "1", "0", "0"],
    "u2": ["0", "0", "0", "0", "1"],
}


def run_cli(args, inp=None, env=None):
    """Run the CLI in a fresh interpreter; `env` entries extend the environment."""
    return subprocess.run(
        [sys.executable, "-m", "reescurve.cli"] + args,
        capture_output=True,
        text=True,
        input=inp,
        env=None if env is None else {**os.environ, **env},
    )


@pytest.fixture
def d5_file(tmp_path):
    path = tmp_path / "d5.json"
    path.write_text(json.dumps(D5))
    return str(path)


def test_mubasis_command(d5_file):
    r = run_cli(["mubasis", d5_file])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["mu"] == 2
    assert doc["schema"] == 1


def test_stdin_input():
    r = run_cli(["mubasis", "-"], inp=json.dumps(D5))
    assert r.returncode == 0
    assert json.loads(r.stdout)["mu"] == 2


def test_implicitize_command(d5_file):
    r = run_cli(["implicitize", d5_file])
    doc = json.loads(r.stdout)
    assert r.returncode == 0
    assert doc["properness_degree"] == 1
    assert doc["degree"] == 5


def test_classify_command(d5_file):
    doc = json.loads(run_cli(["classify", d5_file]).stdout)
    assert doc["kind"] == "very-singular"
    assert doc["axial_pair"] == ["T0^2", "T1^2"]


def test_inverse_command(d5_file):
    doc = json.loads(run_cli(["inverse", d5_file]).stdout)
    assert (doc["a"], doc["b"], doc["ell"]) == ("X1^2", "X0*X2", 2)


def test_gens_report_and_verify_round_trip(d5_file, tmp_path):
    r = run_cli(["gens", d5_file])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["all_pass"] is True
    assert len(doc["generators"]) == 5
    rep_path = tmp_path / "report.json"
    rep_path.write_text(r.stdout)
    rv = run_cli(["verify", str(rep_path)])
    assert rv.returncode == 0
    assert json.loads(rv.stdout)["ok"] is True


def test_verify_detects_tampering(d5_file, tmp_path):
    doc = json.loads(run_cli(["gens", d5_file]).stdout)
    doc["generators"][0]["poly"] = "X0^5"
    rep_path = tmp_path / "tampered.json"
    rep_path.write_text(json.dumps(doc))
    rv = run_cli(["verify", str(rep_path)])
    assert rv.returncode == 3
    assert json.loads(rv.stdout)["ok"] is False


def test_verify_refuses_malformed_reports(d5_file, tmp_path):
    report = json.loads(run_cli(["gens", d5_file]).stdout)
    sample = json.loads(run_cli(["sample-mild", "--degree", "5", "--seed", "1"]).stdout)
    docs = [[1], sample] + [
        {**report, key: bad}
        for key, bad in (("generators", 5), ("generators", [5]), ("singularity", None),
                         ("oracle_table", []))
    ]
    for k, doc in enumerate(docs):
        path = tmp_path / f"bad{k}.json"
        path.write_text(json.dumps(doc))
        rv = run_cli(["verify", str(path)])
        assert rv.returncode == 2, (doc, rv.stderr)
        assert json.loads(rv.stdout)["invariant"] == "report_input"


def test_gens_rejects_improper_with_degree(tmp_path):
    path = tmp_path / "improper.json"
    path.write_text(json.dumps(IMPROPER))
    r = run_cli(["gens", str(path)])
    assert r.returncode == 2
    doc = json.loads(r.stdout)
    assert doc["error"] == "precondition"
    assert doc["properness_degree"] == 2


def test_gens_rejects_wrong_mu(tmp_path):
    doc = {"field": "q", "d": 1, "u0": ["1", "0"], "u1": ["0", "1"], "u2": ["1", "1"]}
    path = tmp_path / "line.json"
    path.write_text(json.dumps(doc))
    r = run_cli(["gens", str(path)])
    assert r.returncode == 2
    assert json.loads(r.stdout)["invariant"] == "mu_equals_2"


def test_bad_input_is_precondition_exit(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli(["mubasis", str(path)]).returncode == 2
    path2 = tmp_path / "degenerate.json"
    path2.write_text(json.dumps({"field": "q", "u0": ["0", "1"], "u1": ["0", "2"], "u2": ["0", "3"]}))
    assert run_cli(["mubasis", str(path2)]).returncode == 2


@pytest.mark.parametrize(
    "field", [None, 7, "zz", "fp:4", "fp:1"],
    ids=["missing", "not-a-string", "unknown-spec", "composite", "one"],
)
def test_bad_field_is_curve_input(field, tmp_path):
    doc = {k: v for k, v in D5.items() if k != "field"}
    if field is not None:
        doc["field"] = field
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(doc))
    r = run_cli(["gens", str(path)])
    assert r.returncode == 2, r.stderr
    out = json.loads(r.stdout)
    assert (out["error"], out["invariant"]) == ("precondition", "curve_input")


@pytest.mark.parametrize("spec", ["fp:4", "banana"], ids=["composite", "unknown-spec"])
def test_bad_field_option_is_field_spec(spec, tmp_path):
    """A bad --field refuses as field_spec, both where it overrides a curve
    file's field and where it picks a sampler's field."""
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(D5))
    for argv in (["gens", str(path)], ["sample-mild", "--degree", "6"]):
        r = run_cli(["--field", spec] + argv)
        assert r.returncode == 2, r.stderr
        out = json.loads(r.stdout)
        assert (out["error"], out["invariant"]) == ("precondition", "field_spec"), argv


def test_unusable_kernel_cache_falls_back_to_packed_core(tmp_path):
    """With the cache directory unusable the kernel is not built, and an F_p
    report runs on the generic pure-Python core (its packed label) instead
    of failing."""
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    path = tmp_path / "d5fp.json"
    path.write_text(json.dumps({**D5, "field": "fp"}))
    r = run_cli(["gens", str(path)], env={"XDG_CACHE_HOME": str(blocker)})
    assert r.returncode == 0, r.stdout + r.stderr
    assert json.loads(r.stdout)["all_pass"] is True


def test_oracle_table_command(d5_file):
    r = run_cli(["oracle-table", d5_file, "--imax", "3", "--jmax", "5"])
    doc = json.loads(r.stdout)
    assert doc["cells"] == [[0, 5, 1], [1, 2, 1], [1, 3, 1], [2, 1, 1], [3, 1, 1]]
    assert doc["total"] == 5


def test_adjoint_dims_command(d5_file):
    r = run_cli(["adjoint-dims", d5_file, "--lmax", "4"])
    assert r.returncode == 0
    doc = json.loads(r.stdout)
    assert doc["formulas_agree"] is True
    assert len(doc["rows"]) == 5


@pytest.mark.parametrize(
    "args",
    [["oracle-table", "--imax", "-1"], ["oracle-table", "--jmax", "-2"], ["adjoint-dims", "--lmax", "-1"]],
    ids=["imax", "jmax", "lmax"],
)
def test_negative_table_box_exits_2(args, d5_file, capsys):
    from reescurve import cli

    assert cli.main([args[0], d5_file] + args[1:]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert (doc["error"], doc["invariant"]) == ("precondition", "table_box")


def test_field_override(d5_file):
    r = run_cli(["--field", "fp:10007", "mubasis", d5_file])
    assert r.returncode == 0
    assert json.loads(r.stdout)["curve"]["field"] == "fp:10007"


def test_out_text_mode(d5_file):
    r = run_cli(["--out", "text", "gens", d5_file])
    assert r.returncode == 0
    assert "all_pass: True" in r.stdout


def test_sample_commands_deterministic():
    a = run_cli(["sample-verysingular", "--degree", "6", "--seed", "9"])
    b = run_cli(["sample-verysingular", "--degree", "6", "--seed", "9"])
    assert a.returncode == 0 and a.stdout == b.stdout
    doc = json.loads(a.stdout)
    assert doc["class"] == "verysingular"
    m = run_cli(["sample-mild", "--degree", "5", "--seed", "3"])
    assert json.loads(m.stdout)["class"] == "mild"


def test_gens_reports_byte_identical_after_timing_mask(d5_file):
    a = json.loads(run_cli(["gens", d5_file]).stdout)
    b = json.loads(run_cli(["gens", d5_file]).stdout)
    a.pop("timings")
    b.pop("timings")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_gens_reports_equal_on_both_fp_cores():
    """The native kernel and the no-compiler paths give one report.

    The very singular curves also run the degree-shift solver and the axial
    change of coordinates on each core, and `adjoint-dims`, which builds
    every power u^b with |b| <= d + 2, by the kernel or by Kronecker
    products."""
    for kind, degree in (("mild", 6), ("verysingular", 6), ("verysingular", 7)):
        argv = ["--field", "fp", f"sample-{kind}", "--degree", str(degree), "--seed", "2"]
        s = run_cli(argv)
        assert s.returncode == 0, s.stderr
        reports, adjoints = [], []
        for env in ({}, {"REESCURVE_NO_NATIVE": "1"}):
            g = run_cli(["gens", "-"], inp=s.stdout, env=env)
            assert g.returncode == 0, g.stderr
            doc = json.loads(g.stdout)
            assert doc.pop("all_pass") is True
            doc.pop("timings")
            reports.append(json.dumps(doc, sort_keys=True))
            if kind == "verysingular":
                a = run_cli(["adjoint-dims", "-"], inp=s.stdout, env=env)
                assert a.returncode == 0, a.stderr
                assert json.loads(a.stdout)["formulas_agree"] is True
                adjoints.append(a.stdout)
        assert reports[0] == reports[1], argv
        assert adjoints[:1] == adjoints[1:], argv


# 2^127 - 1: too large for the C kernel's 64-bit words
MERSENNE_127 = "fp:170141183460469231731687303715884105727"


@pytest.mark.parametrize(
    "field, kind, degree",
    [
        ("fp:2", "mild", 5),
        ("fp:3", "verysingular", 6),
        ("fp:7", "mild", 7),
        (MERSENNE_127, "mild", 5),
        (MERSENNE_127, "verysingular", 5),
    ],
)
def test_small_characteristic_sample_and_gens(field, kind, degree, tmp_path):
    # the characteristic divides a degree in the resultant's slice derivative;
    # a prime past 2^62 runs on the field-generic row-reduction core
    s = run_cli(["--field", field, f"sample-{kind}", "--degree", str(degree), "--seed", "1"])
    assert s.returncode == 0, s.stderr
    path = tmp_path / "curve.json"
    path.write_text(s.stdout)
    g = run_cli(["gens", str(path)])
    assert g.returncode == 0, g.stderr
    assert json.loads(g.stdout)["all_pass"] is True


def test_no_third_party_modules_at_run_time():
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "import json, sys\n"
        "from reescurve import build_report\n"
        "from reescurve.fields import DEFAULT_PRIME, PrimeField\n"
        "from reescurve.linalg import RowReducer\n"
        "from reescurve.report import curve_from_json\n"
        "red = RowReducer(PrimeField(DEFAULT_PRIME), 64, size_hint=1 << 16)\n"
        "red.add_rows([[k + 1] * 64 for k in range(3)])\n"
        "assert build_report(curve_from_json(json.loads(sys.argv[1]))).all_pass\n"
        "print(sorted(m for m in ('numpy', 'sympy') if m in sys.modules))\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code, json.dumps(D5)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.strip() == "[]"


@pytest.mark.parametrize("kind, other", [("very_singular", "mu2mild"), ("mild", "mu2sing")])
def test_a_report_imports_only_its_own_pipeline(kind, other):
    """build_report imports the assembly of the curve's class alone."""
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "import random, sys\n"
        "from reescurve import build_report, sampling\n"
        "from reescurve.fields import DEFAULT_PRIME, PrimeField\n"
        f"sample = sampling.sample_{kind}(PrimeField(DEFAULT_PRIME), 6, random.Random(1))\n"
        "assert build_report(sample.par).all_pass\n"
        "print(sorted(m[10:] for m in sys.modules if m.startswith('reescurve.mu2')))\n"
    )
    r = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == [str(sorted({"mu2mild", "mu2sing"} - {other}))]


def test_loading_the_cached_kernel_imports_no_build_module():
    """With the kernel already compiled into the cache, starting up (import
    reescurve.cli, then get_kernel) leaves subprocess unimported: only a
    build needs it.  The child runs with -S, so site hooks of the
    environment cannot import it first."""
    from reescurve import _native

    disabled = bool(os.environ.get("REESCURVE_NO_NATIVE"))
    if _native.get_kernel() is None and not disabled:
        pytest.skip("no working C compiler: there is no cached kernel to load")
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "import reescurve.cli\n"
        "from reescurve import _native\n"
        "loaded = _native.get_kernel() is not None\n"
        "print(loaded, 'subprocess' in sys.modules)\n"
    )
    r = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == [str(not disabled), "False"]


def _fresh_start(code, cache, *args):
    """Run code in a fresh interpreter (-S, so site hooks import nothing)
    with src on the path and the kernel cache at `cache`, the kernel
    enabled; its stdout split into words."""
    env = {k: v for k, v in os.environ.items() if k != "REESCURVE_NO_NATIVE"}
    env.update(PYTHONPATH=str(pathlib.Path(__file__).resolve().parents[1] / "src"),
               XDG_CACHE_HOME=str(cache))
    r = subprocess.run([sys.executable, "-S", "-c", code, *args],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stderr
    return r.stdout.split()


def test_a_failed_kernel_build_is_tried_once(tmp_path):
    """A build that fails (here: sysconfig points at a missing include
    directory, so Python.h is not found) leaves a marker in the cache.  The
    next start on that cache, with the headers back, finds the marker: it
    returns no kernel and imports no build module, so it runs no compiler."""
    failing = (
        "import sys, sysconfig\n"
        "paths = sysconfig.get_paths\n"
        "sysconfig.get_paths = lambda *a, **k: {**paths(*a, **k), 'include': sys.argv[1]}\n"
        "from reescurve import _native\n"
        "print(_native.get_kernel() is None, 'subprocess' in sys.modules)\n"
    )
    cache = tmp_path / "cache"
    assert _fresh_start(failing, cache, str(tmp_path / "missing")) == ["True", "True"]
    built = sorted(p.name for p in (cache / "reescurve").iterdir())
    assert len(built) == 1 and built[0].endswith(".failed"), built
    again = (
        "import sys\n"
        "from reescurve import _native\n"
        "print(_native.get_kernel() is None, 'subprocess' in sys.modules)\n"
    )
    assert _fresh_start(again, cache) == ["True", "False"]
    assert sorted(p.name for p in (cache / "reescurve").iterdir()) == built


def test_a_new_kernel_build_prunes_the_stale_ones(tmp_path):
    """Writing a new build deletes the builds and failure markers of the
    same interpreter ABI and the builds named without an ABI; another ABI's
    build and unrelated files stay."""
    from reescurve import _native

    if _native.get_kernel() is None and not os.environ.get("REESCURVE_NO_NATIVE"):
        pytest.skip("no working C compiler: no build to write")
    abi = sys.implementation.cache_tag + sys.abiflags
    outdir = tmp_path / "cache" / "reescurve"
    outdir.mkdir(parents=True)
    stale = [f"fprref-{abi}-0123456789abcdef.so", f"fprref-{abi}-fedcba9876543210.failed",
             "fprref-1b43a90dc2ea7c35.so", "fprref-5c44f899.so"]
    kept = ["fprref-cpython-0-0123456789abcdef.so", "notes.txt"]
    for name in stale + kept:
        (outdir / name).write_bytes(b"")
    code = (
        "from reescurve import _native\n"
        "print(_native.get_kernel()._name)\n"
    )
    path = pathlib.Path(_fresh_start(code, tmp_path / "cache")[0])
    assert path.parent == outdir and path.name.startswith(f"fprref-{abi}-")
    assert sorted(p.name for p in outdir.iterdir()) == sorted(kept + [path.name])


# A mild sextic over Q whose low moving line T0^2 X0 + P T0T1 X1 + T1^2 X2
# (P = DEFAULT_PRIME) becomes axial mod P: the mirror there is very singular.
BAD_MIRROR = {
    "field": "q",
    "d": 6,
    "u0": ["0", "-13835058055282163541", "13835058055282163539", "-3",
           "13835058055282163539", "-9223372036854775696", "-1"],
    "u1": ["3", "-3", "1", "-4", "4", "-1", "3"],
    "u2": ["2", "-4611686018427387844", "4611686018427387849", "-9223372036854775692",
           "4611686018427387848", "-13835058055282163541", "0"],
}


def test_gens_mirror_ignores_scaling(tmp_path):
    from fractions import Fraction

    from reescurve.fields import DEFAULT_PRIME

    s = run_cli(["--field", "q", "sample-mild", "--degree", "6", "--seed", "3"])
    assert s.returncode == 0, s.stderr
    doc = json.loads(s.stdout)
    scaled = dict(doc)
    for key in ("u0", "u1", "u2"):
        scaled[key] = [str(Fraction(c) / DEFAULT_PRIME) for c in doc[key]]
    reports = []
    for name, curve in (("plain", doc), ("scaled", scaled)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(curve))
        g = run_cli(["gens", str(path)])
        assert g.returncode == 0, g.stderr
        reports.append(json.loads(g.stdout))
    plain, div = reports
    assert div["all_pass"] is True
    assert div["oracle_table"] == plain["oracle_table"]
    assert div["oracle_table"]["field"] == f"fp:{DEFAULT_PRIME}"


def test_gens_steps_past_a_bad_mirror_prime(tmp_path):
    from reescurve.report import MIRROR_PRIMES

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(BAD_MIRROR))
    c = run_cli(["classify", str(path)])
    assert c.returncode == 0 and json.loads(c.stdout)["kind"] == "mild"
    g = run_cli(["gens", str(path)])
    assert g.returncode == 0, g.stderr
    rep = json.loads(g.stdout)
    assert rep["all_pass"] is True
    assert rep["oracle_table"]["field"] == f"fp:{MIRROR_PRIMES[1]}"
    assert any(f"bad reduction mod {MIRROR_PRIMES[0]}" in n for n in rep["notes"])


@settings(max_examples=3, deadline=None, derandomize=True)
@given(
    field=st.sampled_from(["fp:2", "fp:3", "fp:5", "fp:7", "fp:11", "fp:13", "q"]),
    kind=st.sampled_from(["mild", "verysingular"]),
    degree=st.integers(min_value=5, max_value=7),
    seed=st.integers(min_value=0, max_value=99),
)
def test_cli_fuzz_sample_then_gens(field, kind, degree, seed):
    """Every input ends in a report or a classified refusal, never a traceback,
    through the installed entry point and a `gens -` pipe.  Each example
    starts two interpreters; the fields and the exit contract are swept in
    process by test_exit_contract_sweep."""
    s = run_cli(["--field", field, f"sample-{kind}", "--degree", str(degree), "--seed", str(seed)])
    assert s.returncode in (0, 2), s.stderr
    assert "Traceback" not in s.stderr
    if s.returncode:
        return
    g = run_cli(["gens", "-"], inp=s.stdout)
    assert g.returncode in (0, 2, 3), g.stderr
    assert "Traceback" not in g.stderr
    if g.returncode == 0:
        assert json.loads(g.stdout)["all_pass"] is True


def _in_process(argv, stdin=None):
    """cli.main in this interpreter, reading stdin from the given text:
    (exit code, stdout, stderr)."""
    from reescurve import cli

    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    if stdin is not None:
        sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode()))
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def test_one_parser_serves_successive_calls(d5_file):
    """The parser is built once per process: in one interpreter, classify,
    then `--out text gens`, then `gens` print what a fresh interpreter prints
    for each, so no option of one call reaches the next."""
    def masked(out):
        if not out.startswith("{"):
            return out
        doc = json.loads(out)
        doc.pop("timings", None)
        return doc

    for argv in (["classify", d5_file], ["--out", "text", "gens", d5_file], ["gens", d5_file]):
        code, out, _ = _in_process(argv)
        fresh = run_cli(argv)
        assert code == fresh.returncode == 0, fresh.stderr
        assert masked(out) == masked(fresh.stdout), argv


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    field=st.sampled_from(["fp:2", "fp:3", "fp:5", "fp:7", "fp:11", "fp:13", "q"]),
    kind=st.sampled_from(["mild", "verysingular"]),
    degree=st.integers(min_value=5, max_value=9),
    seed=st.integers(min_value=0, max_value=99),
)
def test_exit_contract_sweep(field, kind, degree, seed, tmp_path_factory):
    """classify on the curve file and `gens -` on stdin, then verify on the
    saved report, for sampled curves in process: every run exits 0, 2 (with
    a named invariant) or 3, with no traceback; a report passes and verify
    accepts it.  The small characteristics 2, 3, 5, 7, 11 and 13 exercise
    the closed-form minors and determinants where coefficients wrap.
    Budget: about 10 s for the 40 samples on a 2-vCPU VM.  Q `inverse` at
    d = 10 has its own test below."""
    code, curve, err = _in_process(
        ["--field", field, f"sample-{kind}", "--degree", str(degree), "--seed", str(seed)]
    )
    assert code == 0, err
    path = tmp_path_factory.mktemp("sweep") / "curve.json"
    path.write_text(curve)
    runs = {"classify": _in_process(["classify", str(path)]),
            "gens": _in_process(["gens", "-"], stdin=curve)}
    for cmd, (code, out, err) in runs.items():
        assert code in (0, 2, 3), (cmd, code, err)
        assert "Traceback" not in err
        if code == 2:
            assert json.loads(out)["invariant"], (cmd, out)
    code, report, _ = runs["gens"]
    if code == 0:
        assert json.loads(report)["all_pass"] is True
        saved = path.with_name("report.json")
        saved.write_text(report)
        code, out, err = _in_process(["verify", str(saved)])
        assert code == 0, (out, err)


# sha256 of the stdout of `inverse` on the curve of `--field q sample-mild
# --degree 10 --seed 0`, as printed when Q eliminations ran on Fractions
Q_INVERSE_D10 = "068105f10d53a52d37a065d94f6c25af523c7f213f9e1c685bfd2d1e97b5209b"


def test_q_inverse_at_degree_10(tmp_path):
    """Q `inverse` at d = 10, in process: exit 0 and the recorded output.
    Each kernel_basis(1, ell) runs on the certified modular core; about
    0.1 s on a 2-vCPU VM."""
    code, curve, err = _in_process(["--field", "q", "sample-mild", "--degree", "10", "--seed", "0"])
    assert code == 0, err
    path = tmp_path / "curve.json"
    path.write_text(curve)
    code, out, err = _in_process(["inverse", str(path)])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == Q_INVERSE_D10


@pytest.mark.parametrize(
    "exc",
    [GradingError, ShapeMismatch, InexactDivision, ZeroDivisionError, RuntimeError,
     ValueError, KeyError, IndexError, BackendMismatch],
    ids=lambda e: e.__name__,
)
def test_internal_errors_exit_4(exc, d5_file, monkeypatch, capsys):
    from reescurve import cli

    def broken(par):
        raise exc("invariant broken")

    monkeypatch.setattr(cli, "build_report", broken)
    assert cli.main(["gens", d5_file]) == cli.EXIT_INTERNAL == 4
    doc = json.loads(capsys.readouterr().out)
    assert doc == {
        "schema": 1, "error": "internal", "type": exc.__name__,
        "message": str(exc("invariant broken")),
    }


@pytest.mark.parametrize(
    "content", [None, b"{not json", b'{"field": "q\xff"}', b"[" * 100000],
    ids=["missing", "not-json", "not-utf8", "too-deep"],
)
def test_unreadable_input_file_exits_2(content, tmp_path, monkeypatch, capsys):
    import io

    from reescurve import cli

    path = tmp_path / "input.json"
    argvs = [["gens", str(path)], ["verify", str(path)]]
    if content is not None:
        path.write_bytes(content)
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(content)))
        argvs.append(["gens", "-"])
    for argv in argvs:
        assert cli.main(argv) == 2
        out = json.loads(capsys.readouterr().out)
        assert (out["error"], out["invariant"]) == ("precondition", "input_file"), argv


def test_curve_beyond_the_key_width_exits_2(tmp_path, capsys):
    """A curve whose degree passes the exponent fields of a monomial key is
    refused with the named invariant (exit 2), not wrapped and not exit 4;
    a curve one degree lower is read."""
    from reescurve import cli
    from reescurve.poly import MAX_EXPONENT
    from reescurve.report import curve_from_json

    def doc(d):
        zeros = [0] * (d - 1)
        return {"field": "fp:7", "u0": [1, 0] + zeros, "u1": [0, 1] + zeros, "u2": zeros + [0, 1]}

    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc(MAX_EXPONENT + 1)))
    assert cli.main(["classify", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert (out["error"], out["invariant"]) == ("precondition", "exponent_width")
    assert curve_from_json(doc(MAX_EXPONENT)).d == MAX_EXPONENT


@pytest.mark.parametrize(
    "doc",
    [
        {"field": "q", "u0": [], "u1": [], "u2": []},
        {"field": "q", "u0": ["1/0"], "u1": ["1"], "u2": ["1"]},
        {"field": "fp:7", "u0": ["1/7"], "u1": ["1"], "u2": ["1"]},
        {"field": "q", "u0": [1.5], "u1": ["1"], "u2": ["1"]},
        {"field": "q", "u0": ["x"], "u1": ["1"], "u2": ["1"]},
        {"field": "q", "u0": None, "u1": None, "u2": None},
        {"field": 5, "u0": ["1"], "u1": ["1"], "u2": ["1"]},
        [1, 2, 3],
        {"field": "q", "u0": "100000", "u1": "001000", "u2": "000001"},
        {"field": "q", "u0": {"1": 0}, "u1": {"0": 0}, "u2": {"0": 0}},
        # JSON booleans are not numbers, though Python's bool is an int
        {"field": "fp:7", "u0": [True, 0, 0, 0, 0, 0], "u1": [0, 0, 1, 0, 0, 0],
         "u2": [0, 0, 0, 0, 0, 1]},
        {"field": "q", "d": True, "u0": [1, 0], "u1": [0, 1], "u2": [1, 1]},
    ],
)
def test_malformed_curve_exits_2(doc, tmp_path, capsys):
    from reescurve import cli

    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["gens", str(path)]) == 2
    out = json.loads(capsys.readouterr().out)
    assert (out["error"], out["invariant"]) == ("precondition", "curve_input")
