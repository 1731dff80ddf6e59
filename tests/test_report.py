"""One gens report computes each object once and reads it back for the verdicts."""
import random
from collections import Counter
from fractions import Fraction

import pytest

from reescurve import mu2mild, mu2sing, report, syzygy
from reescurve.fields import DEFAULT_PRIME, PrimeField, QQ
from reescurve.sampling import sample_mild, sample_very_singular
from reescurve.syzygy import parametrization

FP = PrimeField(DEFAULT_PRIME)


def _count_calls(monkeypatch, calls, module, name, key=None):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls[key(*args) if key else name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def _counted_report(monkeypatch, par):
    calls = Counter()
    # every by-name binding of implicit_equation shares one counter (the
    # pipeline contexts take the report's, and bind none of their own)
    for module in (report, syzygy):
        _count_calls(monkeypatch, calls, module, "implicit_equation")
    # the resultant behind the implicit equation (the verdicts' identity
    # resultants are bound in report and not counted here)
    _count_calls(monkeypatch, calls, syzygy, "resultant_t")
    _count_calls(monkeypatch, calls, mu2mild, "delta_sylvester")
    _count_calls(monkeypatch, calls, mu2mild, "morley_coeffs")
    _count_calls(
        monkeypatch, calls, mu2mild, "minor_family", key=lambda ctx, i, *rest: ("minor_family", i)
    )
    rep = report.build_report(par)
    assert rep.all_pass
    return calls


def test_mild_report_computes_each_object_once(monkeypatch):
    d = 7
    par = sample_mild(FP, d, random.Random(1)).par
    calls = _counted_report(monkeypatch, par)
    assert calls.pop("implicit_equation") == 1
    assert calls.pop("resultant_t") == 1
    assert calls.pop("delta_sylvester") == 1
    assert calls.pop("morley_coeffs") == 1
    assert calls == {("minor_family", i): 1 for i in range(1, d - 3)}


def test_very_singular_report_computes_each_object_once(monkeypatch):
    par = sample_very_singular(FP, 8, random.Random(2)).par
    calls = _counted_report(monkeypatch, par)
    assert calls == {"implicit_equation": 1, "resultant_t": 1}


def test_report_resultants_take_no_sylvester_determinant(monkeypatch):
    """Under mu = 2 every resultant of a report has an argument of T-degree 1
    or 2, so resultant_t never falls back to the Sylvester determinant.
    resultant_t looks poly_det_bareiss up in the poly module, so the counter
    there sees its calls."""
    from reescurve import poly

    calls = Counter()
    _count_calls(monkeypatch, calls, poly, "poly_det_bareiss")
    for module in (report, syzygy):
        _count_calls(monkeypatch, calls, module, "resultant_t")
    for par in (sample_mild(FP, 7, random.Random(1)).par,
                sample_very_singular(FP, 8, random.Random(2)).par):
        assert report.build_report(par).all_pass
    assert calls["resultant_t"] >= 4
    assert calls["poly_det_bareiss"] == 0


@pytest.mark.parametrize("field, d, seed", [(FP, 8, 0), (QQ, 6, 1)], ids=["fp", "q"])
def test_mild_report_takes_no_bareiss_determinant(monkeypatch, field, d, seed):
    """The band minors and the resultant determinants of a mild report are
    closed forms: no Bareiss elimination runs, through the poly binding or a
    mu2mild one."""
    from reescurve import poly

    calls = Counter()
    _count_calls(monkeypatch, calls, poly, "poly_det_bareiss")
    monkeypatch.setattr(mu2mild, "poly_det_bareiss", poly.poly_det_bareiss, raising=False)
    _count_calls(monkeypatch, calls, mu2mild, "minor_family")
    _count_calls(monkeypatch, calls, mu2mild, "morley_det_check")
    par = sample_mild(field, d, random.Random(seed)).par
    assert report.build_report(par).all_pass
    assert calls["minor_family"] == calls["morley_det_check"] == d - 4
    assert calls["poly_det_bareiss"] == 0


@pytest.mark.parametrize("field, d, seed", [(FP, 8, 3), (QQ, 6, 5)], ids=["fp", "q"])
def test_transformed_equation_is_the_pulled_back_one(field, d, seed):
    """The transformed frame's equation, taken through the coordinate change,
    equals a second resultant of the transformed mu-basis."""
    s = sample_very_singular(field, d, random.Random(seed))
    assert s.sing.change != [[field.one if a == b else field.zero for b in range(3)] for a in range(3)]
    ctx = mu2sing.very_singular_context(s.par, s.mb, s.sing, syzygy.implicit_equation(s.mb))
    direct = syzygy.implicit_equation(ctx.mb)
    assert ctx.implicit.equation == direct.equation
    assert ctx.implicit.resultant == direct.resultant
    assert ctx.implicit.properness_degree == direct.properness_degree == 1
    assert ctx.par.substitute(ctx.implicit.equation).is_zero()


def test_mirror_ignores_any_rational_scaling():
    """The mirror reduces the primitive integer triple, so multiplying the
    curve by the prime itself or dividing it by a fraction changes nothing."""
    coeffs = ([1, 0, Fraction(1, 2), 0, 0, 2], [0, 1, 0, 3, 0, 0], [0, Fraction(-2, 3), 0, 0, 0, 1])
    par = parametrization(QQ, *coeffs)
    mirror = report.mirror_to_prime_field(par)
    for c in (Fraction(7, 12), DEFAULT_PRIME, Fraction(1, DEFAULT_PRIME)):
        scaled = parametrization(QQ, *[[x * c for x in u] for u in coeffs])
        assert report.mirror_to_prime_field(scaled) == mirror


def _after_assembly(monkeypatch, module, name, change=None):
    """Wrap module.name (an assembly): apply change to each Assembly it
    returns, keep it, and record every form substituted into a curve from
    then on.  Returns (assemblies, forms substituted after assembly)."""
    assemblies, seen = [], []
    assemble = getattr(module, name)
    substitute = syzygy.Parametrization.substitute

    def wrapped(ctx):
        asm = assemble(ctx)
        if change is not None:
            change(asm)
        assemblies.append(asm)
        seen.clear()
        return asm

    def recording(par, g):
        seen.append(g)
        return substitute(par, g)

    monkeypatch.setattr(module, name, wrapped)
    monkeypatch.setattr(syzygy.Parametrization, "substitute", recording)
    return assemblies, seen


def _substituted_labels(assembly, seen):
    return [g.label for g in assembly.generators if any(f is g.poly for f in seen)]


@pytest.mark.parametrize("drop", [False, True], ids=["recorded", "record-dropped"])
def test_per_generator_stage_substitutes_only_unrecorded_generators(monkeypatch, drop):
    """A mild assembly records the Sylvester forms and minors it substituted
    to zero, so the per-generator stage substitutes only E, P and Q.  A
    generator whose record is dropped is substituted there as well, and its
    checks still pass."""
    def drop_last(asm):
        asm.generators[-1].substituted = False

    asms, seen = _after_assembly(monkeypatch, mu2mild, "assemble_mild", drop_last if drop else None)
    rep = report.build_report(sample_mild(FP, 7, random.Random(1)).par)
    assert rep.all_pass
    gens = asms[0].generators
    assert [g.label for g in gens if not g.substituted] == _substituted_labels(asms[0], seen)
    want = ["implicit-equation", "low-moving-line", "high-moving-line"]
    assert _substituted_labels(asms[0], seen) == want + [gens[-1].label] * drop
    assert gens[-1].label.startswith("morley-minor")
    assert rep.generators[-1].checks == {"substitutes-to-zero": True, "in-kernel-span": True}


def test_very_singular_report_substitutes_every_generator(monkeypatch):
    """Very singular assembly tests its forms in the transformed frame, so
    the per-generator stage substitutes each pulled-back generator."""
    asms, seen = _after_assembly(monkeypatch, mu2sing, "assemble_very_singular")
    rep = report.build_report(sample_very_singular(FP, 8, random.Random(2)).par)
    assert rep.all_pass
    gens = asms[0].generators
    assert not any(g.substituted for g in gens)
    assert _substituted_labels(asms[0], seen) == [g.label for g in gens]


def test_a_flipped_coefficient_fails_in_kernel_span_and_exits_3(monkeypatch, tmp_path, capsys):
    """One coefficient of a recorded minor changed after assembly: its
    substitution is not repeated, so in-kernel-span alone refuses it, the
    report does not pass and gens exits 3.  substitutes-to-zero stays true:
    it certifies the form assembly built, not one changed after it."""
    import json

    from reescurve import cli
    from reescurve.poly import BiPoly, unpack

    flipped = []

    def flip(asm):
        g = next(g for g in asm.generators if g.label.startswith("morley-minor") and g.substituted)
        key = max(g.poly.coeffs)
        g.poly = g.poly + BiPoly.monomial(FP, unpack(key))
        flipped.append(g.label)

    assert cli.main(["--field", "fp", "sample-mild", "--degree", "7", "--seed", "1"]) == 0
    path = tmp_path / "curve.json"
    path.write_text(capsys.readouterr().out)
    _after_assembly(monkeypatch, mu2mild, "assemble_mild", flip)
    assert cli.main(["gens", str(path)]) == cli.EXIT_VERIFICATION == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_pass"] is False
    failed = [g for g in doc["generators"] if not g["verified"]]
    assert [g["label"] for g in failed] == flipped
    assert failed[0]["checks"] == {"substitutes-to-zero": True, "in-kernel-span": False}


# the reducers of an F_p report that read their RREF, by the function that
# builds them; every other one (the oracle's slices and chains, the span
# tests, the content rank) asks only for ranks or pivot columns
_RREF_READERS = ("mu_basis", "solver", "axial_change")
_RANK_ONLY = ("mingen_table", "independent_mod", "kernel_dim", "classify_singularity")


def _builder(frame):
    while frame is not None:
        if frame.f_code.co_name in _RREF_READERS + _RANK_ONLY:
            return frame.f_code.co_name
        frame = frame.f_back
    return None


@pytest.mark.parametrize("sampler, d, want", [
    (sample_very_singular, 7, {"mu_basis": 3, "axial_change": 1, "solver": 3}),
    (sample_mild, 7, {"mu_basis": 3}),
])
def test_fp_report_back_substitutes_only_where_the_rref_is_read(monkeypatch, sampler, d, want):
    """The native core back-substitutes (phase 2) on the first read of the
    RREF after a batch.  In an F_p gens report that is the mu-basis, the
    solvers and the axial change: the reducers of the table, the span tests
    and the content rank are built and fed but never run phase 2."""
    import sys

    from reescurve import _native, linalg

    if _native.get_kernel() is None:
        pytest.skip("native kernel unavailable (no C compiler, or REESCURVE_NO_NATIVE set)")
    par = sampler(FP, d, random.Random(d)).par
    built, phase2 = Counter(), Counter()
    init, back_substitute = linalg._FpNativeCore.__init__, linalg._FpNativeCore._back_substitute

    def counted_init(core, *args):
        built[_builder(sys._getframe(1))] += 1
        init(core, *args)

    def counted_back_substitute(core):
        if core.nred < core.npiv:
            phase2[_builder(sys._getframe(1))] += 1
        back_substitute(core)

    monkeypatch.setattr(linalg._FpNativeCore, "__init__", counted_init)
    monkeypatch.setattr(linalg._FpNativeCore, "_back_substitute", counted_back_substitute)
    assert report.build_report(par).all_pass
    # mu_basis: the nullspaces at degrees mu and d - mu, then the RREF that
    # reads Q off them
    assert dict(phase2) == want
    assert all(built[name] for name in _RANK_ONLY), built
