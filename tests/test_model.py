"""Static case data: schedules, generators, closure kinds, validation."""

import dataclasses
import sys

import pytest

from wildcv import model, pipeline
from wildcv.model import (CASE_NAMES, ClosureCondition, TwistClass,
                          UnknownCaseError, Violation, case_spec, validate_spec)
from wildcv.pipeline import DerivationError
from wildcv.polyring import LaurentPoly, parse

from _support import use_spec


def _gen_strings(spec):
    return {nm: str(LaurentPoly.term(1, mono)) for nm, mono in spec.generator_defs}


def test_unknown_case_rejected():
    with pytest.raises(UnknownCaseError):
        case_spec("JKTIII")


def test_case_spec_is_stable():
    assert case_spec("JKTVI") is case_spec("JKTVI")
    assert case_spec("JKTI") == case_spec("JKTI")


def test_twist_classes_and_torus_dims():
    assert case_spec("JKTVI").twist is TwistClass.UNTWISTED
    assert case_spec("JKTV").twist is TwistClass.MINIMALLY_TWISTED
    assert case_spec("JKTIVa").twist is TwistClass.MAXIMALLY_TWISTED
    assert TwistClass.UNTWISTED.torus_dim == 2
    assert TwistClass.MINIMALLY_TWISTED.torus_dim == 1
    assert TwistClass.MAXIMALLY_TWISTED.torus_dim == 0
    assert TwistClass.MAXIMALLY_TWISTED.ramification_index == 3


def test_schedule_lengths():
    lengths = {"JKTVI": 6, "JKTV": 3, "JKTIVa": 4,
               "JKTIVb": 12, "JKTII": 7, "JKTI": 10}
    for name, ln in lengths.items():
        assert len(case_spec(name).schedule) == ln


def test_generator_definitions():
    assert _gen_strings(case_spec("JKTVI")) == {
        "U": "x1*x4", "V": "x2*x5", "W": "x3*x6",
        "R": "x1*x3*x5", "T": "x2*x4*x6"}
    assert _gen_strings(case_spec("JKTV")) == {
        "U": "x2*x5", "V": "x3*x6", "W": "x1", "R": "x2*x6", "T": "x3*x5"}
    assert _gen_strings(case_spec("JKTII")) == {
        "U": "x2*x5", "V": "x3*x6", "W": "x1", "R": "x2*x6", "T": "x1*x3*x5"}
    for name in ("JKTIVa", "JKTI"):
        assert _gen_strings(case_spec(name)) == {
            "U": "x1*x4", "V": "x2", "W": "x3", "R": "x1*x3", "T": "x2*x4"}


def test_tautological_relations():
    """The derived relation keeps the written relations' terms and their order."""
    for name in CASE_NAMES:
        written = "U*V - R*T" if name == "JKTV" else "U*V*W - R*T"
        assert list(case_spec(name).tautological.terms.items()) == list(
            parse(written).terms.items()), name


def test_closure_kind_by_divisor():
    for name in ("JKTVI", "JKTV", "JKTIVa"):
        spec = case_spec(name)
        assert spec.divisor == "{0}+2{inf}"
        assert spec.closure == ClosureCondition("fixed_class", ("p", "q"))
    for name in ("JKTIVb", "JKTII", "JKTI"):
        spec = case_spec(name)
        assert spec.divisor == "3{inf}"
        assert spec.closure.kind == "identity"


def test_jkti_schedule_is_tenths_of_the_circle():
    spec = case_spec("JKTI")
    turns = [layout.direction.turns for layout in spec.schedule]
    from fractions import Fraction
    assert turns == [Fraction(k, 5) % 2 for k in range(1, 11)]


def test_expected_cubic_shapes():
    vi = case_spec("JKTVI").expected
    assert (vi.xyz, vi.x2, vi.y2, vi.z2) == (
        parse("gamma"), parse("alpha"), parse("beta"), parse("gamma"))
    v = case_spec("JKTV").expected
    assert (v.xyz, v.x2, v.y2, v.z2) == (parse("1"), parse("1"), parse("1"), parse("0"))
    ivb = case_spec("JKTIVb").expected
    assert ivb.c1 == parse("-gamma^-1")
    assert ivb.c2 == parse("-alpha - gamma^-1 - 1")
    assert ivb.c3 == parse("-alpha")
    assert ivb.c4 == parse("alpha*gamma^-1 + alpha + gamma^-1")


def test_expected_cubic_reconstructs_only_when_pinned():
    assert case_spec("JKTI").expected.reconstruct() == parse("X*Y*Z + X + Y + 1")
    with pytest.raises(ValueError, match=r"free coefficients: c1, c2, c3, c4$"):
        case_spec("JKTVI").expected.reconstruct()


def test_shipped_specs_validate_cleanly():
    for name in CASE_NAMES:
        assert validate_spec(case_spec(name)) == []


def test_validate_detects_wrong_schedule_length():
    """Cutting the first or the last layout leaves a direction of the
    eigenvalue pairs without a Stokes matrix."""
    for name in CASE_NAMES:
        spec = case_spec(name)
        for cut in (spec.schedule[1:], spec.schedule[:-1]):
            mutated = dataclasses.replace(spec, schedule=cut)
            kinds = {v.kind for v in validate_spec(mutated)}
            assert "direction_mismatch" in kinds, name


def _with_generator(name, gname, text):
    spec = case_spec(name)
    defs = tuple((nm, parse(text).single_term()[1] if nm == gname else mono)
                 for nm, mono in spec.generator_defs)
    return dataclasses.replace(spec, generator_defs=defs)


def test_validate_detects_generator_mismatch():
    """JKTVI's U = x1*x5 has nonzero weight, and its five exponent vectors
    are independent, so the generators satisfy no relation."""
    violations = validate_spec(_with_generator("JKTVI", "U", "x1*x5"))
    kinds = {v.kind for v in violations}
    assert "generator_mismatch" in kinds
    assert Violation("tautological_relation",
                     "the generators' relations have rank 0, need 1") in violations


def test_validate_detects_two_relations():
    """JKTV's W = x2*x5 repeats U, a second relation beside U*V = R*T; the
    replaced spec does not keep the shipped spec's cached relation."""
    assert case_spec("JKTV").tautological == parse("U*V - R*T")
    violations = validate_spec(_with_generator("JKTV", "W", "x2*x5"))
    assert Violation("tautological_relation",
                     "the generators' relations have rank 2, need 1") in violations


def test_unknown_divisor_rejected():
    """The one violation: every other check reads the closure the divisor fixes."""
    spec = dataclasses.replace(case_spec("JKTI"), divisor="2{0}+{inf}")
    assert validate_spec(spec) == [Violation("divisor", "unknown divisor '2{0}+{inf}'")]


def test_case_spec_checks_each_case_once(monkeypatch):
    """Once the six specs are cached, deriving them runs no check, under
    whatever name a module holds it."""
    for name in CASE_NAMES:
        case_spec(name)

    def never(spec):
        raise AssertionError(f"{spec.name} was checked again")

    real = model.validate_spec
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("wildcv")
                and getattr(mod, "validate_spec", None) is real):
            monkeypatch.setattr(mod, "validate_spec", never)
    for name in CASE_NAMES:
        pipeline.derive_case(name, run_oracle=False)


_OTHER_DIVISOR = {"3{inf}": "{0}+2{inf}", "{0}+2{inf}": "3{inf}"}


@pytest.mark.parametrize("name,mutant", [
    (name, "divisor") for name in CASE_NAMES] + [
    (name, twist) for name in CASE_NAMES for twist in TwistClass
    if twist is not case_spec(name).twist])
def test_wrong_divisor_or_twist_fails_derivation(name, mutant, monkeypatch):
    spec = case_spec(name)
    if mutant == "divisor":
        mutated = dataclasses.replace(spec, divisor=_OTHER_DIVISOR[spec.divisor])
    else:
        mutated = dataclasses.replace(spec, twist=mutant)
    use_spec(monkeypatch, mutated)
    with pytest.raises(DerivationError) as exc:
        pipeline.derive_case(name, run_oracle=False)
    if mutant != "divisor":
        # the pairs' ramification follows the twist, so the directions move
        assert str(exc.value).startswith("[spec]")
        assert "direction_mismatch" in str(exc.value)


def _closure_plan_mutants():
    """Identity-closure plans that break the partition of M = I's nine entries,
    and a plan given to a fixed-class case."""
    out = []
    for name in ("JKTIVb", "JKTII", "JKTI"):
        spec = case_spec(name)
        plan, residuals = spec.back_sub_plan, spec.residual_entries
        moved = ((plan[0][0], residuals[0][1]),) + residuals[1:]
        first_half = ((plan[0][0], spec.first_half_variables()[0]),) + plan[1:]
        out += [pytest.param(name, {"back_sub_plan": plan[1:]},
                             id=f"{name}-plan-entry-removed"),
                pytest.param(name, {"residual_entries": moved},
                             id=f"{name}-residual-on-planned-entry"),
                pytest.param(name, {"back_sub_plan": first_half},
                             id=f"{name}-first-half-variable-planned")]
    ivb = case_spec("JKTIVb")
    out.append(pytest.param("JKTVI", {"back_sub_plan": ivb.back_sub_plan,
                                      "residual_entries": ivb.residual_entries},
                            id="JKTVI-plan-on-fixed-class"))
    return out


@pytest.mark.parametrize("name,changes", _closure_plan_mutants())
def test_closure_plan_mutants_fail_at_spec(name, changes, monkeypatch):
    use_spec(monkeypatch, dataclasses.replace(case_spec(name), **changes))
    with pytest.raises(DerivationError) as exc:
        pipeline.derive_case(name, run_oracle=False)
    assert str(exc.value).startswith("[spec]")
    assert "closure_plan" in str(exc.value)


@pytest.mark.parametrize("name,targets", [
    ("JKTIVb", ("x5",)), ("JKTIVb", ("x7", "x8")), ("JKTIVb", ("x5", "x5")),
    ("JKTIVb", ()), ("JKTVI", ("x1", "x2")),
], ids=["one", "back-substituted", "repeated", "none", "fixed-class"])
def test_oracle_plan_mutants_fail_at_spec(name, targets, monkeypatch):
    """Solve targets other than two distinct surviving coefficients of an
    identity closure, or any solve targets on a fixed-class closure."""
    spec = case_spec(name)
    oracle = dataclasses.replace(spec.oracle, solve_targets=targets)
    use_spec(monkeypatch, dataclasses.replace(spec, oracle=oracle))
    with pytest.raises(DerivationError) as exc:
        pipeline.derive_case(name)
    assert str(exc.value).startswith("[spec]")
    assert "oracle_plan" in str(exc.value)


def test_first_half_variables():
    assert case_spec("JKTIVb").first_half_variables() == tuple(
        f"x{i}" for i in range(1, 7))
    assert case_spec("JKTII").first_half_variables() == (
        "x2", "x3", "x1", "x5", "x6")
    assert case_spec("JKTI").first_half_variables() == ("x1", "x2", "x3", "x4")
