"""Topological monodromy, closure systems and back substitutions against the
written matrix displays and equation systems."""

import pytest

from wildcv.model import CASE_NAMES, case_spec
from wildcv.monodromy import topological_monodromy
from wildcv.polyring import parse, solve_in_order, var_id
from wildcv.stokes import SymMat3

from _support import case_closure, case_factors

P = parse

GAMMA_UNIT = {var_id("gamma"): P("alpha^-1*beta^-1")}


def _split(spec):
    """(L, R^-1) of the case's monodromy: M = I reads L = R^-1."""
    left, right = case_factors(spec)
    return left, right.inverse(right.det())


def _entries(spec):
    """The nine entry equations L - R^-1 of M = I, keyed by (i, j)."""
    left, inverse = _split(spec)
    return {(i, j): left.entry(i, j) - inverse.entry(i, j)
            for i in (1, 2, 3) for j in (1, 2, 3)}


def _back_substitutions(spec):
    """{varname: expression} solved off the planned entry equations."""
    solved = solve_in_order(_entries(spec), spec.back_sub_plan)
    return {v.name: expr for v, expr in solved.items()}


def _assert_matrix(mat: SymMat3, rows):
    for i in range(3):
        for j in range(3):
            assert mat.rows[i][j] == P(rows[i][j]), (i + 1, j + 1)


# --------------------------------------------------------------------------
# determinants and trace formulas
# --------------------------------------------------------------------------


def test_every_monodromy_has_determinant_one():
    for name in CASE_NAMES:
        spec = case_spec(name)
        det = topological_monodromy(case_factors(spec)).det()
        if spec.parameter_normalization:
            det = det.substitute(GAMMA_UNIT)
        assert det == P("1"), name


@pytest.mark.parametrize("name", CASE_NAMES)
def test_factor_determinants_multiply_to_det_m(name):
    """det R * det L, which derive_case checks, is det M exactly, before the
    parameter normalization."""
    left, right = factors = case_factors(case_spec(name))
    assert right.det() * left.det() == topological_monodromy(factors).det()


def test_jktiva_trace_formulas():
    M = topological_monodromy(case_factors(case_spec("JKTIVa")))
    assert M.trace() == P("x1 + x3 + x2*x4")
    assert (M * M).trace() == P(
        "2*x4 + x1^2 + 2*x2 + 2*x1*x2*x4 + x3^2 + x2^2*x4^2 + 2*x2*x3*x4")


def test_jktvi_monodromy_rows():
    M = topological_monodromy(case_factors(case_spec("JKTVI")))
    _assert_matrix(M, [
        ["alpha", "alpha*x1", "alpha*x2"],
        ["beta*x4", "beta*x1*x4 + beta", "beta*x3 + beta*x2*x4"],
        ["gamma*x5 + gamma*x4*x6",
         "gamma*x1*x5 + gamma*x6 + gamma*x1*x4*x6",
         "gamma*x2*x5 + gamma*x3*x6 + gamma*x2*x4*x6 + gamma"],
    ])


# --------------------------------------------------------------------------
# split products for the one-point cases, entry by entry
# --------------------------------------------------------------------------


def test_jktivb_split_display():
    left, right = _split(case_spec("JKTIVb"))
    _assert_matrix(left, [
        ["1", "x1", "x2"],
        ["x4", "x1*x4 + 1", "x3 + x2*x4"],
        ["x4*x6 + x5", "x1*x4*x6 + x6 + x1*x5",
         "x3*x6 + x2*x4*x6 + x2*x5 + 1"],
    ])
    _assert_matrix(right, [
        ["alpha^-1*x7*x10 + alpha^-1*x8*x11 - alpha^-1*x7*x9*x11 + alpha^-1",
         "-beta^-1*x7 + beta^-1*x8*x12 - beta^-1*x7*x9*x12",
         "-gamma^-1*x8 + gamma^-1*x7*x9"],
        ["-alpha^-1*x10 + alpha^-1*x9*x11", "beta^-1*x9*x12 + beta^-1",
         "-gamma^-1*x9"],
        ["-alpha^-1*x11", "-beta^-1*x12", "gamma^-1"],
    ])


def test_jktii_split_display():
    left, right = _split(case_spec("JKTII"))
    _assert_matrix(left, [
        ["1", "x1", "x2 + x1*x3"],
        ["0", "1", "x3"],
        ["x5", "x1*x5 + x6", "x2*x5 + x1*x3*x5 + x3*x6 + 1"],
    ])
    _assert_matrix(right, [
        ["alpha*x7 - alpha*x8*x12", "x8*x11 + 1", "-alpha^-1*x8"],
        ["-alpha*x4*x7 + alpha*x4*x8*x12 - alpha*x9*x12 - alpha",
         "-x4 - x4*x8*x11 + x9*x11", "alpha^-1*x4*x8 - alpha^-1*x9"],
        ["alpha*x12", "-x11", "alpha^-1"],
    ])


def test_jkti_split_display():
    left, right = _split(case_spec("JKTI"))
    _assert_matrix(left, [
        ["1", "x1", "x2"],
        ["x4", "x1*x4 + 1", "x3 + x2*x4"],
        ["0", "0", "1"],
    ])
    _assert_matrix(right, [
        ["-x8 + x7*x9", "x7*x10 + 1", "-x7"],
        ["-x9", "-x10", "1"],
        ["x6*x9 + x5*x8 - x5*x7*x9 + 1", "x6*x10 - x5*x7*x10 - x5",
         "-x6 + x5*x7"],
    ])


# --------------------------------------------------------------------------
# back substitutions
# --------------------------------------------------------------------------


def test_jktivb_back_substitutions():
    spec = case_spec("JKTIVb")
    subs = _back_substitutions(spec)
    assert subs["x9"] == P("-gamma*x3 - gamma*x2*x4")
    assert subs["x12"] == P("-beta*x1*x4*x6 - beta*x6 - beta*x1*x5")
    assert subs["x11"] == P("-alpha*x4*x6 - alpha*x5")
    assert subs["x7"] == P("-beta*x1") - P("gamma*x2") * subs["x12"]
    assert subs["x8"] == P("-gamma*x2") + subs["x7"] * subs["x9"]
    assert subs["x10"] == subs["x9"] * subs["x11"] - P("alpha*x4")


def test_jktii_back_substitutions():
    spec = case_spec("JKTII")
    subs = _back_substitutions(spec)
    assert subs["x11"] == P("-x1*x5 - x6")
    assert subs["x8"] == P("-alpha*x2 - alpha*x1*x3")
    assert subs["x4"] == P("-1") - P("alpha*x3") * subs["x11"]
    assert subs["x9"] == P("-alpha*x3") + subs["x4"] * subs["x8"]
    assert subs["x12"] == P("alpha^-1*x5")


def test_jkti_back_substitutions():
    spec = case_spec("JKTI")
    subs = _back_substitutions(spec)
    assert subs["x9"] == P("-x4")
    assert subs["x10"] == P("-x1*x4 - 1")
    assert subs["x7"] == P("-x2")
    assert subs["x8"] == P("x2*x4 - 1")
    assert subs["x5"] == P("1 + x1*x4")
    assert subs["x6"] == P("-1") - P("x2") * P("1 + x1*x4")


def test_back_substitutions_resolve_to_surviving_variables():
    for name in ("JKTIVb", "JKTII", "JKTI"):
        spec = case_spec(name)
        first_half = set(spec.first_half_variables())
        for nm, expr in _back_substitutions(spec).items():
            used = {v.name for v in expr.variables() if v.name.startswith("x")}
            assert used <= first_half, (name, nm)
        # so an oracle trial, which reads only these, needs no back substitution
        solved = set(spec.back_substituted)
        _, cs = _system(name)
        read = [cs.dropped] + [expr for _, expr in spec.xyz_map]
        assert not {v.name for f in read for v in f.variables()} & solved, name


# --------------------------------------------------------------------------
# closure systems against the frozen expected forms
# --------------------------------------------------------------------------


def _system(name):
    spec = case_spec(name)
    return spec, case_closure(spec)


def test_jktvi_closure_system_equations():
    _, cs = _system("JKTVI")
    assert cs.equations[0] == P(
        "alpha + beta*U + beta + gamma*W + gamma*T + gamma + gamma*V - p")
    assert cs.equations[1] == P(
        "alpha^2 + 2*alpha*beta*U + 2*alpha*gamma*T + 2*alpha*gamma*V"
        " + beta^2*U^2 + 2*beta^2*U + beta^2 + 2*beta*gamma*W"
        " + 2*beta*gamma*U*T + 2*beta*gamma*T + 2*beta*gamma*U*W"
        " + 2*beta*gamma*R + 2*beta*gamma*U*V + gamma^2*W^2 + gamma^2*T^2"
        " + 2*gamma^2*W*T + 2*gamma^2*W + 2*gamma^2*T + gamma^2"
        " + gamma^2*V^2 + 2*gamma^2*V + 2*gamma^2*V*W + 2*gamma^2*V*T - q")
    assert cs.equations[2] == P("U*V*W - R*T")
    assert cs.provenance == ("trace", "trace_square", "tautological")


def test_jktv_closure_system_equations():
    _, cs = _system("JKTV")
    assert cs.equations[0] == P(
        "alpha + alpha*U + W + alpha*V + alpha*T*W - p")
    assert cs.equations[1] == P(
        "-2*alpha^-1 - 2*T + 2*alpha*R + 2*alpha*V*W + W^2 + 2*alpha*W*U"
        " + 2*alpha*W^2*T + alpha^2*V^2 + 2*alpha^2*V + alpha^2"
        " + alpha^2*U^2 + alpha^2*W^2*T^2 + 2*alpha^2*W*U*T + 2*alpha^2*U"
        " + 2*alpha^2*W*T + 2*alpha^2*V*W*T + 2*alpha^2*U*V - q")
    assert cs.equations[2] == P("U*V - R*T")


def test_jktivb_closure_system_equations():
    _, cs = _system("JKTIVb")
    assert cs.equations[0] == P("gamma*W + gamma*T + gamma*V + gamma - 1")
    assert cs.equations[1] == P(
        "U + 1 - gamma*U*W - gamma*W - gamma*R - gamma*U*T - gamma*T"
        " - gamma*U*V - beta^-1")
    assert cs.equations[2] == P("U*V*W - R*T")
    assert cs.provenance == ("entry(3,3)", "entry(2,2)", "tautological")


def test_jktii_closure_system_equations():
    _, cs = _system("JKTII")
    assert cs.equations[0] == P("alpha^-1 - U - V - T - 1")
    assert cs.equations[1] == P(
        "W - alpha*U*W - alpha*R - alpha*T*W - alpha*V*W - 1")
    assert cs.equations[2] == P("U*V*W - R*T")


def test_jkti_residual_system_equations():
    _, cs = _system("JKTI")
    assert cs.equations == (P("x3 + x2*x4 - 1"), P("x1*x2*x4 + x2 + 1 - x1"))
    assert cs.provenance == ("entry(2,3)", "entry(1,2)")


def test_dropped_entries_recorded():
    for name, split, entry in (("JKTIVb", 6, (1, 1)), ("JKTII", 3, (2, 1)),
                               ("JKTI", 4, (3, 1))):
        spec, cs = _system(name)
        assert spec.split_index == split
        assert spec.drop_entry == entry
        assert cs.dropped is not None
        # the dropped equation is not identically zero: it only vanishes on
        # the constraint locus (checked numerically by the oracle)
        assert not cs.dropped.is_zero()
    for name in ("JKTVI", "JKTV", "JKTIVa"):
        spec = case_spec(name)
        assert spec.split_index is None
        assert spec.drop_entry is None


def test_consumed_entries_vanish_after_back_substitution():
    """What closure_equations relies on without checking: every entry the
    plan consumes vanishes identically under solve_in_order's solutions."""
    for name in ("JKTIVb", "JKTII", "JKTI"):
        spec = case_spec(name)
        entries = _entries(spec)
        solved = solve_in_order(entries, spec.back_sub_plan)
        for entry, _ in spec.back_sub_plan:
            assert entries[entry].substitute(solved).is_zero(), (name, entry)


def test_inconsistent_plan_raises():
    spec = case_spec("JKTI")
    # solving entry (3,1) for x9 is not linear-with-unit-coefficient
    bad = spec.replace(back_sub_plan=(((2, 2), "x9"),) + spec.back_sub_plan[1:])
    with pytest.raises(Exception):
        solve_in_order(_entries(bad), bad.back_sub_plan)
