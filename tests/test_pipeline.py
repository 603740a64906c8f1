"""Elimination, cubic normal forms, full derivations, the numeric oracle."""

import dataclasses
import json
import pathlib

import pytest

from wildcv.model import CASE_NAMES, case_spec
from wildcv.monodromy import monodromy_factors
from wildcv.pipeline import (ORACLE_TOLERANCE, CubicSurface, DegenerateSampleError,
                             ShapeError, _eliminate_with_solutions, _linear_solve,
                             derive_case, oracle_identity, oracle_sampling, oracle_verify,
                             specialize_unit_cube_root, to_cubic_normal_form)
from wildcv.polyring import LaurentPoly, parse, var_id
from wildcv.report import report_to_dict
from wildcv.stokes import formal_monodromy

from _support import case_closure, patch_expected

P = parse

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden"

GAMMA_UNIT = {var_id("gamma"): P("alpha^-1*beta^-1")}


def _derived(name):
    return derive_case(name, run_oracle=False)


# --------------------------------------------------------------------------
# elimination down to the frozen reference residuals
# --------------------------------------------------------------------------


def test_eliminate_jktiva():
    spec = case_spec("JKTIVa")
    system = case_closure(spec)
    got = _eliminate_with_solutions(
        system.equations, spec.elimination_plan, spec.residual_scale)[0]
    assert got == P("x2*x3*x4 + x3^2 + x4 - p*x3 + x2 + 1/2*p^2 - 1/2*q")


def test_eliminate_jktii():
    spec = case_spec("JKTII")
    system = case_closure(spec)
    got = _eliminate_with_solutions(
        system.equations, spec.elimination_plan, spec.residual_scale)[0]
    assert got == P("U*V*W + U*W + V*W - alpha^-1*U - alpha^-1*V + W"
                    " - alpha^-1*W + alpha^-2 - alpha^-1")


def test_eliminate_jktv():
    spec = case_spec("JKTV")
    system = case_closure(spec)
    got = _eliminate_with_solutions(
        system.equations, spec.elimination_plan, spec.residual_scale)[0]
    assert got == P("alpha*T*V*W + alpha*V^2 + T^2 + V*W + alpha*T*W"
                    " + alpha*V - p*V + 1/2*q*T - 1/2*p^2*T + alpha^-1*T")


def test_eliminate_jktivb_matches_reference_residual():
    rep = _derived("JKTIVb")
    reference = P("U*V*W + V^2 + U*V + U*W + V*W + U - gamma^-1*U + 2*V"
                  " - alpha*V - gamma^-1*V + W - alpha*W + 1 - alpha"
                  " - gamma^-1 + alpha*gamma^-1")
    assert rep.residual == reference.substitute(GAMMA_UNIT)


def test_jktvi_residual_degree_three_part():
    rep = _derived("JKTVI")
    uvwrt = {var_id(n) for n in ("U", "V", "W", "R", "T", "S")}
    deg3 = LaurentPoly({m: c for m, c in rep.residual.terms.items()
                        if sum(k for v, k in m.exps if v in uvwrt) == 3})
    want = P("gamma*V*W*T + gamma*V^2*W + gamma*V*W^2").substitute(GAMMA_UNIT)
    assert deg3 == want


def test_eliminated_solutions_recorded():
    rep = _derived("JKTVI")
    names = [nm for nm, _ in rep.eliminated]
    assert names == ["U", "R"]
    # replay: substituting the solutions into the normalized equations kills them
    bind = {var_id(nm): expr for nm, expr in rep.eliminated}
    assert rep.normalized_equations[0].substitute(bind).is_zero()
    assert rep.normalized_equations[1].substitute(bind).is_zero()


# --------------------------------------------------------------------------
# cubic normal forms
# --------------------------------------------------------------------------


def test_cubic_normal_form_jkti():
    spec = case_spec("JKTI")
    system = case_closure(spec)
    residual = _eliminate_with_solutions(
        system.equations, spec.elimination_plan, spec.residual_scale)[0]
    cubic = to_cubic_normal_form(residual, spec.cov_steps, spec.parameter_normalization)
    assert cubic.reconstruct() == P("X*Y*Z + X + Y + 1")


def test_cubic_normal_form_detects_stray_monomials():
    with pytest.raises(ShapeError):
        to_cubic_normal_form(P("X^2*Y + 1"), (), {})


def test_stray_monomial_error_names_each_term():
    """Two terms of one stray XYZ pattern give two sorted entries."""
    with pytest.raises(ShapeError) as exc:
        to_cubic_normal_form(P("X^2*Y*alpha + X^2*Y + 1"), (), {})
    assert str(exc.value) == ("stray monomials after change of variables: "
                              "X^2*Y, X^2*Y*alpha")


def test_cubic_reconstruction_shape_is_closed():
    for name in CASE_NAMES:
        cubic = _derived(name).cubic
        rebuilt = cubic.reconstruct()
        # decomposing the reconstruction is the identity
        again = to_cubic_normal_form(rebuilt, (), {})
        assert again == cubic


def test_derived_cubics_match_expected():
    pinned = {
        "JKTI": P("X*Y*Z + X + Y + 1"),
        "JKTII": P("X*Y*Z - X - alpha^-1*Y - Z + 1 + alpha^-1"),
    }
    for name in CASE_NAMES:
        rep = _derived(name)
        assert rep.expected.matched, rep.expected.mismatches
        if name in pinned:
            assert rep.cubic.reconstruct() == pinned[name]


@pytest.mark.parametrize("name, coefficients, line, mode", [
    ("JKTI", {"c3": P("1")}, "c3: expected 1, derived 0", "exact"),
    # support mode compares the pinned top coefficient after the normalization
    ("JKTVI", {"xyz": P("2*gamma")},
     "xyz: expected 2*alpha^-1*beta^-1, derived alpha^-1*beta^-1", "support"),
], ids=["JKTI", "JKTVI"])
def test_wrong_expected_coefficient_is_a_mismatch(monkeypatch, name, coefficients,
                                                  line, mode):
    patch_expected(monkeypatch, name, **coefficients)
    rep = derive_case(name, run_oracle=False)
    assert not rep.expected.matched and not rep.passed
    assert rep.expected.mismatches == (line,)
    assert rep.expected.mode == mode


def test_jktivb_cubic_coefficients():
    cubic = _derived("JKTIVb").cubic
    norm = lambda s: P(s).substitute(GAMMA_UNIT)
    assert cubic.c1 == norm("-gamma^-1")
    assert cubic.c2 == norm("-alpha - gamma^-1 - 1")
    assert cubic.c3 == norm("-alpha")
    assert cubic.c4 == norm("alpha*gamma^-1 + alpha + gamma^-1")
    assert cubic.xyz == P("1") and cubic.y2 == P("1")
    assert cubic.x2 == P("0") and cubic.z2 == P("0")


def test_jktv_cubic_constants_hand_derived():
    cubic = _derived("JKTV").cubic
    assert cubic.c1 == P("1/2*q - 1/2*p^2 - r^-2")
    assert cubic.c2 == P("-r - p*r^-1")
    assert cubic.c3 == P("-r^-1")
    assert cubic.c4 == P("p - 1/2*q*r^-2 + 1/2*p^2*r^-2")


def test_jktvi_cubic_support():
    cubic = _derived("JKTVI").cubic
    assert cubic.xyz == P("gamma").substitute(GAMMA_UNIT)
    assert cubic.x2 == P("alpha")
    assert cubic.y2 == P("beta")
    assert cubic.z2 == P("gamma").substitute(GAMMA_UNIT)
    for coef in (cubic.c1, cubic.c2, cubic.c3, cubic.c4):
        names = {v.name for v in coef.variables()}
        assert names <= {"alpha", "beta", "p", "q"}


# --------------------------------------------------------------------------
# parameter identities and presets
# --------------------------------------------------------------------------


def test_jktii_parameter_inversion_matches_recorded_form():
    rep = _derived("JKTII")
    mapped = rep.cubic.reconstruct().substitute({var_id("alpha"): P("alpha^-1")})
    assert mapped == P("X*Y*Z - X - alpha*Y - Z + 1 + alpha")


def test_unit_cube_root_preset():
    cubic = specialize_unit_cube_root(_derived("JKTVI").cubic)
    assert cubic.xyz == P("1")
    assert cubic.x2 == P("e^2")
    assert cubic.y2 == P("e")
    assert cubic.z2 == P("1")
    assert cubic.c1 == P("1/2*p^2 + p*e^2 - 1/2*q + e^2 + 1")
    assert cubic.c2 == P("1/2*p^2 + p*e - 1/2*q + e + 1")
    assert cubic.c3 == P("-1/2*p^2 - p + 1/2*q - e^2 - e")
    assert cubic.c4 == P("1/2*p^3 + 1/2*p^2*e^2 + 1/2*p^2*e + 1/2*p^2 - 1/2*p*q"
                         " + p*e^2 + p*e + p - 1/2*q*e^2 - 1/2*q*e - 1/2*q + 1")
    e = var_id("e")
    assert {m.exponent(e) for coef in cubic.coefficients().values()
            for m in coef.terms if e in m.variables()} <= {1, 2}


# --------------------------------------------------------------------------
# oracle
# --------------------------------------------------------------------------


def test_oracle_all_cases_under_tolerance():
    for name in CASE_NAMES:
        rep = derive_case(name, trials=100, seed=42)
        assert rep.oracle is not None
        assert rep.oracle.max_residual < 1e-9, name
        assert rep.oracle.max_dropped_residual < 1e-9, name
        assert rep.passed


def test_oracle_is_deterministic_for_a_seed():
    a = oracle_verify(_derived("JKTV"), trials=25, seed=7)
    b = oracle_verify(_derived("JKTV"), trials=25, seed=7)
    assert a == b
    c = oracle_verify(_derived("JKTV"), trials=25, seed=8)
    assert a.max_residual != c.max_residual


def test_oracle_rejects_bad_trials():
    with pytest.raises(ValueError):
        oracle_verify(_derived("JKTI"), trials=0)


def test_oracle_detects_a_wrong_cubic():
    import dataclasses
    rep = _derived("JKTI")
    broken = dataclasses.replace(
        rep, cubic=CubicSurface(xyz=P("1"), x2=P("0"), y2=P("0"), z2=P("0"),
                                c1=P("1"), c2=P("1"), c3=P("1"), c4=P("1")))
    verdict = oracle_verify(broken, trials=20, seed=3)
    assert verdict.max_residual > 1e-3


def test_oracle_constraints_are_affine_in_solve_targets():
    """The numeric solver probes coefficients, which requires the closure
    equations to be jointly affine in the solve targets."""
    for name in ("JKTIVb", "JKTII", "JKTI"):
        spec = case_spec(name)
        system = case_closure(spec)
        targets = [var_id(nm) for nm in spec.oracle.solve_targets]
        for eq in system.raw_equations:
            assert eq.split(targets).keys() <= {(0, 0), (1, 0), (0, 1)}


_SAMPLING = {
    # sampled units, derived units, free coefficients, trace parameters
    "JKTVI": (("alpha", "beta"), (("gamma", "alpha^-1*beta^-1"),),
              ("x1", "x2", "x3", "x4", "x5", "x6"), ("p", "q")),
    "JKTV": (("r",), (("alpha", "r^2"),), ("x1", "x2", "x3", "x5", "x6"), ("p", "q")),
    "JKTIVa": ((), (), ("x1", "x2", "x3", "x4"), ("p", "q")),
    "JKTIVb": (("alpha", "beta"), (("gamma", "alpha^-1*beta^-1"),),
               ("x1", "x2", "x3", "x4"), ()),
    "JKTII": (("alpha",), (), ("x1", "x2", "x3"), ()),
    "JKTI": ((), (), ("x2", "x4"), ()),
}


@pytest.mark.parametrize("name", CASE_NAMES)
def test_oracle_sampling_is_pinned(name):
    """The oracle draws units, then free coefficients, in exactly this order:
    a change here moves every oracle residual, so it must be deliberate."""
    rep = _derived(name)
    sampling = oracle_sampling(rep)
    got = (tuple(v.name for v in sampling.sample_units),
           tuple((v.name, str(poly)) for v, poly in sampling.derived_units),
           tuple(v.name for v in sampling.free_xvars),
           tuple(v.name for v, _ in sampling.trace_params))
    assert got == _SAMPLING[name]
    assert tuple(v.name for v in sampling.solve_targets) == rep.spec.oracle.solve_targets
    assert len(sampling.solve_equations) == len(sampling.solve_targets)
    assert tuple(poly for _, poly in sampling.trace_params) == (
        rep.closure.trace_polys or ())
    assert tuple((v.name, e) for v, e in sampling.xyz_map) == rep.spec.oracle.xyz_map
    # each solve row (a1, a2, b) is its equation as a1*t1 + a2*t2 + b
    targets = [LaurentPoly.variable(v.name) for v in sampling.solve_targets]
    assert len(sampling.solve_rows) == len(sampling.solve_equations)
    for eq, (a1, a2, b) in zip(sampling.solve_equations, sampling.solve_rows):
        assert a1 * targets[0] + a2 * targets[1] + b == eq


# max_residual, max_dropped_residual and resamples at seeds 42 and 1000, as
# reprs: the float path must reproduce them bit for bit
_ORACLE_FLOATS = {
    "JKTVI": (("3.4684476073050936e-14", "0.0", 0),
              ("4.028258782699569e-14", "0.0", 0)),
    "JKTV": (("1.2710574864626038e-13", "0.0", 0),
             ("9.374856803373542e-13", "0.0", 0)),
    "JKTIVa": (("8.881784197001252e-16", "0.0", 0),
               ("8.005932084973442e-16", "0.0", 0)),
    "JKTIVb": (("1.3508271101030482e-14", "5.5892645243255035e-14", 0),
               ("1.0541620235889504e-13", "2.023185831320506e-13", 0)),
    "JKTII": (("3.353370524530467e-13", "1.5845461461053877e-13", 0),
              ("1.4295603459064553e-13", "6.066492675411654e-14", 0)),
    "JKTI": (("8.881784197001252e-16", "1.2560739669470201e-15", 0),
             ("2.5121479338940403e-15", "3.552713678800501e-15", 0)),
}


@pytest.mark.parametrize("name", CASE_NAMES)
def test_oracle_floats_are_pinned(name):
    rep = _derived(name)
    got = []
    for seed in (42, 1000):
        verdict = oracle_verify(rep, seed=seed)
        assert verdict.exact is None and verdict.passed
        got.append((repr(verdict.max_residual),
                    repr(verdict.max_dropped_residual), verdict.resamples))
    assert tuple(got) == _ORACLE_FLOATS[name]


def test_oracle_verify_reconstructs_once(monkeypatch):
    calls = []
    real = CubicSurface.reconstruct

    def counted(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(CubicSurface, "reconstruct", counted)
    oracle_verify(_derived("JKTV"), trials=100, seed=5)
    assert len(calls) == 1


@pytest.mark.parametrize("name", CASE_NAMES)
def test_oracle_identity_holds(name):
    rep = _derived(name)
    assert oracle_identity(rep, oracle_sampling(rep), rep.cubic.reconstruct()) is True


@pytest.mark.parametrize("name", CASE_NAMES)
def test_oracle_identity_rejects_flipped_xyz_map(name):
    rep = _derived(name)
    spec = rep.spec
    (nm, expr), *rest = spec.oracle.xyz_map
    oracle = dataclasses.replace(spec.oracle, xyz_map=((nm, -expr), *rest))
    broken = dataclasses.replace(
        rep, spec=dataclasses.replace(spec, oracle=oracle))
    assert oracle_identity(broken, oracle_sampling(broken),
                           broken.cubic.reconstruct()) is False
    verdict = oracle_verify(broken, trials=10, seed=3)
    assert verdict.max_residual >= ORACLE_TOLERANCE
    assert verdict.exact is False
    assert not verdict.passed


@pytest.mark.parametrize("name", ["JKTIVb", "JKTII", "JKTI"])
def test_oracle_identity_rejects_shifted_dropped_entry(name):
    rep = _derived(name)
    closure = dataclasses.replace(rep.closure, dropped=rep.closure.dropped + 1)
    broken = dataclasses.replace(rep, closure=closure)
    assert oracle_identity(broken, oracle_sampling(broken),
                           broken.cubic.reconstruct()) is False
    assert not oracle_verify(broken, trials=10, seed=3).passed


@pytest.mark.parametrize("name", ["JKTIVb", "JKTII", "JKTI"])
def test_oracle_identity_rejects_proportional_solve_rows(name):
    """Two equal solve rows leave Cramer's determinant D identically zero, so
    the targets are not determined and the identity fails."""
    rep = _derived(name)
    sampling = oracle_sampling(rep)
    row = sampling.solve_rows[0]
    singular = dataclasses.replace(sampling, solve_rows=(row, row))
    assert oracle_identity(rep, singular, rep.cubic.reconstruct()) is False


def test_linear_solve_rejects_a_singular_pivot():
    eq = P("x1 + 2*x2 - 1")
    with pytest.raises(DegenerateSampleError, match="singular 2x2 solve"):
        _linear_solve((eq, eq), (var_id("x1"), var_id("x2")), {})


def test_oracle_identity_settles_an_over_tolerance_trial():
    """JKTII at this seed has one trial over the tolerance in floats; the
    exact identity holds, and the float numbers stay as they were."""
    verdict = oracle_verify(_derived("JKTII"), seed=183888082)
    assert verdict.max_residual == 1.4009083651216406e-09
    assert verdict.max_residual >= verdict.tolerance
    assert verdict.exact is True
    assert verdict.passed


def test_oracle_identity_reuses_the_oracle_cubic(monkeypatch):
    """A run that reaches the exact identity still builds the cubic once."""
    calls = []
    real = CubicSurface.reconstruct

    def counted(self):
        calls.append(self)
        return real(self)

    rep = _derived("JKTII")
    monkeypatch.setattr(CubicSurface, "reconstruct", counted)
    verdict = oracle_verify(rep, seed=183888082)
    assert verdict.max_residual == 1.4009083651216406e-09
    assert verdict.exact is True
    assert len(calls) == 1


def test_sample_points_land_on_the_surface():
    # an easy fixed point: the JKTI cubic vanishes at X=-1, Y=0, any Z
    cubic = _derived("JKTI").cubic.reconstruct()
    vals = {var_id("X"): -1.0 + 0j, var_id("Y"): 0j, var_id("Z"): 2.7 - 0.4j}
    assert abs(cubic.evaluate(vals)) == 0.0


# --------------------------------------------------------------------------
# determinism and golden reports
# --------------------------------------------------------------------------


def test_derive_case_is_idempotent():
    a = json.dumps(report_to_dict(derive_case("JKTVI", trials=20, seed=11)), indent=2)
    b = json.dumps(report_to_dict(derive_case("JKTVI", trials=20, seed=11)), indent=2)
    assert a == b


@pytest.mark.parametrize("name", CASE_NAMES)
def test_golden_derivation(name):
    got = report_to_dict(_derived(name))
    got.pop("verification")
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text())
    assert got == want


# --------------------------------------------------------------------------
# replayability
# --------------------------------------------------------------------------


def test_report_replays_stage_by_stage():
    """Each stage of a report is recomputable from the previous one."""
    from wildcv.monodromy import closure_equations as close

    for name in CASE_NAMES:
        rep = _derived(name)
        spec = rep.spec
        # monodromy from the recorded Stokes matrices and H
        prod = None
        for mat in rep.stokes_matrices:
            prod = mat if prod is None else mat * prod
        M = formal_monodromy(spec.twist.ramification_index) * prod
        assert M == rep.topological_monodromy
        # closure from the monodromy
        factors = monodromy_factors(spec, rep.stokes_matrices, rep.formal_monodromy)
        system = close(spec, M, factors, factors[1].det())
        assert system.equations == rep.closure.equations
        # residual from the normalized closure system
        norm = spec.parameter_normalization
        scaled = [eq.substitute(norm) for eq in system.equations]
        assert tuple(scaled) == rep.normalized_equations
        residual, solutions = _eliminate_with_solutions(
            scaled, spec.elimination_plan,
            spec.residual_scale.substitute(norm))
        assert residual == rep.residual and solutions == rep.eliminated
        # cubic from the residual
        assert to_cubic_normal_form(residual, spec.cov_steps, norm) == rep.cubic


@pytest.mark.parametrize("name", CASE_NAMES)
def test_derivation_builds_each_factor_once(name, monkeypatch):
    """One Stokes matrix per layout, one H, and one fold: a product per
    Stokes factor, then R*L, and H times the second half where the case has a
    split.  Tr(M^2) is read from the diagonal, so M*M is never formed, and
    det M is det R * det L: two determinants, and R^-1 on the M = I cases
    reuses det R instead of expanding it again."""
    import sys
    from wildcv import stokes
    from wildcv.stokes import SymMat3

    counts = dict.fromkeys(("stokes_matrix", "formal_monodromy", "product", "det"), 0)

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    for fn in (stokes.stokes_matrix, stokes.formal_monodromy):
        for modname, mod in list(sys.modules.items()):
            if modname == "wildcv" or modname.startswith("wildcv."):
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        monkeypatch.setattr(mod, attr, counting(fn.__name__, fn))
    monkeypatch.setattr(SymMat3, "__mul__", counting("product", SymMat3.__mul__))
    monkeypatch.setattr(SymMat3, "det", counting("det", SymMat3.det))
    derive_case(name, run_oracle=False)
    spec = case_spec(name)
    steps = len(spec.schedule)
    identity = spec.closure.kind == "identity"   # the M = I cases are the split ones
    assert counts == {"stokes_matrix": steps, "formal_monodromy": 1,
                      "product": steps + 1 + identity, "det": 2}


@pytest.mark.parametrize("name", ["JKTIVb", "JKTII", "JKTI"])
def test_det_check_rejects_a_scaled_formal_monodromy(name, monkeypatch):
    """With one entry of H doubled, det M = 2 and the closure M = I still
    yields the expected cubic: the determinant check alone fails the case."""
    from wildcv import pipeline
    from wildcv.stokes import SymMat3

    def scaled(kind):
        rows = [list(row) for row in formal_monodromy(kind).rows]
        j = next(j for j, e in enumerate(rows[0]) if not e.is_zero())
        rows[0][j] = rows[0][j] * 2
        return SymMat3(rows)

    monkeypatch.setattr(pipeline, "formal_monodromy", scaled)
    report = derive_case(name, run_oracle=False)
    assert report.expected.matched
    assert report.det_is_one is False
    assert report.passed is False


def test_eliminate_propagates_solver_errors():
    from wildcv.polyring import NotLinearError
    spec = case_spec("JKTVI")
    system = case_closure(spec)
    with pytest.raises(NotLinearError):
        _eliminate_with_solutions(system.equations, ((0, "R"), (1, "U")),
                                  spec.residual_scale)


# --------------------------------------------------------------------------
# exact end-to-end checks (no floating point anywhere)
# --------------------------------------------------------------------------


def test_pushforward_inverts_the_change_of_variables():
    """Composing the derived cubic with the oracle's X, Y, Z pushforward gives
    back the residual written in Stokes coefficients, exactly."""
    param_units = {"alpha", "beta", "gamma", "r"}
    for name in CASE_NAMES:
        rep = _derived(name)
        spec = rep.spec
        norm = spec.parameter_normalization
        push = {var_id(nm): poly.substitute(norm)
                for nm, poly in spec.oracle.xyz_map}
        right = rep.cubic.reconstruct().substitute(push)
        for step in spec.cov_steps:
            if step.kind == "divide":
                right = right * step.term.substitute(norm)
        left = rep.residual
        for step in spec.cov_steps:
            if step.kind == "subst" and all(nm in param_units
                                            for nm, _ in step.mapping):
                left = left.substitute({var_id(nm): p for nm, p in step.mapping})
        defs = {var_id(nm): LaurentPoly.term(1, mono)
                for nm, mono in spec.generator_defs}
        assert left.substitute(defs) == right, name


_EXACT_SAMPLES = {
    "JKTVI": {"alpha": (2, 1), "beta": (3, 1), "x1": (1, 2), "x2": (-1, 3),
              "x3": (2, 1), "x4": (1, 1), "x5": (-2, 1), "x6": (1, 5)},
    "JKTV": {"r": (2, 1), "alpha": (4, 1), "x1": (1, 3), "x2": (-1, 1),
             "x3": (2, 1), "x5": (1, 2), "x6": (-3, 1)},
    "JKTIVa": {"x1": (2, 1), "x2": (-1, 2), "x3": (1, 3), "x4": (5, 1)},
    "JKTIVb": {"alpha": (2, 1), "beta": (-1, 3), "x1": (1, 1), "x2": (2, 1),
               "x3": (-1, 2), "x4": (1, 3)},
    "JKTII": {"alpha": (3, 1), "x1": (2, 1), "x2": (1, 2), "x3": (-1, 1)},
    "JKTI": {"x2": (1, 3), "x4": (2, 1)},
}


@pytest.mark.parametrize("name", CASE_NAMES)
def test_exact_rational_point_lies_on_the_surface(name):
    """Push one exact rational sample through the whole chain: the cubic and
    the dropped redundant entry both vanish identically, not just to 1e-9."""
    from fractions import Fraction
    from wildcv.polyring import solve_linear

    rep = _derived(name)
    spec = rep.spec
    bind = {var_id(k): LaurentPoly.constant(Fraction(*v))
            for k, v in _EXACT_SAMPLES[name].items()}
    for v, expr in spec.parameter_normalization.items():
        bind[v] = expr.substitute(bind)

    if spec.oracle.solve_targets:
        t1, t2 = (var_id(nm) for nm in spec.oracle.solve_targets)
        eqs = [eq.substitute(bind) for eq in rep.closure.raw_equations
               if set(eq.variables()) & {t1, t2}][:2]
        first = eqs[0] if t1 in eqs[0].variables() else eqs[1]
        second = eqs[1] if first is eqs[0] else eqs[0]
        expr1 = solve_linear(first, t1)
        bind[t2] = solve_linear(second.substitute({t1: expr1}), t2)
        bind[t1] = expr1.substitute({t2: bind[t2]})
        assert not bind[t1].variables() and not bind[t2].variables()

    if rep.closure.trace_polys is not None:
        tr, tr2 = rep.closure.trace_polys
        bind[var_id("p")] = tr.substitute(bind)
        bind[var_id("q")] = tr2.substitute(bind)

    if rep.closure.back_subs is not None:
        for nm, expr in rep.closure.back_subs:
            bind[var_id(nm)] = expr.substitute(bind)
        assert rep.closure.dropped.substitute(bind).is_zero()

    for nm, expr in spec.oracle.xyz_map:
        bind[var_id(nm)] = expr.substitute(bind)
    assert rep.cubic.reconstruct().substitute(bind).is_zero()
