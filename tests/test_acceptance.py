"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here (symbolic checks are exact, the numeric
oracle bound is 1e-9).
"""

import random
import time
from fractions import Fraction

from wildcv.invariants import invariant_monomials
from wildcv.model import CASE_NAMES, case_spec, torus_weights
from wildcv.monodromy import topological_monodromy
from wildcv.pipeline import derive_case
from wildcv.polyring import (LaurentPoly, Monomial, parse, solve_linear, var_id)
from wildcv.stokes import (RationalAngle, SymMat3, formal_monodromy,
                           singular_directions, stokes_matrix)

from _support import case_closure, case_factors

P = parse
GAMMA_UNIT = {var_id("gamma"): P("alpha^-1*beta^-1")}


def _line(number, label, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {label}")
    assert ok, f"criterion {number} failed: {label}"


def test_criterion_1_exact_closed_form_cubics():
    wanted = {
        "JKTI": P("X*Y*Z + X + Y + 1"),
        "JKTII": P("X*Y*Z - X - alpha^-1*Y - Z + 1 + alpha^-1"),
        "JKTIVb": P("X*Y*Z + Y^2 - gamma^-1*X - alpha*Y - gamma^-1*Y - Y"
                    " - alpha*Z + alpha*gamma^-1 + alpha + gamma^-1"
                    ).substitute(GAMMA_UNIT),
    }
    ok = True
    for name, want in wanted.items():
        t0 = time.perf_counter()
        rep = derive_case(name, run_oracle=False)
        elapsed = time.perf_counter() - t0
        ok = ok and rep.cubic.reconstruct() == want and elapsed < 1.0
    _line(1, "closed-form final cubics reproduced exactly (< 1 s each)", ok)


def test_criterion_2_shape_reproduction():
    shapes = {
        "JKTVI": ("gamma", "alpha", "beta", "gamma"),
        "JKTV": ("1", "1", "1", "0"),
        "JKTIVa": ("1", "1", "0", "0"),
    }
    ok = True
    for name, (xyz, x2, y2, z2) in shapes.items():
        t0 = time.perf_counter()
        rep = derive_case(name, run_oracle=False)
        elapsed = time.perf_counter() - t0
        norm = GAMMA_UNIT if rep.spec.parameter_normalization else {}
        ok = ok and rep.cubic.xyz == P(xyz).substitute(norm)
        ok = ok and rep.cubic.x2 == P(x2).substitute(norm)
        ok = ok and rep.cubic.y2 == P(y2).substitute(norm)
        ok = ok and rep.cubic.z2 == P(z2).substitute(norm)
        ok = ok and elapsed < 5.0
        # the decomposition itself guarantees no extraneous monomials
        from wildcv.pipeline import to_cubic_normal_form
        ok = ok and to_cubic_normal_form(rep.cubic.reconstruct(), (), {}) == rep.cubic
    _line(2, "cubic-shape support for JKTVI, JKTV, JKTIVa (< 5 s each)", ok)


def test_criterion_3_intermediate_formulas():
    ok = True
    # JKTIVa traces and eliminated equation
    m = topological_monodromy(case_factors(case_spec("JKTIVa")))
    ok = ok and m.trace() == P("x1 + x3 + x2*x4")
    ok = ok and (m * m).trace() == P(
        "2*x4 + x1^2 + 2*x2 + 2*x1*x2*x4 + x3^2 + x2^2*x4^2 + 2*x2*x3*x4")
    rep = derive_case("JKTIVa", run_oracle=False)
    ok = ok and rep.residual == P(
        "x2*x3*x4 + x3^2 + x4 - p*x3 + x2 + 1/2*p^2 - 1/2*q")
    # JKTIVb partial product display, entrywise
    left, right = case_factors(case_spec("JKTIVb"))
    right = right.inverse(right.det())
    lhs_rows = [
        ["1", "x1", "x2"],
        ["x4", "x1*x4 + 1", "x3 + x2*x4"],
        ["x4*x6 + x5", "x1*x4*x6 + x6 + x1*x5", "x3*x6 + x2*x4*x6 + x2*x5 + 1"],
    ]
    rhs_rows = [
        ["alpha^-1*x7*x10 + alpha^-1*x8*x11 - alpha^-1*x7*x9*x11 + alpha^-1",
         "-beta^-1*x7 + beta^-1*x8*x12 - beta^-1*x7*x9*x12",
         "-gamma^-1*x8 + gamma^-1*x7*x9"],
        ["-alpha^-1*x10 + alpha^-1*x9*x11", "beta^-1*x9*x12 + beta^-1",
         "-gamma^-1*x9"],
        ["-alpha^-1*x11", "-beta^-1*x12", "gamma^-1"],
    ]
    for i in range(3):
        for j in range(3):
            ok = ok and left.rows[i][j] == P(lhs_rows[i][j])
            ok = ok and right.rows[i][j] == P(rhs_rows[i][j])
    # JKTII and JKTV eliminated residuals
    ok = ok and derive_case("JKTII", run_oracle=False).residual == P(
        "U*V*W + U*W + V*W - alpha^-1*U - alpha^-1*V + W - alpha^-1*W"
        " + alpha^-2 - alpha^-1")
    ok = ok and derive_case("JKTV", run_oracle=False).residual == P(
        "alpha*T*V*W + alpha*V^2 + T^2 + V*W + alpha*T*W + alpha*V - p*V"
        " + 1/2*q*T - 1/2*p^2*T + alpha^-1*T")
    _line(3, "intermediate trace/product/residual formulas exact", ok)


def test_criterion_4_direction_tables():
    def angles(*fr):
        return {RationalAngle.of(Fraction(*f)) for f in fr}

    expected = {
        "JKTVI": angles(*[(k, 3) for k in range(1, 7)]),
        "JKTV": angles((1, 2), (1, 1), (3, 2)),
        "JKTIVa": angles(*[(k, 2) for k in range(1, 5)]),
        "JKTIVb": angles(*[(k, 6) for k in range(1, 13)]),
        "JKTII": angles((1, 4), (1, 3), (3, 4), (1, 1), (5, 4), (5, 3), (7, 4)),
        "JKTI": angles(*[(k, 5) for k in range(1, 11)]),
    }
    ok = True
    for name, want in expected.items():
        spec = case_spec(name)
        union = set()
        for pair in spec.pair_specs:
            union.update(singular_directions(pair, spec.twist.ramification_index))
        sched = {layout.direction for layout in spec.schedule}
        ok = ok and union == want == sched and len(spec.schedule) == len(want)
    _line(4, "direction tables match exactly (counts and values)", ok)


def test_criterion_5_invariant_theory():
    ok = True
    mono = lambda s: P(s).single_term()[1]
    # 6-variable generators
    got6 = invariant_monomials(torus_weights(case_spec("JKTVI")), 3)
    ok = ok and got6 == {mono(s) for s in
                         ("x1*x4", "x2*x5", "x3*x6", "x1*x3*x5", "x2*x4*x6")}
    # 12-variable generators: the same sets with 6 added to any indices
    from itertools import product
    want12 = set()
    for gen in (("x1", "x4"), ("x2", "x5"), ("x3", "x6"),
                ("x1", "x3", "x5"), ("x2", "x4", "x6")):
        for mask in product((0, 6), repeat=len(gen)):
            exps = {}
            for nm, add in zip(gen, mask):
                vid = var_id(f"x{int(nm[1:]) + add}")
                exps[vid] = exps.get(vid, 0) + 1
            want12.add(Monomial(exps.items()))
    got12 = invariant_monomials(torus_weights(case_spec("JKTIVb")), 3)
    ok = ok and got12 == want12
    # tautological relations and torus invariance of the closure systems
    for name in CASE_NAMES:
        spec = case_spec(name)
        defs = {var_id(nm): LaurentPoly.term(1, m)
                for nm, m in spec.generator_defs}
        ok = ok and spec.tautological.substitute(defs).is_zero()
        system = case_closure(spec)
        weights = torus_weights(spec)
        scaling = {}
        for vn, weight in weights.items():
            factor = LaurentPoly.constant(1)
            for s, k in zip(("lam", "mu"), weight):
                factor = factor * LaurentPoly.variable(s, k)
            scaling[var_id(vn)] = factor * LaurentPoly.variable(vn)
        for eq in system.equations:
            in_x = eq.substitute(defs)
            ok = ok and in_x.substitute(scaling) == in_x
    _line(5, "invariant generators, tautological relations, torus invariance", ok)


def test_criterion_6_monte_carlo_oracle():
    t0 = time.perf_counter()
    ok = True
    for name in CASE_NAMES:
        rep = derive_case(name, trials=100, seed=42)
        ok = ok and rep.oracle.max_residual < 1e-9
        ok = ok and rep.oracle.max_dropped_residual < 1e-9
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 30.0
    _line(6, f"oracle max residual < 1e-9 on 100 trials per case "
             f"({elapsed:.1f} s total)", ok)


def test_criterion_7_property_suites():
    ok = True
    # ring axioms on 1000 random triples, exact
    rng = random.Random(444)
    names = ("x1", "x2", "alpha")

    def rand_poly():
        out = LaurentPoly.zero()
        for _ in range(rng.randint(0, 3)):
            coef = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            exps = {}
            for nm in names:
                vid = var_id(nm)
                e = rng.randint(-1 if vid.unit else 0, 2)
                if e:
                    exps[vid] = e
            out = out + LaurentPoly.term(coef, Monomial(exps.items()))
        return out

    for _ in range(1000):
        a, b, c = rand_poly(), rand_poly(), rand_poly()
        ok = ok and a * (b + c) == a * b + a * c
        ok = ok and (a * b) * c == a * (b * c)

    ident = SymMat3.identity()
    for name in CASE_NAMES:
        spec = case_spec(name)
        det = topological_monodromy(case_factors(spec)).det()
        if spec.parameter_normalization:
            det = det.substitute(GAMMA_UNIT)
        ok = ok and det == P("1")
        for layout in spec.schedule:
            s = stokes_matrix(layout)
            ok = ok and s.det() == P("1")
            n = SymMat3([[s.rows[i][j] - ident.rows[i][j] for j in range(3)]
                         for i in range(3)])
            ok = ok and all(e.is_zero() for row in (n * n).rows for e in row)
        hdet = formal_monodromy(spec.twist.ramification_index).det()
        if spec.twist.ramification_index == 1:
            hdet = hdet.substitute(GAMMA_UNIT)
        ok = ok and hdet == P("1")

    # solve_linear round trip on 200 random linear equations
    count = 0
    while count < 200:
        target = var_id(rng.choice(("x1", "x2", "U")))
        coef = LaurentPoly.term(
            Fraction(rng.choice([-3, -2, -1, 1, 2, 3])),
            Monomial(((var_id(rng.choice(("alpha", "beta", "r"))),
                       rng.randint(-2, 2)),)))
        rest = rand_poly()
        if target in rest.variables():
            continue
        eq = coef * LaurentPoly.variable(target.name) + rest
        expr = solve_linear(eq, target)
        ok = ok and eq.substitute({target: expr}).is_zero()
        count += 1
    _line(7, "ring axioms, determinants, unipotence, solve round trips", ok)


def test_criterion_8_jktii_parameter_change():
    rep = derive_case("JKTII", run_oracle=False)
    mapped = rep.cubic.reconstruct().substitute({var_id("alpha"): P("alpha^-1")})
    ok = mapped == P("X*Y*Z - X - alpha*Y - Z + 1 + alpha")
    _line(8, "alpha -> alpha^-1 maps the JKTII cubic onto the recorded form", ok)
