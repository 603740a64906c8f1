"""Torus weights, invariant generators, rewriting into U, V, W, R, T."""

from itertools import product

import pytest

from wildcv.invariants import (NotInvariantError, invariant_monomials,
                               rewrite_in_invariants)
from wildcv.model import (CASE_NAMES, case_spec, torus_weight_of_position,
                          torus_weights, TwistClass)
from wildcv.monodromy import topological_monodromy
from wildcv.polyring import LaurentPoly, Monomial, parse, var_id
from wildcv.stokes import SymMat3, formal_monodromy, stokes_matrix

from _support import case_closure, case_factors

P = parse


def _mono(text):
    return P(text).single_term()[1]


# --------------------------------------------------------------------------
# weights
# --------------------------------------------------------------------------


def test_untwisted_weights_full_cycle():
    w = torus_weights(case_spec("JKTVI"))
    assert w == {"x1": (1, -1), "x2": (1, 0), "x3": (0, 1),
                 "x4": (-1, 1), "x5": (-1, 0), "x6": (0, -1)}


def test_twelve_variable_weights_repeat_mod_six():
    w = torus_weights(case_spec("JKTIVb"))
    for i in range(1, 7):
        assert w[f"x{i}"] == w[f"x{i + 6}"]


def test_minimally_twisted_weights():
    w = torus_weights(case_spec("JKTV"))
    assert w == {"x1": (0,), "x2": (3,), "x3": (3,), "x5": (-3,), "x6": (-3,)}


def test_maximally_twisted_weights_trivial():
    w = torus_weights(case_spec("JKTIVa"))
    assert all(wt == () for wt in w.values())
    assert torus_weight_of_position(TwistClass.MAXIMALLY_TWISTED, 1, 2) == ()


# --------------------------------------------------------------------------
# generator enumeration
# --------------------------------------------------------------------------


def test_untwisted_six_variable_generators():
    w = torus_weights(case_spec("JKTVI"))
    got = invariant_monomials(w, 3)
    want = {_mono(s) for s in
            ("x1*x4", "x2*x5", "x3*x6", "x1*x3*x5", "x2*x4*x6")}
    assert got == want


def test_untwisted_six_variable_generators_bound_two():
    w = torus_weights(case_spec("JKTVI"))
    got = invariant_monomials(w, 2)
    assert got == {_mono("x1*x4"), _mono("x2*x5"), _mono("x3*x6")}


def _shifted_variants(names):
    """All index-shifts by 6 applied to any subset of the variables."""
    out = set()
    for mask in product((0, 6), repeat=len(names)):
        shifted = {}
        for nm, add in zip(names, mask):
            key = f"x{int(nm[1:]) + add}"
            shifted[var_id(key)] = shifted.get(var_id(key), 0) + 1
        out.add(Monomial(shifted.items()))
    return out


def test_untwisted_twelve_variable_generators():
    w = torus_weights(case_spec("JKTIVb"))
    got = invariant_monomials(w, 3)
    want = set()
    for gen in (("x1", "x4"), ("x2", "x5"), ("x3", "x6"),
                ("x1", "x3", "x5"), ("x2", "x4", "x6")):
        want |= _shifted_variants(gen)
    assert got == want
    assert len(want) == 28


def test_minimally_twisted_generators():
    w = torus_weights(case_spec("JKTV"))
    got = invariant_monomials(w, 3)
    want = {_mono(s) for s in ("x1", "x2*x5", "x3*x6", "x2*x6", "x3*x5")}
    assert got == want


def test_trivial_weights_bound_one():
    w = torus_weights(case_spec("JKTIVa"))
    assert invariant_monomials(w, 1) == {_mono(s) for s in
                                         ("x1", "x2", "x3", "x4")}


def test_every_generator_definition_is_zero_weight():
    for name in CASE_NAMES:
        spec = case_spec(name)
        w = torus_weights(spec)
        dim = spec.twist.torus_dim
        for _, mono in spec.generator_defs:
            total = [0] * dim
            for vid, k in mono.exps:
                for a, comp in enumerate(w[vid.name]):
                    total[a] += comp * k
            assert total == [0] * dim


# --------------------------------------------------------------------------
# rewriting
# --------------------------------------------------------------------------


def test_rewrite_generator_itself():
    defs = case_spec("JKTVI").generator_defs
    assert rewrite_in_invariants(P("x1*x4"), defs) == P("U")


def test_rewrite_monodromy_entry():
    defs = case_spec("JKTVI").generator_defs
    got = rewrite_in_invariants(P("x3*x6 + x2*x4*x6 + x2*x5"), defs)
    assert got == P("W + T + V")


def test_rewrite_tie_break_prefers_fewest_factors():
    defs = case_spec("JKTVI").generator_defs
    got = rewrite_in_invariants(P("x1*x2*x3*x4*x5*x6"), defs)
    assert got == P("R*T")


def test_rewrite_tie_break_then_lexicographic():
    # x2*x3*x5*x6 factors as U*V and as R*T for the JKTV generators; both
    # have two factors, and (U, V) < (R, T) in the declared order
    defs = case_spec("JKTV").generator_defs
    assert rewrite_in_invariants(P("x2*x3*x5*x6"), defs) == P("U*V")


def test_rewrite_passes_parameters_through():
    defs = case_spec("JKTVI").generator_defs
    got = rewrite_in_invariants(P("2*alpha*x1*x4 - beta^-1"), defs)
    assert got == P("2*alpha*U - beta^-1")


def test_rewrite_rejects_non_invariant():
    defs = case_spec("JKTVI").generator_defs
    with pytest.raises(NotInvariantError):
        rewrite_in_invariants(P("x1"), defs)


def test_rewrite_roundtrip_on_every_closure_equation():
    for name in CASE_NAMES:
        spec = case_spec(name)
        if not spec.use_invariant_rewrite:
            continue
        system = case_closure(spec)
        bind = {var_id(nm): LaurentPoly.term(1, mono)
                for nm, mono in spec.generator_defs}
        for raw, rewritten in zip(system.raw_equations, system.equations):
            assert rewritten.substitute(bind) == raw.substitute(bind)
            if not (set(v.name for v in raw.variables())
                    & {"U", "V", "W", "R", "T"}):
                assert rewritten.substitute(bind) == raw


# --------------------------------------------------------------------------
# tautological relations
# --------------------------------------------------------------------------


def _defs(spec):
    return {var_id(nm): LaurentPoly.term(1, mono) for nm, mono in spec.generator_defs}


def test_tautological_checks():
    for name in CASE_NAMES:
        spec = case_spec(name)
        assert spec.tautological.substitute(_defs(spec)).is_zero()


def test_jktii_invariant_outside_the_generators_holds_on_the_locus():
    """x3*x5 is invariant but not a product of U..T (T = x1*x3*x5); modulo
    the raw entry(3,3) and entry(1,2) equations E0, E1 it is alpha*(T - U*V):
    x3*x5 - alpha*(T - U*V) + x3*x5*(E1 - alpha*x1*E0) = 0 exactly, and not
    with either sign flipped."""
    spec = case_spec("JKTII")
    system = case_closure(spec)
    assert system.provenance[:2] == ("entry(3,3)", "entry(1,2)")
    e0, e1 = system.raw_equations[:2]
    x35, alpha, x1 = P("x3*x5"), P("alpha"), P("x1")
    t_uv = P("T - U*V").substitute(_defs(spec))
    for s1, s2 in product((1, -1), repeat=2):
        certificate = x35 - s1 * alpha * t_uv + x35 * (e1 - s2 * alpha * x1 * e0)
        assert certificate.is_zero() == (s1 == s2 == 1)


# --------------------------------------------------------------------------
# torus invariance of the closure equations
# --------------------------------------------------------------------------


def _torus_scaling(spec):
    """x_i -> (torus factor) * x_i for the case torus, in fresh unit scalars."""
    w = torus_weights(spec)
    scalars = ("lam", "mu")
    bind = {}
    for name, weight in w.items():
        factor = LaurentPoly.constant(1)
        for s, k in zip(scalars, weight):
            factor = factor * LaurentPoly.variable(s, k)
        bind[var_id(name)] = factor * LaurentPoly.variable(name)
    return bind


def test_closure_equations_fixed_by_torus_scaling():
    for name in CASE_NAMES:
        spec = case_spec(name)
        system = case_closure(spec)
        scaling = _torus_scaling(spec)
        for eq in system.equations:
            in_x = eq.substitute(_defs(spec))
            assert in_x.substitute(scaling) == in_x


def test_traces_fixed_under_matrix_conjugation():
    """Conjugating H and every Stokes factor by the case torus leaves the
    trace closure data unchanged, as an exact symbolic identity."""
    for name in ("JKTVI", "JKTV", "JKTIVa"):
        spec = case_spec(name)
        if spec.twist is TwistClass.MINIMALLY_TWISTED:
            diag = [P("lam"), P("lam"), P("lam^-2")]
            diag_inv = [P("lam^-1"), P("lam^-1"), P("lam^2")]
        elif spec.twist is TwistClass.UNTWISTED:
            diag = [P("lam"), P("mu"), P("1")]
            diag_inv = [P("lam^-1"), P("mu^-1"), P("1")]
        else:
            diag = diag_inv = [P("1")] * 3

        def conj(m):
            return SymMat3([[diag[i] * m.rows[i][j] * diag_inv[j]
                             for j in range(3)] for i in range(3)])

        M = topological_monodromy(case_factors(spec))
        prod = SymMat3.identity()
        for layout in spec.schedule:
            prod = conj(stokes_matrix(layout)) * prod
        Mc = conj(formal_monodromy(spec.twist.ramification_index)) * prod
        assert Mc.trace() == M.trace()
        assert (Mc * Mc).trace() == (M * M).trace()
