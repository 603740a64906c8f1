"""Ring substrate: canonical arithmetic, grammar round trips, linear solving."""

import itertools
import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from wildcv.polyring import (EXP_LIMIT, LaurentPoly, Monomial,
                             ExponentOverflowError, NotInvertibleError,
                             NotLinearError, ParseError, _REGISTRY_NAMES,
                             SubstitutionDomainError, UnboundVariableError,
                             UnknownVariableError, format_poly, parse,
                             solve_in_order, solve_linear, var_id)

from _support import term_walk

P = parse


# --------------------------------------------------------------------------
# registry and monomials
# --------------------------------------------------------------------------


def test_registry_rejects_unknown_names():
    with pytest.raises(UnknownVariableError):
        var_id("x13")
    with pytest.raises(UnknownVariableError):
        var_id("delta")
    for name in ("Xp", "Zp"):
        with pytest.raises(UnknownVariableError):
            var_id(name)


def test_unit_flags():
    for name in ("alpha", "beta", "gamma", "r"):
        assert var_id(name).unit
    for name in ("x1", "x12", "U", "X", "p", "q"):
        assert not var_id(name).unit


def test_negative_exponent_only_on_units():
    assert P("alpha^-1") * P("alpha") == P("1")
    with pytest.raises(Exception):
        Monomial(((var_id("x1"), -1),))
    with pytest.raises(ValueError, match="nonnegative integer powers"):
        P("alpha") ** -1


def test_cube_root_symbol_is_an_ordinary_unit():
    assert P("e^3") != P("1")
    assert P("e^-1") * P("e") == P("1")
    assert P("e^2") * P("e^2") == P("e^4")


def test_zero_coefficients_not_stored():
    poly = P("x1") - P("x1")
    assert poly.is_zero()
    assert poly.terms == {}


# --------------------------------------------------------------------------
# arithmetic
# --------------------------------------------------------------------------


def test_mul_single_term_product():
    assert P("x1") * P("x4") == P("x1*x4")


def test_mul_identity():
    assert P("1 + x1*x4") * P("1") == P("1 + x1*x4")


def _naive_expand(terms_a, terms_b):
    """Independent brute-force expander over (coef, {name: exp}) term lists."""
    acc = {}
    for ca, ma in terms_a:
        for cb, mb in terms_b:
            merged = dict(ma)
            for k, e in mb.items():
                merged[k] = merged.get(k, 0) + e
            key = tuple(sorted((k, e) for k, e in merged.items() if e))
            acc[key] = acc.get(key, Fraction(0)) + ca * cb
    return {k: c for k, c in acc.items() if c}


def _to_naive(poly):
    return {tuple(sorted((v.name, k) for v, k in m.exps)): c
            for m, c in poly.terms.items()}


def test_mul_matches_independent_expander():
    a = [(Fraction(1), {"x2": 1}), (Fraction(1), {"x3": 1, "x1": 1})]
    b = [(Fraction(1), {"x1": 1, "x5": 1}), (Fraction(1), {"x6": 1})]
    want = _naive_expand(a, b)
    got = P("x2 + x3*x1") * P("x1*x5 + x6")
    assert _to_naive(got) == want
    assert got == P("x1*x2*x5 + x2*x6 + x1^2*x3*x5 + x1*x3*x6")


_SMALL_VARS = ("x1", "x2", "x3", "alpha")


def _random_poly(rng, max_terms=4):
    poly = LaurentPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        coef = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        mono = {}
        for name in _SMALL_VARS:
            vid = var_id(name)
            lo = -2 if vid.unit else 0
            exp = rng.randint(lo, 2)
            if exp:
                mono[vid] = exp
        poly = poly + LaurentPoly.term(coef, Monomial(mono.items()))
    return poly


def test_ring_axioms_on_1000_random_triples():
    rng = random.Random(20240811)
    for _ in range(1000):
        a, b, c = (_random_poly(rng) for _ in range(3))
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + b == b + a
        assert a * b == b * a


@given(st.integers(-20, 20), st.integers(-20, 20), st.integers(-20, 20))
def test_constant_embedding_is_a_homomorphism(x, y, z):
    cx, cy, cz = map(LaurentPoly.constant, (x, y, z))
    assert cx * (cy + cz) == LaurentPoly.constant(x * (y + z))
    assert x - cy == LaurentPoly.constant(x - y)
    assert cx == x and cx != x + 1


# --------------------------------------------------------------------------
# grammar
# --------------------------------------------------------------------------


def test_print_is_deterministic_registry_order():
    assert str(P("1 + x1")) == "x1 + 1"
    assert str(P("alpha^-1 + x1 + 1")) == "x1 + 1 + alpha^-1"
    assert str(P("X*Y*Z - X + 1")) == "X*Y*Z - X + 1"


def test_parse_rejects_garbage():
    for bad in ("", "x1 +", "x1 ** 2", "1/", "x1^", "@",
                "x1 x2", "2 3", "2x1", "1/0", "x1 -", "x1*", "   ",
                "1" * 5000, "1/" + "1" * 5000, "x1^" + "1" * 5000,
                "alpha^-" + "1" * 5000):
        with pytest.raises(ParseError):
            parse(bad)


def test_roundtrip_1000_random_polynomials():
    rng = random.Random(987654)
    for _ in range(1000):
        poly = _random_poly(rng, max_terms=6)
        assert parse(format_poly(poly)) == poly


def test_parse_examples():
    assert P("-x1") == -P("x1")
    assert P("3/2*x1^2*alpha^-2") == LaurentPoly.term(
        Fraction(3, 2), Monomial(((var_id("x1"), 2), (var_id("alpha"), -2))))
    assert P("0").is_zero()
    assert P(" 3 / 2 * x1 ^ 2 ") == P("3/2*x1^2")
    assert P("--x1") == P("x1")
    assert P("x1 + -x2") == P("x1 - x2")
    assert P("x1*x1") == P("x1^2")
    assert P("2*3*x1") == P("6*x1")
    assert P("x1*2") == P("2*x1")
    assert P("alpha^ -2") == P("alpha^-2")
    assert list(P("x2 + x1").terms) == [Monomial(((var_id("x2"), 1),)),
                                        Monomial(((var_id("x1"), 1),))]


def _golden_polynomials(report):
    """Every polynomial-valued string of a golden case report."""
    for key in ("stokes_matrices", "formal_monodromy", "topological_monodromy"):
        mats = report[key] if key == "stokes_matrices" else [report[key]]
        yield from (e for mat in mats for row in mat for e in row)
    yield from (eq["equation"] for eq in report["closure_system"])
    yield from (expr for _, expr in report["back_substitutions"] or ())
    if report["dropped_entry"]:
        yield report["dropped_entry"]["equation"]
    yield from report["normalized_system"]
    yield from (expr for _, expr in report["eliminated"])
    yield report["residual"]
    yield from (c for name, c in report["cubic"].items() if name != "equation")
    for step in report["change_of_variables"]:
        yield from step.get("substitute", {}).values()
        if "divide_by" in step:
            yield step["divide_by"]


def test_golden_polynomials_round_trip():
    texts = [text for path in sorted((Path(__file__).parent / "golden").glob("JKT*.json"))
             for text in _golden_polynomials(json.loads(path.read_text()))]
    assert len(texts) == 626
    for text in texts:
        assert format_poly(parse(text)) == text


# --------------------------------------------------------------------------
# substitution
# --------------------------------------------------------------------------


def test_substitute_rename():
    assert P("x1").substitute({var_id("x1"): P("-X")}) == P("-X")


def test_substitute_empty_binding_is_identity():
    poly = P("U*V*W - R*T")
    assert poly.substitute({}) == poly


def test_substitute_formal_square_root():
    out = P("V").substitute({var_id("V"): P("r^-1*Y - 1")})
    assert out == P("r^-1*Y - 1")
    # alpha = r^2 turns the square root into an honest unit power
    alpha_sub = P("alpha*V^2").substitute({var_id("alpha"): P("r^2"),
                                           var_id("V"): P("r^-1*Y - 1")})
    assert alpha_sub == P("Y^2 - 2*r*Y + r^2")


def test_substitute_unit_inverse_needs_unit_term():
    poly = P("alpha^-1")
    assert poly.substitute({var_id("alpha"): P("r^2")}) == P("r^-2")
    with pytest.raises(SubstitutionDomainError):
        poly.substitute({var_id("alpha"): P("x1")})
    with pytest.raises(SubstitutionDomainError):
        poly.substitute({var_id("alpha"): P("1 + x1")})


# --------------------------------------------------------------------------
# solve_linear
# --------------------------------------------------------------------------


def test_solve_linear_trace_equation():
    eq = P("alpha + beta*U + beta + gamma*W + gamma*T + gamma + gamma*V - p")
    got = solve_linear(eq, var_id("U"))
    want = P("beta^-1*p - alpha*beta^-1 - 1 - beta^-1*gamma*W "
             "- beta^-1*gamma*T - beta^-1*gamma - beta^-1*gamma*V")
    assert got == want
    assert eq.substitute({var_id("U"): got}).is_zero()


def test_solve_linear_unit_coefficient_one():
    assert solve_linear(P("x3 + x2*x4 - 1"), var_id("x3")) == P("1 - x2*x4")
    # solve_in_order: the later equation is solved after x3 is substituted
    got = solve_in_order({"a": P("alpha*x4 + x1*x3"), "b": P("x3 + x2 - 1")},
                         (("b", "x3"), ("a", "x4")))
    assert list(got) == [var_id("x3"), var_id("x4")]
    assert got[var_id("x3")] == P("1 - x2")
    assert got[var_id("x4")] == P("alpha^-1*x1*x2 - alpha^-1*x1")
    # the first solution holds the second target until x4 is substituted in
    got = solve_in_order({"a": P("x3 + x4 - 1"), "b": P("x4 - x2")},
                         (("a", "x3"), ("b", "x4")))
    assert list(got) == [var_id("x3"), var_id("x4")]
    assert got[var_id("x3")] == P("1 - x2")
    assert got[var_id("x4")] == P("x2")


def test_solve_linear_rejects_non_unit_coefficient():
    with pytest.raises(NotInvertibleError):
        solve_linear(P("x1*x4 - 1"), var_id("x4"))


def test_solve_linear_rejects_wrong_degree():
    with pytest.raises(NotLinearError):
        solve_linear(P("x1^2 + x2"), var_id("x1"))
    with pytest.raises(NotLinearError):
        solve_linear(P("x2 + 1"), var_id("x1"))


def test_solve_linear_names_the_exponents_that_occur():
    """One line naming every exponent of the target, whether the equation
    lacks the linear term, or has a higher or a negative power."""
    cases = [("alpha^-1*x1 + alpha", "alpha", "{-1, 1}"),
             ("alpha^-1 + 1", "alpha", "{-1, 0}"),
             ("x1^2 + x2", "x1", "{0, 2}"), ("x2 + 1", "x1", "{0}"), ("0", "x1", "{}")]
    for text, name, found in cases:
        with pytest.raises(NotLinearError) as info:
            solve_linear(P(text), var_id(name))
        assert str(info.value) == f"exponents of {name} are {found}, need {{1}} or {{0, 1}}"


def test_solve_linear_roundtrip_200_random_equations():
    rng = random.Random(777)
    units = ("alpha", "beta", "gamma", "r")
    for _ in range(200):
        target = var_id(rng.choice(("x1", "x2", "U", "W")))
        coef_mono = {var_id(rng.choice(units)): rng.randint(-2, 2)}
        coef = LaurentPoly.term(Fraction(rng.choice([-3, -1, 1, 2, 5])),
                                Monomial(coef_mono.items()))
        rest = _random_poly(rng)
        if target in rest.variables():
            continue
        eq = coef * LaurentPoly.variable(target.name) + rest
        expr = solve_linear(eq, target)
        assert eq.substitute({target: expr}).is_zero()


# --------------------------------------------------------------------------
# numeric evaluation
# --------------------------------------------------------------------------


def _values(**named):
    return {var_id(nm): complex(val) for nm, val in named.items()}


def test_evaluate_examples():
    ones = _values(U=1, V=1, W=1, R=1, T=1)
    assert P("U*V*W - R*T").evaluate(ones) == 0
    a = _values(x1=1, x2=2, x3=3, x4=5)
    assert P("x1 + x3 + x2*x4").evaluate(a) == 14
    b = _values(alpha=0.3 + 0.4j)
    assert P("alpha*alpha^-1").evaluate(b) == 1


def test_evaluate_unbound_variable():
    with pytest.raises(UnboundVariableError):
        P("x1 + x2").evaluate({var_id("x1"): 1.0})
    # with two missing, the message names the first in term order: the
    # terms are x2*alpha, then x1, so x2 and alpha come before x1, although
    # x1 comes first in the registry
    poly = LaurentPoly.from_terms([(Monomial([(var_id("x2"), 1), (var_id("alpha"), 1)]), 1),
                                   (Monomial([(var_id("x1"), 1)]), 1)])
    with pytest.raises(UnboundVariableError, match="^unbound variable x2$"):
        poly.evaluate({var_id("alpha"): 2.0})
    with pytest.raises(UnboundVariableError, match="^unbound variable alpha$"):
        poly.evaluate({var_id("x2"): 2.0})


_EVAL_VARS = ("x1", "x2", "X", "alpha", "gamma")
_coefs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
_points = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                             allow_nan=False, allow_infinity=False)


@st.composite
def _polys(draw, max_terms=6, max_exp=3):
    poly = LaurentPoly.zero()
    for _ in range(draw(st.integers(0, max_terms))):
        exps = [(var_id(nm), draw(st.integers(-max_exp if var_id(nm).unit else 0, max_exp)))
                for nm in _EVAL_VARS]
        poly = poly + LaurentPoly.term(draw(_coefs), Monomial(exps))
    return poly


@given(_polys(), st.lists(_points, min_size=len(_EVAL_VARS),
                          max_size=len(_EVAL_VARS)))
def test_evaluate_keeps_term_order_bit_for_bit(poly, points):
    """``evaluate`` gives, bit for bit and on each call, what an independent
    walk over the terms in insertion order gives, and names a missing
    variable."""
    values = {var_id(nm): z for nm, z in zip(_EVAL_VARS, points)}
    want = term_walk(poly, values)
    first, second = poly.evaluate(values), poly.evaluate(values)
    assert repr(first) == repr(want) and repr(second) == repr(want)
    for v in poly.variables():
        with pytest.raises(UnboundVariableError):
            poly.evaluate({w: z for w, z in values.items() if w is not v})


def test_evaluate_a_large_polynomial_bit_for_bit():
    """A polynomial of 6 125 terms in shuffled order, with negative and unit
    exponents, gives the independent term walk's value bit for bit, each
    time it is evaluated."""
    rng = random.Random(2025)
    ranges = [range(-3, 4) if var_id(nm).unit else range(5) for nm in _EVAL_VARS]
    monos = [Monomial(zip(map(var_id, _EVAL_VARS), ks)) for ks in itertools.product(*ranges)]
    rng.shuffle(monos)
    poly = LaurentPoly.from_terms(
        (m, Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 7)))
        for m in monos)
    assert len(poly.terms) == 6125
    values = {var_id(nm): complex(rng.uniform(0.5, 1.5), rng.uniform(-0.5, 0.5))
              for nm in _EVAL_VARS}
    want = repr(term_walk(poly, values))
    for _ in range(3):
        assert repr(poly.evaluate(values)) == want


def test_evaluate_keeps_unit_powers():
    """A power 1 stays a power: at an infinite value ``x**1`` overflows where
    ``x`` alone would not, and evaluation fails as the term walk does."""
    poly = P("2*x1")
    values = {var_id("x1"): complex(math.inf, 0)}
    with pytest.raises(OverflowError):
        term_walk(poly, values)
    with pytest.raises(OverflowError):
        poly.evaluate(values)


@given(_polys(), st.lists(st.sampled_from(_EVAL_VARS), unique=True, max_size=3))
def test_split_reassembles_in_term_order(poly, names):
    """The parts reassemble to poly, hold no split variable, and keys and
    terms come in poly's term order."""
    variables = tuple(var_id(nm) for nm in names)
    parts = poly.split(variables)
    whole = LaurentPoly.zero()
    for exps, coef in parts.items():
        assert not coef.is_zero() and not coef.variables() & set(variables)
        whole = whole + coef * LaurentPoly.term(1, Monomial(zip(variables, exps)))
    assert whole == poly

    def key(mono):
        return tuple(mono.exponent(v) for v in variables)

    assert list(parts) == list(dict.fromkeys(key(m) for m in poly.terms))
    for exps, coef in parts.items():
        power = Monomial(zip(variables, exps))
        assert [(m * power, c) for m, c in coef.terms.items()] == [
            (m, c) for m, c in poly.terms.items() if key(m) == exps]


def test_evaluate_is_ring_homomorphism_numerically():
    rng = random.Random(13579)
    names = _SMALL_VARS
    for _ in range(200):
        a, b = _random_poly(rng), _random_poly(rng)
        vals = {}
        for name in names:
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            if var_id(name).unit and abs(z) < 0.2:
                z += 0.5
            vals[var_id(name)] = z
        lhs = (a * b).evaluate(vals)
        rhs = a.evaluate(vals) * b.evaluate(vals)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@given(st.fractions(min_value=-4, max_value=4),
       st.fractions(min_value=-4, max_value=4))
def test_addition_agrees_with_fractions(x, y):
    assert LaurentPoly.constant(x) + LaurentPoly.constant(y) \
        == LaurentPoly.constant(x + y)


# --------------------------------------------------------------------------
# ring invariants: coefficient form, monomial products, substitution order
# --------------------------------------------------------------------------


def _unit_terms():
    """Single nonzero terms in unit variables: invertible values."""
    return st.builds(lambda c, i, j: LaurentPoly.term(c, Monomial(
        ((var_id("alpha"), i), (var_id("gamma"), j)))),
        _coefs.filter(bool), st.integers(-2, 2), st.integers(-2, 2))


def _assert_canonical(poly):
    for c in poly.terms.values():
        assert type(c) is int or (type(c) is Fraction and c.denominator > 1), c


def test_coefficients_are_int_when_whole():
    half = P("1/2*x1")
    assert type((half + half).terms[Monomial(((var_id("x1"), 1),))]) is int
    assert (half * P("2")).terms == {Monomial(((var_id("x1"), 1),)): 1}
    for c in (Fraction(4, 2), 2, True):
        (coef,) = LaurentPoly.constant(c).terms.values()
        assert type(coef) is int
    assert type(LaurentPoly({Monomial(()): Fraction(3)}).single_term()[0]) is int
    assert P("-2*alpha").inverse_term() == P("-1/2*alpha^-1")
    _assert_canonical(P("-1/2*alpha").inverse_term())
    _assert_canonical(P("3*x1 + 3/2*x2"))


@given(_polys(), _polys(), st.integers(0, 3), _unit_terms())
def test_ring_operations_keep_coefficients_canonical(a, b, k, unit):
    """Every coefficient is an int when its denominator is 1, and a Fraction
    with a larger denominator otherwise, whatever produced it."""
    x2 = var_id("x2")
    rest = a.substitute({x2: LaurentPoly.zero()})
    eq = unit * LaurentPoly.variable("x2") + rest
    results = [a + b, a - b, -a, a * b, a ** k, parse(format_poly(a)),
               a.substitute({x2: b, var_id("alpha"): unit}),
               unit.inverse_term(), solve_linear(eq, x2)]
    for poly in results:
        _assert_canonical(poly)
    assert solve_linear(eq, x2) == -rest * unit.inverse_term()


_MONO_VARS = ("x1", "x2", "X", "alpha", "gamma", "e")


@st.composite
def _monomials(draw):
    names = draw(st.lists(st.sampled_from(_MONO_VARS), unique=True))
    return Monomial((var_id(nm), draw(st.integers(-3 if var_id(nm).unit else 0, 3)))
                    for nm in names)


@given(_monomials(), _monomials(), st.booleans())
def test_monomial_product_matches_validating_constructor(a, b, cancel):
    if cancel:    # b's unit exponents then cancel some of a's to zero
        b = Monomial(b.exps + tuple((v, -k) for v, k in a.exps if v.unit))
    got, want = a * b, Monomial(a.exps + b.exps)
    assert got.exps == want.exps and got == want and hash(got) == hash(want)


@given(_monomials())
def test_monomial_inverse_matches_validating_constructor(m):
    if any(not v.unit for v in m.variables()):
        with pytest.raises(NotInvertibleError):
            m.inverse()
        return
    got, want = m.inverse(), Monomial((v, -k) for v, k in m.exps)
    assert got.exps == want.exps and got == want and hash(got) == hash(want)
    assert (m * got).exps == ()


def _substitute_reference(poly, bindings):
    """Term-by-term substitution: each term's image is built left to right
    from its coefficient and added to the running sum."""
    out = LaurentPoly.zero()
    for m, c in poly.terms.items():
        acc = LaurentPoly.constant(c)
        for v, k in m.exps:
            b = bindings.get(v)
            if b is None:
                acc = acc * LaurentPoly.term(1, Monomial(((v, k),)))
            elif k >= 0:
                acc = acc * b ** k
            else:
                acc = acc * b.inverse_term() ** -k
        out = out + acc
    return out


@given(_polys(), st.data())
def test_substitute_matches_term_by_term_reference(poly, data):
    """Same terms, same coefficients, same insertion order; negative unit
    exponents and unbound variables included."""
    bindings = {}
    for nm in data.draw(st.lists(st.sampled_from(_EVAL_VARS), unique=True)):
        v = var_id(nm)
        bindings[v] = data.draw(_unit_terms() if v.unit else _polys(max_terms=2))
    got = poly.substitute(bindings)
    assert list(got.terms.items()) == list(_substitute_reference(poly, bindings).terms.items())


@given(st.lists(st.tuples(_monomials(), _coefs), max_size=8), st.data())
def test_from_terms_adds_in_order(pairs, data):
    """from_terms gives the terms, and the order, of adding each pair to zero
    in turn; repeated monomials (some cancelling) included."""
    if pairs:
        extra = data.draw(st.lists(st.sampled_from(pairs), max_size=4))
        pairs += [(m, -c if data.draw(st.booleans()) else c) for m, c in extra]
    want = LaurentPoly.zero()
    for m, c in pairs:
        want = want + LaurentPoly.term(c, m)
    got = LaurentPoly.from_terms(pairs)
    assert list(got.terms.items()) == list(want.terms.items())
    _assert_canonical(got)


# --------------------------------------------------------------------------
# packed monomials against an exponent-dict reference
# --------------------------------------------------------------------------


_ALL_VARS = tuple(var_id(nm) for nm in _REGISTRY_NAMES)
_EDGES = (-EXP_LIMIT, -EXP_LIMIT + 1, EXP_LIMIT - 2, EXP_LIMIT - 1)


def test_registry_has_31_variables():
    assert len(_ALL_VARS) == 31 and len({v.shift for v in _ALL_VARS}) == 31


@st.composite
def _exponent_dicts(draw):
    """{VarId: nonzero exponent} over the whole registry: small exponents,
    negative ones on units only, and both edges of the field range."""
    out = {}
    for v in draw(st.lists(st.sampled_from(_ALL_VARS), unique=True, max_size=8)):
        k = draw(st.one_of(st.integers(-3, 3), st.sampled_from(_EDGES)))
        k = k if v.unit else abs(k) - (k == -EXP_LIMIT)
        if k:
            out[v] = k
    return out


def _ref_exps(d):
    """A reference exponent dict as Monomial.exps would list it."""
    return tuple(sorted(d.items(), key=lambda it: it[0].index))


def _ref_combine(a, b, sign):
    out = dict(a)
    for v, k in b.items():
        out[v] = out.get(v, 0) + sign * k
    return {v: k for v, k in out.items() if k}


def _in_range(d):
    return all(-EXP_LIMIT <= k < EXP_LIMIT for k in d.values())


@given(_exponent_dicts(), _exponent_dicts(), st.booleans())
@example({var_id("x1"): EXP_LIMIT - 1}, {var_id("x1"): 1}, False)
@example({var_id("alpha"): -EXP_LIMIT}, {var_id("alpha"): -1}, False)
@example({var_id("alpha"): -EXP_LIMIT, var_id("e"): EXP_LIMIT - 1},
         {var_id("alpha"): EXP_LIMIT - 1, var_id("x12"): 3}, True)
def test_packed_product_matches_exponent_dicts(a, b, cancel):
    if cancel:    # b's unit exponents then cancel a's to zero
        b = {**b, **{v: -k for v, k in a.items() if v.unit and k != -EXP_LIMIT}}
    ma, mb = Monomial(a.items()), Monomial(b.items())
    assert ma.exps == _ref_exps(a) and mb.exps == _ref_exps(b)
    want = _ref_combine(a, b, 1)
    if not _in_range(want):
        with pytest.raises(ExponentOverflowError):
            ma * mb
        return
    got = ma * mb
    assert type(got) is Monomial and got.exps == _ref_exps(want)
    assert got == Monomial(want.items()) and hash(got) == hash(Monomial(want.items()))
    assert all(got.exponent(v) == want.get(v, 0) for v in _ALL_VARS)


@given(_exponent_dicts(), _exponent_dicts())
def test_packed_divide_matches_exponent_dicts(a, b):
    ma, mb = Monomial(a.items()), Monomial(b.items())
    want = _ref_combine(a, b, -1)
    if not _in_range(want):
        with pytest.raises(ExponentOverflowError):
            ma.divide(mb)
    elif any(k < 0 and not v.unit for v, k in want.items()):
        assert ma.divide(mb) is None
    else:
        got = ma.divide(mb)
        assert type(got) is Monomial and got.exps == _ref_exps(want)
        assert ma.divide(ma) == Monomial(())


@given(_exponent_dicts())
def test_packed_inverse_matches_exponent_dicts(d):
    m = Monomial(d.items())
    if any(not v.unit for v in d):
        with pytest.raises(NotInvertibleError):
            m.inverse()
    elif -EXP_LIMIT in d.values():
        with pytest.raises(ExponentOverflowError):
            m.inverse()
    else:
        assert m.inverse().exps == _ref_exps({v: -k for v, k in d.items()})


@given(st.lists(st.tuples(_exponent_dicts(), _coefs.filter(bool)), max_size=8),
       st.lists(st.sampled_from(_ALL_VARS), unique=True, max_size=4))
def test_packed_split_order_and_variables_match_exponent_dicts(pairs, variables):
    poly = LaurentPoly.from_terms((Monomial(d.items()), c) for d, c in pairs)
    ref = {Monomial(d.items()): d for d, _ in pairs}
    want: dict = {}
    for m, c in poly.terms.items():
        d = ref[m]
        key = tuple(d.get(v, 0) for v in variables)
        rest = {v: k for v, k in d.items() if v not in variables}
        want.setdefault(key, []).append((_ref_exps(rest), c))
    got = poly.split(variables)
    assert list(got) == list(want)
    assert {key: [(m.exps, c) for m, c in part.terms.items()]
            for key, part in got.items()} == want

    assert poly.variables() == {v for m in poly.terms for v in ref[m]}
    assert all(m.variables() == tuple(v for v, _ in _ref_exps(ref[m])) for m in poly.terms)

    def vector(m):
        return tuple(ref[m].get(v, 0) for v in _ALL_VARS)

    assert [m for m, _ in poly.sorted_terms()] == sorted(poly.terms, key=vector, reverse=True)


def _monomial_text_reference(m):
    """``str(m)`` as it was, read from ``exps``."""
    if not m:
        return "1"
    return "*".join(v.name if k == 1 else f"{v.name}^{k}" for v, k in m.exps)


def _format_reference(poly):
    """``format_poly`` as it was, rendering each monomial with
    ``_monomial_text_reference``."""
    items = poly.sorted_terms()
    if not items:
        return "0"
    pieces = []
    for i, (m, c) in enumerate(items):
        neg = c < 0
        mag = -c if neg else c
        if m and mag == 1:
            body = _monomial_text_reference(m)
        elif m:
            body = f"{mag}*{_monomial_text_reference(m)}"
        else:
            body = str(mag)
        if i == 0:
            pieces.append(("-" if neg else "") + body)
        else:
            pieces.append((" - " if neg else " + ") + body)
    return "".join(pieces)


@given(st.lists(st.tuples(_exponent_dicts(),
                          st.one_of(st.sampled_from((1, -1)), _coefs.filter(bool),
                                    st.integers(-10 ** 30, 10 ** 30).filter(bool))),
                max_size=8))
def test_format_matches_the_str_based_rendering(pairs):
    """The one-pass rendering prints what the monomial-by-monomial ``str(m)``
    rendering printed: unit and edge exponents over the whole registry, unit,
    fractional and long coefficients, the constant term and zero."""
    poly = LaurentPoly.from_terms((Monomial(d.items()), c) for d, c in pairs)
    assert format_poly(poly) == _format_reference(poly)
    assert all(str(m) == _monomial_text_reference(m) for m in poly.terms)


def test_exponent_overflow_raises_and_never_wraps():
    x1, alpha = var_id("x1"), var_id("alpha")
    top = Monomial(((x1, EXP_LIMIT - 1),))
    bottom = Monomial(((alpha, -EXP_LIMIT),))
    assert top.exps == ((x1, EXP_LIMIT - 1),) and bottom.exps == ((alpha, -EXP_LIMIT),)
    for bad in (((x1, EXP_LIMIT),), ((alpha, -EXP_LIMIT - 1),), ((x1, 10 ** 6),)):
        with pytest.raises(ExponentOverflowError):
            Monomial(bad)
    with pytest.raises(ExponentOverflowError, match=r"exponent 8192 of x1 is outside \[-8192, 8191\]"):
        top * Monomial(((x1, 1),))
    with pytest.raises(ExponentOverflowError):
        bottom * Monomial(((alpha, -1),))
    with pytest.raises(ExponentOverflowError):
        bottom.inverse()
    with pytest.raises(ExponentOverflowError):
        Monomial(((alpha, EXP_LIMIT - 1),)).divide(Monomial(((alpha, -1),)))
    with pytest.raises(ExponentOverflowError):
        parse(f"x1^{EXP_LIMIT}")
    x1_top = LaurentPoly.term(1, top)
    for poly_op in (lambda: x1_top * P("x1"),                  # single-term path
                    lambda: (x1_top + P("x2")) * P("x1 + x3"),  # general path
                    lambda: P(f"x1^{EXP_LIMIT // 2}") ** 2,
                    lambda: P("x1*x2").substitute({var_id("x2"): x1_top})):
        with pytest.raises(ExponentOverflowError):
            poly_op()


# --------------------------------------------------------------------------
# fast paths of * and + against the general path
# --------------------------------------------------------------------------


def _general_product(a, b):
    return LaurentPoly.from_terms((m1 * m2, c1 * c2) for m1, c1 in a.terms.items()
                                  for m2, c2 in b.terms.items())


def _general_sum(a, b):
    return LaurentPoly.from_terms(list(a.terms.items()) + list(b.terms.items()))


def _same(got, want):
    """Same terms, in the same insertion order, with the same coefficient types."""
    assert [(m, c, type(c)) for m, c in got.terms.items()] == \
        [(m, c, type(c)) for m, c in want.terms.items()]


@given(_polys(), st.data())
def test_fast_paths_match_the_general_path(p, data):
    one, zero = LaurentPoly.constant(1), LaurentPoly.zero()
    term = data.draw(_polys(max_terms=1).filter(lambda t: len(t.terms) == 1)
                     | _unit_terms())
    for got in (p * 1, 1 * p, p * one, one * p):
        _same(got, _general_product(p, one))
    for got in (p + 0, 0 + p, p + zero, zero + p):
        _same(got, _general_sum(p, zero))
    _same(term * p, _general_product(term, p))
    _same(p * term, _general_product(p, term))


def _general_substitute(p, bindings):
    """Term by term: each term's image is the general product of its bound
    powers in registry order, from 1, each power formed by ``**``; its terms,
    shifted by the term's unbound part and scaled by its coefficient, are
    added in order by ``from_terms``."""
    pairs = []
    for m, c in p.terms.items():
        image, rest = LaurentPoly.constant(1), Monomial()
        for v, k in m.exps:
            b = bindings.get(v)
            if b is None:
                rest = rest * Monomial(((v, k),))
            else:
                image = _general_product(image, b ** k if k > 0 else b.inverse_term() ** -k)
        pairs += [(mi * rest, ci * c) for mi, ci in image.terms.items()]
    return LaurentPoly.from_terms(pairs)


@given(st.sampled_from([1, 3]).flatmap(lambda e: _polys(max_exp=e)), st.data())
def test_substitute_fast_paths_match_the_general_path(p, data):
    """substitute's shortcuts (a power 1 is the binding itself, an image
    starts from its first power, a single-term image is added as one term)
    give the general path's terms, order and coefficient types; exponents of
    1 are common, unit variables may have negative exponents, and images may
    be single terms."""
    bindings = {}
    for nm in data.draw(st.lists(st.sampled_from(_EVAL_VARS), unique=True)):
        v = var_id(nm)
        bindings[v] = data.draw(_unit_terms() if v.unit
                                else _polys(max_terms=1) | _polys(max_terms=3))
    _same(p.substitute(bindings), _general_substitute(p, bindings))


@given(_polys(), _polys(), _coefs)
def test_subtraction_matches_adding_the_negation(p, q, c):
    """p - q, formed in one pass, gives p + (-q)'s terms, order and
    coefficient types, with a scalar or zero on either side."""
    zero = LaurentPoly.zero()
    _same(p - q, p + (-q))
    _same(p - c, p + (-LaurentPoly.constant(c)))
    _same(c - p, LaurentPoly.constant(c) + (-p))
    _same(zero - p, -p)
    assert p - zero is p


@given(_polys(), st.data())
def test_substitute_binding_nothing_returns_the_polynomial(p, data):
    """A substitution that binds none of p's variables returns p itself,
    whose terms are the general path's."""
    free = [v for v in _ALL_VARS if v not in p.variables()]
    bindings = {v: data.draw(_unit_terms() if v.unit else _polys(max_terms=3))
                for v in data.draw(st.lists(st.sampled_from(free), unique=True,
                                            min_size=1, max_size=4))}
    assert p.substitute(bindings) is p
    _same(p, _general_substitute(p, bindings))


def test_variable_matches_the_validating_constructor():
    """variable(name) for each registry name has the one term that the
    validating Monomial constructor builds, keyed by a Monomial."""
    for name in _REGISTRY_NAMES:
        v = var_id(name)
        for k in (1, 2) + ((-1,) if v.unit else ()):
            got = LaurentPoly.variable(name, k)
            _same(got, LaurentPoly.term(1, Monomial(((v, k),))))
            assert [type(m) for m in got.terms] == [Monomial]
    with pytest.raises(UnknownVariableError):
        LaurentPoly.variable("delta")


@given(_exponent_dicts(), _exponent_dicts(), st.booleans())
@example({var_id("x1"): EXP_LIMIT - 1}, {var_id("x1"): 1}, False)
@example({var_id("alpha"): -EXP_LIMIT}, {var_id("alpha"): -1}, False)
@example({var_id("alpha"): -EXP_LIMIT + 1, var_id("e"): EXP_LIMIT - 2},
         {var_id("alpha"): -1, var_id("e"): 1}, False)
def test_term_products_raise_at_both_field_edges(a, b, cancel):
    """The single-term map and the general product's accumulation give the
    packed product of two monomials while every exponent stays in range, and
    raise ExponentOverflowError, never a wrapped monomial, when one leaves it."""
    if cancel:    # b's unit exponents then cancel a's to zero
        b = {**b, **{v: -k for v, k in a.items() if v.unit and k != -EXP_LIMIT}}
    ma, mb = Monomial(a.items()), Monomial(b.items())
    ta, tb = LaurentPoly.term(2, ma), LaurentPoly.term(Fraction(1, 2), mb)
    products = (lambda: ta * tb, lambda: ta * (tb + 1), lambda: (tb + 1) * ta,
                lambda: (ta + 1) * (tb + 1))
    want = _ref_combine(a, b, 1)
    for product in products:
        if not _in_range(want):
            with pytest.raises(ExponentOverflowError):
                product()
            continue
        got = product()
        assert Monomial(want.items()) in got.terms
        assert all(type(m) is Monomial for m in got.terms)


def test_fast_paths_keep_coefficients_canonical():
    half = P("1/2*x1 + 1/2*x2")
    _same(half * P("2*alpha"), P("x1*alpha + x2*alpha"))
    _same(P("2") * half, P("x1 + x2"))
    _same(P("1/2*x1 + 1/2") * P("2*x1 + 2"), P("x1^2 + 2*x1 + 1"))


def test_a_monomial_is_not_a_scalar():
    m = Monomial(((var_id("x1"), 1),))
    p = P("x1 + 1")
    for bad in (lambda: LaurentPoly.constant(m), lambda: LaurentPoly.term(m, m),
                lambda: p * m, lambda: m * p, lambda: p + m, lambda: p - m,
                lambda: m * 2, lambda: 2 * m):
        with pytest.raises(TypeError):
            bad()
    assert (p == m) is False and (P("1") == Monomial(())) is False


def test_constants_hash_as_their_scalars():
    """A constant equals its scalar, and so hashes as it: a set or dict
    finds either by the other; zero hashes as 0."""
    for c in (3, -1, 0, Fraction(1, 2), Fraction(-7, 3), Fraction(4, 2)):
        poly = LaurentPoly.constant(c)
        assert poly == c and hash(poly) == hash(c)
        assert c in {poly} and poly in {c}
        assert {poly: "found"}[c] == "found" and {c: "found"}[poly] == "found"
    assert hash(LaurentPoly.zero()) == hash(0) == 0 and 0 in {LaurentPoly.zero()}
    assert P("x1") in {P("x1")} and P("x1 + 1") not in {P("x1"), 1}


# --------------------------------------------------------------------------
# the inlined accumulation loops against from_terms over their term streams
# --------------------------------------------------------------------------


def _same_or_overflow(got, want):
    """got() gives want()'s terms, order and coefficient types, all keyed
    by Monomials, or both raise ExponentOverflowError."""
    try:
        expected = want()
    except ExponentOverflowError:
        with pytest.raises(ExponentOverflowError):
            got()
        return
    result = got()
    _same(result, expected)
    assert all(type(m) is Monomial for m in result.terms)


_L = EXP_LIMIT


@given(_polys().filter(lambda p: len(p.terms) > 1), _polys().filter(lambda p: len(p.terms) > 1))
# x1*x2 cancels at the fifth product and comes back at the last, so it goes last
@example(P("x1 + x2 + alpha"), P("x2 - x1 + x1*x2*alpha^-1"))
# a Fraction sum that becomes an int, and a new Fraction product that is one
@example(P("1/2*x1 + 1/2*x2"), P("x2 + x1"))
@example(P("2/3*x1 + x2"), P("3/2*x1 + x2"))
# both field edges: the products reach x1^(L-1), then x1^L and alpha^(-L-1)
@example(P(f"x1^{_L - 2} + x2"), P("x1 + X"))
@example(P(f"x1^{_L - 1} + x2"), P("x1 + X"))
@example(P(f"alpha^-{_L} + x2"), P("alpha^-1 + X"))
def test_general_product_adds_as_from_terms(a, b):
    """The general product (both factors of two or more terms) gives the
    terms, order and coefficient types of from_terms over every term
    product, a's terms outermost, or raises ExponentOverflowError as it
    does."""
    _same_or_overflow(lambda: a * b, lambda: _general_product(a, b))


@st.composite
def _bindings(draw):
    out = {}
    for nm in draw(st.lists(st.sampled_from(_EVAL_VARS), unique=True, min_size=1)):
        v = var_id(nm)
        out[v] = draw(_unit_terms() if v.unit else _polys(max_terms=1) | _polys(max_terms=3))
    return out


@given(_polys(), _bindings())
# x2 from the first term's image cancels at the second and comes back at the third
@example(P("x1 - x2 + x2*alpha"), {var_id("x1"): P("x2 + X"), var_id("alpha"): P("1")})
# a Fraction sum that becomes an int, and a new Fraction image term that is one
@example(P("1/2*x1 + 1/2*x2"), {var_id("x1"): P("x1 + X"), var_id("x2"): P("x1 + x2")})
@example(P("2/3*x1*x2"), {var_id("x1"): P("3/2*X + 1/3*x2")})
# both field edges: the images reach X^(L-1), then X^L and alpha^(-L-1)
@example(P(f"x1*X^{_L - 2}"), {var_id("x1"): P("X + 1")})
@example(P(f"x1*X^{_L - 1}"), {var_id("x1"): P("X + 1")})
@example(P(f"x1*alpha^-{_L}"), {var_id("x1"): P("alpha^-1 + x2")})
def test_substitute_adds_images_as_from_terms(p, bindings):
    """substitute gives the terms, order and coefficient types of from_terms
    over every term of every term's image (``_general_substitute``), or
    raises ExponentOverflowError as it does."""
    _same_or_overflow(lambda: p.substitute(bindings), lambda: _general_substitute(p, bindings))


@given(_polys(), _polys())
# x1 cancels, so it is deleted, not kept with a zero coefficient
@example(P("x1 + x2"), P("x1 - X"))
# a Fraction difference that becomes an int
@example(P("1/2*x1 + x2"), P("-1/2*x1 + X"))
# terms at both field edges pass through as they are
@example(P(f"x1^{_L - 1} + alpha^-{_L}"), P(f"alpha^-{_L} - x1^{_L - 1} + 1"))
def test_subtraction_adds_as_from_terms(p, q):
    """p - q gives the terms, order and coefficient types of from_terms over
    p's terms and then q's negated."""
    _same_or_overflow(lambda: p - q, lambda: _general_sum(p, -q))


def test_constructor_rejects_a_key_that_is_not_a_monomial():
    """A plain int key is refused in one line, as a coefficient that is not
    a scalar is, and never stored."""
    for terms in ({5: 1}, {Monomial(): 1, 5: 2}, {"x1": 1}):
        with pytest.raises(TypeError, match=r"^not a monomial: \S+$"):
            LaurentPoly(terms)
    with pytest.raises(TypeError, match="^not a monomial: 5$"):
        LaurentPoly.term(1, 5)
    _same(LaurentPoly({Monomial(((var_id("x1"), 2),)): 3}), P("3*x1^2"))
